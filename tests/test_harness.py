import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eqszego import cli
from eqszego.harness import (
    CSV_HEADER,
    EXPERIMENTS,
    ExperimentReport,
    Check,
    config_from_mapping,
    make_config,
    make_row,
    parse_complex_vector,
    parse_config_text,
    parse_weight_rows,
    read_report_csv,
    run_experiment,
    write_report_csv,
)
from eqszego.logcomplex import LogComplex, log_diff_mod

SQ9 = math.sqrt(0.9)
SQ1 = math.sqrt(0.1)


# -- config parsing -----------------------------------------------------------


def test_parse_config_text_basics():
    text = """
    # comment line
    experiment = diagonal

    k_schedule = 26 50 100
    point = 0.7071+0j 0.7071-0j
    """
    raw = parse_config_text(text)
    assert raw == {
        "experiment": "diagonal",
        "k_schedule": "26 50 100",
        "point": "0.7071+0j 0.7071-0j",
    }


def test_parse_config_text_rejects_bare_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("a = 1\nnonsense\n")


def test_config_from_mapping_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"experiment": "phase", "bogus": "1"})


def test_config_from_mapping_needs_experiment():
    with pytest.raises(ValueError, match="experiment"):
        config_from_mapping({"seed": "1"})


def test_config_from_mapping_full_round():
    raw = {
        "experiment": "diagonal",
        "weights": "-1 1",
        "point": "0.7071067811865476+0j 0.7071067811865476+0j",
        "irrep": "0",
        "k_schedule": "26 50 100 200",
        "tol_final_ratio": "0.02",
    }
    cfg = config_from_mapping(raw)
    assert cfg.experiment == "diagonal"
    assert cfg.model == "projective"
    assert cfg.k_schedule == (26, 50, 100, 200)
    assert cfg.irrep.weights == (0,)
    assert cfg.tolerances["final_ratio"] == 0.02


def test_parse_complex_vector():
    assert parse_complex_vector("1+2j 0.5") == (1 + 2j, 0.5 + 0j)
    with pytest.raises(ValueError):
        parse_complex_vector("   ")


def test_parse_weight_rows():
    assert parse_weight_rows("-1 1; 0 1") == ((-1, 1), (0, 1))
    with pytest.raises(ValueError):
        parse_weight_rows("1 2;;")


# -- config construction ------------------------------------------------------


def test_make_config_rejects_bad_schedule():
    with pytest.raises(ValueError, match="increasing"):
        make_config("diagonal", k_schedule=(10, 10, 20))
    with pytest.raises(ValueError, match="positive"):
        make_config("diagonal", k_schedule=(0, 4))


def test_make_config_rejects_wrong_irrep_length():
    with pytest.raises(ValueError):
        make_config("diagonal", irrep=(0, 1))


def test_make_config_rejects_foreign_tolerance():
    # a typo, and a key that belongs to another experiment
    with pytest.raises(ValueError, match="final_ration"):
        make_config("diagonal", tolerances={"final_ration": 0.02})
    with pytest.raises(ValueError, match="oracle_k_max"):
        make_config("translated", tolerances={"oracle_k_max": 64.0})
    cfg = make_config("offdiagonal", tolerances={"oracle_k_max": 64.0})
    assert cfg.tolerances["oracle_k_max"] == 64.0


def test_make_config_rejects_non_positive_trials(tmp_path, capsys):
    # a zero or negative count used to run one configuration and pass
    for trials in (0, -5):
        for experiment in ("crosscheck", "gaussian"):
            with pytest.raises(ValueError, match="trials must be positive"):
                make_config(experiment, trials=trials)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 0\n")
    assert cli.main(["crosscheck", "--config", str(cfg)]) == 2
    assert "error: trials must be positive" in capsys.readouterr().err


def test_make_config_rejects_non_unit_h0():
    with pytest.raises(ValueError, match="unit"):
        make_config("translated", h0=0.5 + 0.0j)
    assert make_config("translated", h0=1j).h0 == 1j


def test_make_config_zero_level_matches_effective_volume():
    """A point the config accepts must pass effective_volume's zero-level check."""
    off = (math.sqrt(0.5 + 2e-9), math.sqrt(0.5 - 2e-9))
    with pytest.raises(ValueError, match="zero-level"):
        make_config("diagonal", point=off)


def test_make_config_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="experiment"):
        make_config("bogus")


def test_make_config_zero_level_preconditions():
    # scaling experiments need a centered point, decay needs the opposite
    with pytest.raises(ValueError, match="zero-level"):
        make_config("diagonal", point=(SQ9, SQ1))
    with pytest.raises(ValueError, match="use the diagonal experiment"):
        make_config("decay", point=(1 / math.sqrt(2), 1 / math.sqrt(2)))


def test_make_config_parity_adjusted_schedule():
    cfg = make_config("diagonal", irrep=(1,))
    ks = cfg.k_schedule
    assert all(k % 2 == 1 for k in ks)
    assert all(a < b for a, b in zip(ks, ks[1:]))
    even = make_config("diagonal", irrep=(0,)).k_schedule
    assert all(k % 2 == 0 for k in even)


def test_make_config_selection_schedule_not_adjusted():
    cfg = make_config("selection")
    assert cfg.k_schedule == tuple(range(1, 201))


def test_make_config_defaults_per_experiment():
    assert make_config("offdiagonal").model == "affine"
    assert make_config("offdiagonal", model="projective").model == "projective"
    assert make_config("gaussian").model == "affine"
    assert make_config("diagonal").model == "projective"
    assert make_config("decay").point == pytest.approx((SQ9, SQ1))


_DOUBLING_25 = (25, 50, 100, 200, 400, 800, 1600, 3200, 6400)
_DOUBLING_16 = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
_DIAGONAL_TOLS = {"final_ratio": 0.01, "slope_max": -0.9}
_SCALING_TOLS = {"final_ratio": 0.05, "slope_max": -0.4}

# (experiment, model passed) -> (model, k_schedule, tolerances, trials); on
# the projective line, irrep 0 shifts odd default levels up by one, except
# for selection
_LITERAL_DEFAULTS = {
    ("diagonal", None): ("projective", (26,) + _DOUBLING_25[1:], _DIAGONAL_TOLS, 120),
    ("diagonal", "affine"): ("affine", _DOUBLING_25, _DIAGONAL_TOLS, 120),
    ("offdiagonal", None): (
        "affine",
        _DOUBLING_16,
        {"final_ratio": 0.05, "slope_max": -0.4, "oracle_rel": 1e-10, "oracle_k_max": 128.0},
        120,
    ),
    ("translated", None): ("projective", _DOUBLING_16, _SCALING_TOLS, 120),
    ("translated", "affine"): ("affine", _DOUBLING_16, _SCALING_TOLS, 120),
    ("decay", None): ("projective", (250, 500, 1000, 2000), {"rate_rel": 0.1}, 120),
    ("decay", "affine"): ("affine", (250, 500, 1000, 2000), {"rate_rel": 0.1}, 120),
    ("selection", None): ("projective", tuple(range(1, 201)), {"quad_rel": 1e-12}, 120),
    ("crosscheck", None): ("projective", (2,), {"rel": 1e-10}, 60),
    ("gaussian", None): ("affine", (1,), {"rel": 1e-8}, 120),
    ("phase", None): ("projective", (2,), {"stationary": 1e-14, "grid_min_imag": -1e-15}, 120),
}


@pytest.mark.parametrize("experiment, model", list(_LITERAL_DEFAULTS))
def test_make_config_literal_defaults(experiment, model):
    expected_model, ks, tols, trials = _LITERAL_DEFAULTS[(experiment, model)]
    cfg = make_config(experiment, model=model)
    assert (cfg.model, cfg.k_schedule, cfg.tolerances, cfg.trials, cfg.seed) == (
        expected_model, ks, tols, trials, 20260816
    )
    # a config owns its tolerances: changing them leaves the defaults alone
    cfg.tolerances.clear()
    assert make_config(experiment, model=model).tolerances == tols


def test_literal_defaults_cover_every_experiment():
    assert {e for e, _ in _LITERAL_DEFAULTS} == set(EXPERIMENTS)


# -- rows and CSV -------------------------------------------------------------


def test_make_row_ratio_invariant():
    exact = LogComplex(2.345, -0.6)
    predicted = LogComplex(2.3, -0.55)
    row = make_row(17, exact, predicted)
    recon = LogComplex.from_complex(row.ratio) * predicted
    rel = math.exp(log_diff_mod(recon, exact) - exact.log_mod)
    assert rel < 1e-12
    assert row.abs_ratio_error == abs(abs(row.ratio) - 1.0)


def test_make_row_rejects_zero_prediction():
    with pytest.raises(ValueError, match="zero"):
        make_row(3, LogComplex(0.0, 0.0), LogComplex.zero())


def test_csv_round_trip_bit_for_bit(tmp_path):
    rows = [
        make_row(26, LogComplex(1.2345678901234567, -2.1), LogComplex(1.23, -2.0)),
        make_row(50, LogComplex.zero(), LogComplex(0.5, 0.125)),
        make_row(100, LogComplex(-700.25, 3.141592653589793), LogComplex(-700.0, -3.0)),
    ]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_report_csv(p1, rows, seed=42)
    got, seed = read_report_csv(p1)
    assert seed == 42
    write_report_csv(p2, got, seed=seed)
    assert p1.read_bytes() == p2.read_bytes()
    # -inf survived
    assert got[1].exact.is_zero


def test_csv_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("k,who,knows\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_report_csv(p)


def test_csv_rejects_short_row(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError, match="malformed"):
        read_report_csv(p)


def test_report_pass_fail():
    rep = ExperimentReport(
        experiment="phase",
        rows=[],
        fits={},
        checks=[Check("a", True, "ok"), Check("b", False, "bad")],
    )
    assert not rep.passed
    joined = "\n".join(rep.summary_lines())
    assert "[FAIL] b" in joined
    assert joined.endswith("result: FAIL")


# -- runners ------------------------------------------------------------------


# checks whose comparison is strict: passed needs a margin > 0, not >= 0
_STRICT = {"final_ratio", "positive_rate", "quadrature_small", "closed_form_g1", "closed_form_g2"}

_SHORT_RUNS = {
    "diagonal": dict(k_schedule=(26, 50, 100, 200)),
    "offdiagonal": dict(k_schedule=(16, 32, 64, 128)),
    "translated": dict(k_schedule=(16, 32, 64, 128)),
    "decay": dict(k_schedule=(250, 500, 1000)),
    "selection": dict(k_schedule=tuple(range(1, 21))),
    "crosscheck": dict(trials=6),
    "gaussian": dict(trials=12),
    "phase": {},
    "too_few_levels": dict(k_schedule=(26, 50)),
}


@pytest.mark.parametrize("name", list(_SHORT_RUNS))
def test_every_check_records_value_bound_and_margin(name):
    # none of these runs takes a trivial pass ("ratio exact to roundoff", "no levels at or below")
    experiment = "diagonal" if name == "too_few_levels" else name
    rep = run_experiment(make_config(experiment, **_SHORT_RUNS[name]))
    assert rep.checks
    for c in rep.checks:
        assert None not in (c.value, c.bound, c.margin), c
        assert c.passed == (c.margin > 0 if c.label in _STRICT else c.margin >= 0), c
    if name == "too_few_levels":
        (levels,) = rep.checks
        assert (levels.passed, levels.value, levels.bound, levels.margin) == (False, 2, 4, -2)
        assert levels.detail == "only 2 usable levels in the schedule"


def test_tightened_tolerance_fails_with_negative_margin():
    rep = run_experiment(
        make_config("diagonal", k_schedule=(26, 50, 100, 200), tolerances={"final_ratio": 1e-9})
    )
    (final,) = [c for c in rep.checks if c.label == "final_ratio"]
    assert final.passed is False
    assert final.bound == 1e-9 and final.margin < 0
    assert final.margin == final.bound - final.value
    assert "(tolerance 1e-09)" in final.detail
    assert not rep.passed


def test_non_strict_check_passes_at_its_bound():
    # the phase grid reads exactly 0 for all three quantities; <= and >= admit equality
    rep = run_experiment(make_config("phase", tolerances={"stationary": 0.0, "grid_min_imag": 0.0}))
    assert [(c.value, c.bound, c.margin) for c in rep.checks] == [(0.0, 0.0, 0.0)] * 3
    assert rep.passed


def test_run_experiment_dispatch():
    rep = run_experiment(make_config("phase"))
    assert rep.experiment == "phase"
    assert rep.passed
    assert EXPERIMENTS == (
        "diagonal",
        "offdiagonal",
        "translated",
        "decay",
        "selection",
        "crosscheck",
        "gaussian",
        "phase",
    )


def test_run_diagonal_short_schedule():
    cfg = make_config("diagonal", k_schedule=(26, 50, 100, 200))
    rep = run_experiment(cfg)
    assert rep.passed
    assert [r.k for r in rep.rows] == [26, 50, 100, 200]
    assert rep.rows[-1].abs_ratio_error < 0.01


def test_run_offdiagonal_rank_two_affine_sweep():
    # each level's index set is one ray (j0 = j1 = j2), so the whole sweep
    # to k = 2048 takes well under a second
    ks = tuple(16 * 2**j for j in range(8))
    cfg = make_config(
        "offdiagonal", model="affine", weights=((1, -1, 0), (0, 1, -1)), irrep=(0, 0), k_schedule=ks
    )
    rep = run_experiment(cfg)
    assert [r.k for r in rep.rows] == list(ks)
    assert rep.checks and all(c.passed for c in rep.checks), rep.summary_lines()


def test_run_translated_guards():
    ks = (16, 32, 64, 128)
    with pytest.raises(ValueError, match="unit"):
        run_experiment(make_config("translated", k_schedule=ks, h0=0.5 + 0.0j))
    with pytest.raises(ValueError, match="stabilize"):
        run_experiment(make_config("translated", k_schedule=ks, g0=(0.5,)))


_P2 = {"model": "projective", "weights": ((-1, 1, 0), (0, -1, 1)), "irrep": (0, 0)}
_P2_CHART = "projective charts are implemented for the projective line only"


@pytest.mark.parametrize(
    "experiment, kwargs, message",
    [
        ("translated", {"g0": (0.3,)}, "g0 must stabilize the center point"),
        ("offdiagonal", _P2, _P2_CHART),
        (
            "offdiagonal",
            {"model": "affine", "w": (0.1,), "v": (0.2,)},
            "displacements must have 2 chart coordinates",
        ),
        ("diagonal", {"k_schedule": (1, 3)}, "empty parity-matched schedule"),
        # the chart is built before g0 is checked, so the chart error wins
        ("translated", {**_P2, "g0": (0.3, 0.2)}, _P2_CHART),
    ],
)
def test_scaling_sweep_error_paths(experiment, kwargs, message):
    cfg = make_config(experiment, **kwargs)
    with pytest.raises(ValueError) as info:
        run_experiment(cfg)
    assert str(info.value) == message


def test_run_selection_needs_projective_line():
    cfg = make_config(
        "selection",
        model="projective",
        weights=((-1, 1), (0, 1)),
        point=(0.6, 0.8),
        irrep=(0, 0),
        k_schedule=(1, 2, 3),
    )
    with pytest.raises(ValueError, match="projective line"):
        run_experiment(cfg)


# -- command line -------------------------------------------------------------


def test_cli_phase_exit_zero(capsys):
    assert cli.main(["phase"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


@pytest.mark.parametrize(
    "argv, n_rows",
    [
        (["diagonal", "--k", "26 50 100 200"], 4),
        # affine runs: their CSVs must read back too
        (["offdiag"], 9),
        (["crosscheck"], 60),
    ],
    ids=["diagonal", "offdiag", "crosscheck"],
)
def test_cli_writes_csv(argv, n_rows, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows, seed = read_report_csv(out)
    assert len(rows) == n_rows
    again = tmp_path / "again.csv"
    write_report_csv(again, rows, seed=seed)
    assert again.read_bytes() == out.read_bytes()
    assert "result: PASS" in capsys.readouterr().out


def test_cli_subcommands_map_onto_experiments(capsys):
    parser = cli._build_parser()
    experiments = [parser.parse_args([name]).experiment for name in cli._SUBCOMMANDS]
    assert sorted(experiments) == sorted(EXPERIMENTS)
    for flag in ("--g0", "--h0"):
        assert getattr(parser.parse_args(["translated", flag, "1"]), flag[2:]) == "1"
        with pytest.raises(SystemExit) as exc:
            cli.main(["offdiag", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = diagonal\nk_schedule = 26 50 100 200\n")
    assert cli.main(["diagonal", "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_cli_flags_override_config_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = translated\nk_schedule = 10 20\nseed = 3\n")
    seen = []

    def fake_run(config):
        seen.append(config)
        return ExperimentReport("translated", [], {}, [])

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    argv = [
        "translated", "--config", str(cfg), "--k", "26 50 100 200", "--irrep", "2",
        "--weights", "-1 1", "--point", "0.6+0.8j 1j", "--seed", "7",
        "--out", str(tmp_path / "run.csv"), "--g0", "3.141592653589793", "--h0", "1j",
    ]
    assert cli.main(argv) == 0
    (config,) = seen
    assert config.k_schedule == (26, 50, 100, 200)
    assert config.irrep.weights == (2,)
    assert config.weights.matrix.tolist() == [[-1, 1]]
    assert config.point == (0.6 + 0.8j, 1j)
    assert config.seed == 7
    assert config.output_path == str(tmp_path / "run.csv")
    assert config.g0 == (math.pi,)
    assert config.h0 == 1j
    with pytest.raises(SystemExit):
        cli.main(["diagonal", "--seed", "x"])
    capsys.readouterr()


def test_cli_bad_config_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = diagonal\nbogus = 1\n")
    assert cli.main(["diagonal", "--config", str(cfg)]) == 2
    assert "error: unknown config key 'bogus'" in capsys.readouterr().err


def test_cli_bad_value_exit_two(capsys):
    assert cli.main(["diagonal", "--k", "50 26"]) == 2
    assert "error:" in capsys.readouterr().err


# -- packaging ----------------------------------------------------------------


MODULES = ("asymptotics", "charts", "cli", "geometry", "harness", "kernels", "logcomplex", "torus")


def _run_python(code: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_needs_no_scipy():
    """The library runs on numpy alone; scipy is a test-only dependency.

    eqszego.cli imports every other module, so this loads the whole library.
    """
    code = (
        "import sys, eqszego.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('eqszego.'))); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    loaded, scipy_modules = _run_python(code).splitlines()
    assert loaded == repr(sorted(f"eqszego.{m}" for m in MODULES))
    assert scipy_modules == "[]"


def test_package_root_holds_only_the_version():
    """Names are imported from their modules; the root binds __version__ alone."""
    code = "import eqszego; print([n for n in vars(eqszego) if not n.startswith('_')]); print(eqszego.__version__)"
    public, version = _run_python(code).splitlines()
    assert public == "[]"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert version == re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)
