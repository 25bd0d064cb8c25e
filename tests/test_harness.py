import math

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


def test_make_config_rejects_non_unit_h0():
    with pytest.raises(ValueError, match="unit"):
        make_config("translated", h0=0.5 + 0.0j)
    assert make_config("translated", h0=1j).h0 == 1j


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


def test_run_translated_guards():
    ks = (16, 32, 64, 128)
    with pytest.raises(ValueError, match="unit"):
        run_experiment(make_config("translated", k_schedule=ks, h0=0.5 + 0.0j))
    with pytest.raises(ValueError, match="stabilize"):
        run_experiment(make_config("translated", k_schedule=ks, g0=(0.5,)))


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


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = diagonal\nk_schedule = 26 50 100 200\n")
    assert cli.main(["diagonal", "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_cli_bad_config_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = diagonal\nbogus = 1\n")
    assert cli.main(["diagonal", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_value_exit_two(capsys):
    assert cli.main(["diagonal", "--k", "50 26"]) == 2
    assert "error:" in capsys.readouterr().err
