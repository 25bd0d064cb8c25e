"""Experiment runner: exact equivariant kernels against their predictions.

The diagonal, offdiagonal and translated experiments share one scaling
sweep.  At each level k of the schedule it divides the exact weight-sum
kernel by the leading term (k/pi)^{n - g/2} A exp(Q) exp(psi2), where A
is the stabilizer character average.  Diagonal evaluates at the center;
the other two evaluate at chart displacements w/sqrt(k), v/sqrt(k), and
translated first moves the first argument by a stabilizer element g0 and
a unit fiber rotation h0, which twists A.  Levels the stabilizer does not
carry (A = 0 exactly) are skipped, levels up to tol_oracle_k_max are
recomputed by quadrature as an independent cross-check, and the log-log
rate of |ratio - 1| is fitted over the upper half of the surviving
schedule.  Decay, selection, crosscheck, gaussian and phase have their
own runners.  Assertions always compare against config tolerances; the
runners return a report object and never raise on a failed tolerance
(only on invalid configuration).

Config files are plain key = value text.  Recognized keys:

    experiment   diagonal | offdiagonal | translated | decay |
                 selection | crosscheck | gaussian | phase
    model        affine | projective
    weights      integer rows, entries space-separated, rows by ';'
                 (example: "-1 1; 0 1")
    point        complex coordinates, space-separated, "re+imj" format
    irrep        integer weight labels, space-separated
    w, v         chart displacement vectors, complex coordinates
    k_schedule   strictly increasing positive integers
    seed         integer seed for any randomized choices
    trials       trial count for crosscheck/gaussian
    g0           torus element angles (radians) for translated runs
    h0           unit complex fiber rotation for translated runs
    output       CSV report path
    tol_*        real overrides of the experiment's default tolerances;
                 other keys are rejected.  diagonal, translated:
                 tol_final_ratio, tol_slope_max; offdiagonal adds
                 tol_oracle_rel and tol_oracle_k_max; decay: tol_rate_rel;
                 selection: tol_quad_rel; crosscheck, gaussian: tol_rel;
                 phase: tol_stationary, tol_grid_min_imag

Unset keys fall back to per-experiment defaults.  One table,
_EXPERIMENTS, holds each experiment's runner, default model, default
k_schedule and default tolerances.  CSV reports use the fixed header
``k,exact_logmod,exact_phase,pred_logmod,pred_phase,ratio_re,ratio_im,
abs_ratio_err`` with repr-exact floats, so re-parsing a report
reproduces the rows bit for bit; randomized experiments record their
seed in a leading ``# seed=`` comment line.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import a_factor_general, gaussian_orbit_integral, leading_term
from .charts import bargmann_chart, chart_point, p1_chart
from .geometry import build_split_frame, hermitian_data, model_phase, norm_sq, split
from .kernels import (
    equivariant_kernel_quadrature,
    equivariant_kernel_weightsum,
    projective_kernel,
)
from .logcomplex import LogComplex, log_diff_mod, ratio
from .torus import (
    ZERO_LEVEL_TOL,
    IrrepLabel,
    TorusElement,
    WeightMatrix,
    act_affine,
    effective_volume,
    generators_at,
    moment_map,
    stabilizer_of,
)

CSV_HEADER = "k,exact_logmod,exact_phase,pred_logmod,pred_phase,ratio_re,ratio_im,abs_ratio_err"

_DEFAULT_SEED = 20260816
_OFF_LEVEL_MIN = 1e-6


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: str
    weights: WeightMatrix
    point: tuple[complex, ...]
    irrep: IrrepLabel
    displacements: tuple[tuple[complex, ...], tuple[complex, ...]]
    k_schedule: tuple[int, ...]
    seed: int
    trials: int
    g0: tuple[float, ...] | None
    h0: complex | None
    tolerances: dict[str, float]
    output_path: str | None


def _parity_adjusted(base, irrep: IrrepLabel, model: str, weights: WeightMatrix):
    """Move each default level k up to the first carrying one below k + order.

    Only on the projective line at rank one, where the stabilizer of a
    point with both coordinates nonzero decides which levels can carry
    the irrep (k = irrep mod 2 on weights -1 1); if none can, k stays.
    """
    if model != "projective" or weights.g != 1 or weights.n_coords != 2:
        return tuple(base)
    stab = stabilizer_of(weights, np.ones(2), "projective")
    first = (next((j for j in range(k, k + stab.order) if stab.carries(irrep, j)), k) for k in base)
    return tuple(first)


def _default_point(experiment: str, weights: WeightMatrix):
    if experiment == "decay":
        return (complex(math.sqrt(0.9)), complex(math.sqrt(0.1)))
    n = weights.n_coords
    return tuple(complex(1.0 / math.sqrt(n)) for _ in range(n))


def _default_displacements(model: str, weights: WeightMatrix):
    if model == "projective":
        return ((0.55 + 0.4j,), (-0.45 + 0.3j,))
    if weights.n_coords == 2:
        return ((0.35 + 0.2j, -0.25 + 0.15j), (-0.2 + 0.3j, 0.3 - 0.1j))
    n = weights.n_coords
    w = tuple(0.4 * cmath.exp(2j * math.pi * l / n) / math.sqrt(n) for l in range(n))
    v = tuple(0.3 * cmath.exp(2j * math.pi * (l + 0.5) / n) / math.sqrt(n) for l in range(n))
    return (w, v)


def make_config(
    experiment: str,
    *,
    model: str | None = None,
    weights=None,
    point=None,
    irrep=None,
    w=None,
    v=None,
    k_schedule=None,
    seed: int | None = None,
    trials: int | None = None,
    g0=None,
    h0: complex | None = None,
    tolerances: dict[str, float] | None = None,
    output_path: str | None = None,
) -> ExperimentConfig:
    """Build a validated config, filling defaults from _EXPERIMENTS."""
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    _, default_model, default_schedule, default_tols = _EXPERIMENTS[experiment]
    if model is None:
        model = default_model
    if model not in ("affine", "projective"):
        raise ValueError(f"unknown model {model!r}")
    if weights is None:
        weights = WeightMatrix(((-1, 1),))
    elif not isinstance(weights, WeightMatrix):
        weights = WeightMatrix(weights)
    if irrep is None:
        irrep = IrrepLabel((0,) * weights.g)
    elif not isinstance(irrep, IrrepLabel):
        irrep = IrrepLabel(tuple(int(x) for x in irrep))
    if len(irrep.weights) != weights.g:
        raise ValueError("irrep label length must match the torus rank")
    if point is None:
        point = _default_point(experiment, weights)
    else:
        point = tuple(complex(z) for z in point)
    if len(point) != weights.n_coords:
        raise ValueError("point dimension must match the weight matrix columns")
    defaults_wv = _default_displacements(model, weights)
    w = defaults_wv[0] if w is None else tuple(complex(z) for z in w)
    v = defaults_wv[1] if v is None else tuple(complex(z) for z in v)
    if k_schedule is None:
        k_schedule = default_schedule
        if experiment != "selection":
            k_schedule = _parity_adjusted(k_schedule, irrep, model, weights)
    k_schedule = tuple(int(k) for k in k_schedule)
    if any(k <= 0 for k in k_schedule):
        raise ValueError("k_schedule entries must be positive")
    if any(b <= a for a, b in zip(k_schedule, k_schedule[1:])):
        raise ValueError("k_schedule must be strictly increasing")
    tols = dict(default_tols)
    if tolerances:
        unknown = sorted(set(tolerances) - set(tols))
        if unknown:
            raise ValueError(
                f"unknown tolerance {', '.join(unknown)} for {experiment} "
                f"(known: {', '.join(sorted(tols))})"
            )
        tols.update({k: float(x) for k, x in tolerances.items()})
    if trials is None:
        trials = 60 if experiment == "crosscheck" else 120
    if int(trials) <= 0:
        raise ValueError("trials must be positive")
    if g0 is not None:
        g0 = tuple(float(a) for a in g0)
        if len(g0) != weights.g:
            raise ValueError("g0 angle count must match the torus rank")
    if h0 is not None:
        h0 = complex(h0)
        if abs(abs(h0) - 1.0) > 1e-9:
            raise ValueError("h0 must be a unit complex number")
    config = ExperimentConfig(
        experiment=experiment,
        model=model,
        weights=weights,
        point=point,
        irrep=irrep,
        displacements=(w, v),
        k_schedule=k_schedule,
        seed=_DEFAULT_SEED if seed is None else int(seed),
        trials=int(trials),
        g0=g0,
        h0=h0,
        tolerances=tols,
        output_path=output_path,
    )
    _check_point_precondition(config)
    return config


def _check_point_precondition(config: ExperimentConfig) -> None:
    if config.experiment not in ("diagonal", "offdiagonal", "translated", "decay"):
        return
    phi = moment_map(config.weights, _point_vector(config), config.model)
    level = float(np.max(np.abs(phi)))
    if config.experiment == "decay" and level < _OFF_LEVEL_MIN:
        raise ValueError("point is on the zero level; use the diagonal experiment")
    if config.experiment != "decay" and level > ZERO_LEVEL_TOL:
        raise ValueError(f"{config.experiment} needs a zero-level point; Phi = {phi}")


def _point_vector(config: ExperimentConfig) -> np.ndarray:
    z = np.asarray(config.point, dtype=np.complex128)
    if config.model == "projective":
        z = z / math.sqrt(norm_sq(z))
    return z


# --- config file parsing ----------------------------------------------------


def parse_complex_vector(text: str) -> tuple[complex, ...]:
    toks = text.split()
    if not toks:
        raise ValueError("empty complex vector")
    return tuple(complex(tok) for tok in toks)


def parse_weight_rows(text: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for part in text.split(";"):
        toks = part.split()
        if not toks:
            raise ValueError("empty weight row")
        rows.append(tuple(int(tok) for tok in toks))
    return tuple(rows)


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = s.partition("=")
        out[key.strip()] = value.strip()
    return out


def _tokens(kind):
    return lambda text: tuple(kind(tok) for tok in text.split())


# config key -> (make_config keyword, parser of its text value)
_CONFIG_KEYS = {
    "model": ("model", str),
    "weights": ("weights", parse_weight_rows),
    "point": ("point", parse_complex_vector),
    "irrep": ("irrep", _tokens(int)),
    "w": ("w", parse_complex_vector),
    "v": ("v", parse_complex_vector),
    "k_schedule": ("k_schedule", _tokens(int)),
    "seed": ("seed", int),
    "trials": ("trials", int),
    "g0": ("g0", _tokens(float)),
    "h0": ("h0", complex),
    "output": ("output_path", str),
}


def config_from_mapping(raw: dict[str, str], experiment: str | None = None) -> ExperimentConfig:
    raw = dict(raw)
    exp = experiment or raw.pop("experiment", None)
    raw.pop("experiment", None)
    if exp is None:
        raise ValueError("config must name an experiment")
    kwargs: dict = {}
    tolerances: dict[str, float] = {}
    for key, value in raw.items():
        if key.startswith("tol_"):
            tolerances[key[4:]] = float(value)
        elif key in _CONFIG_KEYS:
            keyword, parse = _CONFIG_KEYS[key]
            kwargs[keyword] = parse(value)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if tolerances:
        kwargs["tolerances"] = tolerances
    return make_config(exp, **kwargs)


def load_config(path: str, experiment: str | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_mapping(parse_config_text(fh.read()), experiment)


# ---------------------------------------------------------------------------
# rows, reports, CSV


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    exact: LogComplex
    predicted: LogComplex
    ratio: complex
    abs_ratio_error: float


def make_row(k: int, exact: LogComplex, predicted: LogComplex) -> ConvergenceRow:
    if predicted.is_zero:
        raise ValueError("predicted value is zero; the ratio is undefined")
    r = ratio(exact, predicted)
    return ConvergenceRow(
        k=int(k), exact=exact, predicted=predicted, ratio=r,
        abs_ratio_error=abs(abs(r) - 1.0),
    )


@dataclass(frozen=True)
class Check:
    """One verdict; _check sets value, bound and margin, a bare check has none."""

    label: str
    passed: bool
    detail: str
    value: float | None = None
    bound: float | None = None
    margin: float | None = None


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _check(label: str, value, op: str, bound, detail: str) -> Check:
    """Compare value with bound under op; the one place a verdict is decided.

    The margin is bound - value for < and <=, value - bound for > and >=,
    so a positive margin is room to spare.
    """
    margin = bound - value if op[0] == "<" else value - bound
    return Check(label, _OPS[op](value, bound), detail, value, bound, margin)


@dataclass
class ExperimentReport:
    experiment: str
    rows: list[ConvergenceRow]
    fits: dict[str, float]
    checks: list[Check]
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = [f"experiment: {self.experiment}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        if self.rows:
            lines.append(f"rows: {len(self.rows)} (k = {self.rows[0].k} .. {self.rows[-1].k})")
        for name in sorted(self.fits):
            lines.append(f"{name} = {self.fits[name]:.6g}")
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.label}: {c.detail}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return lines


def write_report_csv(path: str, rows, seed: int | None = None) -> None:
    lines = []
    if seed is not None:
        lines.append(f"# seed={int(seed)}")
    lines.append(CSV_HEADER)
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.k),
                    repr(r.exact.log_mod),
                    repr(r.exact.phase),
                    repr(r.predicted.log_mod),
                    repr(r.predicted.phase),
                    repr(r.ratio.real),
                    repr(r.ratio.imag),
                    repr(r.abs_ratio_error),
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report_csv(path: str) -> tuple[list[ConvergenceRow], int | None]:
    rows: list[ConvergenceRow] = []
    seed: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("# seed="):
            seed = int(ln.partition("=")[2])
        elif ln.strip():
            body.append(ln)
    if not body or body[0] != CSV_HEADER:
        raise ValueError("not a harness report: missing header row")
    for ln in body[1:]:
        toks = ln.split(",")
        if len(toks) != 8:
            raise ValueError(f"malformed report row: {ln!r}")
        rows.append(
            ConvergenceRow(
                k=int(toks[0]),
                exact=LogComplex(float(toks[1]), float(toks[2])),
                predicted=LogComplex(float(toks[3]), float(toks[4])),
                ratio=complex(float(toks[5]), float(toks[6])),
                abs_ratio_error=float(toks[7]),
            )
        )
    return rows, seed


# ---------------------------------------------------------------------------
# shared experiment machinery


def _fit_line(x, y) -> tuple[float, float, float]:
    """Least-squares line through (x, y): slope, intercept, max residual."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return float(slope), float(intercept), resid


def _relative_discrepancy(a: LogComplex, b: LogComplex) -> float:
    """|a - b| / |a| computed in the log domain."""
    if a.is_zero:
        return math.inf if not b.is_zero else 0.0
    return math.exp(log_diff_mod(a, b) - a.log_mod)


def _rate_checks(rows, tols, checks, fits) -> None:
    """Ratio-convergence assertions of the scaling sweep."""
    levels = _check("levels", len(rows), ">=", 4, f"{len(rows)} usable levels")
    if not levels.passed:
        checks.append(replace(levels, detail=f"only {len(rows)} usable levels in the schedule"))
        return
    checks.append(levels)
    final = rows[-1]
    final_err = abs(final.ratio - 1.0)
    fits["final_ratio_err"] = final_err
    bound = tols["final_ratio"]
    checks.append(_check(
        "final_ratio", final_err, "<", bound,
        f"|ratio - 1| = {final_err:.3e} at k = {final.k} (tolerance {bound:.3g})",
    ))
    upper = rows[len(rows) // 2 :]
    pts = [(r.k, abs(r.ratio - 1.0)) for r in upper if abs(r.ratio - 1.0) > 1e-14]
    if len(pts) < 2:
        checks.append(Check("slope", True, "ratio exact to roundoff; no rate to fit"))
        return
    slope, intercept, resid = _fit_line(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]))
    fits["slope"] = slope
    fits["intercept"] = intercept
    fits["fit_residual"] = resid
    bound = tols["slope_max"]
    checks.append(_check(
        "slope", slope, "<=", bound, f"fitted log-log slope {slope:.3f} (tolerance <= {bound:.3g})"
    ))


# ---------------------------------------------------------------------------
# experiments


def _translation(config: ExperimentConfig, z: np.ndarray):
    """(g0, h0) moving the first argument of a translated run centered at z.

    g0 defaults to pi in every angle and h0 to a seeded random unit
    rotation.  g0 must sit in the stabilizer of the center so both
    arguments stay in one chart.
    """
    angles = config.g0 if config.g0 is not None else (math.pi,) * config.weights.g
    g0 = TorusElement(tuple(angles))
    if config.h0 is not None:
        h0 = config.h0
    else:
        h0 = cmath.exp(1j * np.random.default_rng(config.seed).uniform(0.0, 2.0 * math.pi))
    h0 = h0 / abs(h0)
    moved = act_affine(config.weights, g0, z)
    if config.model == "projective":
        stabilized = abs(abs(complex(np.vdot(z, moved))) - norm_sq(z)) <= 1e-9
    else:
        stabilized = float(np.max(np.abs(moved - z))) <= 1e-9
    if not stabilized:
        raise ValueError("g0 must stabilize the center point")
    return g0, h0


def _run_scaling(config: ExperimentConfig) -> ExperimentReport:
    """The scaling sweep of the module docstring; diagonal splits are 0.

    The center's torus data, its chart, the translation and the
    displacements are checked in that order, so a config with several
    faults raises the error of the first.
    """
    diagonal = config.experiment == "diagonal"
    translated = config.experiment == "translated"
    weights, model, irrep, tols = config.weights, config.model, config.irrep, config.tolerances
    z = _point_vector(config)
    stab = stabilizer_of(weights, z, model)
    v_eff = effective_volume(weights, z, model)
    frame = build_split_frame(generators_at(weights, z, model))
    n = len(z) if model == "affine" else len(z) - 1
    g0, h0 = None, 1.0 + 0.0j
    if diagonal:
        pw = pv = (z, 0.0) if model == "affine" else z
        sw = sv = split(frame, np.zeros(len(z), dtype=np.complex128))
    else:
        if model == "affine":
            chart = bargmann_chart(z, weights)
        elif len(z) == 2:
            chart = p1_chart(z, weights)
        else:
            raise ValueError("projective charts are implemented for the projective line only")
        if translated:
            g0, h0 = _translation(config, z)
        w = np.asarray(config.displacements[0], dtype=np.complex128)
        v = np.asarray(config.displacements[1], dtype=np.complex128)
        if len(w) != chart.n or len(v) != chart.n:
            raise ValueError(f"displacements must have {chart.n} chart coordinates")
        sw = split(frame, chart.chart_to_ambient(w))
        sv = split(frame, chart.chart_to_ambient(v))
    rows: list[ConvergenceRow] = []
    oracle_k_max = tols.get("oracle_k_max")
    oracle_max = None
    for k in config.k_schedule:
        amp = a_factor_general(irrep, k, stab, v_eff, g0, h0)
        if amp == 0.0:
            continue
        if not diagonal:
            pw = chart_point(chart, k, w)
            pv = chart_point(chart, k, v)
        if translated:
            if model == "projective":
                pw = h0 * act_affine(weights, g0, pw)
            else:
                vec, ang = pw
                pw = (act_affine(weights, g0, vec), ang + cmath.phase(h0))
        exact = equivariant_kernel_weightsum(weights, irrep, k, pw, pv, model)
        pred = leading_term(k, n, amp, sw, sv)
        rows.append(make_row(k, exact, pred))
        if oracle_k_max is not None and k <= oracle_k_max:
            quad = equivariant_kernel_quadrature(weights, irrep, k, pw, pv, model)
            rel = _relative_discrepancy(exact, quad)
            oracle_max = rel if oracle_max is None else max(oracle_max, rel)
    if not rows:
        raise ValueError("empty parity-matched schedule")
    fits: dict[str, float] = {}
    checks: list[Check] = []
    _rate_checks(rows, tols, checks, fits)
    if oracle_k_max is not None:
        if oracle_max is None:
            checks.append(Check("oracle", True, f"no levels at or below {oracle_k_max:.0f}"))
        else:
            fits["oracle_max_rel"] = oracle_max
            bound = tols["oracle_rel"]
            checks.append(_check(
                "oracle", oracle_max, "<=", bound,
                f"weight-sum vs quadrature max relative {oracle_max:.3e} (tolerance {bound:.3g})",
            ))
    seed = config.seed if translated else None
    return ExperimentReport(config.experiment, rows, fits, checks, seed=seed)


def run_decay(config: ExperimentConfig) -> ExperimentReport:
    """Exponential decay of the diagonal kernel off the zero level.

    Fits log |kernel| against k; the fitted rate c must be positive.  On P^1
    it is compared with the dominant-term rate: the relative entropy of the
    zero level's share q = w_1 / (w_1 - w_0) of j_0 in k against p = |z_0|^2.
    """
    _check_point_precondition(config)
    z = _point_vector(config)
    bp = (z, 0.0) if config.model == "affine" else z
    ks, logmods = [], []
    for k in config.k_schedule:
        exact = equivariant_kernel_weightsum(
            config.weights, config.irrep, k, bp, bp, config.model
        )
        if exact.is_zero:
            continue
        ks.append(k)
        logmods.append(exact.log_mod)
    if len(ks) < 3:
        raise ValueError("need at least three nonzero levels to fit a decay rate")
    slope, intercept, resid = _fit_line(ks, logmods)
    rate = -slope
    fits = {"rate": rate, "intercept": intercept, "fit_residual": resid}
    checks = [_check("positive_rate", rate, ">", 0.0, f"fitted rate {rate:.6g} must be positive")]
    if config.model == "projective" and len(z) == 2:
        p = abs(z[0]) ** 2
        w0, w1 = config.weights.matrix[0].tolist()
        q = w1 / (w1 - w0)
        if not 0 <= q <= 1:
            raise ValueError("the decay rate needs P^1 weights of opposite sign or a zero weight")
        expected = sum(a * math.log(a / b) for a, b in ((q, p), (1 - q, 1 - p)) if a != 0)
        fits["expected_rate"] = expected
        rel = abs(rate - expected) / abs(expected)
        bound = config.tolerances["rate_rel"]
        checks.append(_check(
            "rate_match", rel, "<=", bound,
            f"rate {rate:.6g} vs dominant-term value {expected:.6g} "
            f"(relative {rel:.3e}, tolerance {bound:.3g})",
        ))
    rows = [
        make_row(k, LogComplex(lm, 0.0), LogComplex(intercept + slope * k, 0.0))
        for k, lm in zip(ks, logmods)
    ]
    return ExperimentReport("decay", rows, fits, checks)


def run_selection(config: ExperimentConfig) -> ExperimentReport:
    """Vanishing of isotypes on the projective line at mismatched levels.

    Mismatched levels are those the stabilizer of a point with both
    coordinates nonzero does not carry (parity on weights -1 1).  The
    weight sum must vanish there identically and the quadrature relative
    to the full kernel, the honest reading of a zero target for a
    numerical integral.  Rows record quadrature leakage against it.
    """
    if config.model != "projective" or config.weights.g != 1 or config.weights.n_coords != 2:
        raise ValueError("the selection experiment is defined on the projective line")
    z = _point_vector(config)
    stab = stabilizer_of(config.weights, np.ones(2), "projective")
    mismatched = [k for k in config.k_schedule if not stab.carries(config.irrep, k)]
    if not mismatched:
        raise ValueError("schedule contains no parity-mismatched levels")
    rows: list[ConvergenceRow] = []
    nonzero = 0
    worst_rel = 0.0
    for k in mismatched:
        ws = equivariant_kernel_weightsum(config.weights, config.irrep, k, z, z, "projective")
        nonzero += not ws.is_zero
        quad = equivariant_kernel_quadrature(
            config.weights, config.irrep, k, z, z, "projective"
        )
        full = projective_kernel(k, 1, z, z)
        rel = math.exp(quad.log_mod - full.log_mod) if not quad.is_zero else 0.0
        worst_rel = max(worst_rel, rel)
        rows.append(make_row(k, quad, full))
    fits = {"max_quad_rel": worst_rel}
    bound = config.tolerances["quad_rel"]
    checks = [
        _check(
            "weightsum_zero", nonzero, "<=", 0,
            f"weight sum vanishes identically at {len(mismatched)} mismatched levels",
        ),
        _check(
            "quadrature_small", worst_rel, "<", bound,
            f"max quadrature leakage {worst_rel:.3e} of the full kernel (tolerance {bound:.3g})",
        ),
    ]
    return ExperimentReport("selection", rows, fits, checks)


# --- crosscheck -------------------------------------------------------------


def _crosscheck_trial(rng, kind):
    """One randomized dual-method configuration.

    Points keep coordinate moduli in [0.35, 0.65] and the irrep sits at
    the occupation mode, so the isotype carries a non-negligible share
    of the full kernel and the quadrature comparison stays well above
    the roundoff floor.
    """
    if kind.startswith("proj"):
        weights = WeightMatrix(((-1, 1),))
        p = rng.uniform(0.35, 0.65)
        ph = rng.uniform(-math.pi, math.pi, 2)
        x = np.array(
            [math.sqrt(p) * cmath.exp(1j * ph[0]), math.sqrt(1 - p) * cmath.exp(1j * ph[1])]
        )
        if kind == "proj_diag":
            k = int(rng.integers(10, 201))
            y = x
        else:
            k = int(rng.integers(10, 61))
            q = min(max(p + rng.uniform(-0.03, 0.03), 0.3), 0.7)
            ph2 = ph + rng.uniform(-0.15, 0.15, 2)
            y = np.array(
                [
                    math.sqrt(q) * cmath.exp(1j * ph2[0]),
                    math.sqrt(1 - q) * cmath.exp(1j * ph2[1]),
                ]
            )
        j0 = min(max(int(round(k * p)), 0), k)
        irrep = IrrepLabel((2 * j0 - k,))
        return "projective", weights, irrep, k, x, y
    if kind == "aff1":
        weights = WeightMatrix(((-1, 1),))
        k_max = 200
    else:
        weights = WeightMatrix(((-1, 1), (0, 1)))
        k_max = 120
    mod = rng.uniform(0.35, 0.65, 2)
    ph = rng.uniform(-math.pi, math.pi, 2)
    a = mod * np.exp(1j * ph)
    k = int(rng.integers(10, k_max + 1))
    theta_a = float(rng.uniform(-math.pi, math.pi))
    theta_b = float(rng.uniform(-math.pi, math.pi))
    jj = np.maximum(np.round(k * mod * mod).astype(int), 0)
    irrep = IrrepLabel(tuple(int(t) for t in -(weights.matrix @ jj)))
    return "affine", weights, irrep, k, (a, theta_a), (a, theta_b)


def run_crosscheck(config: ExperimentConfig) -> ExperimentReport:
    """Randomized weight-sum vs quadrature agreement matrix."""
    rng = np.random.default_rng(config.seed)
    pattern = ["proj_diag"] * 30 + ["proj_near"] * 10 + ["aff1"] * 12 + ["aff2"] * 8
    kinds = [pattern[i % len(pattern)] for i in range(config.trials)]
    rows: list[ConvergenceRow] = []
    worst = 0.0
    for kind in kinds:
        model, weights, irrep, k, x, y = _crosscheck_trial(rng, kind)
        ws = equivariant_kernel_weightsum(weights, irrep, k, x, y, model)
        quad = equivariant_kernel_quadrature(weights, irrep, k, x, y, model)
        rel = _relative_discrepancy(ws, quad)
        worst = max(worst, rel)
        rows.append(make_row(k, ws, quad))
    fits = {"max_rel": worst}
    bound = config.tolerances["rel"]
    checks = [
        _check(
            "dual_agreement", worst, "<=", bound,
            f"max relative discrepancy {worst:.3e} over {config.trials} configurations "
            f"(tolerance {bound:.3g})",
        )
    ]
    return ExperimentReport("crosscheck", rows, fits, checks, seed=config.seed)


# --- gaussian ---------------------------------------------------------------


def _random_frame(rng, g: int):
    if g == 1:
        row = [int(rng.integers(1, 4)) * (1 if rng.uniform() < 0.5 else -1) for _ in range(2)]
        weights = WeightMatrix((tuple(row),))
    else:
        a = int(rng.integers(-2, 3))
        b = int(rng.integers(-2, 3))
        weights = WeightMatrix(((1, 0, a), (0, 1, b)))
    mod = rng.uniform(0.5, 1.2, weights.n_coords)
    ph = rng.uniform(-math.pi, math.pi, weights.n_coords)
    z = mod * np.exp(1j * ph)
    return build_split_frame(generators_at(weights, z, "affine"))


def _random_displacement(rng, n: int):
    return rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)


def _orbit_quadrature(sw, sv, x, wx) -> complex:
    """Tensor Gauss-Hermite rule for the integral of gaussian_orbit_integral.

    s = d + sqrt(2) x along the orthonormal vertical frame turns
    exp(-|s - d|^2 / 2) into the Hermite weight at a Jacobian of 2^{g/2},
    leaving the phase exp(-i omega(s, c)) on the rank-g tensor grid: node
    rows x and their weights wx.
    """
    c = sv.t_part + sw.t_part
    d = sw.v_part - sv.v_part
    om = np.array([hermitian_data(e, c).omega for e in sw.frame.on_vertical])
    dv = np.array([float(np.real(np.vdot(e, d))) for e in sw.frame.on_vertical])
    phase = (dv + math.sqrt(2.0) * x) @ om
    return 2.0 ** (0.5 * sw.frame.rank) * complex(np.sum(wx * np.exp(-1j * phase)))


def run_gaussian(config: ExperimentConfig) -> ExperimentReport:
    """Closed-form orbit integral against independent quadrature.

    Trials split roughly 5:1 between rank-one and rank-two frames, on
    randomized frames and displacements; both ranks use one 80-point
    tensor Gauss-Hermite oracle.  A single trial is raised to two so
    that each rank gets one.
    """
    rng = np.random.default_rng(config.seed)
    trials = max(config.trials, 2)
    counts = {1: trials - max(trials // 6, 1), 2: max(trials // 6, 1)}
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    rows: list[ConvergenceRow] = []
    worst = {1: 0.0, 2: 0.0}
    for g, count in counts.items():
        # one tensor grid per rank, shared by all its trials
        x = np.array(list(itertools.product(nodes, repeat=g)))
        wx = np.prod(list(itertools.product(weights, repeat=g)), axis=1)
        for _ in range(count):
            frame = _random_frame(rng, g)
            sw = split(frame, _random_displacement(rng, frame.dim))
            sv = split(frame, _random_displacement(rng, frame.dim))
            closed = gaussian_orbit_integral(sw, sv)
            oracle = _orbit_quadrature(sw, sv, x, wx)
            worst[g] = max(worst[g], abs(closed - oracle) / abs(closed))
            exact, pred = LogComplex.from_complex(oracle), LogComplex.from_complex(closed)
            rows.append(make_row(len(rows) + 1, exact, pred))
    fits = {f"max_rel_g{g}": worst[g] for g in counts}
    bound = config.tolerances["rel"]
    checks = [
        _check(
            f"closed_form_g{g}", worst[g], "<", bound,
            f"max relative residual {worst[g]:.3e} over {counts[g]} rank-{rank} trials "
            f"(tolerance {bound:.3g})",
        )
        for g, rank in ((1, "one"), (2, "two"))
    ]
    return ExperimentReport("gaussian", rows, fits, checks, seed=config.seed)


def run_phase(config: ExperimentConfig) -> ExperimentReport:
    """Stationary data of the model phase and grid nonnegativity."""
    _, grad, hess = model_phase(1.0, 0.0)
    grad_norm = float(np.linalg.norm(grad))
    target = np.array([[0.0, 1.0], [1.0, 1.0j]], dtype=np.complex128)
    hess_res = float(np.max(np.abs(hess - target)))
    t, theta = np.meshgrid(np.linspace(0.05, 4.0, 80), np.linspace(-math.pi, math.pi, 161), indexing="ij")
    min_imag = float(np.min(model_phase(t, theta)[0].imag))
    fits = {"grad_norm": grad_norm, "hessian_residual": hess_res, "grid_min_imag": min_imag}
    stationary = config.tolerances["stationary"]
    checks = [
        _check(
            "stationary_gradient", grad_norm, "<=", stationary,
            f"|gradient| = {grad_norm:.3e} at (t, theta) = (1, 0)",
        ),
        _check(
            "hessian", hess_res, "<=", stationary, f"Hessian residual {hess_res:.3e} against [[0,1],[1,i]]"
        ),
        _check(
            "imaginary_part_nonneg", min_imag, ">=", config.tolerances["grid_min_imag"],
            f"min imaginary part {min_imag:.3e} on the sample grid",
        ),
    ]
    return ExperimentReport("phase", [], fits, checks)


# experiment -> (runner, default model, default k_schedule before the
# projective-line parity shift, default tolerances)
_EXPERIMENTS = {
    "diagonal": (
        _run_scaling, "projective", tuple(25 * 2**j for j in range(9)),
        {"final_ratio": 0.01, "slope_max": -0.9},
    ),
    "offdiagonal": (
        _run_scaling, "affine", tuple(16 * 2**j for j in range(9)),
        {"final_ratio": 0.05, "slope_max": -0.4, "oracle_rel": 1e-10, "oracle_k_max": 128.0},
    ),
    "translated": (
        _run_scaling, "projective", tuple(16 * 2**j for j in range(9)),
        {"final_ratio": 0.05, "slope_max": -0.4},
    ),
    "decay": (run_decay, "projective", (250, 500, 1000, 2000), {"rate_rel": 0.10}),
    "selection": (run_selection, "projective", range(1, 201), {"quad_rel": 1e-12}),
    "crosscheck": (run_crosscheck, "projective", (1,), {"rel": 1e-10}),
    "gaussian": (run_gaussian, "affine", (1,), {"rel": 1e-8}),
    "phase": (run_phase, "projective", (1,), {"stationary": 1e-14, "grid_min_imag": -1e-15}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a config to its experiment runner."""
    try:
        runner = _EXPERIMENTS[config.experiment][0]
    except KeyError:
        raise ValueError(f"unknown experiment {config.experiment!r}") from None
    return runner(config)
