"""The benchmark's workloads: items built from a seed, and their checks.

Every item is a pair of callables.  ``run`` is the timed call into
eqszego's public API; ``check`` runs after the timed pass and raises
WrongValue when the output is not the right answer.  An exception from
``run`` is a failed item too, but not a wrong one.

Seeds change only phases, never the amount of work:

* lattice and quadrature kernels take canonical points (x0, y0) moved by
  a diagonal unitary D applied to both points (the value is unchanged),
  a torus element t applied to x only (the value gains chi(t)^-1) and a
  fiber rotation alpha applied to x only (the value gains e^{i k alpha}).
  The moduli |x_l y_l| stay fixed, so lattice sizes, truncation degrees
  and quadrature node counts do not depend on the seed, and the expected
  value is the committed reference times a known phase;
* the rank-two stress experiment moves its center and displacements by
  D, which leaves every exact kernel value unchanged;
* acceptance passes seeds derived from the bench seed, one per pass, to
  the seeded experiments (crosscheck, gaussian, translated).

Calls go through module attributes (``kernels.isotypic_sum``, not a name
bound at import) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from eqszego import cli, harness, kernels
from eqszego.logcomplex import LogComplex, log_diff_mod
from eqszego.torus import IrrepLabel, WeightMatrix

REL_TOL = 1e-10
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class WrongValue(Exception):
    """An output that disagrees with its reference or independent method."""


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# -- canonical inputs ----------------------------------------------------------

_R3 = 1.0 / math.sqrt(3.0)
UNIT3 = np.array([_R3, _R3, _R3], dtype=np.complex128)
UNIT3_TILTED = UNIT3 * np.exp(1j * np.array([0.3, -0.2, 0.1]))


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    return v / np.linalg.norm(v)


W_P1 = WeightMatrix(((-1, 1),))
W_P2_R1 = WeightMatrix(((-1, 1, 0),))
W_P2_R2 = WeightMatrix(((-1, 1, 0), (0, -1, 1)))
W_P4 = WeightMatrix(((-2, -1, 0, 1, 2),))
W_AFF3_R1 = WeightMatrix(((1, -1, 0),))
W_AFF3_R2 = WeightMatrix(((1, -1, 0), (0, 1, -1)))

P4_X = _unit([1.0, 1.0, 1.0, 1.0, 1.0])
P4_Y = _unit(np.array([0.9, 1.1, 1.0, 0.95, 1.05]) * np.exp(1j * np.array([0.4, -0.3, 0.2, 0.1, -0.5])))
P2_X = UNIT3
P2_Y = _unit(np.array([0.6, 0.5, 0.62]) * np.exp(1j * np.array([0.25, -0.15, 0.05])))
P1_X = _unit([1.0, 1.0])
P1_Y = P1_X * np.exp(1j * np.array([0.2, -0.1]))


@dataclass(frozen=True)
class KernelCase:
    """One isotypic kernel evaluation at canonical points."""

    name: str
    model: str
    weights: WeightMatrix
    irrep: tuple
    k: int
    x0: np.ndarray
    y0: np.ndarray


# Direct quadrature calls.  Two of them raise a false QuadratureError at
# this commit (affine k = 512, P^2 k = 600); they stay in the workload.
QUADRATURE_CASES = tuple(
    [KernelCase(f"quad.affine_r2.k{k}", "affine", W_AFF3_R2, (0, 0), k, UNIT3, UNIT3_TILTED)
     for k in (64, 128, 256, 512)]
    + [KernelCase(f"quad.p2_r2.k{k}", "projective", W_P2_R2, (0, 0), k, UNIT3, UNIT3_TILTED)
       for k in (150, 300, 450, 600)]
    + [KernelCase("quad.affine_r1.k4096", "affine", W_AFF3_R1, (0,), 4096, UNIT3, UNIT3_TILTED),
       KernelCase("quad.p1.k6400", "projective", W_P1, (0,), 6400, P1_X, P1_Y)]
)

# The lattice items are smaller than the layer baselines below (k = 512
# and 100, not 1024 and 160) so that a 20 s run holds several passes: on a
# machine whose speed drifts, the median of two or three 10 s passes
# spreads too much between runs.
P4_CASE = KernelCase("lattice.p4.k100", "projective", W_P4, (0,), 100, P4_X, P4_Y)
# isotypic_sum covers every irrep, so this case gets no torus element.
ISOTYPIC_CASE = KernelCase("lattice.isotypic_p2.k100", "projective", W_P2_R1, None, 100, P2_X, P2_Y)

STRESS_NAME = "lattice.stress_offdiag_r2"
STRESS_K = tuple(16 * 2**j for j in range(6))  # 16 .. 512

# Layer baselines, timed once per traced run.
P4_K160 = KernelCase("p4_k160", "projective", W_P4, (0,), 160, P4_X, P4_Y)
BASELINE_CASES = (
    KernelCase("affine_n3_r1_k1024", "affine", W_AFF3_R1, (0,), 1024, UNIT3, UNIT3_TILTED),
    KernelCase("affine_n3_r2_k1024", "affine", W_AFF3_R2, (0, 0), 1024, UNIT3, UNIT3_TILTED),
    P4_K160,
)


def seeded_rng(seed: int):
    """numpy generator for any integer bench seed (numpy rejects negative ones)."""
    return np.random.default_rng(seed % 2**63)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- seeded points and expected values ----------------------------------------


def seeded_points(case: KernelCase, rng):
    """Bundle points for one case and the phase the value gains over x0, y0.

    With rng None the points are the canonical ones and the phase is 0.
    """
    x = np.array(case.x0, dtype=np.complex128)
    y = np.array(case.y0, dtype=np.complex128)
    shift = 0.0
    alpha = 0.0
    if rng is not None:
        d = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(x)))
        x, y = d * x, d * y
        if case.irrep is not None:
            theta = rng.uniform(0.0, 2.0 * math.pi, case.weights.g)
            x = x * np.exp(1j * (case.weights.matrix.T @ theta))
            shift -= float(np.dot(theta, case.irrep))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        shift += case.k * alpha
    if case.model == "projective":
        return x * np.exp(1j * alpha), y, shift
    return (x, alpha), (y, 0.0), shift


def expect_close(got: LogComplex, want: LogComplex, what: str) -> float:
    """Relative distance |got - want| / |want|; WrongValue above REL_TOL."""
    if not isinstance(got, LogComplex):
        raise WrongValue(f"{what}: expected a LogComplex, got {type(got).__name__}")
    rel = math.exp(log_diff_mod(got, want) - want.log_mod)
    if not rel <= REL_TOL:
        raise WrongValue(f"{what}: relative error {rel:.3e} (> {REL_TOL:g})")
    return rel


def _reference_value(ref: dict, name: str, shift: float) -> LogComplex:
    log_mod, phase = ref[name]
    return LogComplex(log_mod, phase + shift)


# -- lattice ------------------------------------------------------------------


def stress_config(rng):
    """The rank-two affine off-diagonal sweep, center and displacements moved by D."""
    base = harness.make_config(
        "offdiagonal", model="affine", weights=W_AFF3_R2, irrep=(0, 0), k_schedule=STRESS_K
    )
    d = np.ones(3, dtype=np.complex128)
    if rng is not None:
        d = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 3))
    w, v = (tuple(d * np.asarray(u)) for u in base.displacements)
    return harness.make_config(
        "offdiagonal",
        model="affine",
        weights=W_AFF3_R2,
        irrep=(0, 0),
        point=tuple(d * np.asarray(base.point)),
        w=w,
        v=v,
        k_schedule=STRESS_K,
    )


def _stress_item(rng, ref) -> Item:
    config = stress_config(rng)
    want = [LogComplex(lm, ph) for lm, ph in ref[STRESS_NAME]]

    def check(report) -> None:
        failing = [f"{c.label}: {c.detail}" for c in report.checks if not c.passed]
        if failing:
            raise WrongValue("report check failed: " + "; ".join(failing))
        ks = tuple(r.k for r in report.rows)
        if ks != STRESS_K:
            raise WrongValue(f"rows at k = {ks}, expected {STRESS_K}")
        for row, w in zip(report.rows, want):
            expect_close(row.exact, w, f"exact value at k = {row.k}")

    return Item(STRESS_NAME, lambda: harness.run_experiment(config), check)


def _p4_item(rng, ref) -> Item:
    case = P4_CASE
    irrep = IrrepLabel(case.irrep)
    x, y, shift = seeded_points(case, rng)
    want = _reference_value(ref, case.name, shift)

    def run():
        return kernels.equivariant_kernel_weightsum(case.weights, irrep, case.k, x, y, case.model)

    def check(value) -> None:
        expect_close(value, want, "weight sum against the reference")
        quad = kernels.equivariant_kernel_quadrature(case.weights, irrep, case.k, x, y, case.model)
        expect_close(value, quad, "weight sum against quadrature")

    return Item(case.name, run, check)


def _isotypic_item(rng, ref) -> Item:
    case = ISOTYPIC_CASE
    x, y, shift = seeded_points(case, rng)
    want = _reference_value(ref, case.name, shift)
    d = case.weights.n_coords - 1

    def check(value) -> None:
        expect_close(value, want, "isotypic sum against the reference")
        full = kernels.projective_kernel(case.k, d, x, y)
        expect_close(value, full, "isotypic sum against the full kernel")

    return Item(case.name, lambda: kernels.isotypic_sum(case.weights, case.k, x, y), check)


# -- quadrature ---------------------------------------------------------------


def _quadrature_item(case: KernelCase, rng, ref) -> Item:
    irrep = IrrepLabel(case.irrep)
    x, y, shift = seeded_points(case, rng)
    want = _reference_value(ref, case.name, shift)

    def run():
        return kernels.equivariant_kernel_quadrature(case.weights, irrep, case.k, x, y, case.model)

    def check(value) -> None:
        expect_close(value, want, "quadrature against the weight-sum reference")

    return Item(case.name, run, check)


# -- acceptance ---------------------------------------------------------------

_WROTE = re.compile(r"^wrote (\d+) rows to ", re.MULTILINE)


def pass_seeds(seed: int):
    """Endless per-pass seeds derived from the bench seed.

    The seeded experiments draw their k values and frames from the seed,
    so their cost varies with it; a new seed on every pass makes a run's
    median pass time an average over many draws.
    """
    for i in itertools.count():
        yield random.Random(f"{seed}:{i}").randrange(2**31)


def acceptance_specs(tmpdir: str) -> list:
    """(name, argv, csv path, seeded) for the ten default configurations.

    Criteria 1, 2 (both irreps), 4, 5, 6, 7, 8, 9 and 11 of the
    acceptance suite, each writing its CSV report into tmpdir.  Seeded
    experiments get --seed appended on every run.
    """
    projective_cfg = os.path.join(tmpdir, "offdiag_projective.cfg")
    with open(projective_cfg, "w", encoding="utf-8") as fh:
        fh.write("experiment = offdiagonal\nmodel = projective\n")
    specs = [  # (name, experiment, argv, seeded)
        ("diagonal", "diagonal", ["diagonal"], False),
        ("selection_irrep0", "selection", ["selection", "--irrep", "0"], False),
        ("selection_irrep1", "selection", ["selection", "--irrep", "1"], False),
        ("offdiag_affine", "offdiagonal", ["offdiag"], False),
        ("offdiag_projective", "offdiagonal", ["offdiag", "--config", projective_cfg], False),
        ("translated", "translated", ["translated"], True),
        ("crosscheck", "crosscheck", ["crosscheck"], True),
        ("gaussian", "gaussian", ["gaussian"], True),
        ("decay", "decay", ["decay"], False),
        ("phase", "phase", ["phase"], False),
    ]
    # parse or build every configuration once, as the CLI will
    harness.load_config(projective_cfg)
    out = []
    for name, experiment, argv, seeded in specs:
        harness.make_config(experiment)
        csv_path = os.path.join(tmpdir, f"{name}.csv")
        out.append((f"acceptance.{name}", argv + ["--out", csv_path], csv_path, seeded))
    return out


def _cli_item(name: str, argv: list, csv_path: str, seeds) -> Item:
    def run():
        seed = None if seeds is None else next(seeds)
        full_argv = argv if seed is None else argv + ["--seed", str(seed)]
        if os.path.exists(csv_path):
            os.remove(csv_path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(full_argv)
        if code == 2:
            raise RuntimeError(f"eqszego exited 2: {err.getvalue().strip()}")
        text = out.getvalue()
        m = _WROTE.search(text)
        rows, csv_seed = harness.read_report_csv(csv_path) if m else ([], None)
        return seed, code, text, int(m.group(1)) if m else 0, rows, csv_seed

    def check(result) -> None:
        seed, code, text, wrote, rows, csv_seed = result
        if code != 0:
            failing = [ln for ln in text.splitlines() if ln.startswith("[FAIL]")]
            raise WrongValue(f"exit code {code} at seed {seed}: " + "; ".join(failing))
        if len(rows) != wrote:
            raise WrongValue(f"CSV read back {len(rows)} rows, {wrote} written")
        if seed is not None and csv_seed != seed:
            raise WrongValue(f"CSV seed {csv_seed}, expected {seed}")
        for r in rows:
            vals = (r.exact.log_mod, r.predicted.log_mod, r.ratio.real, r.ratio.imag)
            if not all(math.isfinite(v) for v in vals):
                raise WrongValue(f"non-finite value in CSV row k = {r.k}")

    return Item(name, run, check)


# -- building -------------------------------------------------------------------


def build_items(workload: str, seed: int, tmpdir: str) -> list:
    """Every item of one workload for one seed; all set-up work happens here."""
    rng = seeded_rng(seed)
    if workload == "acceptance":
        return [
            _cli_item(name, argv, csv_path, pass_seeds(seed) if seeded else None)
            for name, argv, csv_path, seeded in acceptance_specs(tmpdir)
        ]
    ref = load_reference()
    if workload == "lattice":
        return [_stress_item(rng, ref), _p4_item(rng, ref), _isotypic_item(rng, ref)]
    if workload == "quadrature":
        return [_quadrature_item(case, rng, ref) for case in QUADRATURE_CASES]
    raise ValueError(f"unknown workload {workload!r}")
