"""In-memory call spans around eqszego's public functions.

The tracer wraps each function listed in TRACED in every eqszego module
namespace that binds it: harness binds its imports at import time, and
isotypic_sum reaches equivariant_kernel_weightsum through the globals of
kernels, so patching only the defining module would miss those calls.
Each call records a span (id, parent id, group, label, start, end,
exception name); a span's self time is its duration minus the durations
of its direct children.  The wrappers are installed only around traced
passes, so untraced passes run the original functions.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import time
from collections import defaultdict

from eqszego.harness import EXPERIMENTS

# module -> public functions wrapped in every namespace that binds them
TRACED = {
    "kernels": (
        "equivariant_kernel_weightsum",
        "enumerate_indices",
        "isotypic_sum",
        "equivariant_kernel_quadrature",
        "projective_kernel",
        "bargmann_kernel",
    ),
    "torus": (
        "stabilizer_of",
        "fiber_multiplier",
        "effective_volume",
        "generators_at",
        "moment_map",
        "act_affine",
    ),
    "geometry": ("build_split_frame", "split", "hermitian_data", "norm_sq", "model_phase"),
    "charts": ("bargmann_chart", "p1_chart", "chart_point"),
    "asymptotics": ("a_factor", "a_factor_general", "leading_term", "gaussian_orbit_integral"),
    "harness": (
        "run_experiment",
        "make_config",
        "config_from_mapping",
        "parse_config_text",
        "make_row",
        "write_report_csv",
        "read_report_csv",
    ),
    "cli": ("main",),
}

# kernels is split by function; every other module is one group
_KERNEL_GROUPS = {
    "equivariant_kernel_weightsum": "kernels.weightsum",
    "enumerate_indices": "kernels.enumerate",
    "isotypic_sum": "kernels.isotypic_sum",
    "equivariant_kernel_quadrature": "kernels.quadrature",
    "projective_kernel": "kernels.full",
    "bargmann_kernel": "kernels.full",
}

GROUPS = (
    "kernels.weightsum",
    "kernels.enumerate",
    "kernels.isotypic_sum",
    "kernels.quadrature",
    "kernels.full",
    "torus",
    "geometry",
    "charts",
    "asymptotics",
    "harness",
    "cli",
)
_CALL_GROUPS = ("kernels.weightsum", "kernels.quadrature", "torus", "geometry", "charts", "asymptotics")
_CSV_LABELS = ("write_report_csv", "read_report_csv")

# name -> unit of every metric summarize() returns
PASS_METRICS = {}
for _g in _CALL_GROUPS:
    PASS_METRICS[f"{_g}.calls"] = "count"
for _g in GROUPS:
    PASS_METRICS[f"{_g}.self_s"] = "s"
PASS_METRICS["kernels.quadrature.errors"] = "count"
for _e in EXPERIMENTS:
    PASS_METRICS[f"harness.run_experiment.{_e}.s"] = "s"
PASS_METRICS["harness.csv.s"] = "s"
PASS_METRICS["cli.main.s"] = "s"
PASS_METRICS["cli.csv_readback.failed"] = "count"
for _g in GROUPS + ("untraced",):
    PASS_METRICS[f"share.{_g}"] = "1"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [0]  # span 0 is the pass itself
        self._ids = itertools.count(1)
        self._patches = []
        modules = [m for name, m in sys.modules.items() if name == "eqszego" or name.startswith("eqszego.")]
        for mod_name, funcs in TRACED.items():
            module = sys.modules[f"eqszego.{mod_name}"]
            for fname in funcs:
                original = getattr(module, fname)
                group = _KERNEL_GROUPS.get(fname, mod_name)
                wrapper = self._wrap(original, group, fname)
                for m in modules:
                    for key, value in vars(m).items():
                        if value is original:
                            self._patches.append((m, key, original, wrapper))

    def _wrap(self, fn, group: str, label: str):
        spans, stack, ids = self.spans, self._stack, self._ids
        by_experiment = label == "run_experiment"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            name = f"run_experiment.{args[0].experiment}" if by_experiment else label
            stack.append(sid)
            err = None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, group, name, t0, t1, err))

        return wrapper

    def install(self) -> None:
        """Start a fresh list of spans and patch every binding."""
        self.spans.clear()
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._patches:
            setattr(module, key, original)


def summarize(spans, pass_s: float) -> dict:
    """Per-pass layer metrics from one traced pass's spans."""
    children = defaultdict(float)
    for sid, parent, group, name, t0, t1, err in spans:
        children[parent] += t1 - t0
    out = dict.fromkeys(PASS_METRICS, 0.0)
    for sid, parent, group, name, t0, t1, err in spans:
        dur = t1 - t0
        out[f"{group}.self_s"] += dur - children[sid]
        if group in _CALL_GROUPS:
            out[f"{group}.calls"] += 1
        if name.startswith("run_experiment."):
            out[f"harness.{name}.s"] += dur
        elif name in _CSV_LABELS:
            out["harness.csv.s"] += dur
            if name == "read_report_csv" and err is not None:
                out["cli.csv_readback.failed"] += 1
        elif group == "cli":
            out["cli.main.s"] += dur
        if group == "kernels.quadrature" and err == "QuadratureError":
            out["kernels.quadrature.errors"] += 1
    traced_self = sum(out[f"{g}.self_s"] for g in GROUPS)
    for g in GROUPS:
        out[f"share.{g}"] = out[f"{g}.self_s"] / pass_s
    out["share.untraced"] = (pass_s - traced_self) / pass_s
    return out


def median_by_key(summaries: list) -> dict:
    return {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
