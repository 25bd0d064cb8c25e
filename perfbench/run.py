"""Benchmark of eqszego: time to a verdict, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (each a closed loop with one client, single-threaded):

  acceptance  the ten default CLI configurations of the acceptance suite,
              each through eqszego.cli.main with its CSV read back
  lattice     weight-sum heavy: the rank-two affine stress sweep to k = 512,
              the P^4 weight sum at k = 100, isotypic_sum on P^2 at k = 100
  quadrature  direct equivariant_kernel_quadrature calls up to 2^20 nodes

This launcher imports nothing from eqszego.  It starts fresh interpreters
(BLAS and OpenMP pinned to one thread, PYTHONPATH=src): several that only
import eqszego and build the workload's inputs, to time set-up, then one
that runs the workload, so the peak resident set is the workload's own.
The workload process runs one warm-up pass, then timed passes until
--seconds have been measured, and checks every item's output after each
pass, outside the timed region.  setup_s and pass_s are medians scaled
to the reference machine speed by a calibration loop timed before every
set-up sample and item (see calibrate.py).  With --trace 1 it alternates
untraced and traced passes and reports per-layer metrics instead;
end-to-end numbers always come from --trace 0.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it record the
environment and every item's median time and failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("acceptance", "lattice", "quadrature")
# calibration loop that tracks each workload's kind of work; set-up is "python"
CALIBRATION = {"acceptance": "python", "lattice": "python", "quadrature": "numpy"}
# Set-up is sampled before and after the workload process, so the samples
# span the whole run rather than one stretch of the machine's load.  One
# more sample, first and discarded, may compile bytecode.
SETUP_BEFORE = 3
SETUP_AFTER = 4
CHILD_TIMEOUT_S = 160
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "rss_peak_mb": "MB", "success_ratio": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- launcher -------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _child_cmd(mode: str, args) -> list:
    return [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]


def _setup_sample(args, calibration: list) -> float:
    """Seconds from starting a fresh interpreter until its first item could run."""
    calibration.append(calibrate.sample("python"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(_child_cmd("setup", args), stdout=subprocess.PIPE, env=_child_env(), text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"set-up process failed (exit {code})")
    return elapsed


def _run_child(args) -> dict:
    try:
        proc = subprocess.run(
            _child_cmd("run", args), stdout=subprocess.PIPE, env=_child_env(),
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(args) -> tuple:
    """(info lines, result object) for one workload."""
    setup, calibration = [], []
    if not args.trace:
        _setup_sample(args, [])
        setup = [_setup_sample(args, calibration) for _ in range(SETUP_BEFORE)]
    child = _run_child(args)
    if not args.trace:
        setup += [_setup_sample(args, calibration) for _ in range(SETUP_AFTER)]
        calibration.append(calibrate.sample("python"))
    env = dict(child["env"], commit=_commit(), seed=args.seed, workload=args.workload,
               seconds=args.seconds, trace=args.trace)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    for name, info in child["items"].items():
        line = f"item {name} median_s={info['median_s']:.6f} failed={info['failed']}/{info['attempted']}"
        if info["failure"]:
            line += f" first_failure={info['failure']}"
        lines.append(line)
    if args.trace:
        metrics = child["layers"]
    else:
        kind = CALIBRATION[args.workload]
        values = {
            "setup_s": calibrate.scale(statistics.median(setup), calibration, "python"),
            "pass_s": calibrate.scale(statistics.median(child["pass_times"]), child["calibration"], kind),
            "rss_peak_mb": child["rss_peak_mb"],
            "success_ratio": 1.0 - child["failed"] / child["attempted"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        lines.append(f"pass_times {json.dumps(child['pass_times'])}")
        lines.append(f"pass_calibration {json.dumps(child['calibration'])}")
        lines.append(f"setup_samples {json.dumps(setup)}")
        lines.append(f"setup_calibration {json.dumps(calibration)}")
    result = {
        "correct": child["wrong"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    return lines, result


def launcher(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "eqszego", "__init__.py")):
        print(f"perfbench: no eqszego sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
            for line in lines:
                print(f"{name}: {line}" if len(names) > 1 else line, flush=True)
            if len(names) > 1:
                print(f"{name}: {json.dumps(results[name])}", flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


# -- workload process ---------------------------------------------------------


class _Tally:
    """Per-item outcome counts over every pass of the run."""

    def __init__(self) -> None:
        self.items = {}
        self.calibration = []  # one calibration sample before each item
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, name: str, seconds: float, failure: str, wrong: bool) -> None:
        entry = self.items.setdefault(name, {"times": [], "attempted": 0, "failed": 0, "failure": ""})
        entry["times"].append(seconds)
        entry["attempted"] += 1
        self.attempted += 1
        if failure:
            entry["failed"] += 1
            self.failed += 1
            self.wrong += wrong
            entry["failure"] = entry["failure"] or failure

    def summary(self) -> dict:
        return {
            name: {
                "median_s": statistics.median(e["times"]),
                "attempted": e["attempted"],
                "failed": e["failed"],
                "failure": e["failure"],
            }
            for name, e in self.items.items()
        }


def _one_pass(items, tally, wrong_type, kind: str, tracer=None) -> float:
    """Time every item once, traced if a tracer is given; check outputs after.

    The pass time is the sum of the item times, so the calibration sample
    taken before each item stays outside it.
    """
    gc.collect()
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for item in items:
            tally.calibration.append(calibrate.sample(kind))
            t0 = time.perf_counter()
            try:
                out, exc = item.run(), None
            except Exception as err:  # every failure is counted, none stops the run
                out, exc = None, err
            results.append((item, time.perf_counter() - t0, out, exc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for item, seconds, out, exc in results:
        failure, wrong = "", False
        if exc is not None:
            failure = f"{type(exc).__name__}: {str(exc)[:160]}"
        else:
            try:
                item.check(out)
            except wrong_type as err:
                failure, wrong = f"wrong value: {err}", True
        tally.record(item.name, seconds, failure, wrong)
    return sum(seconds for _, seconds, _, _ in results)


def _measure(items, args, tally, wl) -> dict:
    kind = CALIBRATION[args.workload]
    _one_pass(items, tally, wl.WrongValue, kind)  # warm-up
    if not args.trace:
        times = []
        while sum(times) < args.seconds:
            times.append(_one_pass(items, tally, wl.WrongValue, kind))
        return {"pass_times": times}

    import probes
    import tracing

    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    while sum(plain) + sum(traced) < args.seconds:
        plain.append(_one_pass(items, tally, wl.WrongValue, kind))
        traced.append(_one_pass(items, tally, wl.WrongValue, kind, tracer))
        summaries.append(tracing.summarize(tracer.spans, traced[-1]))
    layers = {name: {"value": v, "unit": tracing.PASS_METRICS[name]}
              for name, v in tracing.median_by_key(summaries).items()}
    layers["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(plain), "unit": "1"
    }
    try:
        found = {}
        found.update(probes.enumerate_probe())
        found.update(probes.log_sum_probe(args.seed))
        found.update(probes.baseline_probe(args.seed))
    except wl.WrongValue as err:
        tally.record("probes", 0.0, f"wrong value: {err}", True)
        found = dict.fromkeys(probes.PROBE_METRICS, 0.0)
    for name, v in found.items():
        layers[name] = {"value": v, "unit": probes.PROBE_METRICS[name]}
    return {"pass_times": plain, "layers": layers}


def child(args) -> int:
    sys.path.insert(0, SRC)
    import eqszego  # with numpy and scipy
    import workloads as wl

    pkg = os.path.dirname(os.path.abspath(eqszego.__file__))
    if pkg != os.path.join(SRC, "eqszego"):
        print(f"perfbench: imported eqszego from {pkg}, not {SRC}", file=sys.stderr)
        return 2
    tmpdir = os.path.join(TMP_ROOT, str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        items = wl.build_items(args.workload, args.seed, tmpdir)
        if args.child == "setup":
            print("ready", flush=True)
            return 0
        tally = _Tally()
        out = _measure(items, args, tally, wl)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it

    import numpy
    import scipy

    out.update(
        items=tally.summary(),
        calibration=tally.calibration,
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        rss_peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "threads": 1,
        },
    )
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    return launcher(args)


if __name__ == "__main__":
    sys.exit(main())
