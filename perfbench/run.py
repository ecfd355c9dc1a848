"""Benchmark of the wellprob package: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload level-search --seed 1 --seconds 25 --trace 0

One client runs ops in a closed loop (the next op starts when the previous
one has returned) on one thread, with BLAS held to one thread.  Every input
comes from ``--seed``.  ``--trace 0`` measures the end-to-end metrics with
no instrumentation; ``--trace 1`` alternates untraced and traced runs of the
same inputs and reports the per-layer metrics and the tracing overhead.
Every op is checked against the package's numerical contracts; a failed
check counts as a failed op.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is one client on one core, and a second
# BLAS thread would make timings depend on what else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import wellprob  # noqa: E402
import wellprob.quantum as quantum  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3

# name -> (unit, meaning).  BENCHMARK.json lists the same names and units.
END_TO_END = {
    "op_p50_s": ("s", "median wall time of one op"),
    "ops_per_s": ("1/s", "ops completed per second of op wall time"),
    "peak_rss_mb": ("MB", "peak resident set size of the benchmark process"),
    "setup_s": ("s", f"median of {SETUP_REPEATS} fresh-process set-ups "
                     "(interpreter, imports, inputs, warm-up)"),
}
PER_LAYER = {
    "airy.calls": ("count/op", "airy_eval_many calls"),
    "airy.points": ("count/op", "points passed to airy_eval_many"),
    "airy.series_points": ("count/op", "points with |z| <= airy.Z_SWITCH"),
    "airy.asym_points": ("count/op", "points with |z| > airy.Z_SWITCH"),
    "airy.busy_s": ("s", "median per-op time inside airy_eval_many"),
    "airy.us_per_call": ("us", "airy busy time per call"),
    "airy.ns_per_point": ("ns", "airy busy time per point"),
    "quantum.scans": ("count/op", "eigenvalues_closed_court calls"),
    "quantum.roots_located": ("count/op", "roots eigenvalues_closed_court returned"),
    "quantum.useful_root_ratio": ("ratio", "levels returned to the caller / roots located"),
    "quantum.airy_calls_per_level": ("count", "airy calls / levels returned to the caller"),
    "quantum.scan.self_s": ("s", "median per-op scan time outside Airy calls"),
    "quantum.eigenstate.busy_s": ("s", "median per-op eigenstate synthesis time"),
    "quantum.eigenstate.grid_points": ("count/op", "grid points of synthesised eigenstates"),
    "quantum.transform.busy_s": ("s", "median per-op momentum_transform time"),
    "quantum.transform.panel_products": ("count/op", "|p| x Filon panels"),
    "quantum.transform.bytes_computed": ("B/op", "computed from array sizes: psi, p, phi "
                                                 "and the dense 16 B phase matrix"),
    "quantum.transform.ns_per_panel_product": ("ns", "transform busy time per panel product"),
    "quantum.transform.parseval_deficit_max": ("ratio", "max |1 - norm_mass|"),
    "quantum.transform.closed_form_err_max": ("abs", "max |phi - infinite_well_momentum|"),
    "compare.self_s": ("s", "median per-op compare_state time outside wrapped layers"),
    "classical.calls": ("count/op", "classical density/orbit/histogram calls"),
    "classical.points": ("count/op", "grid points, times, bins and draws produced"),
    "classical.busy_s": ("s", "median per-op time inside classical calls"),
    "model.classical_state.calls": ("count/op", "model.classical_state calls"),
    "config.busy_s": ("s", "median per-op time parsing and applying the config"),
    "cli.self_s": ("s", "median per-op cli.main time outside other layers"),
    "cli.files_written": ("count/op", "CSV files written"),
    "cli.csv_rows": ("count/op", "CSV data rows written"),
    "cli.csv_bytes": ("B/op", "CSV bytes written"),
    "trace.overhead_ratio": ("ratio", "traced / untraced median op time"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# set-up

def prepare(workload: workloads.Workload, seed: int, scratch: Path):
    """Inputs, context and warm-up; everything the timed ops rely on."""
    ctx = workloads.Context(data=workloads.load_data(), scratch=scratch)
    inputs = workload.make_inputs(workloads.rng_for(workload.name, seed), ctx.data)
    workloads.clear_scratch(ctx)
    workload.warm_up(ctx)
    return ctx, inputs


def fresh_setup_seconds(name: str, seed: int) -> list:
    """Wall time of complete set-ups, each in a new interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=150)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# ops

def run_op(workload, ctx, item, tracer=None, keep=False) -> dict:
    workloads.clear_scratch(ctx)
    failure, result = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(ctx, item)
            else:
                with spans.Installed(tracer):
                    result = workload.run(ctx, item)
        except Exception as exc:  # any raise is a failed op, reported below
            failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    sample = {"seconds": elapsed, "traced": tracer is not None, "diag": {}}
    if tracer is not None:
        sample["trace"] = tracer.take()
    if failure is None:
        skipped = [w for w in caught if issubclass(w.category, quantum.SkippedRootWarning)]
        if skipped:
            failure = f"SkippedRootWarning: {skipped[0].message}"
    if failure is None:
        try:
            failure, sample["diag"] = workload.check(ctx, item, result)
        except Exception as exc:  # a malformed result fails its op
            failure = f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None and failure is None:
        sample["trace"]["counts"]["quantum.levels_returned"] = workload.levels_returned(result)
    if keep and failure is None:
        sample["files"] = workloads.snapshot(ctx)
    sample["failure"] = failure
    return sample


def measure(workload, ctx, inputs, seconds: float, traced: bool, keep_index: int) -> list:
    """Closed loop for ``seconds``, and at least the minimum op counts.

    A new op starts only while it is expected to end no more than half an op
    past ``seconds``, so slow ops do not stretch the run.  Traced runs go in
    pairs over the same input, alternating which of the untraced and the
    traced op runs first.
    """
    samples = []
    tracer = spans.Tracer() if traced else None
    n_traced = 0
    start = time.perf_counter()
    i = 0
    last = 0.0  # duration of the previous op, or of the previous pair
    while (i < workload.min_ops or (traced and n_traced < workload.counted_ops)
           or time.perf_counter() - start + last / 2 < seconds):
        t_item = time.perf_counter()
        item = inputs[i % len(inputs)]
        order = [None] if not traced else ([None, tracer] if i % 2 == 0 else [tracer, None])
        for j, tr in enumerate(order):
            sample = run_op(workload, ctx, item, tr, keep=(i == keep_index and j == 0))
            sample["input"] = i
            samples.append(sample)
            if sample["failure"]:
                print(f"perfbench: {workload.name} op {i} failed: {sample['failure']}",
                      file=sys.stderr)
        n_traced += traced
        i += 1
        last = time.perf_counter() - t_item
    return samples


def repeat_is_identical(workload, ctx, inputs, samples) -> bool:
    """Re-run the sampled op whose files were kept; the bytes must match."""
    kept = [s for s in samples if "files" in s]
    if not kept:
        return False
    sample = kept[0]
    again = run_op(workload, ctx, inputs[sample["input"] % len(inputs)], keep=True)
    return again["failure"] is None and again.get("files") == sample["files"]


# ---------------------------------------------------------------------------
# metrics

def tail(times: list):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end_metrics(samples: list, setup_times: list) -> dict:
    times = [s["seconds"] for s in samples]
    return {
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def per_layer_metrics(workload, samples: list) -> tuple:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    recs = [s["trace"] for s in traced]
    counted = traced[:workload.counted_ops]
    k = len(counted)
    tot = Counter()
    for s in counted:
        tot.update(s["trace"]["counts"])
    every = Counter()
    for r in recs:
        every.update(r["counts"])

    def per_op(key):
        return tot[key] / k

    def med(kind, layer):
        return statistics.median(r[kind].get(layer, 0.0) for r in recs)

    def all_busy(layer):
        return sum(r["busy"].get(layer, 0.0) for r in recs)

    def diag_max(key):
        return max((abs(s["diag"][key]) for s in counted if key in s["diag"]), default=0.0)

    metrics = {
        "airy.calls": per_op("airy.calls"),
        "airy.points": per_op("airy.points"),
        "airy.series_points": per_op("airy.series_points"),
        "airy.asym_points": per_op("airy.asym_points"),
        "airy.busy_s": med("busy", "airy"),
        "airy.us_per_call": 1e6 * _ratio(all_busy("airy"), every["airy.calls"]),
        "airy.ns_per_point": 1e9 * _ratio(all_busy("airy"), every["airy.points"]),
        "quantum.scans": per_op("quantum.scans"),
        "quantum.roots_located": per_op("quantum.roots_located"),
        "quantum.useful_root_ratio": _ratio(tot["quantum.levels_returned"],
                                            tot["quantum.roots_located"]),
        "quantum.airy_calls_per_level": _ratio(tot["airy.calls"],
                                               tot["quantum.levels_returned"]),
        "quantum.scan.self_s": med("self", "quantum.scan"),
        "quantum.eigenstate.busy_s": med("busy", "quantum.eigenstate"),
        "quantum.eigenstate.grid_points": per_op("quantum.eigenstate.grid_points"),
        "quantum.transform.busy_s": med("busy", "quantum.transform"),
        "quantum.transform.panel_products": per_op("quantum.transform.panel_products"),
        "quantum.transform.bytes_computed": per_op("quantum.transform.bytes_computed"),
        "quantum.transform.ns_per_panel_product": 1e9 * _ratio(
            all_busy("quantum.transform"), every["quantum.transform.panel_products"]),
        "quantum.transform.parseval_deficit_max": diag_max("parseval_deficit"),
        "quantum.transform.closed_form_err_max": diag_max("closed_form_err"),
        "compare.self_s": med("self", "compare"),
        "classical.calls": per_op("classical.calls"),
        "classical.points": per_op("classical.points"),
        "classical.busy_s": med("busy", "classical"),
        "model.classical_state.calls": per_op("model.classical_state.calls"),
        "config.busy_s": med("busy", "config"),
        "cli.self_s": med("self", "cli"),
        "cli.files_written": per_op("cli.files_written"),
        "cli.csv_rows": per_op("cli.csv_rows"),
        "cli.csv_bytes": per_op("cli.csv_bytes"),
        "trace.overhead_ratio": (statistics.median(s["seconds"] for s in traced)
                                 / statistics.median(s["seconds"] for s in plain)),
    }
    missing = [key for key in workload.expected if every[key] == 0]
    return metrics, missing, k


# ---------------------------------------------------------------------------
# environment

def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: never ask a parent repo
        return None
    try:
        cp = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                            text=True, timeout=30)
    except OSError:
        return None
    return cp.stdout.strip() if cp.returncode == 0 else None


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs_dir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "threads_requested": os.environ["OPENBLAS_NUM_THREADS"]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    commit = _git("rev-parse", "HEAD")
    dirty = None
    if commit is not None:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {"git_commit": commit, "git_dirty": dirty, "wellprob": wellprob.__version__,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args, workload, env, catalogue, metrics, extra) -> None:
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} (closed loop, 1 client, 1 thread)")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        unit, meaning = catalogue[name]
        print(f"  {name:40s} {_fmt(value):>14s} {unit:9s} {meaning}")
    for line in extra:
        print("  " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(wellprob.__file__).resolve().parents:
        print(f"perfbench: wellprob was not imported from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        if args.setup_only:
            prepare(workload, args.seed, scratch)
            return 0
        setup_times = fresh_setup_seconds(workload.name, args.seed)
        t0 = time.perf_counter()
        ctx, inputs = prepare(workload, args.seed, scratch)
        setup_here = time.perf_counter() - t0
        keep_index = -1
        if workload.repeat_files:
            keep_index = random.Random(f"keep:{args.seed}").randrange(workload.min_ops)
        samples = measure(workload, ctx, inputs, args.seconds, bool(args.trace), keep_index)
        identical = (repeat_is_identical(workload, ctx, inputs, samples)
                     if workload.repeat_files else True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(samples)
    failed = sum(1 for s in samples if s["failure"])
    times = [s["seconds"] for s in samples if not s["traced"]]
    extra = [f"ops attempted {attempted}, failed {failed}, "
             f"failed_ratio {_fmt(failed / attempted)}",
             f"setup_s samples {[_fmt(t) for t in setup_times]}, "
             f"in-process set-up after imports {_fmt(setup_here)} s",
             f"byte-identical repeat of op {keep_index}: {identical}"
             if workload.repeat_files else "byte-identical repeat: not applicable"]
    if args.trace:
        metrics, missing, k = per_layer_metrics(workload, samples)
        extra.append(f"counters are per op over the first {k} traced ops (exact for a seed)")
        extra.append(f"untraced op_p50_s {_fmt(statistics.median(times))} s over "
                     f"{len(times)} ops")
        for key in missing:
            msg = (f"layer coverage: workload {workload.name} expects calls but "
                   f"{key} is 0; a wrapped public name may have been bypassed")
            print(f"perfbench: warning: {msg}", file=sys.stderr)
            extra.append("WARNING " + msg)
    else:
        metrics = end_to_end_metrics(samples, setup_times)
        t = tail(times)
        extra.append(f"op_p50_s is the median of {len(times)} ops")
        extra.append("op_tail_s n/a: fewer than 11 ops" if t is None else
                     f"op_tail_s {_fmt(t[1])} s = p{t[0]:.1f} of {len(times)} ops "
                     f"(10 ops above it)")
    correct = failed == 0 and identical
    env = environment()
    catalogue = PER_LAYER if args.trace else END_TO_END
    report(args, workload, env, catalogue, metrics, extra)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_s_samples": setup_times,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "notes": extra,
              "ops": [{key: v for key, v in s.items() if key != "files"} for s in samples]}
    record_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": catalogue[name][0]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
