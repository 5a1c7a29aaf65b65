"""qsslab benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is probe-2q, classify-mixed, cli-probe, or all (each workload in
turn, in its own process). The run builds its inputs from --seed, runs
positive controls, times operations for --seconds (and at least the
workload's fixed quality set), checks every result, prints one line per
metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs each input of
the fixed set untraced and then traced (as many as fit in --seconds) and
reports per-layer calls and self time per operation, counters, and the
tracing overhead. Its spans are written to
perfbench/out/spans-<workload>-<seed>.csv.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PKG = ROOT / "src" / "qsslab"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
IMPORT_REPS = 5
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import qsslab; "
                "print(time.perf_counter() - t0)")
WORKLOAD_NAMES = ("probe-2q", "classify-mixed", "cli-probe")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class LibraryMissing(RuntimeError):
    pass


def load_library():
    """Pin BLAS to one thread, import qsslab from this checkout's src/,
    and return the import time in seconds."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QSSLAB_WORKERS", None)
    if not (PKG / "__init__.py").is_file():
        raise LibraryMissing(f"no qsslab sources at {PKG}")
    for path in (str(HERE), str(PKG.parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    import qsslab

    elapsed = time.perf_counter() - t0
    if Path(qsslab.__file__).resolve().parent != PKG.resolve():
        raise LibraryMissing(f"imported qsslab from {qsslab.__file__}, not {PKG}")
    return elapsed


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def cpu_seconds():
    """CPU time of this process plus its waited-for descendants."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def peak_rss_mb(in_child):
    """Peak resident set of the processes that do the measured work: the
    largest waited-for child when ``in_child``, else this process."""
    who = resource.RUSAGE_CHILDREN if in_child else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Op:
    seconds: float
    cpu_seconds: float
    checked: object  # workloads.Checked


def run_op(wl, inp, tracer=None):
    """Time one operation, then check its result."""
    from workloads import Checked, Violation

    error = None
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.run(inp)
        else:
            tracer.active = True
            with tracer.span("bench.op"):
                result = wl.run(inp, tracer)
    except Violation:
        raise
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    t1 = time.perf_counter()
    c1 = cpu_seconds()
    if error is None:
        try:
            checked = wl.check(inp, result)
        except Violation:
            raise
        except Exception as exc:
            checked = Checked(errors=[f"check raised {exc!r}"])
    else:
        checked = Checked(errors=[error])
    for msg in checked.errors:
        print(f"FAILED operation: {msg}", file=sys.stderr)
    return Op(t1 - t0, c1 - c0, checked)


def run_ops(wl, inputs, seconds, min_ops):
    """Operations over ``inputs`` in order (cycling) until ``seconds`` have
    passed and at least ``min_ops`` are done."""
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(run_op(wl, inputs[len(ops) % len(inputs)]))
    return ops


def traced_run(wl, inputs, seconds, tracer):
    """Each input of the fixed set twice, untraced and then traced, until
    ``seconds`` have passed. Pairing the two runs of one input keeps drift
    in machine speed out of the overhead ratio; the wrappers are installed
    only around the traced operation."""
    from tracer import library_modules

    modules = library_modules()
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < wl.fixed_ops and (
        not traced or time.perf_counter() - start < seconds
    ):
        inp = inputs[len(traced)]
        untraced.append(run_op(wl, inp))
        tracer.install(modules)
        try:
            traced.append(run_op(wl, inp, tracer))
        finally:
            tracer.restore()
    return untraced, traced


def import_seconds():
    """Import time of qsslab in IMPORT_REPS fresh interpreters (interpreter
    start excluded: cli.startup_ms covers it); returns (median, all).
    These children import no more than a CLI operation does, so they never
    raise cli-probe's peak_rss_mb."""
    from workloads import child_env

    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER],
                              env=child_env(), capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times), times


def setup(wl, seed, workdir):
    """Inputs, positive controls and warm-up, SETUP_REPS times; returns
    (median seconds, all times, inputs, control errors)."""
    from workloads import positive_controls

    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = wl.make_inputs(seed, workdir)
        errors = positive_controls()
        wl.warm_up(workdir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times, inputs, errors


def end_to_end(wl, ops, setup_s, out):
    n = len(ops)
    ms = [op.seconds * 1e3 for op in ops]
    fixed = [op.checked for op in ops[: wl.fixed_ops]]
    scores = [c.score for c in fixed if c.score is not None]
    verdicts = sum(c.verdicts for c in fixed)
    certified = sum(c.certified for c in fixed)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / (sum(ms) / 1e3), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "cpu_s_per_op": (sum(op.cpu_seconds for op in ops) / n, "s"),
        "peak_rss_mb": (peak_rss_mb(wl.in_child), "MB"),
        "score_mean": (statistics.fmean(scores) if scores else 0.0, "score"),
        "certified_ratio": (certified / verdicts if verdicts else 0.0, "ratio"),
    }
    out(f"samples: {n} operations; score_mean and certified_ratio over the "
        f"first {len(fixed)} ({len(scores)} scores, {verdicts} verdicts)")
    if n >= 100:
        p90 = statistics.quantiles(ms, n=10)[8]
        out(f"info op_ms.p90 = {p90:.6g} ms (n={n})")
    else:
        out(f"info op_ms.p90 not reported: {n} < 100 operations")
    return metrics


def per_layer(wl, untraced, traced, tracer, out):
    """Per-layer metrics of the traced operations. Each traced operation is
    also checked against its span tree (tracer.op_errors); a failure is
    added to that operation's errors."""
    from tracer import ROUTES, SPAN_TARGETS, op_errors, self_times

    n = len(traced)
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    span_errors = op_errors(tracer.starts, tracer.ends, tracer.parents, selfs,
                            wl.min_layer_share)
    assert len(span_errors) == n, "one root span per traced operation"
    for op, errors in zip(traced, span_errors):
        for msg in errors:
            print(f"FAILED traced operation: {msg}", file=sys.stderr)
        op.checked.errors.extend(errors)
    calls, self_s, total_s = {}, {}, {}
    for name, s, e, own in zip(tracer.names, tracer.starts, tracer.ends, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + (e - s)
    ctr = tracer.counters
    metrics = {}
    for _, _, name in SPAN_TARGETS:
        metrics[f"{name}.calls_per_op"] = (calls.get(name, 0) / n, "count")
        metrics[f"{name}.self_ms_per_op"] = (self_s.get(name, 0.0) * 1e3 / n, "ms")
    evals = ctr["search.evaluations"] / n
    metrics["search.evaluations_per_op"] = (evals, "count")
    metrics["qss.heuristic_search.evaluations_per_op"] = (
        ctr["qss.heuristic_search.evaluations"] / n, "count")
    verdicts = ctr["qss.classify.verdicts"]
    for route in ROUTES:
        share = ctr[f"qss.route.{route}"] / verdicts if verdicts else 0.0
        metrics[f"qss.route.{route}.share"] = (share, "ratio")
    outcomes = calls.get("search.outcome_score", 0)
    metrics["search.concurrence_per_outcome"] = (
        calls.get("entanglement.concurrence_matrix", 0) / outcomes
        if outcomes else 0.0, "ratio")
    metrics["cli.startup_ms"] = (total_s.get("cli.startup", 0.0) * 1e3 / n, "ms")

    op_ms = total_s["bench.op"] * 1e3 / n
    glue_ms = self_s["bench.op"] * 1e3 / n
    layers_ms = sum(v for k, v in self_s.items() if k != "bench.op") * 1e3 / n
    untraced_ms = sum(op.seconds for op in untraced) * 1e3 / len(untraced)
    metrics["trace.op_ms"] = (op_ms, "ms")
    metrics["trace.unattributed_ms_per_op"] = (glue_ms, "ms")
    metrics["trace.overhead_ratio"] = (op_ms / untraced_ms, "ratio")

    out(f"traced {n} operations ({len(tracer.names)} spans), each paired "
        f"with an untraced run of the same input")
    out(f"tracing overhead: traced ops_per_s {1e3 / op_ms:.6g} vs untraced "
        f"ops_per_s {1e3 / untraced_ms:.6g} (ratio {op_ms / untraced_ms:.4f})")
    bad = sum(1 for errors in span_errors if errors)
    share = (f", at least {wl.min_layer_share:.0%} of it in the layers"
             if wl.min_layer_share is not None else "")
    out(f"span check (each traced op's self times add up to its time"
        f"{share}): {n - bad}/{n} ops pass; per op: layers {layers_ms:.6g} ms"
        f" + unattributed {glue_ms:.6g} ms, traced op time {op_ms:.6g} ms")
    if tracer.missing:
        out(f"not found in the library (reported as 0): {tracer.missing}")
    if evals:
        out(f"per-evaluation cost ({evals:.6g} evaluations per op), "
            f"self time in us per evaluation:")
        rows = sorted(self_s.items(), key=lambda kv: -kv[1])
        for name, s in rows:
            label = name if name != "bench.op" else "bench.op (unattributed)"
            out(f"  {label:40s} {s * 1e6 / n / evals:10.3f}")
    if wl.name == "cli-probe":
        out("spans recorded inside the CLI's pool worker processes are out of "
            "scope: optimize_protocol self time there is mostly waiting on the "
            "pool, and search.evaluations counts only in-process evaluations")
    return metrics


def run_workload(wl, args, import_s):
    from tracer import Tracer
    from workloads import Violation

    def out(line):
        print(line, flush=True)

    out(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    out(f"env {json.dumps(environment(), sort_keys=True)}")
    out(f"input: {wl.describe()}")
    workdir = OUT / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        import_med, import_all = import_seconds()
        setup_med, setup_all, inputs, control_errors = setup(wl, args.seed, workdir)
        out(f"setup: median of {IMPORT_REPS} fresh imports {import_med:.4f} s "
            f"({', '.join(f'{t:.4f}' for t in import_all)}; in this process "
            f"{import_s:.4f}) + median of {SETUP_REPS} set-ups {setup_med:.4f} "
            f"s ({', '.join(f'{t:.4f}' for t in setup_all)})")
        for msg in control_errors:
            print(f"FAILED positive {msg}", file=sys.stderr)
        out(f"positive controls: {'FAILED' if control_errors else 'ok'}")
        if args.trace:
            tracer = Tracer()
            ops, traced = traced_run(wl, inputs, args.seconds, tracer)
            metrics = per_layer(wl, ops, traced, tracer, out)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{wl.name}-{args.seed}.csv.gz"
            tracer.write(spans_path)
            out(f"spans written to {os.path.relpath(spans_path, ROOT)}")
            ops = ops + traced
        else:
            ops = run_ops(wl, inputs, args.seconds, wl.fixed_ops)
            metrics = end_to_end(wl, ops, import_med + setup_med, out)
    except Violation as exc:
        print(f"VIOLATION: {exc}. Aborting: a certified QSS x QSS pair must "
              f"never be purified.", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op.checked.errors)
    out(f"info fail_ratio = {failed}/{len(ops)} = {failed / len(ops):.6g}")
    for name, (value, unit) in metrics.items():
        out(f"metric {name} = {value:.6g} {unit}")
    correct = failed == 0 and not control_errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process; prints their output and a
    combined JSON line with metrics named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined), flush=True)
    return code


def main(argv=None, workload=None):
    """Entry point. ``workload`` replaces the named workload's default
    instance (used by the tests to run at tiny sizes)."""
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_s = load_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = workload if workload is not None else WORKLOADS[args.workload]()
    return run_workload(wl, args, import_s)


if __name__ == "__main__":
    sys.exit(main())
