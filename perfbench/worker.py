"""Child process of the benchmark. run.py starts it with eigencollide's source
on PYTHONPATH and BLAS threads pinned to 1; it writes one JSON result file.

    worker.py setup   WORKLOAD SEED SECONDS WORK_DIR RESULT
    worker.py measure WORKLOAD SEED SECONDS WORK_DIR RESULT
    worker.py trace   WORKLOAD SEED SECONDS WORK_DIR RESULT

setup    time from process start through import, config parse and the first
         call of every kind at its smallest size (the caches fill here),
         then the host speed probe, SETUP_PROBES times.
measure  warm up, then run whole rounds (every call of the workload once),
         untraced, until SECONDS have passed; time each call in wall and in
         process CPU seconds, and check its output.
trace    warm up, then run TRACE_ROUNDS rounds, each call once untraced and
         once traced with the same inputs; the two outputs must be identical.

Each call's output gets its structural checks. The per-mesh hit counts of
all full-size calls of a run (the untraced ones, in trace mode) are pooled
and tested once against the reference counts when the run ends; that pooled
test counts as one more attempted check.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

TRACE_ROUNDS = 2
SETUP_PROBES = 5


def _import_program() -> dict:
    import numpy
    import scipy

    import eigencollide
    from eigencollide import cli, config, experiments  # noqa: F401

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(eigencollide.__file__).startswith(src + os.sep):
        raise RuntimeError(f"eigencollide imported from {eigencollide.__file__}, not from ./src")
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _warm_up(workload, seed, work_dir) -> None:
    for j, op in enumerate(wl.warmup_ops(workload, seed, work_dir)):
        out = op.call(os.path.join(work_dir, "out", f"warmup-{j}"))
        fails = op.check(out)
        if fails:
            raise RuntimeError(f"warm-up call {op.name} failed: {fails}")


def _run(op, out_dir, totals=None):
    """(wall seconds, CPU seconds, failure messages, output) of one call
    and its checks; the CPU time is the process's, over all its threads.

    The call's per-mesh hits are added to totals unless it is None.
    """
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        out = op.call(out_dir)
    except Exception:
        out, fails = None, [f"{op.name}: {traceback.format_exc(limit=3)}"]
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    if out is not None:
        try:
            fails = op.check(out)
            if totals is not None:
                wl.pool(totals, op.tally(out))
        except Exception:
            fails = [f"{op.name}: output unreadable: {traceback.format_exc(limit=3)}"]
    return wall, cpu, fails, out


def _reference_check(totals) -> tuple:
    """(attempted, failed, messages) of the pooled reference test."""
    if not totals:
        return 0, 0, []
    fails = wl.check_pooled(totals)
    return 1, int(bool(fails)), fails


def setup(workload, seed, seconds, work_dir) -> dict:
    versions = _import_program()
    _warm_up(workload, seed, work_dir)
    setup_s = time.perf_counter() - _START
    probes = [wl.probe_s() for _ in range(SETUP_PROBES)]
    return {"setup_s": setup_s, "probe_s": probes, "versions": versions}


def measure(workload, seed, seconds, work_dir) -> dict:
    versions = _import_program()
    reference = wl.load_reference()
    _warm_up(workload, seed, work_dir)
    calls, messages, attempted, failed, totals = [], [], 0, 0, {}
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for j, op in enumerate(wl.round_ops(workload, seed, k, work_dir, reference)):
            wall, cpu, fails, _ = _run(op, os.path.join(work_dir, "out", f"r{k}-{j}"), totals)
            attempted += 1
            failed += bool(fails)
            messages += fails
            calls.append({"name": op.name, "round": k, "wall_s": wall, "cpu_s": cpu, "replicas": op.replicas})
        k += 1
    ref_attempted, ref_failed, ref_fails = _reference_check(totals)
    return {
        "calls": calls,
        "attempted": attempted + ref_attempted,
        "failed": failed + ref_failed,
        "messages": messages + ref_fails,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions,
    }


def trace(workload, seed, seconds, work_dir) -> dict:
    from tracing import OP_SPAN, Tracer, installed, layer_metrics

    versions = _import_program()
    reference = wl.load_reference()
    _warm_up(workload, seed, work_dir)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    messages, attempted, failed, totals = [], 0, 0, {}
    for k in range(TRACE_ROUNDS):
        for j, op in enumerate(wl.round_ops(workload, seed, k, work_dir, reference)):
            dt, _, fails, plain = _run(op, os.path.join(work_dir, "out", f"r{k}-{j}-plain"), totals)
            plain_s += dt
            tracer.op = f"r{k}-{j}"
            with installed(tracer), tracer.span(OP_SPAN):
                dt, _, traced_fails, traced = _run(op, os.path.join(work_dir, "out", f"r{k}-{j}-traced"))
            traced_s += dt
            if plain is not None and traced is not None and op.fingerprint(plain) != op.fingerprint(traced):
                traced_fails = traced_fails + [f"{op.name}: output differs with tracing on"]
            attempted += 2
            failed += bool(fails) + bool(traced_fails)
            messages += fails + traced_fails
    ref_attempted, ref_failed, ref_fails = _reference_check(totals)
    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    with open(os.path.join(work_dir, "spans.json"), "w") as fh:
        json.dump(
            {"fields": ["id", "name", "start", "end", "parent", "op"], "spans": tracer.spans,
             "counts": dict(tracer.counts)},
            fh,
        )
    return {
        "metrics": metrics,
        "calls": attempted // 2,
        "attempted": attempted + ref_attempted,
        "failed": failed + ref_failed,
        "messages": messages + ref_fails,
        "versions": versions,
    }


def main() -> int:
    mode, workload, seed, seconds, work_dir, result = sys.argv[1:7]
    run = {"setup": setup, "measure": measure, "trace": trace}[mode]
    out = run(workload, int(seed), float(seconds), work_dir)
    with open(result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
