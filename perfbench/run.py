"""Benchmark of eigencollide's Monte Carlo estimator, end to end and per layer.

    python3 perfbench/run.py --workload collide-d2 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it imports eigencollide from ./src;
nothing is built or installed). Workloads are listed, with the reason each
was chosen, in BENCHMARK.json.

--trace 0 prints the end-to-end metrics, all from untraced processes. A
round is every public call of the workload once (a CLI subcommand or one
small_time_study), with fresh inputs; rounds repeat until --seconds pass.
Calls are timed in CPU seconds of the measuring process, summed over its
threads. On a shared 2-vCPU Intel Xeon virtual machine the wall time of the
same call ranged over 1x to 1.6x with the load of other guests, and CPU time
varied about half as much. On smalltime-d4, which runs nproc threads, a
change that only makes the threads overlap better shows in the traced
experiments.parallel_eff, not in these metrics.
  replicas_per_cpu_s  median over rounds of a round's Monte Carlo replicas
                  over the summed CPU time of its calls. Replicas are path
                  replicas (collide-d2, smalltime-d4) or random matrices drawn
                  (degenerate-geometry: gap-fit samples and chart points).
  op_cpu_s_p50    median CPU seconds per call, taken for each kind of call
                  in the round and averaged over the kinds (the kinds differ
                  in size, so a pooled median would depend on which kind
                  sits in the middle).
  setup_s         median over SETUP_PROCESSES fresh processes of the wall time
                  from start through import, config parse and the first call
                  of each kind at its smallest size. Each process then runs
                  the host speed probe in workloads.py and its time is scaled
                  to a host that runs the probe in CAL_REF_S (this was
                  steadier than the processes' CPU time).
  peak_rss_mb     peak resident set of the measuring process.
The wall-time figures, the unscaled set-up times, the pooled per-call median
and the highest percentile the call count supports are printed too, with the
count.
--trace 1 prints the per-layer metrics of a traced run (see tracing.py).

Calls that fail their output checks count in "failed" against "attempted".
Every process runs with OMP/OPENBLAS/MKL threads pinned to 1, so the
program's own `threads` is the only parallelism. The last stdout line is
the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_PROCESSES = 7
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_ROOT = ".perfbench_work"


def _child(mode, args, work_dir, index=0) -> dict:
    result = os.path.join(work_dir, f"{mode}-{index}.json")
    env = dict(os.environ, **PINNED, PYTHONPATH=os.path.abspath("src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
         str(args.seed), str(args.seconds), work_dir, result],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        # a measuring child runs --seconds plus warm-up and one round past it
        timeout=2 * args.seconds + 120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark {mode} process failed with exit code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join("src", "eigencollide")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_sha():
    if not os.path.isdir(".git"):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def _percentile_note(calls: list) -> str:
    """The highest percentile with at least ten calls beyond it."""
    n = len(calls)
    if n < 20:
        return f"{n} calls: no percentile has ten calls beyond it"
    q = 1.0 - 10.0 / n
    cut = statistics.quantiles(calls, n=1000)[int(q * 1000) - 1]
    return f"{n} calls: p{100 * q:.1f} = {cut:.4f} s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "eigencollide", "__init__.py")):
        print("error: run from the root of an eigencollide checkout (no src/eigencollide)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    work_dir = os.path.abspath(os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    if args.trace:
        res = _child("trace", args, work_dir)
        values = res["metrics"]
        summary = [f"traced {res['calls']} calls twice; spans in {work_dir}/spans.json"]
    else:
        setups = [_child("setup", args, work_dir, i) for i in range(SETUP_PROCESSES)]
        res = _child("measure", args, work_dir)
        calls = res["calls"]
        rounds, by_kind = {}, {}
        for c in calls:
            rounds.setdefault(c["round"], []).append(c)
            by_kind.setdefault(c["name"], []).append(c)
        # seconds on a host running the probe in CAL_REF_S, per seconds here
        setup_scaled = [s["setup_s"] * wl.CAL_REF_S / statistics.median(s["probe_s"]) for s in setups]

        def timed(clock):
            rate = statistics.median(
                sum(c["replicas"] for c in rc) / sum(c[clock] for c in rc) for rc in rounds.values())
            op = statistics.mean(statistics.median(c[clock] for c in kc) for kc in by_kind.values())
            return rate, op

        values = dict(zip(("replicas_per_cpu_s", "op_cpu_s_p50"), timed("cpu_s")))
        values["setup_s"] = statistics.median(setup_scaled)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        cpu = [c["cpu_s"] for c in calls]
        summary = [
            f"{len(rounds)} rounds of {len(by_kind)} calls; pooled per-call CPU p50 = "
            f"{statistics.median(cpu):.4f} s; " + _percentile_note(cpu),
            "wall time: replicas_per_s = {:.6g}, op_s_p50 = {:.6g}".format(*timed("wall_s")),
            f"setup_s over {SETUP_PROCESSES} processes, unscaled / scaled: "
            + ", ".join(f"{s['setup_s']:.4f}/{v:.4f}" for s, v in zip(setups, setup_scaled)),
        ]

    for msg in res["messages"][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for line in summary:
        print(f"# {args.workload}: {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    environment = {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        **res["versions"],
        "nproc": wl.nproc(),
        "pinned_threads": PINNED,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
