"""Workload definitions: generated configs, the public calls that run them,
and law-level checks of their outputs.

Every call's inputs come from (workload, seed, round index) only, so the same
seed gives the same configs. The program under test sees only the config
files (and, for the small-time study, the parsed config's values).

Output checks are statements about the law of the estimator, not about bits,
so they stay valid when the random stream changes:

* structural: 0 <= hits <= replicas, p_hat = hits / replicas,
  wilson_lo <= p_hat <= wilson_hi, delta_N = kappa ((b - a) / N)^H;
* per-mesh hit counts, pooled over every call of a run, against the
  reference counts in reference.json (recorded with many replicas) by
  Fisher's exact test: the run fails when its count is in a tail of
  probability below REFERENCE_TAIL under a shared hit rate;
* gap-fit slope near beta + 1;
* unit-interval energy against 8/3 by its z-score.

The d = 3 box-counting slope is deliberately not checked: the surrogate reads
about 1.2 against a chart count of 4, a limit of box counting on a few
thousand points, not a defect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("collide-d2", "smalltime-d4", "degenerate-geometry")

# collide-d2: the criteria 05/06 problem (d = 2, window [1, 2], ladder
# 256..16384), one `sweep` call per beta, both sides of H = 1/(1+beta)
LADDER = tuple(2**k for k in range(8, 15))
COLLIDE_SWEEPS = ((1, (0.3, 0.7)), (2, (0.25, 0.45)))
COLLIDE_REPLICAS = 32  # one replica batch per H
COLLIDE_KAPPA = 1.0

# smalltime-d4: origin-anchored windows (0, T], eigensolver gap path; kappa
# puts p_hat near 1/2 (it is the same for every T by self-similarity, A = 0)
SMALLTIME = {
    "beta": 2,
    "d": 4,
    "hurst": 0.25,
    "T_values": (1.0, 0.5, 0.25, 0.125),
    "intervals": 1024,
    "replicas": 64,
    "kappa": 0.5,
}

# degenerate-geometry: gapfit, capacity and boxdim on d = 3, beta = 1 and 2
GEOMETRY_D = 3
GEOMETRY_SECTIONS = {
    "gapfit": {"t0": 1.0, "samples": 100_000},
    "capacity": {"alpha": 0.5, "pairs": 500, "divergent_alpha": 1.5, "oracle_pairs": 200_000},
    "boxdim": {"points": 2000, "nscales": 6},
}
# minimum sizes each subcommand accepts; used for warm-up and set-up calls
GEOMETRY_MIN_SECTIONS = {
    "gapfit": {"t0": 1.0, "samples": 10_000},
    "capacity": {"alpha": 0.5, "pairs": 10, "divergent_alpha": 1.5, "oracle_pairs": 10},
    "boxdim": {"points": 1000, "nscales": 4},
}
# |slope - (beta + 1)| limits, as in the gap-exponent acceptance criterion
GAPFIT_TOL = {1: 0.2, 2: 0.3}
ENERGY_Z_MAX = 5.0

# false-alarm probability of each pooled reference test, per tail
REFERENCE_TAIL = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Host speed probe: a fixed mix of interpreter work and an FFT of the
# program's transform length. On a shared host the same code runs up to 1.6x
# slower for minutes at a time, and the probe slows with it, so set-up time
# is reported as if the probe took CAL_REF_S (about its time on an
# uncontended 2-vCPU Intel Xeon virtual machine).
CAL_REF_S = 0.02


def probe_s() -> float:
    """Seconds the host takes for the fixed probe workload."""
    import numpy as np

    z = np.random.default_rng(0).standard_normal((4, 65536))
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    np.fft.ifft(z, axis=1)
    return time.perf_counter() - start


class OpError(RuntimeError):
    """A public call returned a failure code."""


@dataclass
class Op:
    """One public call: a CLI subcommand or one small_time_study.

    call(out_dir) runs it and returns its output; check(output) returns the
    failed structural checks; tally(output) maps each mesh that has a
    reference count to (reference hits, reference replicas, hits, replicas),
    for the pooled reference test; fingerprint(output) returns the bytes
    that must not depend on tracing.
    """

    name: str
    replicas: int
    call: Callable[[str], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], bytes]
    tally: Callable[[object], dict] = lambda out: {}


def op_seed(workload: str, seed: int, round_index: int, slot: int) -> int:
    """Master seed handed to the program for one call; a function of the inputs."""
    return random.Random(f"{workload}:{seed}:{round_index}:{slot}").randrange(1, 2**31)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# pooled hit counts against the reference (Fisher's exact test)
# ---------------------------------------------------------------------------


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_tails(ref_hits: int, ref_n: int, hits: int, n: int) -> tuple:
    """P(X <= hits) and P(X >= hits) if the run and the reference share one
    hit rate: X is hypergeometric, the hits of n replicas drawn from the
    ref_n + n replicas of both samples given their ref_hits + hits hits.
    """
    m, total = ref_hits + hits, ref_n + n
    pmf = {
        x: math.exp(_log_comb(m, x) + _log_comb(total - m, n - x) - _log_comb(total, n))
        for x in range(max(0, n - (total - m)), min(m, n) + 1)
    }
    return sum(p for x, p in pmf.items() if x <= hits), sum(p for x, p in pmf.items() if x >= hits)


def pool(totals: dict, tally: dict) -> None:
    """Add one call's per-mesh hits and replicas to the run's totals."""
    for label, (ref_hits, ref_n, hits, n) in tally.items():
        t = totals.setdefault(label, [ref_hits, ref_n, 0, 0])
        t[2] += hits
        t[3] += n


def check_pooled(totals: dict) -> list:
    """Failed reference tests of the pooled per-mesh hit counts."""
    fails = []
    for label, (ref_hits, ref_n, hits, n) in sorted(totals.items()):
        tail = min(fisher_tails(ref_hits, ref_n, hits, n))
        if tail < REFERENCE_TAIL:
            fails.append(
                f"{label}: {hits} hits in {n} pooled replicas against {ref_hits} in {ref_n} "
                f"in the reference; tail probability {tail:.3g} < {REFERENCE_TAIL}"
            )
    return fails


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def collide_key(beta: int, hurst: float) -> str:
    return f"beta{beta}/H{hurst}"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_stats(label, hits, n, p_hat, lo, hi, delta, want_delta, want_n):
    fails = []
    if n != want_n:
        fails.append(f"{label}: replicas {n} != {want_n}")
    if not 0 <= hits <= n:
        fails.append(f"{label}: hits {hits} outside [0, {n}]")
    elif not math.isclose(p_hat, hits / n, rel_tol=1e-12, abs_tol=1e-15):
        fails.append(f"{label}: p_hat {p_hat} != hits/replicas")
    if not lo <= p_hat <= hi:
        fails.append(f"{label}: p_hat {p_hat} outside Wilson [{lo}, {hi}]")
    if not math.isclose(delta, want_delta, rel_tol=1e-12):
        fails.append(f"{label}: delta {delta} != kappa*mesh^H = {want_delta}")
    return fails


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check_sweep(path, beta, hs, replicas):
    rows = _read_csv(path)
    fails, seen = [], set()
    for r in rows:
        h, N = float(r["hurst"]), int(r["mesh_cells"])
        a, b = float(r["a"]), float(r["b"])
        seen.add((h, N))
        fails += _check_stats(
            f"sweep beta={beta} H={h} N={N}",
            int(r["hits"]), int(r["replicas"]), float(r["p_hat"]),
            float(r["wilson_lo"]), float(r["wilson_hi"]), float(r["delta"]),
            COLLIDE_KAPPA * ((b - a) / N) ** h, replicas,
        )
    if seen != {(h, N) for h in hs for N in LADDER}:
        fails.append(f"sweep beta={beta}: rows do not cover every (H, mesh)")
    return fails


def _tally_sweep(path, beta, reference):
    ref = reference["collide-d2"]
    tally = {}
    for r in _read_csv(path):
        key, N = collide_key(beta, float(r["hurst"])), int(r["mesh_cells"])
        tally[f"sweep {key}/N{N}"] = (
            ref["hits"][key][LADDER.index(N)], ref["replicas"], int(r["hits"]), int(r["replicas"]),
        )
    return tally


def _tally_smalltime(stats, reference):
    ref = reference["smalltime-d4"]
    return {
        f"smalltime T={T}": (ref["hits"][i], ref["replicas"], st.hits, st.replicas)
        for i, (T, st) in enumerate(zip(SMALLTIME["T_values"], stats))
    }


def _check_smalltime(stats, replicas):
    cfg = SMALLTIME
    fails = []
    if len(stats) != len(cfg["T_values"]):
        return [f"small_time_study returned {len(stats)} rows"]
    for T, st in zip(cfg["T_values"], stats):
        N = cfg["intervals"]
        fails += _check_stats(
            f"smalltime T={T}", st.hits, st.replicas, st.p_hat, st.wilson_lo,
            st.wilson_hi, st.delta, cfg["kappa"] * (T / N) ** cfg["hurst"], replicas,
        )
        if st.intervals != N or tuple(st.interval) != (0.0, T):
            fails.append(f"smalltime T={T}: window {st.interval} / mesh {st.intervals}")
    return fails


def _check_gapfit(path, beta, samples):
    (r,) = _read_csv(path)
    slope, stderr = float(r["slope"]), float(r["stderr"])
    fails = []
    if int(r["samples"]) != samples:
        fails.append(f"gapfit beta={beta}: samples {r['samples']} != {samples}")
    if not abs(slope - (beta + 1)) <= GAPFIT_TOL[beta]:
        fails.append(f"gapfit beta={beta}: slope {slope} not within {GAPFIT_TOL[beta]} of {beta + 1}")
    if not (math.isfinite(stderr) and stderr >= 0):
        fails.append(f"gapfit beta={beta}: stderr {stderr}")
    return fails


def _check_capacity(path, beta, section):
    rows = _read_csv(path)
    fails = []
    energy = [r for r in rows if r["kind"] == "energy_unit_interval"]
    bounds = [r for r in rows if r["kind"] == "degenerate_chart_bound"]
    if len(energy) != 1 or len(bounds) != 2:
        return [f"capacity beta={beta}: unexpected rows {[r['kind'] for r in rows]}"]
    (e,) = energy
    value, stderr = float(e["value"]), float(e["stderr"])
    z = (value - 8.0 / 3.0) / stderr if stderr > 0 else math.inf
    if not abs(z) <= ENERGY_Z_MAX:
        fails.append(f"capacity beta={beta}: unit-interval energy z = {z}")
    for r, alpha in zip(bounds, (section["alpha"], section["divergent_alpha"])):
        label = f"capacity beta={beta} alpha={alpha}"
        bound, en = float(r["value"]), float(r["energy"])
        if float(r["alpha"]) != alpha or int(r["pairs"]) != section["pairs"]:
            fails.append(f"{label}: row is for alpha={r['alpha']} pairs={r['pairs']}")
        if not (math.isfinite(bound) and bound > 0 and math.isclose(bound * en, 1.0, rel_tol=1e-12)):
            fails.append(f"{label}: bound {bound} is not 1/energy {en}")
        if int(r["divergent_pairs"]) != 0:
            fails.append(f"{label}: {r['divergent_pairs']} singular pairs")
    if bounds[0]["divergent"] != "false":
        fails.append(f"capacity beta={beta}: alpha={section['alpha']} flagged divergent")
    return fails


def _check_boxdim(path, beta, points):
    (r,) = _read_csv(path)
    slope, resid = float(r["slope"]), float(r["fit_residual"])
    fails = []
    if int(r["points"]) != points:
        fails.append(f"boxdim beta={beta}: points {r['points']} != {points}")
    if not (math.isfinite(slope) and slope > 0 and math.isfinite(resid) and resid >= 0):
        fails.append(f"boxdim beta={beta}: slope {slope}, residual {resid}")
    return fails


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------


def _write_json(path: str, obj: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _cli_call(argv: list) -> Callable[[str], str]:
    def call(out_dir: str) -> str:
        from eigencollide import cli

        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", out_dir])
        if rc != 0:
            raise OpError(f"eigencollide {argv[0]} exited with {rc}")
        return os.path.join(out_dir, "results.csv")

    return call


def _collide_ops(workload, seed, k, cfg_dir, replicas, reference):
    ops = []
    for slot, (beta, hs) in enumerate(COLLIDE_SWEEPS):
        cfg = {
            "beta": beta,
            "d": 2,
            "hurst": hs[0],
            "interval": [1.0, 2.0],
            "intervals": LADDER[-1],
            "mesh_ladder": list(LADDER),
            "replicas": replicas,
            "kappa": COLLIDE_KAPPA,
            "seed": op_seed(workload, seed, k, slot),
            "sweep": {"hurst_values": list(hs)},
        }
        path = _write_json(os.path.join(cfg_dir, f"sweep-beta{beta}.json"), cfg)
        ops.append(Op(
            name=f"sweep-beta{beta}",
            replicas=replicas * len(hs),
            call=_cli_call(["sweep", "--config", path, "--threads", "1"]),
            check=lambda out, b=beta, h=hs: _check_sweep(out, b, h, replicas),
            fingerprint=_file_bytes,
            tally=lambda out, b=beta: _tally_sweep(out, b, reference),
        ))
    return ops


def _smalltime_ops(workload, seed, k, cfg_dir, replicas, reference):
    c = SMALLTIME
    cfg = {
        "beta": c["beta"],
        "d": c["d"],
        "hurst": c["hurst"],
        "intervals": c["intervals"],
        "replicas": replicas,
        "kappa": c["kappa"],
        "seed": op_seed(workload, seed, k, 0),
        "smalltime": {"T_values": list(c["T_values"])},
    }
    path = _write_json(os.path.join(cfg_dir, "smalltime.json"), cfg)
    threads = nproc()

    def call(out_dir: str):
        from eigencollide import config, experiments

        ec = config.parse_config(path)
        return experiments.small_time_study(
            ec.beta, ec.d, ec.shift, ec.extras["smalltime"]["T_values"], ec.hurst[0],
            ec.intervals, ec.replicas, ec.seed, kappa=ec.kappa, threads=threads,
        )

    return [Op(
        name="small_time_study",
        replicas=replicas * len(c["T_values"]),
        call=call,
        check=lambda out: _check_smalltime(out, replicas),
        fingerprint=lambda out: repr(out).encode(),
        tally=lambda out: _tally_smalltime(out, reference),
    )]


def _geometry_ops(workload, seed, k, cfg_dir, sections, checked):
    ops = []
    for slot, beta in enumerate((1, 2)):
        cfg = {"beta": beta, "d": GEOMETRY_D, "seed": op_seed(workload, seed, k, slot)}
        cfg.update(sections)
        path = _write_json(os.path.join(cfg_dir, f"geometry-beta{beta}.json"), cfg)
        gap, cap, box = sections["gapfit"], sections["capacity"], sections["boxdim"]
        # replicas = random matrices the call draws
        counts = {
            "gapfit": gap["samples"],
            "capacity": 2 * 3 * cap["pairs"],  # two alphas, x and y at pairs/2 and pairs
            "boxdim": box["points"],
        }
        checks = {
            "gapfit": lambda out, b=beta: _check_gapfit(out, b, gap["samples"]),
            "capacity": lambda out, b=beta: _check_capacity(out, b, cap),
            "boxdim": lambda out, b=beta: _check_boxdim(out, b, box["points"]),
        }
        for sub in ("gapfit", "capacity", "boxdim"):
            ops.append(Op(
                name=f"{sub}-beta{beta}",
                replicas=counts[sub],
                call=_cli_call([sub, "--config", path]),
                check=checks[sub] if checked else (lambda out: []),
                fingerprint=_file_bytes,
            ))
    return ops


def round_ops(workload: str, seed: int, k: int, work_dir: str, reference: dict) -> list:
    """The public calls of round k, at full size, with every check."""
    return _ops(workload, seed, k, os.path.join(work_dir, "configs", f"round{k}"), reference)


def warmup_ops(workload: str, seed: int, work_dir: str) -> list:
    """Every call of a round at its smallest size: fills the program's caches.

    Structural checks only; warm-up calls are not pooled for the reference test.
    """
    return _ops(workload, seed, -1, os.path.join(work_dir, "configs", "warmup"), None)


def _ops(workload, seed, k, cfg_dir, reference):
    full = reference is not None
    if workload == "collide-d2":
        return _collide_ops(workload, seed, k, cfg_dir, COLLIDE_REPLICAS if full else 1, reference)
    if workload == "smalltime-d4":
        return _smalltime_ops(workload, seed, k, cfg_dir, SMALLTIME["replicas"] if full else 1, reference)
    if workload == "degenerate-geometry":
        sections = GEOMETRY_SECTIONS if full else GEOMETRY_MIN_SECTIONS
        return _geometry_ops(workload, seed, k, cfg_dir, sections, full)
    raise ValueError(f"unknown workload {workload!r}")
