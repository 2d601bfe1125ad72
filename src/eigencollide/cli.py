"""Batch CLI: experiment dispatch, result persistence, reproducibility metadata.

Result files (results.csv or results.jsonl) are a pure function of (config,
seed): no timestamps, no worker counts, floats printed with 17 significant
digits, rows in a fixed order. Run metadata that legitimately varies between
runs (timestamps, thread count, host info, CPU time, peak memory and page
faults) goes to manifest.json instead, so result files stay bit-identical
across worker counts.

Settings come from flags, then the config file, then defaults: --seed
overrides the file's seed, and --replicas its replicas for the subcommands
that read them (simulate, sweep); the environment is not read.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

from . import __version__
from .capacity import (
    box_counting_dim,
    capacity_lower_bound,
    collision_regime,
    energy_integral,
    uniform_unit_interval,
)
from .config import ExperimentConfig, config_to_dict, parse_config
from .ensembles import n_beta
from .experiments import (
    _collision_workers,
    _field_path_batch,
    _window_start,
    degenerate_point_cloud,
    flattened_degenerate_sampler,
    gap_exponent_fit,
    oracle_vector_reduction,
    phase_sweep,
    refinement_study,
)
from .fields import covariance_matrix
from .spectral import eigenprojection_contour, ordered_eigenvalues
from .streams import STREAM_VERSION, TAG_FIELD, TAG_SELFCHECK, substream


def _fmt(v) -> str:
    """One CSV/JSON token; floats at 17 significant digits (exact round trip)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    return str(v)


# python json convention for non-finite floats; json.loads accepts it
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_token(v) -> str:
    """One JSON token: _fmt's spelling, except non-finite floats and strings."""
    if isinstance(v, (bool, int, float, np.integer, np.floating)):
        token = _fmt(v)
        return _JSON_NONFINITE.get(token, token)
    return json.dumps(str(v))


def _write_results(out_dir: str, fmt: str, records: list) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "csv":
        path = os.path.join(out_dir, "results.csv")
        # union of keys in first-seen order; record kinds may differ per row
        header = list(dict.fromkeys(k for rec in records for k in rec))
        lines = [",".join(header)]
        for rec in records:
            lines.append(",".join(_fmt(rec[k]) if k in rec else "" for k in header))
    else:
        path = os.path.join(out_dir, "results.jsonl")
        lines = [
            "{" + ",".join(f"{json.dumps(k)}:{_json_token(v)}" for k, v in rec.items()) + "}"
            for rec in records
        ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _resources(start) -> dict:
    """What the run cost the process since start, a getrusage record: CPU
    seconds over all threads, minor page faults, and the peak resident set."""
    now = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": (now.ru_utime + now.ru_stime) - (start.ru_utime + start.ru_stime),
        # ru_maxrss is in kilobytes on Linux and in bytes on macOS
        "peak_rss_mb": now.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10),
        "minor_faults": now.ru_minflt - start.ru_minflt,
    }


def _write_manifest(out_dir, subcommand, config, threads, fmt, started, finished, resources):
    manifest = {
        "subcommand": subcommand,
        "artifact_version": __version__,
        "stream_version": STREAM_VERSION,
        "master_seed": config.seed,
        "worker_count": threads,
        "format": fmt,
        "started": started,
        "finished": finished,
        "resources": resources,
        "config": config_to_dict(config),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": (
                len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            ),
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _study_records(kind, config, hurst, study, **extra):
    """One row per ladder mesh of a refinement study at one H."""
    return [
        {
            "kind": kind,
            "beta": config.beta,
            "d": config.d,
            "hurst": float(hurst),
            "a": st.interval[0],
            "b": st.interval[1],
            "mesh_cells": st.intervals,
            "delta": st.delta,
            "replicas": st.replicas,
            "hits": st.hits,
            "p_hat": st.p_hat,
            "wilson_lo": st.wilson_lo,
            "wilson_hi": st.wilson_hi,
            "regime": collision_regime(config.beta, (hurst,)),
            "trend_last_over_first": study.trend_last_over_first,
            "trend_top_pair": study.trend_top_pair,
            **extra,
        }
        for st in study.stats
    ]


def _cmd_simulate(config: ExperimentConfig, threads: int) -> list:
    study = refinement_study(config, threads=threads)
    return _study_records("simulate", config, config.path_hurst(), study)


def _cmd_sweep(config: ExperimentConfig, threads: int) -> list:
    hurst_values = config.section("sweep")["hurst_values"]
    if not hurst_values:
        raise ValueError("sweep: config needs sweep.hurst_values (list of H)")
    result = phase_sweep(hurst_values, config, threads=threads)
    records = []
    for h, study in zip(result.hurst_values, result.studies):
        records += _study_records(
            "sweep", config, h, study, separation_ratio=result.separation_ratio
        )
    return records


def _cmd_gapfit(config: ExperimentConfig, threads: int) -> list:
    gf = config.section("gapfit")
    fit = gap_exponent_fit(
        config.beta, config.d, gf["t0"], gf["samples"], gf["window"], config.seed,
        hurst=config.path_hurst(),
    )
    return [
        {
            "kind": "gapfit",
            "beta": config.beta,
            "d": config.d,
            "t0": gf["t0"],
            "samples": gf["samples"],
            "window_lo": gf["window"][0],
            "window_hi": gf["window"][1],
            "slope": fit.slope,
            "stderr": fit.stderr,
            "expected_slope": float(config.beta + 1),
        }
    ]


def _cmd_capacity(config: ExperimentConfig, threads: int) -> list:
    cap = config.section("capacity")
    records = []
    est = energy_integral(uniform_unit_interval, 0.5, cap["oracle_pairs"], config.seed)
    ref = 8.0 / 3.0
    records.append(
        {
            "kind": "energy_unit_interval",
            "alpha": 0.5,
            "pairs": cap["oracle_pairs"],
            "value": est.value,
            "stderr": est.stderr,
            "divergent_pairs": est.divergent_pairs,
            "reference": ref,
            "z_score": (est.value - ref) / est.stderr if est.stderr > 0 else np.nan,
        }
    )
    alphas = (cap["alpha"], cap["divergent_alpha"])
    sampler = flattened_degenerate_sampler(config.d, config.beta)
    bounds = capacity_lower_bound(sampler, alphas, cap["pairs"], config.seed)
    for a, cb in zip(alphas, bounds):
        records.append(
            {
                "kind": "degenerate_chart_bound",
                "alpha": a,
                "pairs": cap["pairs"],
                "value": cb.bound,
                "stderr": cb.energy.stderr,
                "divergent_pairs": cb.energy.divergent_pairs,
                "energy": cb.energy.value,
                "divergent": cb.divergent,
            }
        )
    return records


def _cmd_boxdim(config: ExperimentConfig, threads: int) -> list:
    box = config.section("boxdim")
    cloud = degenerate_point_cloud(box["points"], config.d, config.beta, config.seed)
    span = float(np.linalg.norm(cloud.max(axis=0) - cloud.min(axis=0)))
    scales = np.geomspace(span / 256, span / 4, box["nscales"])
    res = box_counting_dim(cloud, scales)
    return [
        {
            "kind": "boxdim_degenerate",
            "beta": config.beta,
            "d": config.d,
            "points": box["points"],
            "nscales": box["nscales"],
            "slope": res.slope,
            "fit_residual": res.residual,
            "expected_slope": float(n_beta(config.beta, config.d) - config.beta - 1),
        }
    ]


def _selfcheck_record(name: str, statistic: float, threshold: float) -> dict:
    return {
        "kind": "selfcheck", "name": name, "statistic": statistic,
        "threshold": threshold, "passed": statistic <= threshold,
    }


def _cmd_selfcheck(config: ExperimentConfig, threads: int) -> list:
    """Quick composition of the documented checks; small sizes, fixed seeds."""
    records = []

    # covariance of the window sampler, 8 points on [1, 2], at three H mapping the
    # same normals: at H = 0.5 alone the anchor weights are 0 and the spectrum flat
    hs = (0.3, 0.5, 0.7)
    step, i0 = _window_start(1.0, 2.0, 7)
    paths = _field_path_batch(1, hs, step, i0, 8, config.seed, (TAG_FIELD,), 0, 2000)
    cov_err = 0.0
    for H, X in zip(hs, paths[:, :, 0]):
        R = covariance_matrix(np.linspace(1.0, 2.0, 8), H)
        S = X.T @ X / len(X)
        se = np.sqrt((np.outer(np.diag(R), np.diag(R)) + R**2) / len(X))
        cov_err = max(cov_err, float(np.max(np.abs(S - R) / (5.0 * se))))
    records.append(_selfcheck_record("covariance_exactness", cov_err, 1.0))

    # d = 2 closed-form oracle against the eigensolver pipeline
    for beta in (1, 2):
        cfg = config.replace(
            beta=beta, d=2, hurst=(0.3,), interval=(1.0, 2.0),
            intervals=256, mesh_ladder=None, replicas=100, shift=None,
            extras={},  # a section valid at the config's beta may not be at this one
        )
        disc = oracle_vector_reduction(cfg)
        records.append(_selfcheck_record(f"d2_oracle_beta{beta}", disc, 1e-10))

    # contour projector idempotence and solver agreement
    rng = substream(config.seed, TAG_SELFCHECK)
    worst_frob = 0.0
    worst_idem = 0.0
    done = 0
    while done < 50:
        G = rng.standard_normal((4, 4))
        M = 0.5 * (G + G.T)
        lam = ordered_eigenvalues(M)
        if lam[0] - lam[1] < 0.2:
            continue
        P = eigenprojection_contour(M, (0,))
        _, V = np.linalg.eigh(M)
        top = V[:, -1:]
        direct = top @ top.T
        worst_frob = max(worst_frob, float(np.linalg.norm(P - direct)))
        worst_idem = max(worst_idem, float(np.linalg.norm(P @ P - P)))
        done += 1
    records.append(_selfcheck_record("projector_vs_solver", worst_frob, 1e-8))
    records.append(_selfcheck_record("projector_idempotence", worst_idem, 1e-6))
    return records


_DISPATCH = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "gapfit": _cmd_gapfit,
    "capacity": _cmd_capacity,
    "boxdim": _cmd_boxdim,
    "selfcheck": _cmd_selfcheck,
}


# only these read a replica count and run a thread pool (at d <= 3), so only
# they take --replicas and --threads
_POOLED = ("simulate", "sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigencollide",
        description="Eigenvalue-collision Monte Carlo for matrix-valued fractional Gaussian processes",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--seed", type=int, help="master seed override")
        if name in _POOLED:
            p.add_argument("--replicas", type=int, help="replica count override")
            p.add_argument("--threads", type=int, default=1, help="worker threads, d <= 3 (default 1)")
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument(
            "--format", choices=("csv", "jsonl"), default="csv", help="results format (default csv)"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # a subcommand without --threads runs no pool: one worker
    threads = getattr(args, "threads", 1)
    try:
        if threads < 1:
            raise ValueError(f"--threads: need >= 1 worker, got {threads}")
        config = parse_config(args.config) if args.config else ExperimentConfig()
        overrides = {"seed": args.seed, "replicas": getattr(args, "replicas", None)}
        config = config.replace(**{k: v for k, v in overrides.items() if v is not None})
        threads = _collision_workers(config.d, threads)  # the manifest records these
        records = _DISPATCH[args.subcommand](config, threads)
        path = _write_results(args.out, args.format, records)
        finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        _write_manifest(
            args.out, args.subcommand, config, threads, args.format, started, finished,
            _resources(usage),
        )
    except (ValueError, NotImplementedError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - t0
    failed = [r for r in records if r.get("passed") is False]
    if args.subcommand == "selfcheck":
        for r in records:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"{status}  {r['name']}: statistic {r['statistic']:.3g} vs {r['threshold']:.3g}")
    print(f"{args.subcommand}: {len(records)} record(s) -> {path} ({elapsed:.1f}s)")
    if failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
