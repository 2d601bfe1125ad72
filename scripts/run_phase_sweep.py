#!/usr/bin/env python3
"""Collision probability vs Hurst index across the dichotomy threshold.

Sweeps H on both sides of 1/(1+beta) on a shared mesh ladder and prints the
finest-mesh estimate with its Wilson interval per H, plus the separation
ratio between the two regimes. With default settings (2000 replicas, ladder
up to 1024) a run takes a couple of minutes per side on one core; use
--threads to spread replica batches.
"""

import argparse
import time

import numpy as np

from eigencollide.config import ExperimentConfig
from eigencollide.experiments import phase_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=int, default=1, choices=(1, 2))
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--replicas", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    ap.add_argument("--kappa", type=float, default=1.0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument(
        "--hurst", type=float, nargs="+", default=None,
        help="H values to sweep (default: 4 below and 4 above the threshold)",
    )
    ap.add_argument("--ladder", type=int, nargs="+", default=[128, 256, 512, 1024])
    args = ap.parse_args()

    critical = 1.0 / (1.0 + args.beta)
    hs = args.hurst
    if hs is None:
        lo = np.linspace(0.1, critical - 0.08, 4)
        hi = np.linspace(critical + 0.08, 0.9, 4)
        hs = [round(float(h), 4) for h in np.concatenate([lo, hi])]

    config = ExperimentConfig(
        beta=args.beta, d=args.d, hurst=(hs[0],), interval=(1.0, 2.0),
        intervals=max(args.ladder), replicas=args.replicas,
        kappa=args.kappa, seed=args.seed,
    )
    t0 = time.time()
    sweep = phase_sweep(hs, config, args.ladder, threads=args.threads)
    dt = time.time() - t0

    print(f"beta={args.beta} d={args.d} threshold H*={critical:.4f} "
          f"replicas={args.replicas} ladder={args.ladder}")
    print(f"{'H':>7} {'regime':>13} {'p_hat':>8} {'wilson_lo':>10} {'wilson_hi':>10} {'trend':>7}")
    for h, regime, study in zip(sweep.hurst_values, sweep.regimes, sweep.studies):
        st = study.stats[-1]
        print(f"{h:7.4f} {regime:>13} {st.p_hat:8.4f} {st.wilson_lo:10.4f} "
              f"{st.wilson_hi:10.4f} {study.trend_last_over_first:7.3f}")
    print(f"separation ratio (min collision p / max no-collision p): "
          f"{sweep.separation_ratio:.3g}")
    print(f"elapsed {dt:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
