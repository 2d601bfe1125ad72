#!/usr/bin/env python3
"""Small-gap exponent of the fixed-time spectrum: P(gap < eps) ~ eps^(beta+1).

Fits the log-log slope of the empirical gap CDF over an epsilon window and
compares with beta + 1. Repeats the fit at several t0 to show the exponent is
scale-free.
"""

import argparse

from eigencollide.config import ExperimentConfig
from eigencollide.experiments import gap_exponent_fit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=int, default=1, choices=(1, 2))
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--samples", type=int, help="sample count (default: the gapfit section's)")
    ap.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    ap.add_argument("--t0", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument(
        "--window", type=float, nargs=2, default=None,
        help="epsilon window for the fit (default: the gapfit section's, which depends on beta)",
    )
    args = ap.parse_args()

    given = {k: v for k, v in (("samples", args.samples), ("window", args.window)) if v is not None}
    gapfit = ExperimentConfig(beta=args.beta, d=args.d, extras={"gapfit": given}).section("gapfit")
    samples, window = gapfit["samples"], gapfit["window"]
    expected = args.beta + 1
    print(f"beta={args.beta} d={args.d} samples={samples} "
          f"window={window} expected slope={expected}")
    print(f"{'t0':>6} {'slope':>8} {'stderr':>8} {'|slope-expected|':>17}")
    for t0 in args.t0:
        fit = gap_exponent_fit(
            args.beta, args.d, t0, samples, window, args.seed
        )
        print(f"{t0:6.2f} {fit.slope:8.4f} {fit.stderr:8.4f} "
              f"{abs(fit.slope - expected):17.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
