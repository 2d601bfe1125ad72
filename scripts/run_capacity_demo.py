#!/usr/bin/env python3
"""Riesz energy and capacity demo: unit-interval oracle plus degenerate charts.

The alpha = 1/2 energy of the uniform unit interval has the closed value 8/3,
which calibrates the pair-sampling estimator. The same machinery then bounds
the capacity of the flattened degenerate set through its chart, and shows the
estimate diverging once alpha exceeds the set's dimension.
"""

import argparse

import numpy as np

from eigencollide.capacity import capacity_lower_bound, energy_integral, uniform_unit_interval
from eigencollide.config import ExperimentConfig
from eigencollide.experiments import flattened_degenerate_sampler


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=int, default=1, choices=(1, 2))
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--pairs", type=int, default=ExperimentConfig().section("capacity")["pairs"])
    ap.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.25, 0.5, 0.75, 1.5])
    args = ap.parse_args()

    est = energy_integral(uniform_unit_interval, 0.5, args.pairs, args.seed)
    ref = 8.0 / 3.0
    z = (est.value - ref) / est.stderr
    print(f"unit interval, alpha=0.5: energy {est.value:.5f} +- {est.stderr:.5f} "
          f"(closed value {ref:.5f}, z = {z:+.2f})")

    sampler = flattened_degenerate_sampler(args.d, args.beta)
    print(f"\nflattened degenerate set, beta={args.beta} d={args.d}, "
          f"{args.pairs} pairs per alpha")
    print(f"{'alpha':>6} {'energy':>10} {'bound':>10} {'divergent':>10}")
    for alpha in args.alphas:
        cb = capacity_lower_bound(sampler, alpha, args.pairs, args.seed)
        energy = cb.energy.value
        etxt = "inf" if np.isinf(energy) else f"{energy:.4f}"
        print(f"{alpha:6.2f} {etxt:>10} {cb.bound:10.4f} {str(cb.divergent):>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
