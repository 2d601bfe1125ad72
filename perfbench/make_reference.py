"""Record the reference hit counts that the benchmark's output checks use.

Runs the collide-d2 and smalltime-d4 problems at many replicas, with a seed
of its own, and writes reference.json next to this file. The checks
compare each run's pooled hit counts with these counts, so a change to the
random stream that keeps the law keeps passing. Re-record only when the
estimator's law is meant to change.

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

REFERENCE_SEED = 20261017
REFERENCE_REPLICAS = 4096


def main() -> int:
    from eigencollide import ExperimentConfig, refinement_study, small_time_study

    collide = {}
    for beta, hs in wl.COLLIDE_SWEEPS:
        for h in hs:
            cfg = ExperimentConfig(
                beta=beta, d=2, hurst=(h,), interval=(1.0, 2.0),
                intervals=wl.LADDER[-1], replicas=REFERENCE_REPLICAS,
                kappa=wl.COLLIDE_KAPPA, seed=REFERENCE_SEED,
            )
            study = refinement_study(cfg, wl.LADDER, threads=wl.nproc())
            collide[wl.collide_key(beta, h)] = [st.hits for st in study.stats]
            print(wl.collide_key(beta, h), collide[wl.collide_key(beta, h)], flush=True)

    c = wl.SMALLTIME
    stats = small_time_study(
        c["beta"], c["d"], None, c["T_values"], c["hurst"], c["intervals"],
        REFERENCE_REPLICAS, REFERENCE_SEED, kappa=c["kappa"], threads=wl.nproc(),
    )
    small = [st.hits for st in stats]
    print("smalltime", small, flush=True)

    reference = {
        "seed": REFERENCE_SEED,
        "collide-d2": {"replicas": REFERENCE_REPLICAS, "ladder": list(wl.LADDER), "hits": collide},
        "smalltime-d4": {"replicas": REFERENCE_REPLICAS, "T_values": list(c["T_values"]), "hits": small},
    }
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
