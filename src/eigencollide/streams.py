"""Counter-based random substreams for reproducible parallel Monte Carlo.

Every replica draws from its own Philox stream keyed by the master seed plus
a small integer path (experiment tag, replica index, ...). Streams depend only
on the key, never on scheduling, so results are bit-identical for any worker
count. Philox is counter-based: independent keys give independent streams
without coordination.

A collision replica's key is (seed, TAG_COLLISION, replica) whatever the
Hurst value, so a sweep maps the same normals through each H (common random
numbers).

STREAM_VERSION names the contract between a key and the samples made from
its stream (which normals are drawn, in which order, and how they are mapped
to fields). A change that keeps the law but changes realizations bumps it.
"""

from __future__ import annotations

import numpy as np

# 1: the path sampler drew n_beta fields per replica;
# 2: it draws n_beta - 1, the diagonal in traceless Helmert coordinates;
# 3: window increments plus a conditional anchor;
# 4: a sweep's H values share each replica's normals;
# 5: degenerate samples draw every frame, then every level
STREAM_VERSION = 5

# experiment tags, part of the stream key; never reorder or reuse
TAG_FIELD = 0
TAG_COLLISION = 1
TAG_GAPFIT = 2
TAG_CAPACITY = 3
TAG_BOXDIM = 4
TAG_SMALLTIME = 5
TAG_GEOMETRY = 6
TAG_ORACLE = 7


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by (master_seed, *path).

    Same arguments always give a bit-identical stream, regardless of how many
    other substreams exist or in which order they are created.
    """
    key = np.random.SeedSequence((int(master_seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(key))
