"""Keyed random substreams for reproducible parallel Monte Carlo.

Every replica draws from its own SFC64 stream, seeded by numpy's
SeedSequence hash of the master seed plus a small integer path (experiment
tag, replica index, ...). Streams depend only on the key, never on
scheduling, so results are bit-identical for any worker count. SeedSequence
spreads distinct keys over SFC64's 256-bit state, so independent keys give
independent streams without coordination; SFC64 draws normals faster than
the counter-based Philox that versions 1-6 used.

The window sampler's increments take their normals from _polar_normals, a
Box-Muller map over the stream's raw 64-bit words (bit_generator.random_raw,
one word per pair of normals), which costs about half of
Generator.standard_normal per float32 normal when it maps thousands of
words per call; every other draw goes through the Generator.

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
# 5: degenerate samples draw every frame, then every level;
# 6: (seed, TAG_FIELD, r) drives the window sampler, not a dense Cholesky one;
# 7: every key seeds SFC64, not Philox, and the window sampler draws float32
#    normals for its increments and synthesizes them in float32;
# 8: those float32 normals come from _polar_normals, one raw word per pair
STREAM_VERSION = 8

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
    return np.random.Generator(np.random.SFC64(key))


_TWO_M32 = 2.0**-32


def _polar_normals(words: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Map K raw 64-bit words to 2K iid N(0, 1) float32 normals in out (contiguous).

    Word k, with high 32 bits h and low 32 bits l, gives out[2k], out[2k + 1] =
    R cos(theta), R sin(theta), where R = sqrt(-2 ln((h + 1/2) 2^-32)) is
    computed in float64 and theta = 2 pi (l + 1/2) 2^-32 is rounded to
    float32, whose cos and sin are float32 (Box & Muller 1958). The map is
    exact for exact uniforms; the 2^-32 grids of h and l are finer than the
    float32 rounding (2^-24 relative) the output already takes, and R is
    capped at sqrt(66 ln 2) ~ 6.76 (h = 0, probability 2^-33 per pair).
    On one machine each output depends only on its word; numpy vectorizes
    float32 cos/sin and float64 log per instruction set, so machines that
    dispatch differently can differ in the last bit. words is overwritten,
    the float64 stages run in out's own bytes, and scratch is a float32
    (3, K) array, so a caller that maps many blocks allocates its buffers
    once.
    """
    radius, theta, cosine = scratch
    wide = out.view(np.float64)
    np.right_shift(words, 32, out=wide)
    np.add(wide, 0.5, out=wide)
    np.multiply(wide, _TWO_M32, out=wide)
    np.log(wide, out=wide)
    np.multiply(wide, -2.0, out=wide)
    np.sqrt(wide, out=radius)
    np.bitwise_and(words, 0xFFFFFFFF, out=words)
    np.add(words, 0.5, out=wide)
    np.multiply(wide, 2.0 * np.pi * _TWO_M32, out=theta)
    np.cos(theta, out=cosine)
    np.sin(theta, out=theta)
    pairs = out.reshape(-1, 2)
    np.multiply(cosine, radius, out=pairs[:, 0])
    np.multiply(theta, radius, out=pairs[:, 1])
