"""The polar map from raw words to the window sampler's float32 normals."""

import numpy as np
from scipy import stats

from eigencollide.streams import TAG_FIELD, _polar_normals, substream

# the largest |normal| the map can give: R at h = 0, rounded to float32
R_CAP = np.float32(np.sqrt(66.0 * np.log(2.0)))


def _normals(words) -> np.ndarray:
    words = np.array(words, dtype=np.uint64)
    out = np.empty(2 * words.size, dtype=np.float32)
    _polar_normals(words, out, np.empty((3, words.size), dtype=np.float32))
    return out


def test_polar_normals_map_each_word_to_one_pair():
    # word k, high bits h and low bits l, gives R (cos theta, sin theta) with
    # R = sqrt(-2 ln((h + 1/2) 2^-32)) and theta = 2 pi (l + 1/2) 2^-32; the
    # float32 result is within a few float32 roundings (theta, cos, R and the
    # product; 1e-6 R) of the float64 map
    words = np.array(
        [0, 2**64 - 1, 2**63, 2**32 - 1, 0x0123456789ABCDEF, 0xFEDCBA9876543210],
        dtype=np.uint64,
    )
    h = (words >> np.uint64(32)).astype(float)
    l = (words & np.uint64(0xFFFFFFFF)).astype(float)
    R = np.sqrt(-2.0 * np.log((h + 0.5) * 2.0**-32))
    theta = 2.0 * np.pi * (l + 0.5) * 2.0**-32
    got = _normals(words).astype(float).reshape(-1, 2)
    want = R[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert np.all(np.abs(got - want) <= 1e-6 * R[:, None])
    # h = 0 gives the cap, h = 2^32 - 1 the smallest radius, about 2^-16
    assert got[0, 0] == R_CAP
    assert np.hypot(*got[1]) < 2.0**-15


def test_polar_normals_are_standard_normal():
    # 2^20 normals from one substream, drawn as the window sampler draws
    # them (rows of 2L = 32768, one scratch reused across rows). Moments are
    # checked against N(0, 1) in standard errors with the mean known:
    # SE = sqrt(Var(z^k) / n) with Var z = 1, Var z^2 = 2, Var z^4 = 96; the
    # two normals of a word are uncorrelated (SE 1/sqrt(n/2)); the
    # Kolmogorov-Smirnov distance stays below its 1e-3 critical value; no
    # normal exceeds the map's cap sqrt(66 ln 2)
    rows, L = 32, 16384
    rng = substream(2025, TAG_FIELD, 0)
    z = np.empty((rows, 2 * L), dtype=np.float32)
    scratch = np.empty((3, L), dtype=np.float32)
    for row in z:
        _polar_normals(rng.bit_generator.random_raw(L), row, scratch)
    x = z.ravel().astype(np.float64)
    n = x.size
    assert n >= 2**20
    for k, mean, var in ((1, 0.0, 1.0), (2, 1.0, 2.0), (4, 3.0, 96.0)):
        assert abs(np.mean(x**k) - mean) <= 5.0 * np.sqrt(var / n), k
    pairs = x.reshape(-1, 2)
    assert abs(np.mean(pairs[:, 0] * pairs[:, 1])) <= 5.0 / np.sqrt(n / 2)
    assert stats.kstest(x, "norm").statistic <= stats.kstwobign.isf(1e-3) / np.sqrt(n)
    assert np.max(np.abs(z)) <= R_CAP
