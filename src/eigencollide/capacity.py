"""Numerical potential theory: Riesz-type kernels, energies, capacity bounds,
box-counting dimension, and the collision decision rule.

Capacity is bounded below by 1/energy of any probability measure on the set;
no optimization over measures is attempted, the sampler's measure is the
measure. Hausdorff dimension is not computable from samples, so box counting
is used as the standard surrogate and labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensembles import _check_beta
from .fields import _check_hurst
from .streams import TAG_CAPACITY, substream

__all__ = [
    "EnergyEstimate",
    "CapacityBound",
    "BoxCountResult",
    "f_alpha",
    "q_index",
    "collision_regime",
    "energy_integral",
    "capacity_lower_bound",
    "box_counting_dim",
    "uniform_unit_interval",
]


def uniform_unit_interval(n: int, rng: np.random.Generator) -> np.ndarray:
    """Point sampler for the uniform measure on [0,1]; the alpha = 1/2 energy
    of this measure is 8/3 in closed form. The kernel's second moment is
    infinite there, so stderr understates the error of that estimate."""
    return rng.random((n, 1))

# pairs closer than this hit the kernel singularity and count as divergence
# events rather than being clipped
_DIVERGENCE_DISTANCE = 1e-14

# |Q - (beta+1)| below this is the critical case, which stays undecided
_CRITICAL_TOL = 1e-9


def f_alpha(r, alpha: float):
    """Riesz-type kernel: r^(-alpha) for alpha > 0, log(e / min(r,1)) for
    alpha = 0, constant 1 for alpha < 0. Infinite values are representable
    outcomes (r = 0 with alpha >= 0), not errors."""
    alpha = float(alpha)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distances must be nonnegative")
    if alpha > 0:
        with np.errstate(divide="ignore"):
            out = r**-alpha
    elif alpha == 0:
        with np.errstate(divide="ignore"):
            out = 1.0 - np.log(np.minimum(r, 1.0))
    else:
        out = np.ones_like(r)
    return out.item() if out.ndim == 0 else out


def q_index(H) -> float:
    """Q = sum_j 1/H_j, the roughness index of a Hurst vector.

    Subnormal H_j pass the (0, 1) check but overflow 1/H_j; a Q that is not
    finite raises instead of classifying the vector.
    """
    H = np.array([_check_hurst(h) for h in np.atleast_1d(H)])
    with np.errstate(over="ignore", divide="ignore"):
        Q = float(np.sum(1.0 / H))
    if not np.isfinite(Q):
        raise ValueError(f"Q = sum 1/H_j is not finite for H = {tuple(H.tolist())}")
    return Q


def collision_regime(beta: int, H) -> str:
    """Decision rule: compare Q = sum 1/H_j with beta + 1.

    Q < beta+1 -> "no_collision" (eigenvalues stay simple on compact windows
    away from 0, almost surely); Q > beta+1 -> "collision" (positive
    probability); Q = beta+1 -> "critical", which is left undecided.
    """
    beta = _check_beta(beta)
    Q = q_index(H)
    if abs(Q - (beta + 1)) <= _CRITICAL_TOL:
        return "critical"
    return "collision" if Q > beta + 1 else "no_collision"


@dataclass(frozen=True)
class EnergyEstimate:
    """Monte Carlo double-integral estimate of int int f_alpha(|x-y|) dmu dmu.

    value averages the finite kernel evaluations; divergent_pairs counts the
    pairs that hit the kernel singularity (distance < 1e-14 with alpha >= 0)
    and is the honest divergence diagnostic. value is +inf when every pair
    diverged.
    """

    value: float
    stderr: float
    pairs: int
    divergent_pairs: int


def _draw_pairs(sampler: Callable, pairs: int, seed: int) -> np.ndarray:
    """2 * pairs points, (2 * pairs, dim), from one sampler call on the capacity substream."""
    if pairs < 1:
        raise ValueError("need at least one pair")
    points = np.asarray(sampler(2 * pairs, substream(seed, TAG_CAPACITY)), dtype=float)
    return points[:, None] if points.ndim == 1 else points


# pairs per block of _pair_energy, so its temporaries do not grow with the
# pair count (README, Performance)
_ENERGY_BLOCK = 2**14


def _pair_energy(x: np.ndarray, y: np.ndarray, alpha: float) -> EnergyEstimate:
    """Mean of f_alpha(|x_i - y_i|) over the finite pairs; singular pairs are counted apart.

    The pairs are read in blocks of _ENERGY_BLOCK. Each block's finite count,
    mean and sum of squared deviations are merged into the running ones by
    the pairwise update of Chan, Golub & LeVeque; the first non-empty block
    is taken as it is, so up to one block, value and stderr are those of
    np.mean and np.std(ddof=1) / sqrt(n) bit for bit, and within rounding
    beyond it.
    """
    pairs, ndiv = x.shape[0], 0
    n, mean, m2 = 0, 0.0, 0.0
    for lo in range(0, pairs, _ENERGY_BLOCK):
        r = np.linalg.norm(x[lo : lo + _ENERGY_BLOCK] - y[lo : lo + _ENERGY_BLOCK], axis=-1)
        divergent = (r < _DIVERGENCE_DISTANCE) & (alpha >= 0.0)
        k = int(divergent.sum())
        ndiv += k
        vals = f_alpha(r[~divergent] if k else r, alpha)
        if vals.size == 0:
            continue
        b_mean = np.mean(vals)
        b_m2 = np.sum((vals - b_mean) ** 2)
        if n == 0:
            n, mean, m2 = vals.size, b_mean, b_m2
            continue
        total = n + vals.size
        delta = b_mean - mean
        if np.isfinite(delta):
            mean = mean + delta * (vals.size / total)
            m2 = m2 + b_m2 + delta * delta * (n * vals.size / total)
        else:  # an overflowed kernel value: np.mean's inf and np.std's nan
            mean, m2 = mean + b_mean, np.nan
        n = total
    if n == 0:
        return EnergyEstimate(value=np.inf, stderr=0.0, pairs=pairs, divergent_pairs=ndiv)
    stderr = float(np.sqrt(m2 / (n - 1)) / np.sqrt(n)) if n > 1 else 0.0
    return EnergyEstimate(value=float(mean), stderr=stderr, pairs=pairs, divergent_pairs=ndiv)


def energy_integral(
    sampler: Callable, alpha: float, pairs: int, seed: int
) -> EnergyEstimate:
    """alpha-energy of the sampler's measure by independent-pair Monte Carlo.

    sampler(n, rng) must return n i.i.d. points as an (n, dim) array from a
    probability measure supported on the target set. One call draws
    2 * pairs points; the first half is paired with the second. The pairs
    are then evaluated block by block (_pair_energy), so beyond the drawn
    points the estimate holds a few arrays of one block, whatever pairs is.
    """
    points = _draw_pairs(sampler, pairs, seed)
    return _pair_energy(points[:pairs], points[pairs:], float(alpha))


@dataclass(frozen=True)
class CapacityBound:
    """Lower bound 1/energy on the alpha-capacity, for the sampler's measure.

    divergent flags an energy that looks infinite: either singular pairs
    occurred, or the bound moved by more than 15% between pairs//2 and pairs
    from the same stream (3x the stability a convergent estimate shows).
    """

    bound: float
    divergent: bool
    energy: EnergyEstimate
    energy_half: EnergyEstimate


_STABILITY_JUMP = 0.15


def capacity_lower_bound(
    sampler: Callable, alphas: Sequence[float], pairs: int, seed: int
) -> tuple:
    """1/energy of the sampler's measure for each alpha, one CapacityBound each, in order.

    Each bound is a lower bound on the set's alpha-capacity, positive iff the
    estimated energy is finite; all-divergent energy gives bound 0. The
    sampler is called once for 2 * pairs points, whatever len(alphas): every
    energy takes points [:pairs] against [pairs:], and the half probe is a
    slice of the same draw, [:h] against [h:2h] with h = max(1, pairs // 2).
    The divergence flag therefore measures pure sample-growth instability.
    """
    points = _draw_pairs(sampler, pairs, seed)
    h = max(1, pairs // 2)
    bounds = []
    for alpha in map(float, alphas):
        e_half = _pair_energy(points[:h], points[h : 2 * h], alpha)
        e_full = _pair_energy(points[:pairs], points[pairs:], alpha)
        bound = 0.0 if np.isinf(e_full.value) else 1.0 / e_full.value
        b_half = 0.0 if np.isinf(e_half.value) else 1.0 / e_half.value
        divergent = e_full.divergent_pairs > 0 or e_half.divergent_pairs > 0
        if bound > 0.0:
            divergent = divergent or abs(bound - b_half) > _STABILITY_JUMP * bound
        else:
            divergent = True
        bounds.append(CapacityBound(bound, divergent, energy=e_full, energy_half=e_half))
    return tuple(bounds)


@dataclass(frozen=True)
class BoxCountResult:
    """Box-counting dimension fit: slope of log N(eps) against log(1/eps)."""

    scales: np.ndarray
    counts: np.ndarray
    slope: float
    residual: float


def box_counting_dim(points: np.ndarray, scales) -> BoxCountResult:
    """Box-counting dimension of a finite point cloud over a scale ladder.

    Needs >= 1000 points and >= 4 scales. An all-identical cloud has slope 0
    by definition; otherwise a ladder producing fewer than 2 distinct
    occupancy counts cannot support a fit and is rejected.

    At each scale a point's box is its row of int64 cell indices
    floor((x - min) / eps). The rows are put in order by one np.lexsort
    over their columns, so equal rows are adjacent, and the occupied boxes
    are counted as 1 plus the number of adjacent rows that differ. The
    count is exact, and so equals the row count of np.unique(cells,
    axis=0), which sorts the rows as structured void records instead and
    is several times slower (README, Performance).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[0] < 1000:
        raise ValueError("need at least 1000 points")
    scales = np.sort(np.asarray(scales, dtype=float))
    if scales.size < 4:
        raise ValueError("need at least 4 scales")
    if np.any(scales <= 0):
        raise ValueError("scales must be positive")
    if np.unique(scales).size < 2:
        raise ValueError("degenerate fit: need at least 2 distinct scales")
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    if np.all(span == 0):
        counts = np.ones(scales.size, dtype=int)
        return BoxCountResult(scales=scales, counts=counts, slope=0.0, residual=0.0)
    counts = np.empty(scales.size, dtype=int)
    for i, eps in enumerate(scales):
        cells = np.floor((points - lo) / eps).astype(np.int64)
        cells = cells[np.lexsort(cells.T)]
        counts[i] = 1 + np.count_nonzero((cells[1:] != cells[:-1]).any(axis=1))
    if np.unique(counts).size < 2:
        raise ValueError("degenerate fit: occupancy counts do not vary across scales")
    x = np.log(1.0 / scales)
    y = np.log(counts.astype(float))
    slope, icept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + icept)) ** 2)))
    return BoxCountResult(scales=scales, counts=counts, slope=float(slope), residual=residual)
