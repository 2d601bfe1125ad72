"""Ordered spectra, gap series, contour eigenprojections, collision detection.

Eigenvalues are always reported in descending order; cluster indices are
0-based positions into that descending order. Collision detection on a grid
is a (grid, threshold) statement: the reported minimum is over stored times,
not a continuum minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensembles import EnsemblePath, _check_hermitian, n_beta

__all__ = [
    "SpectrumPath",
    "MinGapResult",
    "Projector",
    "CollisionEvent",
    "ordered_eigenvalues",
    "spectrum_path",
    "gap_closed_form_2x2",
    "adjacent_gaps",
    "gap_series",
    "min_gap",
    "eigenprojection_contour",
    "detect_collisions",
]

def ordered_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Real spectrum in descending order; ties kept as equal values.

    Batched over leading axes: input (..., d, d) gives output (..., d).
    """
    M = _check_hermitian(M)
    return np.linalg.eigvalsh(M)[..., ::-1]


@dataclass(frozen=True)
class SpectrumPath:
    """Descending eigenvalues along a path: eigs has shape (replicas, ntimes, d)."""

    times: np.ndarray
    eigs: np.ndarray

    @property
    def replicas(self) -> int:
        return self.eigs.shape[0]

    @property
    def d(self) -> int:
        return self.eigs.shape[-1]


def spectrum_path(path: EnsemblePath) -> SpectrumPath:
    """Eigendecompose every stored matrix, 256 replicas at a time to bound memory."""
    out = np.empty((path.replicas, path.ntimes, path.d))
    for lo in range(0, path.replicas, 256):
        hi = min(lo + 256, path.replicas)
        out[lo:hi] = ordered_eigenvalues(path.matrices(slice(lo, hi)))
    return SpectrumPath(times=path.times, eigs=out)


def gap_closed_form_2x2(x: np.ndarray, beta: int) -> np.ndarray:
    """Eigenvalue gap of a 2x2 Hermitian matrix from its packed coefficients.

    x has shape (..., n_beta(beta, 2)) in the vec_to_matrix packing
    (M11, M12, M22, then Im M12 for beta = 2). No matrix is materialized and
    no eigensolver runs: beta = 1 gives sqrt((M11-M22)^2 + 4 M12^2), and
    beta = 2 adds 4 Im(M12)^2 under the root.
    """
    x = np.asarray(x)
    if x.shape[-1] != n_beta(beta, 2):
        raise ValueError(
            f"closed form requires {n_beta(beta, 2)} packed coefficients, got {x.shape[-1]}"
        )
    gap2 = (x[..., 0] - x[..., 2]) ** 2 + 4.0 * x[..., 1] ** 2
    if beta == 2:
        gap2 += 4.0 * x[..., 3] ** 2
    return np.sqrt(gap2)


def adjacent_gaps(eigs: np.ndarray) -> np.ndarray:
    """lambda_i - lambda_(i+1) for a descending spectrum; shape (..., d-1)."""
    return eigs[..., :-1] - eigs[..., 1:]


def gap_series(spath: SpectrumPath):
    """Minimum adjacent gap and its achieving pair index at every (replica, time).

    Returns (gaps, pairs): gaps[r, k] = min_i adjacent gap, pairs[r, k] = the
    0-based i attaining it (ties resolved to the smallest i).
    """
    g = adjacent_gaps(spath.eigs)
    return g.min(axis=-1), g.argmin(axis=-1)


@dataclass(frozen=True)
class MinGapResult:
    """Per-replica minimum adjacent gap over the stored grid, with argmin data."""

    values: np.ndarray  # (replicas,)
    times: np.ndarray  # (replicas,) argmin time
    pairs: np.ndarray  # (replicas,) 0-based adjacent pair index at the argmin


def min_gap(spath: SpectrumPath) -> MinGapResult:
    """Exact minimum over the stored grid (not a continuum minimum)."""
    if spath.eigs.shape[1] == 0:
        raise ValueError("empty path")
    gaps, pairs = gap_series(spath)
    k = gaps.argmin(axis=1)
    rows = np.arange(gaps.shape[0])
    return MinGapResult(
        values=gaps[rows, k],
        times=np.asarray(spath.times)[k],
        pairs=pairs[rows, k],
    )


@dataclass(frozen=True)
class Projector:
    """Spectral projector onto an eigenvalue cluster, with its contour metadata."""

    matrix: np.ndarray
    cluster: tuple
    center: float
    radius: float
    points: int

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def eigenprojection_contour(
    M: np.ndarray, cluster: Sequence[int], points: int = 64
) -> Projector:
    """Spectral projector via (1/2 pi i) contour integral of the resolvent.

    cluster lists 0-based positions into the descending spectrum. The contour
    is the circle centered at the cluster mean with radius midway between the
    farthest cluster eigenvalue and the nearest excluded one (for tight
    clusters this is half the cluster-to-rest separation). Trapezoidal
    quadrature on the circle is spectrally accurate for the analytic
    integrand; 64 points give projector invariants within 1e-8.
    """
    M = _check_hermitian(M)
    if M.ndim != 2:
        raise ValueError("one matrix at a time")
    d = M.shape[0]
    cluster = tuple(sorted(int(i) for i in cluster))
    if len(cluster) == 0 or len(set(cluster)) != len(cluster):
        raise ValueError("cluster must be a nonempty set of distinct indices")
    if cluster[0] < 0 or cluster[-1] >= d:
        raise ValueError(f"cluster indices must lie in [0, {d})")
    if points < 4:
        raise ValueError("need at least 4 quadrature points")
    lam = ordered_eigenvalues(M)
    inside = lam[list(cluster)]
    rest = np.delete(lam, list(cluster))
    center = float(inside.mean())
    r_in = float(np.max(np.abs(inside - center)))
    if rest.size == 0:
        radius = r_in + 1.0  # whole spectrum: projector is the identity
    else:
        r_out = float(np.min(np.abs(rest - center)))
        if r_out - r_in < 1e-10:
            raise ValueError(
                "cluster not isolated: separation below 1e-10 "
                f"(inner radius {r_in:.3g}, outer radius {r_out:.3g})"
            )
        radius = 0.5 * (r_in + r_out)
    theta = 2.0 * np.pi * np.arange(points) / points
    xi = center + radius * np.exp(1j * theta)
    eye = np.eye(d)
    acc = np.zeros((d, d), dtype=complex)
    for x, w in zip(xi, xi - center):
        acc += w * np.linalg.solve(x * eye - M, eye)
    P = acc / points
    P = 0.5 * (P + P.conj().T)  # exact Hermitianity; kills quadrature asymmetry
    if not np.iscomplexobj(M):
        P = P.real
    return Projector(matrix=P, cluster=cluster, center=center, radius=radius, points=points)


@dataclass(frozen=True)
class CollisionEvent:
    replica: int
    time_index: int
    time: float
    pair: int
    gap: float


def detect_collisions(spath: SpectrumPath, delta: float) -> list:
    """All grid times where the minimum adjacent gap falls below delta."""
    if not delta > 0.0:
        raise ValueError("threshold must be positive")
    gaps, pairs = gap_series(spath)
    times = np.asarray(spath.times)
    hits = np.argwhere(gaps < delta)
    return [
        CollisionEvent(
            replica=int(r),
            time_index=int(k),
            time=float(times[k]),
            pair=int(pairs[r, k]),
            gap=float(gaps[r, k]),
        )
        for r, k in hits
    ]
