"""Constructive geometry of matrices with a repeated eigenvalue.

The degenerate set (symmetric or Hermitian matrices whose spectrum has at
most d-1 distinct values) is parametrized locally by a Stiefel frame Q of
d-2 orthonormal columns and d-1 eigenvalue levels with the last one, l*,
doubled. The chart is Q diag(l_0 - l*, ..., l_(d-3) - l*) Q* + l* I: the
doubled level fills the orthogonal complement of the frame, so no
completion to a full basis is needed. These charts supply random degenerate
samples, built in batches, for the box-counting dimension and capacity
experiments.
"""

from __future__ import annotations

import numpy as np

from .ensembles import _check_beta
from .streams import TAG_GEOMETRY, substream

__all__ = [
    "check_frame",
    "complete_frame",
    "random_stiefel",
    "sample_degenerate",
]

_FRAME_TOL = 1e-12
_COMPLETION_FLOOR = 1e-6


def check_frame(R: np.ndarray) -> np.ndarray:
    """Validate orthonormal columns (A*A = I within 1e-12) of a frame or a stack of frames."""
    R = np.asarray(R)
    if R.ndim < 2:
        raise ValueError("frame must be a 2-d array or a stack of them")
    if R.shape[-1] == 0:
        return R  # empty frame is trivially orthonormal (the d = 2 chart)
    gram = np.swapaxes(R.conj(), -1, -2) @ R
    defect = np.max(np.abs(gram - np.eye(R.shape[-1])), initial=0.0)
    if defect > _FRAME_TOL:
        raise ValueError(f"columns not orthonormal within {_FRAME_TOL:g} (defect {defect:.3g})")
    return R


def complete_frame(R: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Extend a d x (d-2) frame to a full basis by Gram-Schmidt against a reference.

    psi1 orthonormalizes reference column d-2 (0-based) against the frame
    columns; psi2 orthonormalizes reference column d-1 against the frame and
    psi1. Both normalizations must stay above 1e-6, otherwise the reference
    is too close to the frame's span and the caller must pick another one.
    """
    R = check_frame(R)
    d, k = R.shape
    if k != d - 2:
        raise ValueError(f"frame must have d-2 = {d - 2} columns, got {k}")
    reference = check_frame(np.asarray(reference))
    if reference.shape != (d, d):
        raise ValueError("reference must be a full orthonormal basis")
    v1 = reference[:, d - 2]
    w1 = v1 - R @ (R.conj().T @ v1)
    n1 = np.linalg.norm(w1)
    if n1 < _COMPLETION_FLOOR:
        raise ValueError(
            f"completion degenerate: reference column {d - 2} lies within "
            f"{_COMPLETION_FLOOR:g} of the frame span"
        )
    psi1 = w1 / n1
    v2 = reference[:, d - 1]
    w2 = v2 - R @ (R.conj().T @ v2) - psi1 * (psi1.conj() @ v2)
    n2 = np.linalg.norm(w2)
    if n2 < _COMPLETION_FLOOR:
        raise ValueError(
            f"completion degenerate: reference column {d - 1} lies within "
            f"{_COMPLETION_FLOOR:g} of the span of the frame and psi1"
        )
    psi2 = w2 / n2
    full = np.column_stack([R, psi1, psi2])
    return check_frame(full)


def _gaussian(rng: np.random.Generator, d: int, k: int, field: str) -> np.ndarray:
    """d x k standard Gaussian matrix; complex entries have real then imaginary parts / sqrt 2."""
    if field == "real":
        return rng.standard_normal((d, k))
    if field == "complex":
        return (rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))) / np.sqrt(2.0)
    raise ValueError("field must be 'real' or 'complex'")


def _haar_frames(G: np.ndarray) -> np.ndarray:
    """Q of G = QR with the R-diagonal phase made positive, for one matrix or a stack.

    Mezzadri's rule: the phase fix makes the frame's law exactly invariant
    under fixed orthogonal or unitary left multiplication.
    """
    Q, Rm = np.linalg.qr(G)
    diag = np.diagonal(Rm, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[..., None, :]


def random_stiefel(d: int, k: int, field: str, seed=None, rng=None) -> np.ndarray:
    """Haar-distributed d x k orthonormal frame, real or complex.

    QR of a Gaussian matrix with the R-diagonal phase fixed to be positive,
    which makes the distribution exactly invariant under fixed orthogonal or
    unitary left multiplication.
    """
    if k > d:
        raise ValueError("need k <= d columns")
    if rng is None:
        rng = substream(seed, TAG_GEOMETRY)
    return _haar_frames(_gaussian(rng, d, k, field))


def _levels(d: int, rng: np.random.Generator, draw) -> np.ndarray:
    """d-1 distinct levels from draw(rng, d-1), sorted descending; redrawn on a tie."""
    while True:
        levels = np.sort(draw(rng, d - 1))[::-1]
        if d == 2 or np.min(-np.diff(levels)) > 1e-12:
            return levels


def sample_degenerate(
    d: int, beta: int, seed=None, rng=None, level_draw=None, size=None
) -> np.ndarray:
    """Random matrix with exactly one repeated eigenvalue pair (|spectrum| = d-1).

    size=None returns one (d, d) matrix and size=n an (n, d, d) stack. Point i
    draws a Haar frame Q of d-2 columns (as random_stiefel does), then d-1
    distinct descending levels from level_draw(rng, size) (standard normals
    by default), so splitting n points over calls draws the same points. The
    chart is Q diag(l_0 - l*, ..., l_(d-3) - l*) Q* + l* I with l* the last
    (smallest) level, doubled on the complement of the frame; it is exactly
    Hermitian, and real for beta = 1. All frames share one QR and one
    orthonormality check. For d = 2 the degenerate set is just the scalar
    matrices, and the chart reduces to l* I.
    """
    beta = _check_beta(beta)
    if rng is None:
        rng = substream(seed, TAG_GEOMETRY)
    field = "real" if beta == 1 else "complex"
    draw = level_draw or (lambda r, size: r.standard_normal(size))
    n = 1 if size is None else int(size)
    G = np.empty((n, d, d - 2), dtype=float if beta == 1 else complex)
    levels = np.empty((n, d - 1))
    for i in range(n):
        G[i] = _gaussian(rng, d, d - 2, field)
        levels[i] = _levels(d, rng, draw)
    Q = check_frame(_haar_frames(G))
    lstar = levels[:, -1:]
    M = (Q * (levels[:, :-1] - lstar)[:, None, :]) @ np.swapaxes(Q.conj(), -1, -2)
    M[:, np.arange(d), np.arange(d)] += lstar
    M = 0.5 * (M + np.swapaxes(M.conj(), -1, -2))
    return M[0] if size is None else M
