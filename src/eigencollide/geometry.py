"""Constructive geometry of matrices with a repeated eigenvalue.

The degenerate set (symmetric or Hermitian matrices whose spectrum has at
most d-1 distinct values) is parametrized locally by a Stiefel frame of d-2
orthonormal columns, a completion to a full basis, and d-1 eigenvalue levels
with the last one doubled. These charts supply random degenerate samples for
the box-counting dimension and capacity experiments.
"""

from __future__ import annotations

import numpy as np

from .ensembles import _check_beta
from .streams import TAG_GEOMETRY, substream

__all__ = [
    "lambda_matrix",
    "check_frame",
    "complete_frame",
    "chart_matrix",
    "random_stiefel",
    "sample_degenerate",
]

_FRAME_TOL = 1e-12
_COMPLETION_FLOOR = 1e-6


def lambda_matrix(levels, d: int) -> np.ndarray:
    """diag(levels[0], ..., levels[d-3], levels[d-2], levels[d-2]).

    The d-1 levels fill the diagonal with the last one doubled, so the output
    always has an eigenvalue of multiplicity >= 2.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.shape != (d - 1,):
        raise ValueError(f"need d-1 = {d - 1} levels, got shape {levels.shape}")
    return np.diag(np.concatenate([levels, levels[-1:]]))


def check_frame(R: np.ndarray) -> np.ndarray:
    """Validate orthonormal columns (A*A = I within 1e-12)."""
    R = np.asarray(R)
    if R.ndim != 2:
        raise ValueError("frame must be a 2-d array")
    if R.shape[1] == 0:
        return R  # empty frame is trivially orthonormal (the d = 2 chart)
    gram = R.conj().T @ R
    defect = np.max(np.abs(gram - np.eye(R.shape[1])))
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


def chart_matrix(frame: np.ndarray, levels) -> np.ndarray:
    """Pi Lambda(levels) Pi* for a completed frame Pi; always degenerate.

    Output is exactly Hermitian (symmetrized) and its spectrum is the sorted
    multiset of the levels with the last one doubled.
    """
    frame = check_frame(frame)
    d = frame.shape[0]
    if frame.shape[1] != d:
        raise ValueError("chart needs a completed (square) frame")
    lam = lambda_matrix(levels, d)
    M = frame @ lam @ frame.conj().T
    M = 0.5 * (M + M.conj().T)
    if not np.iscomplexobj(frame):
        M = M.real
    return M


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
    if field == "real":
        G = rng.standard_normal((d, k))
    elif field == "complex":
        G = (rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))) / np.sqrt(2.0)
    else:
        raise ValueError("field must be 'real' or 'complex'")
    Q, Rm = np.linalg.qr(G)
    diag = np.diagonal(Rm)
    Q = Q * (diag / np.abs(diag))
    return Q


def _levels(d: int, rng: np.random.Generator, draw) -> np.ndarray:
    """d-1 distinct levels from draw(rng, d-1), sorted descending; redrawn on a tie."""
    while True:
        levels = np.sort(draw(rng, d - 1))[::-1]
        if d == 2 or np.min(-np.diff(levels)) > 1e-12:
            return levels


def sample_degenerate(d: int, beta: int, seed=None, rng=None, level_draw=None) -> np.ndarray:
    """Random matrix with exactly one repeated eigenvalue pair (|spectrum| = d-1).

    Chart construction: Haar frame of d-2 columns, completion against the
    identity basis (random reference on the rare completion failure), and
    distinct descending levels from level_draw(rng, size) (standard normals
    by default). For d = 2 the real degenerate set is just the scalar
    matrices, and the construction reduces to c * I.
    """
    beta = _check_beta(beta)
    if rng is None:
        rng = substream(seed, TAG_GEOMETRY)
    field = "real" if beta == 1 else "complex"
    R = random_stiefel(d, d - 2, field, rng=rng)
    eye = np.eye(d) if beta == 1 else np.eye(d, dtype=complex)
    try:
        frame = complete_frame(R, eye)
    except ValueError:
        frame = complete_frame(R, random_stiefel(d, d, field, rng=rng))
    draw = level_draw or (lambda r, size: r.standard_normal(size))
    levels = _levels(d, rng, draw)
    return chart_matrix(frame, levels)
