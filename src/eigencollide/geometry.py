"""Constructive geometry of matrices with a repeated eigenvalue.

The degenerate set (symmetric or Hermitian matrices whose spectrum has at
most d-1 distinct values) is parametrized locally by a Stiefel frame Q of
d-2 orthonormal columns and d-1 eigenvalue levels with the last one, l*,
doubled. The chart is Q diag(l_0 - l*, ..., l_(d-3) - l*) Q* + l* I: the
doubled level fills the orthogonal complement of the frame, so no
completion to a full basis is needed. sample_degenerate builds a whole
stack of chart points from one draw of every frame's Gaussians and one draw
of every point's levels; these stacks are the point clouds and sampler
measures of the box-counting dimension and capacity experiments. The
samplers draw from the caller's Generator (the experiments own seeds and
stream tags) and take the symmetry class as beta, 1 real or 2 complex.
"""

from __future__ import annotations

import numpy as np

from .ensembles import _check_beta

__all__ = [
    "complete_frame",
    "random_stiefel",
    "sample_degenerate",
]

_FRAME_TOL = 1e-12
_COMPLETION_FLOOR = 1e-6


def _check_frame(R: np.ndarray) -> np.ndarray:
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
    psi1. Each is orthogonalized twice: one pass leaves a defect above 1e-12
    when the column is short after projection. Both norms must stay above
    1e-6, otherwise the reference is too close to the frame's span and the
    caller must pick another one.
    """
    R = _check_frame(R)
    d, k = R.shape
    if k != d - 2:
        raise ValueError(f"frame must have d-2 = {d - 2} columns, got {k}")
    reference = _check_frame(np.asarray(reference))
    if reference.shape != (d, d):
        raise ValueError("reference must be a full orthonormal basis")
    full = R
    for j, span in ((d - 2, "the frame"), (d - 1, "the frame and psi1")):
        w = reference[:, j]
        for _ in range(2):
            w = w - full @ (full.conj().T @ w)
        norm = np.linalg.norm(w)
        if norm < _COMPLETION_FLOOR:
            raise ValueError(
                f"completion degenerate: reference column {j} lies within "
                f"{_COMPLETION_FLOOR:g} of the span of {span}"
            )
        full = np.column_stack([full, w / norm])
    return _check_frame(full)


def _gaussian(rng: np.random.Generator, shape: tuple, beta: int) -> np.ndarray:
    """Standard Gaussian array; beta = 2 draws all real parts, then all imaginary parts, / sqrt 2."""
    if _check_beta(beta) == 1:
        return rng.standard_normal(shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _haar_frames(G: np.ndarray) -> np.ndarray:
    """Q of G = QR with the R-diagonal phase made positive, for one matrix or a stack.

    Mezzadri's rule: the phase fix makes the frame's law exactly invariant
    under fixed orthogonal or unitary left multiplication.
    """
    Q, Rm = np.linalg.qr(G)
    diag = np.diagonal(Rm, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[..., None, :]


def random_stiefel(d: int, k: int, beta: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x k orthonormal frame from rng, real for beta = 1, complex for 2.

    QR of a Gaussian matrix with the R-diagonal phase fixed to be positive,
    which makes the distribution exactly invariant under fixed orthogonal or
    unitary left multiplication.
    """
    if k > d:
        raise ValueError("need k <= d columns")
    return _haar_frames(_gaussian(rng, (d, k), beta))


def sample_degenerate(
    d: int, beta: int, rng: np.random.Generator, size: int, level_draw=None
) -> np.ndarray:
    """(size, d, d) stack of matrices with one repeated eigenvalue pair (|spectrum| = d-1).

    One call draws from rng the Gaussians of all n = size Haar frames Q of
    d-2 columns (as random_stiefel does), then all levels as
    level_draw(rng, (n, d-1)) (standard normals by default), each row sorted
    descending; rows with two levels within 1e-12 are redrawn until none are
    left. The realization depends on n: n points in one call are not the
    points of several smaller calls. The chart is
    Q diag(l_0 - l*, ..., l_(d-3) - l*) Q* + l* I with l* the last
    (smallest) level, doubled on the complement of the frame; it is exactly
    Hermitian, and real for beta = 1. All frames share one QR and one
    orthonormality check. For d = 2 the frames are empty and the chart
    reduces to l* I, a scalar matrix.
    """
    draw = level_draw or (lambda r, shape: r.standard_normal(shape))
    n = int(size)
    Q = _check_frame(_haar_frames(_gaussian(rng, (n, d, d - 2), beta)))
    levels = np.empty((n, d - 1))
    redraw = np.ones(n, dtype=bool)
    while redraw.any():
        levels[redraw] = np.sort(draw(rng, (int(redraw.sum()), d - 1)), axis=1)[:, ::-1]
        redraw = np.any(-np.diff(levels, axis=1) <= 1e-12, axis=1)
    lstar = levels[:, -1:]
    M = (Q * (levels[:, :-1] - lstar)[:, None, :]) @ np.swapaxes(Q.conj(), -1, -2)
    M[:, np.arange(d), np.arange(d)] += lstar
    return 0.5 * (M + np.swapaxes(M.conj(), -1, -2))
