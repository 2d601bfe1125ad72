"""Packing of GOE/GUE-type matrices into their independent real coefficients.

A path is Y(t) = A + X(t) where X(t) is symmetric (beta = 1) or Hermitian
(beta = 2) with entries driven by independent copies of a scalar Gaussian
field: off-diagonal entries xi_ij(t) (+ i eta_ij(t) for beta = 2), diagonal
sqrt(2) xi_ii(t) for beta = 1 and real xi_ii(t) for beta = 2.

The sampler keeps only the independent coefficients (the flat vector); the
gap kernel materializes full matrices from them with vec_to_matrix, which
makes Hermitianity exact by construction rather than approximate. The shift
A is validated here as well.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

__all__ = [
    "n_beta",
    "vec_to_matrix",
    "matrix_to_vec",
    "diagonal_positions",
    "coefficient_scale",
    "validate_shift",
]


def _check_beta(beta: int) -> int:
    if beta not in (1, 2):
        raise ValueError(f"symmetry class beta must be 1 or 2, got {beta}")
    return int(beta)


def _check_integral(x, name: str) -> int:
    """x as an int; integral floats such as 2.0 pass, 2.7, bools and non-numbers raise."""
    try:
        k = int(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name}: must be an integer, got {x!r}") from None
    if k != x or isinstance(x, bool):
        raise ValueError(f"{name}: must be an integer, got {x!r}")
    return k


def _check_hermitian(M: np.ndarray, beta: Optional[int] = None) -> np.ndarray:
    """Square, Hermitian within 1e-12 over the last two axes, and real for beta = 1."""
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("matrix must be square")
    MH = np.swapaxes(M, -1, -2).conj()
    if not np.array_equal(M, MH):  # exact equality, as from vec_to_matrix, is cheaper
        defect = np.max(np.abs(M - MH))
        if defect > 1e-12:
            raise ValueError(f"input not Hermitian within 1e-12 (defect {defect:.3g})")
    if beta == 1 and np.iscomplexobj(M) and np.max(np.abs(M.imag)) > 1e-12:
        raise ValueError("beta = 1 requires a real symmetric matrix")
    return M


def n_beta(beta: int, d: int) -> int:
    """Real dimension of the symmetric (d(d+1)/2) or Hermitian (d^2) matrices."""
    beta = _check_beta(beta)
    d = _check_integral(d, "d")
    if d < 2:
        raise ValueError("matrix dimension must be >= 2")
    return d * (d + 1) // 2 if beta == 1 else d * d


def diagonal_positions(d: int) -> np.ndarray:
    """Positions of the (i,i) entries inside the row-major upper-triangle packing."""
    iu, ju = np.triu_indices(d)
    return np.flatnonzero(iu == ju)


def coefficient_scale(beta: int, d: int) -> np.ndarray:
    """Entrywise scale mapping raw field copies to packed matrix coefficients.

    beta = 1 puts sqrt(2) on the diagonal entries; beta = 2 keeps the diagonal
    real with unit scale, and the trailing d(d-1)/2 imaginary coefficients are
    unit scale as well.
    """
    beta = _check_beta(beta)
    scale = np.ones(n_beta(beta, d))
    if beta == 1:
        scale[diagonal_positions(d)] = np.sqrt(2.0)
    return scale


@functools.lru_cache(maxsize=None)
def _unpacking_basis(beta: int, d: int) -> np.ndarray:
    """Read-only 0/+-1 matrix B with vec_to_matrix(x) = x @ B, reshaped.

    Row k is where coefficient k lands: shape (n_beta, d*d) for beta = 1,
    and (n_beta, 2*d*d) for beta = 2, whose columns are the float view of a
    complex d x d matrix (real and imaginary parts interleaved).
    """
    n1 = d * (d + 1) // 2
    iu, ju = np.triu_indices(d)
    k = np.arange(n1)
    if beta == 1:
        B = np.zeros((n1, d, d))
        B[k, iu, ju] = 1.0
        B[k, ju, iu] = 1.0
    else:
        B = np.zeros((d * d, d, d, 2))
        B[k, iu, ju, 0] = 1.0
        B[k, ju, iu, 0] = 1.0
        si, sj = np.triu_indices(d, k=1)
        k = n1 + np.arange(si.size)
        B[k, si, sj, 1] = 1.0
        B[k, sj, si, 1] = -1.0
    B = B.reshape(B.shape[0], -1)
    B.flags.writeable = False
    return B


def vec_to_matrix(x: np.ndarray, beta: int, d: int) -> np.ndarray:
    """Unpack a coefficient vector into the corresponding (exactly) Hermitian matrix.

    Packing order: real parts of the upper triangle row-major (diagonal
    included), then for beta = 2 the imaginary parts of the strict upper
    triangle row-major. Last-axis batching is supported: x may have shape
    (..., n_beta(beta, d)). One matmul against _unpacking_basis: each entry
    gets one +-1 term, so finite coefficients land exactly (a zero entry may
    come out as -0.0); a nan or inf coefficient makes every other entry of
    its matrix nan.
    """
    beta = _check_beta(beta)
    n = n_beta(beta, d)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise ValueError(f"coefficient vector must have length {n}, got {x.shape[-1]}")
    d = int(d)
    M = np.matmul(x, _unpacking_basis(beta, d))
    if beta == 2:
        M = M.view(complex)
    return M.reshape(x.shape[:-1] + (d, d))


def matrix_to_vec(M: np.ndarray, beta: int) -> np.ndarray:
    """Pack a Hermitian matrix into its coefficient vector; inverse of vec_to_matrix.

    Input must be Hermitian within 1e-12 (and real for beta = 1); it is
    symmetrized exactly before packing so the round trip is an identity.
    """
    beta = _check_beta(beta)
    M = _check_hermitian(M, beta)
    d = M.shape[-1]
    Mh = 0.5 * (M + np.swapaxes(M, -1, -2).conj())
    iu, ju = np.triu_indices(d)
    real_part = np.real(Mh[..., iu, ju])
    if beta == 1:
        return real_part
    si, sj = np.triu_indices(d, k=1)
    return np.concatenate([real_part, np.imag(Mh[..., si, sj])], axis=-1)


def validate_shift(A: Optional[np.ndarray], beta: int, d: int) -> np.ndarray:
    """Normalize and validate the deterministic shift matrix (None means 0)."""
    beta = _check_beta(beta)
    if A is None:
        return np.zeros((d, d)) if beta == 1 else np.zeros((d, d), dtype=complex)
    A = np.asarray(A)
    if A.shape != (d, d):
        raise ValueError(f"shift matrix must be {d}x{d}, got {A.shape}")
    A = _check_hermitian(A, beta)
    if not np.isfinite(A).all():
        raise ValueError("shift matrix entries must be finite")
    return np.real(A).astype(float) if beta == 1 else A.astype(complex)
