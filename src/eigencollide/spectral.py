"""Ordered spectra, adjacent gaps, closed-form 2 x 2 and 3 x 3 gaps, contour eigenprojections.

Eigenvalues are always reported in descending order; cluster indices are
0-based positions into that descending order. The collision loop that takes
path minima of these gaps on a grid is experiments._min_gaps_ladder.

The gap kernel needs no eigensolver at d = 2 and d = 3: both take the
packed coefficients of vec_to_matrix and build no matrix. At d = 2 the gap
is a square root (gap_closed_form_2x2); at d = 3 the minimum adjacent gap
is the difference of the trigonometric roots of the characteristic cubic
(_gap_closed_form_3x3). d >= 4 goes through _descending_eigenvalues and
adjacent_gaps. A quartic form for d = 4 (resolvent cubic, Newton polish)
was tried and left out: near a double root it ran only 2x faster than
eigvalsh, and its error reached 0.4 ||M||_F at a gap of 1e-8.

_descending_eigenvalues is the package's one call of np.linalg.eigvalsh,
and it runs one call at a time (_EIGENSOLVER_LOCK). ordered_eigenvalues
checks its input and calls it; the gap kernel calls it directly, since
vec_to_matrix makes its matrices exactly Hermitian. Batched eigvalsh does
not scale across threads: 20 calls on 8192 complex 4 x 4 matrices took
0.51 s on one thread, and 0.50 s with 0.95 s of CPU time split over two
threads (0.51 s and 0.50 s under the lock; 2-vCPU x86 virtual machine,
numpy 2.4 with OpenBLAS). A thread that waits for the lock leaves the CPU
to one that samples; the values do not change.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .ensembles import _check_hermitian, n_beta

__all__ = [
    "ordered_eigenvalues",
    "gap_closed_form_2x2",
    "adjacent_gaps",
    "eigenprojection_contour",
]


# serializes np.linalg.eigvalsh across threads; see the module docstring
_EIGENSOLVER_LOCK = threading.Lock()


def ordered_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Real spectrum in descending order; ties kept as equal values.

    Batched over leading axes: input (..., d, d) gives output (..., d).
    Calls from several threads diagonalize one at a time.
    """
    return _descending_eigenvalues(_check_hermitian(M))


def _descending_eigenvalues(M: np.ndarray) -> np.ndarray:
    """ordered_eigenvalues without the Hermitian check.

    For matrices that are Hermitian by construction, as the d >= 4 gap
    kernel's are (vec_to_matrix). eigvalsh reads only the lower triangle,
    so a non-Hermitian M gives a wrong spectrum here, not an error.
    """
    with _EIGENSOLVER_LOCK:
        lam = np.linalg.eigvalsh(M)
    return lam[..., ::-1]


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


def _gap_closed_form_3x3(x: np.ndarray, beta: int) -> np.ndarray:
    """Minimum adjacent eigenvalue gap of a 3x3 Hermitian matrix from its packed coefficients.

    x has shape (..., n_beta(beta, 3)) in the vec_to_matrix packing (M11,
    M12, M13, M22, M23, M33, then Im M12, Im M13, Im M23 for beta = 2). No
    matrix is materialized and no eigensolver runs (Smith, CACM 4 (1961);
    Kopp, IJMP C 19 (2008)): with B = M - qI, q = tr(M)/3,
    p = sqrt(tr(B^2)/6), r = det(B/p)/2 clipped to [-1, 1] and
    phi = arccos(r)/3 in [0, pi/3], the eigenvalues are
    q + 2p cos(phi + 2 pi k/3), k = 0, 1, 2, and the two adjacent gaps are
    2 sqrt(3) p sin(phi) and 2 sqrt(3) p sin(pi/3 - phi), so no two
    eigenvalues are subtracted. B is divided by p before the determinant,
    which makes the result scale-invariant (for entries within about
    1e+-150, where tr(B^2) stays a normal double). p = 0 gives exactly 0.
    Near a double eigenvalue arccos costs half the digits: a gap g comes
    out to within about 1e-16 p^2 / g.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n_beta(beta, 3):
        raise ValueError(
            f"closed form requires {n_beta(beta, 3)} packed coefficients, got {x.shape[-1]}"
        )
    q = (x[..., 0] + x[..., 3] + x[..., 5]) / 3.0
    b1, b2, b3 = x[..., 0] - q, x[..., 3] - q, x[..., 5] - q
    a12, a13, a23 = x[..., 1], x[..., 2], x[..., 4]
    s12, s13, s23 = a12 * a12, a13 * a13, a23 * a23
    if beta == 2:
        c12, c13, c23 = x[..., 6], x[..., 7], x[..., 8]
        s12 += c12 * c12
        s13 += c13 * c13
        s23 += c23 * c23
    p = np.sqrt((b1 * b1 + b2 * b2 + b3 * b3 + 2.0 * (s12 + s13 + s23)) / 6.0)
    inv = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0)
    # det(B/p) = b1 b2 b3 + 2 Re(M12 M23 conj(M13)) - b1|M23|^2 - b2|M13|^2 - b3|M12|^2
    b1, b2, b3 = b1 * inv, b2 * inv, b3 * inv
    a12, a13, a23 = a12 * inv, a13 * inv, a23 * inv
    re = a12 * a23 * a13
    if beta == 2:
        c12, c13, c23 = c12 * inv, c13 * inv, c23 * inv
        re += (a12 * c23 + c12 * a23) * c13 - c12 * c23 * a13
    det = b1 * b2 * b3 + 2.0 * re - (b1 * s23 + b2 * s13 + b3 * s12) * (inv * inv)
    phi = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
    return (2.0 * np.sqrt(3.0)) * p * np.sin(np.minimum(phi, np.pi / 3.0 - phi))


def adjacent_gaps(eigs: np.ndarray) -> np.ndarray:
    """lambda_i - lambda_(i+1) for a descending spectrum; shape (..., d-1)."""
    return eigs[..., :-1] - eigs[..., 1:]


# trapezoidal quadrature points on the contour circle
_CONTOUR_POINTS = 64


def eigenprojection_contour(M: np.ndarray, cluster: Sequence[int]) -> np.ndarray:
    """Spectral projector matrix via (1/2 pi i) contour integral of the resolvent.

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
    theta = 2.0 * np.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS
    xi = center + radius * np.exp(1j * theta)
    eye = np.eye(d)
    acc = np.zeros((d, d), dtype=complex)
    for x, w in zip(xi, xi - center):
        acc += w * np.linalg.solve(x * eye - M, eye)
    P = acc / _CONTOUR_POINTS
    P = 0.5 * (P + P.conj().T)  # exact Hermitianity; kills quadrature asymmetry
    return P if np.iscomplexobj(M) else P.real
