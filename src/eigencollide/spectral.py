"""Ordered spectra, adjacent gaps, the closed-form 2 x 2 gap, contour eigenprojections.

Eigenvalues are always reported in descending order; cluster indices are
0-based positions into that descending order. The collision loop that takes
path minima of these gaps on a grid is experiments._min_gaps_ladder.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ensembles import _check_hermitian, n_beta

__all__ = [
    "ordered_eigenvalues",
    "gap_closed_form_2x2",
    "adjacent_gaps",
    "eigenprojection_contour",
]


def ordered_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Real spectrum in descending order; ties kept as equal values.

    Batched over leading axes: input (..., d, d) gives output (..., d).
    """
    M = _check_hermitian(M)
    return np.linalg.eigvalsh(M)[..., ::-1]


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
