"""Ordered spectra, adjacent gaps, 2 x 2, 3 x 3 and d >= 4 gap kernels, contour eigenprojections.

Eigenvalues are always reported in descending order; cluster indices are
0-based positions into that descending order. The collision loop that takes
path minima of these gaps on a grid is experiments._min_gaps_ladder.

No gap kernel runs an eigensolver. The collision loop reads the d = 2 gap
straight from its traceless paths, as a weighted norm (experiments._path_gaps);
gap_closed_form_2x2 is the same square root on the packed coefficients of
vec_to_matrix, and gap fits call it. At d = 3 the minimum adjacent gap is the
difference of the trigonometric roots of the characteristic cubic, from
packed coefficients (_gap_closed_form_3x3).
At d >= 4, _min_gap_by_qr runs LAPACK's zhetrd and dsterf route across
lanes, so it is backward stable: Householder reflectors to a real
tridiagonal, then Wilkinson-shifted implicit QR sweeps. A lane stops
rotating once it has deflated, and every step is +, -, x, / or sqrt on one
lane, so no gap depends on its batch. A quartic form for d = 4 (resolvent
cubic, Newton polish) was left out: near a double root it ran only 2x
faster than eigvalsh, and its error reached 0.4 ||M||_F at a gap of 1e-8.

ordered_eigenvalues holds the one call of np.linalg.eigvalsh, and no pool
thread reaches it, so nothing here takes a lock. The collision loop runs
_min_gap_by_qr on one thread: beside its short numpy calls, a second thread
only trades the GIL with it (experiments).
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


# sweeps a block of _qr_sweeps may take before the d >= 4 gap kernel gives up
_MAX_SWEEPS = 30


def ordered_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Real spectrum in descending order; ties kept as equal values.

    Batched over leading axes: input (..., d, d) gives output (..., d).
    """
    return np.linalg.eigvalsh(_check_hermitian(M))[..., ::-1]


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


def _min_gap_by_qr(x: np.ndarray, beta: int, d: int) -> np.ndarray:
    """Minimum adjacent eigenvalue gap of d x d Hermitian matrices (d >= 4), packed coefficients.

    x is (..., n_beta(beta, d)) in the vec_to_matrix packing. Raises
    np.linalg.LinAlgError if a block has not deflated after _MAX_SWEEPS sweeps.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n_beta(beta, d):
        raise ValueError(f"needs {n_beta(beta, d)} packed coefficients, got {x.shape[-1]}")
    a, b = _tridiagonal(x if x.ndim > 1 else x[None], beta, d)  # one matrix runs as arrays too
    for n in range(d, 2, -1):
        _qr_sweeps(a, b, n, _MAX_SWEEPS)
    half = np.sqrt(0.25 * (a[0] - a[1]) ** 2 + b[0] * b[0])  # the leading 2 x 2 block
    lam = [0.5 * (a[0] + a[1]) + sign * half for sign in (1.0, -1.0)] + a[2:]
    gaps = [np.abs(lam[i] - lam[j]) for i in range(d) for j in range(max(i + 1, 2), d)]
    return np.minimum.reduce([2.0 * half] + gaps).reshape(x.shape[:-1])


def _tridiagonal(x: np.ndarray, beta: int, d: int) -> tuple:
    """Diagonals a and off-diagonal moduli b, lists of 1-d arrays, of tridiagonals similar to x's.

    Step k maps y, the column below M[k, k], to a multiple of e1 of modulus
    b[k] = ||y|| by I - tau u u*, u = y + ||y|| y0/|y0| e1.
    """
    iu, ju = np.triu_indices(d)
    M = {(j, i): x[..., k] for k, (i, j) in enumerate(zip(iu, ju))}  # lower triangle
    if beta == 2:
        for k, (i, j) in enumerate(zip(*np.triu_indices(d, 1)), len(iu)):
            M[j, i] = M[j, i] - 1j * x[..., k]
    a, b = [], []
    for k in range(d - 1):
        rows = range(k + 1, d)
        y = [M[i, k] for i in rows]
        s = np.sqrt(sum((v * v.conj()).real for v in y))
        a.append(M[k, k])
        b.append(s)
        if k == d - 2:
            break
        r0 = np.sqrt((y[0] * y[0].conj()).real)
        zero = r0 == 0  # the phase of y0 = 0 is 1
        u = [y[0] + s * (y[0] + zero) / (r0 + zero)] + y[1:]
        den = s * (s + r0)  # u* u / 2, 0 only where u = 0
        tau = 1.0 / (den + (den == 0))
        p = [tau * sum((M[i, j] if i >= j else M[j, i].conj()) * v for j, v in zip(rows, u))
             for i in rows]
        h = 0.5 * tau * sum((v.conj() * q).real for v, q in zip(u, p))
        w = [q - h * v for v, q in zip(u, p)]
        for i, ui, wi in zip(rows, u, w):
            M[i, i] = M[i, i] - 2.0 * (ui * wi.conj()).real
            for j, uj, wj in zip(range(k + 1, i), u, w):
                M[i, j] = M[i, j] - ui * wj.conj() - wi * uj.conj()
    a.append(M[d - 1, d - 1])
    return [np.array(v, dtype=float).ravel() for v in a], [v.ravel() for v in b]


def _qr_sweeps(a: list, b: list, n: int, budget: int) -> None:
    """Wilkinson-shifted implicit QR sweeps on the leading n x n block of every lane, in place.

    A lane's chase starts below its last negligible off-diagonal. Once at most
    an eighth of the lanes rotate, the rest of the sweeps run on those alone.
    """
    live = lambda i: np.abs(b[i]) > np.finfo(float).eps * (np.abs(a[i]) + np.abs(a[i + 1]))
    for sweep in range(budget + 1):
        act = live(n - 2)
        if not (count := np.count_nonzero(act)):
            return
        if sweep == budget:
            raise np.linalg.LinAlgError(f"the {n} x {n} block did not deflate in {budget} sweeps")
        if 8 * count <= act.size:
            # padded by repeats (same bits) to a power of two: few array sizes, a smaller heap
            idx = np.resize(np.flatnonzero(act), 1 << (int(count) - 1).bit_length())
            sub_a, sub_b = [v[idx] for v in a[:n]], [v[idx] for v in b[: n - 1]]
            _qr_sweeps(sub_a, sub_b, n, budget - sweep)
            for v, sub in zip(a[:n] + b[: n - 1], sub_a + sub_b):
                v[idx] = sub
            return
        start = np.zeros(act.shape, dtype=np.intp)  # where each lane's chase starts
        for i in range(n - 2):
            cut = act & ~live(i)
            b[i][cut], start[cut] = 0.0, i + 1
        half, e2 = 0.5 * (a[n - 2] - a[n - 1]), b[n - 2] ** 2
        den = half + np.copysign(np.sqrt(half * half + e2), half)
        mu = a[n - 1] - e2 / (den + (den == 0))  # den = 0 only on deflated lanes
        x, z = a[0] - mu, b[0]
        for k in range(n - 1):
            first = start == k
            if k and first.any():
                x, z = np.where(first, a[k] - mu, x), np.where(first, b[k], z)
            r = np.sqrt(x * x + z * z)
            go = act & (r > 0)  # above a cut the bulge is 0, so no rotation crosses it
            r = np.where(go, r, 1.0)
            c, s = np.where(go, x, 1.0) / r, np.where(go, z, 0.0) / r
            if k:
                b[k - 1] = c * b[k - 1] + s * bulge
            p, e, q = a[k], b[k], a[k + 1]
            t = s * (q - p) + 2.0 * c * e
            a[k], a[k + 1], b[k] = p + s * t, q - s * t, c * t - e
            if k < n - 2:
                bulge, b[k + 1] = s * b[k + 1], c * b[k + 1]
                x, z = b[k], bulge


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
