"""Scalar Gaussian fields driving the matrix ensembles.

Fractional Brownian motion and its multiparameter product-kernel sheet, with:

* exact dense covariances at given time points (or sheet points), the law
  the window sampler is tested against,
* the circulant embedding of stationary fGn increments on uniform 1-d grids
  (nonnegative definite for every H in (0, 1): Dietrich & Newsam 1997;
  Craigmile 2003), its normals-to-increments map by a real-input inverse
  FFT, and the law of the path's value at the start of a window given the
  increments inside it; the batch window sampler built on these, used by
  every Monte Carlo experiment, is experiments._field_path_batch,
* a Volterra-kernel quadrature used purely as a covariance cross-check.

The module draws no random numbers: its maps take the normals as input.

The module imports no scipy subpackage at load time, and no experiment's
usual path imports one: the anchor weights are solved by conjugate
gradients written in numpy (_fgn_toeplitz_cg). The cold paths import
scipy inside the function: the Levinson solve near H = 1, the dense
reference increments (_fgn_exact) and the Volterra quadrature. Loading
scipy.linalg and scipy.sparse at import would nearly triple the import
time of the command line (README, Performance).
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

__all__ = [
    "fbm_covariance",
    "sheet_covariance",
    "covariance_matrix",
    "fgn_sqrt_eigenvalues",
    "fgn_from_normals",
    "volterra_kernel",
    "volterra_covariance_quadrature",
]


def _check_hurst(H: float) -> float:
    H = float(H)
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0,1), got {H}")
    return H


def fbm_covariance(s, t, H):
    """Covariance of fractional Brownian motion, (1/2)(t^2H + s^2H - |t-s|^2H).

    Accepts scalars or arrays (broadcast); times must be nonnegative.
    """
    H = _check_hurst(H)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("fbm covariance requires nonnegative times")
    h2 = 2.0 * H
    out = 0.5 * (t**h2 + s**h2 - np.abs(t - s) ** h2)
    return out.item() if out.ndim == 0 else out


def sheet_covariance(s, t, H):
    """Product kernel prod_j R_{H_j}(s_j, t_j) of the fractional sheet.

    s, t are r-vectors (or arrays with trailing axis r); H has length r.
    For r = 1 this reduces exactly to fbm_covariance.
    """
    H = tuple(float(h) for h in np.atleast_1d(H))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if s.shape[-1] != len(H) or t.shape[-1] != len(H):
        raise ValueError(
            f"dimension mismatch: s has {s.shape[-1]} components, "
            f"t has {t.shape[-1]}, H has {len(H)}"
        )
    out = np.ones(np.broadcast_shapes(s.shape[:-1], t.shape[:-1]))
    for j, h in enumerate(H):
        out = out * fbm_covariance(s[..., j], t[..., j], h)
    return out.item() if out.ndim == 0 else out


def covariance_matrix(points, hurst) -> np.ndarray:
    """Dense covariance matrix of the sheet with Hurst vector hurst at points.

    points is (n,) times for fBm or (n, r) points of the r-parameter sheet,
    with nonnegative coordinates; hurst is a scalar or one entry per
    coordinate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2):
        raise ValueError(f"points must have shape (n,) or (n, r), got {pts.shape}")
    pts = pts[:, None] if pts.ndim == 1 else pts
    return sheet_covariance(pts[:, None, :], pts[None, :, :], hurst)


# jitter schedule: 1e-14, x10 per retry, capped at 1e-10
_JITTERS = (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10)


def _cholesky_with_jitter(C: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of C, adding diagonal jitter up to 1e-10 if needed.

    Failure past the largest jitter signals a kernel that is not positive
    semidefinite and raises.
    """
    C = np.asarray(C, dtype=float)
    eye = np.eye(C.shape[0])
    for j in _JITTERS:
        try:
            return np.linalg.cholesky(C + j * eye)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "covariance matrix not factorizable with diagonal jitter up to 1e-10; "
        "kernel is not positive semidefinite on this grid"
    )


# ---------------------------------------------------------------------------
# circulant embedding of fractional Gaussian noise
# ---------------------------------------------------------------------------

def _fgn_autocov(n: int, H: float) -> np.ndarray:
    """gamma(0..n) for unit-step fGn: gamma(k) = (1/2)(|k+1|^2H - 2|k|^2H + |k-1|^2H)."""
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * H
    return 0.5 * ((k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2)


def fgn_sqrt_eigenvalues(n: int, H: float, dt: float) -> np.ndarray:
    """sqrt eigenvalues of the 2n circulant embedding of fGn.

    Tiny negatives from fft roundoff (within 1e-8 of the largest eigenvalue)
    are clipped to zero; a genuinely negative one raises LinAlgError. Cached
    per (n, H); dt enters as the exact scale dt^H.
    """
    H = _check_hurst(H)
    return float(dt) ** H * _fgn_unit_sqrt_eigenvalues(int(n), H)


@lru_cache(maxsize=64)
def _fgn_unit_sqrt_eigenvalues(n: int, H: float) -> np.ndarray:
    """fgn_sqrt_eigenvalues at dt = 1; callers must not write to the result."""
    g = _fgn_autocov(n, H)
    # first circulant row: g_0 .. g_{n-1}, g_n, g_{n-1} .. g_1
    row = np.concatenate([g[:n], [g[n]], g[n - 1 : 0 : -1]])
    eigs = np.fft.fft(row).real
    if eigs.min() < -1e-8 * eigs.max():
        raise np.linalg.LinAlgError(
            f"fGn circulant embedding not nonnegative definite at half-length {n}, H = {H}"
        )
    roots = np.sqrt(np.clip(eigs, 0.0, None))
    roots.flags.writeable = False
    return roots


@lru_cache(maxsize=64)
def _fgn_weights(n: int, H: float, dt: float, dtype: np.dtype) -> np.ndarray:
    """Read-only (2n,) row of dtype that fgn_from_normals multiplies z by.

    With r = fgn_sqrt_eigenvalues(n, H, dt): entries 0 and 1 are
    sqrt(2n) r_0 and sqrt(2n) r_n, entries 2k and 2k+1 are
    sqrt(2n) r_k / sqrt(2) (k = 1..n-1). They are formed in float64 and
    rounded once to dtype.
    """
    weights = np.sqrt(2 * n) * fgn_sqrt_eigenvalues(n, H, dt)[: n + 1]
    weights[1:n] /= np.sqrt(2.0)
    row = np.empty(2 * n, dtype=dtype)
    row[0] = weights[0]
    row[1] = weights[n]
    row[2:] = np.repeat(weights[1:n], 2)
    row.flags.writeable = False
    return row


def _fgn_half_length(n: int) -> int:
    """Half-length L of the circulant that embeds n fGn increments: the
    smallest power of two >= n (1 for n = 0); the first n of its L outputs
    are kept."""
    return 1 << max(n - 1, 0).bit_length()


@lru_cache(maxsize=64)
def _fgn_anchor_weights(n: int, H: float, i0: float) -> tuple:
    """(w, v): the law of B(i0) given the n unit-step fGn increments after it.

    i0 > 0 is real, so a window need not start on the mesh. With
    inc_k = B(i0+k+1) - B(i0+k), E[B(i0) | inc] = w . inc and
    Var[B(i0) | inc] = v, where w = Gamma^-1 c, v = i0^2H - c . w, Gamma is
    the n x n fGn Toeplitz covariance and c_k = Cov(inc_k, B(i0)). At a step
    dt the increments scale by dt^H, so w is unchanged and v scales by
    dt^2H. w is found by conjugate gradients: Gamma x is one product with
    the circulant embedding's eigenvalues, and T. Chan's optimal circulant
    preconditioner brings convergence to 10-21 iterations at n = 16384
    (H from 0.05 to 0.95); a CG run that cannot start or fails to converge
    (H near 1) solves by Levinson recursion instead. Callers must not write
    to w.
    """
    h2 = 2.0 * H
    k = np.arange(n, dtype=float)
    c = 0.5 * ((i0 + k + 1) ** h2 - (i0 + k) ** h2 - (k + 1) ** h2 + k**h2)
    if not c.any():
        # n = 0, or H = 1/2 (independent increments): nothing to condition on
        w = np.zeros(n)
    else:
        w = _fgn_toeplitz_cg(n, H, c)
    w.flags.writeable = False
    return w, max(float(i0) ** h2 - float(c @ w), 0.0)


def _fgn_toeplitz_cg(n: int, H: float, c: np.ndarray) -> np.ndarray:
    """Gamma^-1 c by preconditioned conjugate gradients (Levinson if it stalls).

    The recurrence is scipy.sparse.linalg.cg's, in its arithmetic order, so
    the weights are bitwise those of cg(gamma, c, rtol=1e-15, maxiter=500,
    M=precond) (tests/test_fields.py compares them) without importing
    scipy.sparse. A preconditioner with a nonpositive eigenvalue (H near 1)
    is not positive definite, so CG is skipped for Levinson.
    """
    L = _fgn_half_length(n)
    eigs = _fgn_unit_sqrt_eigenvalues(L, H)[: L + 1] ** 2
    g = _fgn_autocov(n - 1, H)
    # T. Chan's circulant: first column ((n-k) g_k + k g_{n-k}) / n
    k = np.arange(n)
    precond = np.fft.rfft(((n - k) * g + k * np.roll(g[::-1], 1)) / n).real
    if not np.all(precond > 0):
        return _solve_fgn_toeplitz(g, c)
    atol = 1e-15 * np.linalg.norm(c)
    x = np.zeros(n)
    r = c.copy()
    for it in range(500):
        if np.linalg.norm(r) < atol:
            return x
        z = np.fft.irfft(np.fft.rfft(r) / precond, n)
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = np.fft.irfft(eigs * np.fft.rfft(p, 2 * L), 2 * L)[:n]
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return _solve_fgn_toeplitz(g, c)


def _solve_fgn_toeplitz(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Gamma^-1 c by Levinson recursion, Gamma = toeplitz(g).

    As H -> 1, Gamma rounds to a singular or indefinite matrix, where Levinson
    raises or returns noise; the diagonal then gets _cholesky_with_jitter's
    jitter until the residual is within 1e-6 of |c|. Only the anchor
    weights near H = 1 come here, so scipy.linalg is imported in the call.
    """
    from scipy.linalg import matmul_toeplitz, solve_toeplitz

    for j in _JITTERS:
        try:
            w = solve_toeplitz(np.concatenate([[g[0] + j], g[1:]]), c)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.norm(matmul_toeplitz(g, w) - c) <= 1e-6 * np.linalg.norm(c):
            return w
    raise np.linalg.LinAlgError("fGn Toeplitz solve failed with jitter up to 1e-10 (H near 1)")


def fgn_from_normals(z: np.ndarray, H: float, dt: float) -> np.ndarray:
    """Map standard normals (m, 2n) to fGn increments (m, n) of Hurst index H at step dt.

    Consumes exactly 2n normals per path in a fixed order, so per-replica
    substreams stay aligned regardless of batching: z[:, 0] and z[:, 1] drive
    the real frequencies 0 and n, and the pairs z[:, 2k], z[:, 2k+1] the real
    and imaginary parts of frequency k (k = 1..n-1), each weighted by the
    embedding's root (fgn_sqrt_eigenvalues(n, H, dt)). The spectrum is
    Hermitian, so a real-input inverse FFT of its n+1 half does the synthesis.

    The synthesis runs in the precision of z: float32 normals give a
    complex64 half spectrum and a float32 inverse FFT (the experiments'
    route), anything else is cast to float64. The weights come from
    _fgn_weights, built once per (n, H, dt, dtype).
    """
    z = np.atleast_2d(np.asarray(z))
    dtype = np.dtype(np.float32 if z.dtype == np.float32 else np.float64)
    z = z.astype(dtype, copy=False)
    m, L = z.shape
    n = L // 2
    if L != 2 * n or n < 1:
        raise ValueError(f"normals must have shape (m, 2n) with n >= 1, got {z.shape}")
    w = _fgn_weights(n, _check_hurst(H), float(dt), dtype)
    half = np.empty((m, n + 1), dtype=np.result_type(dtype, np.complex64))
    # written through its (re, im) view, one multiply per segment
    parts = half.view(dtype)
    np.multiply(z[:, 0], w[0], out=parts[:, 0])
    np.multiply(z[:, 1], w[1], out=parts[:, 2 * n])
    parts[:, 1] = parts[:, 2 * n + 1] = 0.0
    np.multiply(z[:, 2:], w[2:], out=parts[:, 2 : 2 * n])
    return np.fft.irfft(half, n=L, axis=1)[:, :n]


def _fgn_exact(n: int, H: float, dt: float, z: np.ndarray) -> np.ndarray:
    """Exact fGn increments (k, n) from normals z (k, n), one path per row.

    The n x n Toeplitz covariance is factored once per call; each row is
    mapped on its own, so a path does not depend on the other rows. No
    experiment calls it, so scipy.linalg is imported in the call.
    """
    from scipy.linalg import toeplitz

    g = _fgn_autocov(n - 1, H) * float(dt) ** (2.0 * H)
    L = _cholesky_with_jitter(toeplitz(g))
    return np.stack([L @ row for row in z])


# ---------------------------------------------------------------------------
# Volterra kernel (H < 1/2), used as a covariance cross-check only
# (scipy.integrate and scipy.special are imported inside these functions:
# no CLI command uses them, and they would double the package's import time)
# ---------------------------------------------------------------------------

def _volterra_constant(H: float) -> float:
    """Normalization making int_0^(s^t) K(u,s)K(u,t)du equal the fBm covariance.

    The defining integral int_0^1 (1-x)^(-2H) x^(H-1/2) dx is the Beta function
    B(H+1/2, 1-2H), so the constant is sqrt(2H / ((1-2H) B(H+1/2, 1-2H))).
    """
    from scipy import special

    return np.sqrt(2.0 * H / ((1.0 - 2.0 * H) * special.beta(H + 0.5, 1.0 - 2.0 * H)))


def _check_volterra_hurst(H: float) -> float:
    H = float(H)
    if not 0.0 < H < 0.5:
        raise ValueError(f"Volterra kernel defined for H in (0, 1/2), got {H}")
    return H


def volterra_kernel(s: float, t: float, H: float) -> float:
    """Volterra kernel K_H(s,t) of fBm for H < 1/2; zero for s >= t.

    K_H(s,t) = c_H [ (t/s)^(H-1/2) (t-s)^(H-1/2)
                     - (H-1/2) s^(1/2-H) int_s^t u^(H-3/2) (u-s)^(H-1/2) du ].
    The inner integral is computed after substituting u = s + v^2, which
    removes the endpoint singularity.
    """
    H = _check_volterra_hurst(H)
    s = float(s)
    t = float(t)
    if s >= t:
        return 0.0  # Volterra support convention
    if s <= 0.0:
        raise ValueError("kernel requires 0 < s < t")
    from scipy import integrate

    c = _volterra_constant(H)
    lead = (t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
    vmax = np.sqrt(t - s)
    inner, _ = integrate.quad(
        lambda v: 2.0 * (s + v * v) ** (H - 1.5) * v ** (2.0 * H),
        0.0, vmax, epsabs=0.0, epsrel=1e-10, limit=200,
    )
    return c * (lead - (H - 0.5) * s ** (0.5 - H) * inner)


def volterra_covariance_quadrature(s: float, t: float, H: float) -> float:
    """int_0^(s^t) K_H(u,s) K_H(u,t) du by adaptive quadrature.

    Cross-check: equals fbm_covariance(s, t, H) up to quadrature error. The
    integrand has an integrable (power < 1) singularity at u = min(s,t);
    scipy flags it with an IntegrationWarning although the value converges,
    so that warning is silenced here.
    """
    H = _check_volterra_hurst(H)
    from scipy import integrate

    lo, hi = 0.0, min(s, t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda u: volterra_kernel(u, s, H) * volterra_kernel(u, t, H),
            lo, hi, epsabs=0.0, epsrel=1e-8, limit=300,
        )
    return val
