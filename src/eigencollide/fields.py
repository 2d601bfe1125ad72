"""Scalar Gaussian fields driving the matrix ensembles.

Fractional Brownian motion and its multiparameter product-kernel sheet, with:

* exact dense factorization on arbitrary grids (the reference sampler),
* the circulant embedding of stationary fGn increments on uniform 1-d grids
  (embedding eigenvalues, and the normals-to-increments map by a real-input
  inverse FFT), and the law of the path's value at the start of a window
  given the increments inside it; the batch window sampler built on these,
  used by every Monte Carlo experiment, is experiments._field_path_batch,
* a Volterra-kernel quadrature used purely as a covariance cross-check.

All sampling is deterministic given (seed, replica index); see streams.py.

The module imports no scipy subpackage at load time, and no experiment's
usual path imports one: the anchor weights are solved by conjugate
gradients written in numpy (_fgn_toeplitz_cg). The cold paths import
scipy inside the function: the Levinson solve near H = 1, the dense
increments behind an invalid embedding (_fgn_exact) and the Volterra
quadrature. Loading scipy.linalg and scipy.sparse at import took
`import eigencollide.cli` from 0.17 s to 0.48 s (2-vCPU x86 virtual
machine).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .streams import TAG_FIELD, substream

__all__ = [
    "GridSpec",
    "RegularityReport",
    "fbm_covariance",
    "sheet_covariance",
    "covariance_matrix",
    "sample_field_exact",
    "fgn_sqrt_eigenvalues",
    "fgn_from_normals",
    "volterra_kernel",
    "volterra_covariance_quadrature",
    "verify_regularity_bounds",
    "cholesky_with_jitter",
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


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid: axis j holds n[j] equispaced points in [a[j], b[j]].

    A singleton axis (n_j = 1) must have a_j = b_j. Points are enumerated in
    C order (last axis fastest), matching points().
    """

    a: tuple
    b: tuple
    n: tuple

    def __post_init__(self):
        a = tuple(float(x) for x in np.atleast_1d(self.a))
        b = tuple(float(x) for x in np.atleast_1d(self.b))
        n = tuple(int(x) for x in np.atleast_1d(self.n))
        if not len(a) == len(b) == len(n):
            raise ValueError("a, b, n must have equal lengths")
        for j, (aj, bj, nj) in enumerate(zip(a, b, n)):
            if aj < 0:
                raise ValueError(f"axis {j}: left endpoint {aj} < 0")
            if bj < aj:
                raise ValueError(f"axis {j}: endpoints out of order ({aj} > {bj})")
            if nj < 1:
                raise ValueError(f"axis {j}: need at least one point, got {nj}")
            if nj == 1 and aj != bj:
                raise ValueError(f"axis {j}: singleton axis requires a == b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)

    @property
    def r(self) -> int:
        return len(self.n)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.n))

    def axes(self):
        return [np.linspace(aj, bj, nj) for aj, bj, nj in zip(self.a, self.b, self.n)]

    def points(self) -> np.ndarray:
        """All grid points as an (npoints, r) array, C order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def interval(a: float, b: float, n: int) -> GridSpec:
    """1-d grid shorthand."""
    return GridSpec((a,), (b,), (n,))


def covariance_matrix(grid: GridSpec, hurst) -> np.ndarray:
    """Dense covariance matrix of the sheet with Hurst vector hurst on grid.points().

    hurst is a scalar or one entry per grid axis (r = 1 is fBm).
    """
    pts = grid.points()
    return sheet_covariance(pts[:, None, :], pts[None, :, :], hurst)


# jitter schedule: 1e-14, x10 per retry, capped at 1e-10
_JITTERS = (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10)


def cholesky_with_jitter(C: np.ndarray) -> np.ndarray:
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


def sample_field_exact(grid: GridSpec, hurst, seed: int, replicas: int) -> np.ndarray:
    """Exact draws of the sheet with Hurst vector hurst on grid, (replicas, npoints).

    Row r is generated from the substream (seed, TAG_FIELD, r). Dense O(N^3)
    factorization; meant for reference-quality sampling on grids of at most
    a few thousand points. Output is bit-identical for fixed (seed, replicas)
    no matter how the replica loop is scheduled.
    """
    if replicas < 0:
        raise ValueError("replicas must be nonnegative")
    N = grid.npoints
    L = cholesky_with_jitter(covariance_matrix(grid, hurst))
    values = np.empty((replicas, N))
    for r in range(replicas):
        z = substream(seed, TAG_FIELD, r).standard_normal(N)
        values[r] = L @ z
    return values


# ---------------------------------------------------------------------------
# circulant embedding of fractional Gaussian noise
# ---------------------------------------------------------------------------

def _fgn_autocov(n: int, H: float) -> np.ndarray:
    """gamma(0..n) for unit-step fGn: gamma(k) = (1/2)(|k+1|^2H - 2|k|^2H + |k-1|^2H)."""
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * H
    return 0.5 * ((k + 1) ** h2 - 2.0 * k**h2 + np.abs(k - 1) ** h2)


def fgn_sqrt_eigenvalues(n: int, H: float, dt: float) -> Optional[np.ndarray]:
    """sqrt eigenvalues of the 2n circulant embedding of fGn, or None.

    None signals a genuinely negative eigenvalue (embedding invalid); tiny
    negatives from fft roundoff (within 1e-8 of the largest eigenvalue) are
    clipped to zero. Cached per (n, H); dt enters as the exact scale dt^H.
    """
    H = _check_hurst(H)
    unit = _fgn_unit_sqrt_eigenvalues(int(n), H)
    return None if unit is None else float(dt) ** H * unit


@lru_cache(maxsize=64)
def _fgn_unit_sqrt_eigenvalues(n: int, H: float) -> Optional[np.ndarray]:
    """fgn_sqrt_eigenvalues at dt = 1; callers must not write to the result."""
    g = _fgn_autocov(n, H)
    # first circulant row: g_0 .. g_{n-1}, g_n, g_{n-1} .. g_1
    row = np.concatenate([g[:n], [g[n]], g[n - 1 : 0 : -1]])
    eigs = np.fft.fft(row).real
    if eigs.min() < -1e-8 * eigs.max():
        return None
    return np.sqrt(np.clip(eigs, 0.0, None))


def _fgn_half_length(n: int) -> int:
    """Half-length L of the circulant that embeds n fGn increments: the
    smallest power of two >= n (1 for n = 0); the first n of its L outputs
    are kept."""
    return 1 << max(n - 1, 0).bit_length()


@lru_cache(maxsize=64)
def _fgn_anchor_weights(n: int, H: float, i0: float, exact: bool) -> tuple:
    """(w, v): the law of B(i0) given the n unit-step fGn increments after it.

    i0 > 0 is real, so a window need not start on the mesh. With
    inc_k = B(i0+k+1) - B(i0+k), E[B(i0) | inc] = w . inc and
    Var[B(i0) | inc] = v, where w = Gamma^-1 c, v = i0^2H - c . w, Gamma is
    the n x n fGn Toeplitz covariance and c_k = Cov(inc_k, B(i0)). At a step
    dt the increments scale by dt^H, so w is unchanged and v scales by
    dt^2H. w is found by conjugate gradients: Gamma x is one product with
    the circulant embedding's eigenvalues, and T. Chan's optimal circulant
    preconditioner brings convergence to 10-21 iterations at n = 16384
    (H from 0.05 to 0.95).
    exact = True (an invalid embedding) solves by Levinson recursion
    instead, as does a CG run that fails to converge. Callers must not write
    to w.
    """
    h2 = 2.0 * H
    k = np.arange(n, dtype=float)
    c = 0.5 * ((i0 + k + 1) ** h2 - (i0 + k) ** h2 - (k + 1) ** h2 + k**h2)
    if not c.any():
        # n = 0, or H = 1/2 (independent increments): nothing to condition on
        w = np.zeros(n)
    elif exact:
        w = _solve_fgn_toeplitz(_fgn_autocov(n - 1, H), c)
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
    raises or returns noise; the diagonal then gets cholesky_with_jitter's
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


def fgn_from_normals(z: np.ndarray, sqrt_eigs: np.ndarray) -> np.ndarray:
    """Map standard normals (m, 2n) to fGn increments (m, n).

    Consumes exactly 2n normals per path in a fixed order, so per-replica
    substreams stay aligned regardless of batching: z[:, 0] and z[:, 1] drive
    the real frequencies 0 and n, and the pairs z[:, 2k], z[:, 2k+1] the real
    and imaginary parts of frequency k (k = 1..n-1). The spectrum is
    Hermitian, so a real-input inverse FFT of its n+1 half does the synthesis.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    m, L = z.shape
    n = L // 2
    if L != 2 * n or L != sqrt_eigs.shape[0]:
        raise ValueError("normals must have shape (m, 2n) matching the embedding")
    weights = np.sqrt(L) * sqrt_eigs[: n + 1]
    weights[1:n] /= np.sqrt(2.0)
    half = np.empty((m, n + 1), dtype=complex)
    # written through its (re, im) float view, one multiply per segment
    parts = half.view(float)
    np.multiply(z[:, 0], weights[0], out=parts[:, 0])
    np.multiply(z[:, 1], weights[n], out=parts[:, 2 * n])
    parts[:, 1] = parts[:, 2 * n + 1] = 0.0
    np.multiply(z[:, 2:], np.repeat(weights[1:n], 2), out=parts[:, 2 : 2 * n])
    return np.fft.irfft(half, n=L, axis=1)[:, :n]


def _fgn_exact(n: int, H: float, dt: float, z: np.ndarray) -> np.ndarray:
    """Exact fGn increments (k, n) from normals z (k, n), one path per row.

    The n x n Toeplitz covariance is factored once per call; each row is
    mapped on its own, so a path does not depend on the other rows. Only an
    invalid embedding comes here, so scipy.linalg is imported in the call.
    """
    from scipy.linalg import toeplitz

    g = _fgn_autocov(n - 1, H) * float(dt) ** (2.0 * H)
    L = cholesky_with_jitter(toeplitz(g))
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


@dataclass(frozen=True)
class RegularityReport:
    """Empirical regularity constants of a field over a finite grid.

    var_min:                min_t R(t,t)
    increment_ratio_min/max: range of E[(xi(s)-xi(t))^2] / sum_j |s_j-t_j|^(2H_j)
    conditional_ratio_min:  min of Var[xi(t)|xi(s)] over the same denominator
    ok:                     all constants strictly positive and finite
    """

    var_min: float
    increment_ratio_min: float
    increment_ratio_max: float
    conditional_ratio_min: float
    ok: bool


def verify_regularity_bounds(grid: GridSpec, hurst) -> RegularityReport:
    """Scan a grid for the two-sided increment and conditional-variance bounds.

    hurst is a scalar or one entry per grid axis, as in covariance_matrix.

    Empirical check on a finite grid only; it reports the observed constants
    and flags a violation when any of them is nonpositive or non-finite. It
    cannot certify the infimum over the continuum.
    """
    if any(nj < 2 for nj in grid.n):
        raise ValueError("regularity scan needs at least 2 points per axis")
    R = covariance_matrix(grid, hurst)  # checks each H_j and that there are grid.r of them
    pts = grid.points()
    var = np.diag(R)
    # sum_j |s_j - t_j|^(2H_j) for every ordered pair
    denom = np.zeros_like(R)
    for j, h in enumerate(np.atleast_1d(hurst)):
        dj = np.abs(pts[:, j][:, None] - pts[:, j][None, :])
        denom += dj ** (2.0 * h)
    off = denom > 0.0
    incr = var[:, None] + var[None, :] - 2.0 * R
    ratios = incr[off] / denom[off]
    # condition on s (rows), evaluate at t (columns); rows with zero variance
    # cannot be conditioned on and would be a violation anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        condvar = var[None, :] - R**2 / var[:, None]
        cond_ratios = (condvar / denom)[off]
    var_min = float(var.min())
    rmin = float(ratios.min())
    rmax = float(ratios.max())
    cmin = float(np.min(cond_ratios))
    vals = (var_min, rmin, rmax, cmin)
    ok = all(np.isfinite(v) and v > 0.0 for v in vals)
    return RegularityReport(var_min, rmin, rmax, cmin, ok)
