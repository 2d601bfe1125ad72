"""Covariances, grids, circulant engine and window sampler, Volterra."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_toeplitz
from scipy.sparse.linalg import LinearOperator, cg

from eigencollide import experiments, fields
from eigencollide.experiments import _field_path_batch
from eigencollide.fields import (
    GridSpec,
    cholesky_with_jitter,
    covariance_matrix,
    fbm_covariance,
    fgn_from_normals,
    fgn_sqrt_eigenvalues,
    interval,
    sheet_covariance,
    verify_regularity_bounds,
    volterra_covariance_quadrature,
    volterra_kernel,
)
from eigencollide.streams import TAG_COLLISION, substream

hursts = st.floats(0.05, 0.95)
times = st.floats(0.01, 8.0)


# -- covariance functions ---------------------------------------------------


@given(times, hursts)
def test_fbm_variance_power_law(t, H):
    assert fbm_covariance(t, t, H) == pytest.approx(t ** (2 * H), rel=1e-12)


@given(times, times)
def test_fbm_half_is_brownian(s, t):
    assert fbm_covariance(s, t, 0.5) == pytest.approx(min(s, t), rel=1e-12)


@given(times, times, hursts)
def test_fbm_symmetry(s, t, H):
    assert fbm_covariance(s, t, H) == fbm_covariance(t, s, H)


@given(times, times, hursts)
def test_fbm_increment_stationarity(s, t, H):
    # R(s,s) + R(t,t) - 2R(s,t) = |t-s|^(2H) is an identity, not a sample property
    lhs = fbm_covariance(s, s, H) + fbm_covariance(t, t, H) - 2 * fbm_covariance(s, t, H)
    assert lhs == pytest.approx(abs(t - s) ** (2 * H), rel=1e-9, abs=1e-12)


@given(times, times, hursts, st.integers(-3, 2).map(lambda k: 2.0**k))
@example(s=0.010000000000000002, t=0.01, H=0.25, c=0.125)
def test_fbm_self_similarity(s, t, H, c):
    # c is a power of two, so c*s and c*t are exact and c*s - c*t = c*(s - t);
    # any other c rounds them, and |s - t|^2H amplifies that when s ~ t
    lhs = fbm_covariance(c * s, c * t, H)
    assert lhs == pytest.approx(c ** (2 * H) * fbm_covariance(s, t, H), rel=1e-10)


def test_fbm_zero_at_origin():
    assert fbm_covariance(0.0, 5.0, 0.3) == 0.0
    assert fbm_covariance(0.0, 0.0, 0.7) == 0.0


@pytest.mark.parametrize("H", [0.0, 1.0, -0.2, 1.5])
def test_fbm_rejects_bad_hurst(H):
    with pytest.raises(ValueError):
        fbm_covariance(1.0, 2.0, H)


@given(times, times, times, times, hursts, hursts)
def test_sheet_is_product(s1, s2, t1, t2, H1, H2):
    lhs = sheet_covariance((s1, s2), (t1, t2), (H1, H2))
    rhs = fbm_covariance(s1, t1, H1) * fbm_covariance(s2, t2, H2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_sheet_broadcast_matches_scalar():
    s = np.array([[0.5, 1.0], [1.5, 2.0]])
    t = np.array([[1.0, 1.0], [0.5, 3.0]])
    H = (0.3, 0.7)
    vals = sheet_covariance(s, t, H)
    for k in range(2):
        assert vals[k] == pytest.approx(sheet_covariance(s[k], t[k], H))


# -- grids ------------------------------------------------------------------


def test_grid_points_c_order():
    g = GridSpec(a=(0.0, 10.0), b=(1.0, 12.0), n=(3, 2))
    pts = g.points()
    # last axis varies fastest
    expected = np.array(
        [[0.0, 10.0], [0.0, 12.0],
         [0.5, 10.0], [0.5, 12.0],
         [1.0, 10.0], [1.0, 12.0]]
    )
    np.testing.assert_allclose(pts, expected)
    assert g.npoints == 6
    assert g.r == 2


def test_interval_helper():
    g = interval(1.0, 2.0, 5)
    np.testing.assert_allclose(g.axes()[0], [1.0, 1.25, 1.5, 1.75, 2.0])
    assert g.npoints == 5


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(a=(2.0,), b=(1.0,), n=(4,))  # b < a
    with pytest.raises(ValueError):
        GridSpec(a=(-1.0,), b=(1.0,), n=(4,))  # negative corner
    with pytest.raises(ValueError):
        GridSpec(a=(0.0,), b=(1.0,), n=(0,))  # no points
    with pytest.raises(ValueError):
        GridSpec(a=(0.0, 1.0), b=(1.0,), n=(2, 2))  # mismatched lengths
    with pytest.raises(ValueError):
        GridSpec(a=(0.0,), b=(1.0,), n=(1,))  # singleton needs a == b


def test_grid_singleton_axis():
    g = GridSpec(a=(1.0, 0.0), b=(1.0, 1.0), n=(1, 2))
    assert g.npoints == 2
    # a == b with n == 1 means a single coordinate on that axis
    assert np.unique(g.points()[:, 0]).size == 1


# -- dense sampling ---------------------------------------------------------


def test_covariance_matrix_psd_and_symmetric():
    g = interval(0.5, 3.0, 12)
    for H in (0.2, 0.5, 0.8):
        C = covariance_matrix(g, H)
        np.testing.assert_allclose(C, C.T, atol=1e-14)
        w = np.linalg.eigvalsh(C)
        assert w.min() >= -1e-9 * w.max()


def test_fbm_is_the_one_parameter_sheet():
    g = interval(0.5, 2.0, 9)
    t = g.axes()[0]
    expected = fbm_covariance(t[:, None], t[None, :], 0.3)
    np.testing.assert_array_equal(covariance_matrix(g, 0.3), expected)
    np.testing.assert_array_equal(covariance_matrix(g, (0.3,)), expected)


def test_cholesky_with_jitter_handles_singular():
    C = np.ones((6, 6))  # rank 1, exactly singular
    L = cholesky_with_jitter(C)
    np.testing.assert_allclose(L @ L.T, C, atol=1e-8)


def test_cholesky_with_jitter_rejects_indefinite():
    C = -np.eye(3)
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_with_jitter(C)


_LINE = interval(1.0, 2.0, 4)
_SQUARE = GridSpec(a=(1.0, 1.0), b=(2.0, 2.0), n=(3, 3))


@pytest.mark.parametrize(
    "grid,hurst",
    [(_LINE, (0.3, 0.4)), (_SQUARE, 0.3), (_SQUARE, (0.3,)), (_SQUARE, (0.3, 0.4, 0.5))],
    ids=["r1-two-H", "r2-scalar-H", "r2-one-H", "r2-three-H"],
)
def test_hurst_length_must_match_grid(grid, hurst):
    # one Hurst entry per axis: too few or too many raise, never a silent axis-0 law
    with pytest.raises(ValueError):
        covariance_matrix(grid, hurst)
    with pytest.raises(ValueError):
        verify_regularity_bounds(grid, hurst)


# -- circulant engine -------------------------------------------------------


def test_fgn_embedding_nonnegative_for_fbm():
    # the fGn circulant embedding is nonnegative definite for every H in (0, 1)
    # (Dietrich & Newsam 1997; Craigmile 2003), at every half-length the
    # window sampler uses, up to the 16384 of an Nmax = 16384 ladder
    for n in (1, 2, 16, 1024, 16384):
        for H in (1e-4, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-6, 0.9999999999999999):
            assert fgn_sqrt_eigenvalues(n, H, 1.0).shape == (2 * n,), (n, H)


def test_invalid_embedding_raises(monkeypatch):
    # fBm never fails the embedding's check, so a non-PSD autocovariance
    # (1, -1, -1, ...) stands in: the embedding and the window sampler
    # raise a LinAlgError naming the half-length and H, with no warning and
    # no fallback. The cache is cleared to force the solve; a raise is never
    # cached
    fields._fgn_unit_sqrt_eigenvalues.cache_clear()
    monkeypatch.setattr(fields, "_fgn_autocov", lambda n, H: np.r_[1.0, np.full(n, -1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=r"half-length 16, H = 0\.3$"):
            fgn_sqrt_eigenvalues(16, 0.3, 1.0)
        with pytest.raises(np.linalg.LinAlgError, match=r"half-length 16, H = 0\.3$"):
            _field_path_batch(3, (0.3,), 1.0 / 16, 16.0, 17, 7, (), 0, 4)
    assert fields._fgn_unit_sqrt_eigenvalues.cache_info().currsize == 0


def test_fgn_from_normals_consumes_2n():
    z = np.random.default_rng(0).standard_normal((2, 32))
    inc = fgn_from_normals(z, 0.3, 1.0)
    assert inc.shape == (2, 16)
    for bad in (z[:, :31], z[:, :0]):
        with pytest.raises(ValueError):
            fgn_from_normals(bad, 0.3, 1.0)


def _fgn_complex_ifft(z, sqrt_eigs):
    # the full Hermitian spectrum built by hand, then a complex inverse FFT
    m, L = z.shape
    n = L // 2
    Z = np.zeros((m, L), dtype=complex)
    Z[:, 0] = z[:, 0]
    Z[:, n] = z[:, 1]
    if n > 1:
        Z[:, 1:n] = (z[:, 2::2] + 1j * z[:, 3::2]) / np.sqrt(2.0)
        Z[:, n + 1 :] = np.conj(Z[:, 1:n])[:, ::-1]
    return (np.sqrt(L) * np.fft.ifft(sqrt_eigs * Z, axis=1).real)[:, :n]


@pytest.mark.parametrize("n", [1, 2, 16, 4096])
def test_fgn_from_normals_matches_complex_ifft(n):
    # the real-input inverse FFT maps the same normals to the same increments
    sq = fgn_sqrt_eigenvalues(n, 0.3, 1.0 / n)
    z = np.random.default_rng(n).standard_normal((3, 2 * n))
    ref = _fgn_complex_ifft(z, sq)
    assert np.max(np.abs(fgn_from_normals(z, 0.3, 1.0 / n) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_fgn_from_normals_works_in_the_precision_of_the_normals():
    # float32 normals are synthesized in float32; anything else in float64
    z = np.random.default_rng(3).standard_normal((2, 64))
    assert fgn_from_normals(z.astype(np.float32), 0.3, 1.0).dtype == np.float32
    for x in (z, z.astype(np.float16), np.ones((2, 64), dtype=int)):
        assert fgn_from_normals(x, 0.3, 1.0).dtype == np.float64


@pytest.mark.parametrize("H", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.97, 0.99])
def test_single_precision_synthesis_error(H):
    # the window sampler synthesizes float32 normals in float32. On the
    # criteria's finest mesh (N = 16384 cells on [1, 2]) the path, summed in
    # float64, stays within 2e-3 delta_N of float64 synthesis of the same
    # normals, delta_N = (1/N)^H being the smallest threshold
    N = 16384
    z = np.random.default_rng(16384).standard_normal((4, 2 * N), dtype=np.float32)
    single = np.cumsum(fgn_from_normals(z, H, 1.0 / N), axis=1, dtype=np.float64)
    double = np.cumsum(fgn_from_normals(z.astype(np.float64), H, 1.0 / N), axis=1)
    assert np.max(np.abs(single - double)) <= 2e-3 * (1.0 / N) ** H


def test_fgn_dt_scaling_exact():
    # dt enters as the deterministic factor dt^H
    sq1 = fgn_sqrt_eigenvalues(32, 0.3, 1.0)
    sq2 = fgn_sqrt_eigenvalues(32, 0.3, 0.25)
    np.testing.assert_allclose(sq2, 0.25**0.3 * sq1, rtol=1e-13)


def test_circulant_increments_match_fgn_autocovariance():
    # sample autocovariance at lags 0..3 against the analytic values
    n, H, reps = 128, 0.3, 3000
    z = np.random.default_rng(77).standard_normal((reps, 2 * n))
    inc = fgn_from_normals(z, H, 1.0)
    k = np.arange(4, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))
    for lag in range(4):
        prods = inc[:, : n - lag] * inc[:, lag:]
        est = prods.mean()
        se = prods.mean(axis=1).std(ddof=1) / np.sqrt(reps)
        assert abs(est - gamma[lag]) < 5 * se


# The batch window sampler of the experiments: nf = 3 gives three independent
# scalar fBm paths per replica, at times (i0 + k) * step.


def _window_paths(H, step, i0, npoints, seed, replicas):
    paths = _field_path_batch(3, (H,), step, i0, npoints, seed, (), 0, replicas)
    return paths.reshape(-1, npoints)


def test_circulant_marginal_is_gaussian():
    # KS test of the first increment against N(0,1); pinned seed
    inc = _field_path_batch(3, (0.35,), 1.0, 1.0, 64, 0, (), 0, 400)[0, :, 0, 0]
    pval = stats.kstest(inc, "norm").pvalue
    assert pval > 0.01


def test_field_path_batch_cumsum_variance():
    # cumulative sums form fBm: Var(sum of first k) = (k dt)^(2H)
    n, H, dt = 64, 0.4, 0.125
    paths = _window_paths(H, dt, 1, n, 0, 500)
    for k in (1, 8, 64):
        var = paths[:, k - 1].var(ddof=1)
        expected = (k * dt) ** (2 * H)
        # chi-square concentration: relative error ~ sqrt(2/m) ~ 3.7%
        assert abs(var - expected) / expected < 0.2


def test_field_path_batch_deterministic():
    a = _field_path_batch(3, (0.3,), 1.0, 1.0, 32, 5, (), 0, 4)
    b = _field_path_batch(3, (0.3,), 1.0, 1.0, 32, 5, (), 0, 4)
    np.testing.assert_array_equal(a, b)


def test_field_path_batch_stream_contract():
    # STREAM_VERSION 8, rebuilt by hand for replica r: substream(seed,
    # *prefix, r) gives nf rows of L raw words, then nf float64 anchor
    # normals. Word k of a row, high bits h and low bits l, gives the float32
    # pair R (cos theta, sin theta) in slots 2k, 2k + 1, with
    # R = sqrt(-2 ln((h + 1/2) 2^-32)) in float64 and
    # theta = 2 pi (l + 1/2) 2^-32 rounded to float32. Row f's weighted half
    # spectrum (weights formed in float64, rounded to float32) goes through a
    # float32 inverse FFT; the anchor and the cumulative sum are float64
    nf, hs, npoints, seed, prefix, r = 2, (0.3, 0.7), 13, 99, (TAG_COLLISION,), 5
    n, L = npoints - 1, 16
    step, i0 = experiments._window_start(1.0, 2.0, n)
    got = _field_path_batch(nf, hs, step, i0, npoints, seed, prefix, 3, 7)[:, r - 3]
    rng = substream(seed, *prefix, r)
    rows = []
    for _ in range(nf):
        words = rng.bit_generator.random_raw(L)
        h, l = words >> np.uint64(32), words & np.uint64(0xFFFFFFFF)
        R = np.sqrt(-2.0 * np.log((h + 0.5) * 2.0**-32)).astype(np.float32)
        theta = (2.0 * np.pi * (l + 0.5) * 2.0**-32).astype(np.float32)
        z = np.empty(2 * L, dtype=np.float32)
        z[0::2], z[1::2] = R * np.cos(theta), R * np.sin(theta)
        rows.append(z)
    anchors = rng.standard_normal(nf)
    for k, H in enumerate(hs):
        w = np.sqrt(2 * L) * fgn_sqrt_eigenvalues(L, H, step)[: L + 1]
        w[1:L] /= np.sqrt(2.0)
        w = w.astype(np.float32)
        want = np.empty((nf, npoints))
        for f, z in enumerate(rows):
            half = np.zeros(L + 1, dtype=np.complex64)
            half.real[0], half.real[L] = z[0] * w[0], z[1] * w[L]
            half.real[1:L] = z[2::2] * w[1:L]
            half.imag[1:L] = z[3::2] * w[1:L]
            want[f, 1:] = np.fft.irfft(half, n=2 * L)[:n]
        aw, v = fields._fgn_anchor_weights(n, H, i0)
        want[:, 0] = anchors * (step**H * np.sqrt(v))
        want[:, 0] += want[:, 1:] @ aw
        assert got[k].tobytes() == np.cumsum(want, axis=1).tobytes(), H


def _window_law_error(H, a=1.0, b=None, seed=2024, replicas=3400):
    # the path every experiment samples, on the window [a, b] (default
    # [a, a + 1]) at N = 16 cells (a = i0 * step): known-mean sample
    # covariance against the exact fbm covariance, in Monte Carlo standard
    # errors as in criterion 01
    b = a + 1.0 if b is None else b
    step, i0 = experiments._window_start(a, b, 16)
    return _law_error(_window_paths(H, step, i0, 17, seed, replicas), H, a, b)


def _law_error(X, H, a, b):
    # max |S - R| / SE over the covariance entries of paths X (rows) on [a, b]
    R = covariance_matrix(interval(a, b, X.shape[1]), H)
    S = X.T @ X / X.shape[0]
    se = np.sqrt((np.outer(np.diag(R), np.diag(R)) + R**2) / X.shape[0])
    return np.max(np.abs(S - R) / se)


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
def test_field_path_batch_window_law(H):
    assert _window_law_error(H) <= 5.0


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
def test_field_path_batch_far_window_law(H):
    # the anchor X(4) carries four times the window's length of history
    assert _window_law_error(H, a=4.0, seed=4045) <= 5.0


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
def test_field_path_batch_off_mesh_window_law(H):
    # [0.5, 2] at N = 16 starts between mesh points: i0 = 16/3. Rounding
    # i0 to 5 moves the window by a third of a step, which changes Var X(a)
    # by 4-9 % over these H; with 6e4 paths a sampler that rounds reads
    # 5.3, 9.4 and 13.7 SE here
    assert experiments._window_start(0.5, 2.0, 16)[1] == pytest.approx(16 / 3, abs=1e-12)
    assert _window_law_error(H, a=0.5, b=2.0, seed=6061, replicas=20_000) <= 5.0


def test_cached_embedding_roots_are_read_only():
    # every caller shares the cached array; a write would change later draws
    roots = fields._fgn_unit_sqrt_eigenvalues(8, 0.3)
    assert not roots.flags.writeable
    assert fgn_sqrt_eigenvalues(8, 0.3, 0.5).flags.writeable  # the scaled copy is the caller's
    for dtype in (np.float32, np.float64):
        assert not fields._fgn_weights(8, 0.3, 0.5, np.dtype(dtype)).flags.writeable


def _anchor_cov(n, H, i0):
    # c_k = Cov(inc_k, B(i0)) for the n unit-step increments after i0
    k = np.arange(n, dtype=float)
    return 0.5 * ((i0 + k + 1) ** (2 * H) - (i0 + k) ** (2 * H) - (k + 1) ** (2 * H) + k ** (2 * H))


@pytest.mark.parametrize("n", [16, 1023, 16384])
@pytest.mark.parametrize("H", [0.25, 0.7])
def test_anchor_weights_match_levinson(n, H):
    # conjugate gradients on the embedding against a direct Toeplitz solve
    for i0 in (1, n):
        w, v = fields._fgn_anchor_weights(n, H, i0)
        c = _anchor_cov(n, H, i0)
        ref = solve_toeplitz(fields._fgn_autocov(n - 1, H), c)
        assert np.max(np.abs(w - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert v == pytest.approx(i0 ** (2 * H) - c @ ref, rel=1e-10)
        assert not w.flags.writeable


def _scipy_cg_anchor_weights(n, H, i0):
    # the anchor solve as scipy's cg runs it, with the same two FFT operators
    k = np.arange(n, dtype=float)
    c = _anchor_cov(n, H, i0)
    L = fields._fgn_half_length(n)
    eigs = fields._fgn_unit_sqrt_eigenvalues(L, H)[: L + 1] ** 2
    g = fields._fgn_autocov(n - 1, H)
    precond = np.fft.rfft(((n - k) * g + k * np.roll(g[::-1], 1)) / n).real
    gamma = LinearOperator(
        (n, n), lambda p: np.fft.irfft(eigs * np.fft.rfft(p, 2 * L), 2 * L)[:n], dtype=float
    )
    m = LinearOperator((n, n), lambda r: np.fft.irfft(np.fft.rfft(r) / precond, n), dtype=float)
    w, info = cg(gamma, c, rtol=1e-15, maxiter=500, M=m)
    assert info == 0
    return w


@pytest.mark.parametrize("n", [8, 1023, 16384])
@pytest.mark.parametrize("H", [0.05, 0.25, 0.7, 0.95])
def test_anchor_weights_are_scipys_cg_bit_for_bit(n, H):
    # the numpy recurrence keeps cg's arithmetic order, so no bit moves
    for i0 in (1, n, 0.37):
        w, _ = fields._fgn_anchor_weights(n, H, i0)
        assert w.tobytes() == _scipy_cg_anchor_weights(n, H, i0).tobytes()


def test_anchor_weights_vanish_for_brownian_motion():
    # H = 1/2: increments are independent of X(a), so w = 0 and v = i0
    w, v = fields._fgn_anchor_weights(64, 0.5, 8)
    assert not w.any() and v == 8.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("levinson", [False, True])
@pytest.mark.parametrize("n", [8, 1024])
def test_anchor_weights_near_linear_motion(n, levinson):
    # H within a few ulps of 1: B(t) is t Z up to rounding, so E[B(i0) | inc]
    # is i0 times the mean increment and nothing is left to draw. The Toeplitz
    # covariance is singular in floating point (plain Levinson raises) and
    # small jitters give noise; the solve must settle on a true solution.
    # Where the CG preconditioner is not positive (n = 8 at the second H),
    # the solve goes to Levinson without dividing by it: no warning.
    # levinson = True runs CG's fallback, the jittered Levinson solve, on its
    # own, with v clamped at 0 as _fgn_anchor_weights clamps it
    i0 = n / 2
    for H in (0.9999999999999999, 0.999999999999999):
        if levinson:
            c = _anchor_cov(n, H, i0)
            w = fields._solve_fgn_toeplitz(fields._fgn_autocov(n - 1, H), c)
            v = max(i0 ** (2 * H) - c @ w, 0.0)
        else:
            w, v = fields._fgn_anchor_weights(n, H, i0)
        assert w.sum() == pytest.approx(i0, rel=1e-6)
        assert 0.0 <= v <= 1e-6 * i0**2


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_field_path_batch_single_point_is_the_anchor(H):
    # npoints = 1: no increments, X(a) ~ N(0, a^2H) with a = i0 * step = 1.5
    x = _field_path_batch(3, (H,), 0.5, 3.0, 1, 11, (), 0, 4000)
    assert x.shape == (1, 4000, 3, 1)
    var = x.var()
    assert abs(var - 1.5 ** (2 * H)) / 1.5 ** (2 * H) < 5 * np.sqrt(2.0 / x.size)


def test_embedding_cache_is_bounded_and_shared_by_threads():
    # worker threads share the (n, H) eigenvalue cache and the (n, H, dt,
    # dtype) weight cache; each holds at most 64 entries
    from concurrent.futures import ThreadPoolExecutor

    module_dicts = [k for k, v in vars(fields).items() if isinstance(v, dict) and k[:2] != "__"]
    assert module_dicts == []
    keys = [(n, H) for n in range(8, 48) for H in (0.3, 0.7)]
    for solve in (
        lambda k: fgn_sqrt_eigenvalues(k[0], k[1], 0.5),
        lambda k: fields._fgn_weights(k[0], k[1], 0.5, np.dtype(np.float32)),
    ):
        serial = [solve(k) for k in keys]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(solve, keys))
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)
    for cached in (
        fields._fgn_unit_sqrt_eigenvalues,
        fields._fgn_weights,
        fields._fgn_anchor_weights,
    ):
        info = cached.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64


# -- Volterra cross-check ---------------------------------------------------


def test_volterra_kernel_support():
    assert volterra_kernel(1.0, 1.0, 0.3) == 0.0
    assert volterra_kernel(2.0, 1.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        volterra_kernel(0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        volterra_kernel(0.5, 1.0, 0.6)  # defined for H < 1/2 only


def test_volterra_reproduces_fbm_variance():
    # diagonal of the cross-check: int_0^t K(u,t)^2 du = t^(2H)
    for t in (0.5, 1.0):
        val = volterra_covariance_quadrature(t, t, 0.3)
        assert val == pytest.approx(t**0.6, rel=1e-4)


def test_volterra_reproduces_fbm_cross_covariance():
    val = volterra_covariance_quadrature(0.5, 1.5, 0.3)
    assert val == pytest.approx(fbm_covariance(0.5, 1.5, 0.3), rel=1e-3)


# -- regularity --------------------------------------------------------------


def test_verify_regularity_bounds_fbm():
    g = interval(1.0, 2.0, 8)
    rep = verify_regularity_bounds(g, 0.3)
    assert rep.ok
    assert rep.var_min > 0
    assert rep.increment_ratio_min > 0
    assert np.isfinite(rep.increment_ratio_max)
    assert rep.conditional_ratio_min > 0


def test_verify_regularity_bounds_sheet():
    g = GridSpec(a=(0.5, 0.5), b=(1.5, 1.5), n=(3, 3))
    rep = verify_regularity_bounds(g, (0.3, 0.4))
    assert rep.ok


def test_verify_regularity_bounds_needs_two_points():
    g = GridSpec(a=(1.0,), b=(1.0,), n=(1,))
    with pytest.raises(ValueError):
        verify_regularity_bounds(g, 0.3)
