"""Ordered spectra, adjacent gaps, 2x2, 3x3 and d >= 4 gap kernels, contour projectors."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencollide.ensembles import matrix_to_vec, n_beta, vec_to_matrix
from eigencollide import spectral
from eigencollide.spectral import (
    _gap_closed_form_3x3,
    _min_gap_by_qr,
    adjacent_gaps,
    eigenprojection_contour,
    gap_closed_form_2x2,
    ordered_eigenvalues,
)

betas = st.sampled_from([1, 2])
seeds = st.integers(0, 2**31)


def random_sym(d, seed, complex_=False):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    if complex_:
        G = G + 1j * rng.standard_normal((d, d))
    return 0.5 * (G + G.conj().T)


# -- eigenvalue ordering ------------------------------------------------------


@given(st.integers(2, 6), seeds)
@settings(max_examples=40)
def test_ordered_eigenvalues_descending(d, seed):
    M = random_sym(d, seed)
    lam = ordered_eigenvalues(M)
    assert np.all(np.diff(lam) <= 0)
    np.testing.assert_allclose(np.sort(lam), np.linalg.eigvalsh(M), rtol=1e-12, atol=1e-12)


@given(st.integers(2, 5), seeds, seeds)
@settings(max_examples=40)
def test_eigenvalue_perturbation_bound(d, seed1, seed2):
    # |lambda_i(A+E) - lambda_i(A)| <= ||E||_2, order-preserving perturbation bound
    A = random_sym(d, seed1)
    E = 0.1 * random_sym(d, seed2)
    shift = np.abs(ordered_eigenvalues(A + E) - ordered_eigenvalues(A))
    assert shift.max() <= np.linalg.norm(E, 2) + 1e-10


@given(st.integers(2, 5), seeds)
@settings(max_examples=40)
def test_trace_invariant(d, seed):
    M = random_sym(d, seed, complex_=True)
    lam = ordered_eigenvalues(M)
    assert lam.sum() == pytest.approx(np.real(np.trace(M)), rel=1e-10, abs=1e-10)


def test_ordered_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        ordered_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- closed-form 2x2 gap ------------------------------------------------------


@given(betas, seeds)
@settings(max_examples=60)
def test_gap_closed_form_matches_solver(beta, seed):
    x = np.random.default_rng(seed).standard_normal(n_beta(beta, 2))
    lam = ordered_eigenvalues(vec_to_matrix(x, beta, 2))
    assert gap_closed_form_2x2(x, beta) == pytest.approx(lam[0] - lam[1], rel=1e-10, abs=1e-12)


def test_gap_closed_form_batched():
    x = np.random.default_rng(8).standard_normal((10, n_beta(2, 2)))
    gaps = gap_closed_form_2x2(x, 2)
    assert gaps.shape == (10,)
    for k in range(10):
        assert gaps[k] == pytest.approx(gap_closed_form_2x2(x[k], 2))


# -- closed-form 3x3 gap ------------------------------------------------------


def _solver_min_gap(x, beta, d=3):
    lam = ordered_eigenvalues(vec_to_matrix(x, beta, d))
    return adjacent_gaps(lam).min(axis=-1)


def _frobenius(x, beta, d=3):
    return np.linalg.norm(vec_to_matrix(x, beta, d), axis=(-2, -1))


def _planted_pairs(beta, gap, n, seed, d=3):
    """Packed Haar-rotated matrices with levels (l, l + gap or l - gap, l', ...)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, d, d))
    if beta == 2:
        G = G + 1j * rng.standard_normal((n, d, d))
    Q, _ = np.linalg.qr(G)
    lev = rng.standard_normal((n, d - 1))
    pair = lev[:, :1] + gap * rng.choice([-1.0, 1.0], n)[:, None]
    levels = np.concatenate([lev[:, :1], pair, lev[:, 1:]], axis=-1)
    M = (Q * levels[:, None, :]) @ np.swapaxes(Q, -1, -2).conj()
    return matrix_to_vec(0.5 * (M + np.swapaxes(M, -1, -2).conj()), beta)


@pytest.mark.parametrize("beta", [1, 2])
def test_gap_closed_form_3x3_random_matrices(beta):
    x = np.random.default_rng(30 + beta).standard_normal((50_000, n_beta(beta, 3)))
    gaps, ref, F = _gap_closed_form_3x3(x, beta), _solver_min_gap(x, beta), _frobenius(x, beta)
    assert gaps.shape == (50_000,)
    assert np.max(np.abs(gaps - ref) / F) <= 1e-12
    wide = ref >= 1e-3 * F
    assert wide.mean() > 0.9
    assert np.max(np.abs(gaps[wide] - ref[wide]) / ref[wide]) <= 1e-9


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8])
def test_gap_closed_form_3x3_planted_near_double_pairs(beta, gap):
    # arccos near +-1 costs half the digits: about 1e-16 p^2 / gap, so the
    # bound is absolute in ||M||_F
    x = _planted_pairs(beta, gap, 20_000, seed=int(-np.log10(gap)) + 10 * beta)
    err = np.abs(_gap_closed_form_3x3(x, beta) - _solver_min_gap(x, beta))
    assert np.max(err / _frobenius(x, beta)) <= 1e-7


@pytest.mark.parametrize("beta", [1, 2])
def test_gap_closed_form_3x3_degenerate_spectra_are_exactly_zero(beta):
    dtype = complex if beta == 2 else float
    mats = [np.zeros((3, 3)), 0.1 * np.eye(3), -7.3 * np.eye(3), 1e-300 * np.eye(3)]
    x = np.array([matrix_to_vec(M.astype(dtype), beta) for M in mats])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gaps = _gap_closed_form_3x3(x, beta)
        one = _gap_closed_form_3x3(x[0], beta)
    assert np.all(gaps == 0.0) and one == 0.0


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_gap_closed_form_3x3_scale_invariant(beta, scale):
    x = np.random.default_rng(7).standard_normal((2000, n_beta(beta, 3)))
    gaps = _gap_closed_form_3x3(x, beta)
    wide = gaps >= 1e-3 * _frobenius(x, beta)
    np.testing.assert_allclose(
        _gap_closed_form_3x3(x * scale, beta)[wide] / scale, gaps[wide], rtol=1e-9
    )
    # a power-of-two scale is exact in every coefficient, so nothing moves
    two = 2.0 ** np.round(np.log2(scale))
    assert np.array_equal(_gap_closed_form_3x3(x * two, beta) / two, gaps)


def test_gap_closed_form_3x3_needs_the_3x3_packing():
    with pytest.raises(ValueError, match="packed coefficients"):
        _gap_closed_form_3x3(np.zeros(n_beta(2, 3)), 1)


# -- d >= 4: Householder tridiagonalization and QR sweeps ------------------------


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d", [4, 5])
def test_qr_gap_kernel_random_matrices(d, beta):
    x = np.random.default_rng(40 + 10 * d + beta).standard_normal((50_000, n_beta(beta, d)))
    gaps, ref, F = _min_gap_by_qr(x, beta, d), _solver_min_gap(x, beta, d), _frobenius(x, beta, d)
    assert gaps.shape == (50_000,)
    assert np.max(np.abs(gaps - ref) / F) <= 1e-14
    wide = ref >= 1e-3 * F
    assert wide.mean() > 0.9
    assert np.max(np.abs(gaps[wide] - ref[wide]) / ref[wide]) <= 1e-11


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_qr_gap_kernel_planted_near_double_pairs(d, beta, gap):
    # backward stable, unlike the 3x3 closed form: the error stays at
    # eps ||M||_F however close the pair
    x = _planted_pairs(beta, gap, 10_000, seed=int(-np.log10(gap)) + 10 * beta + 100 * d, d=d)
    err = np.abs(_min_gap_by_qr(x, beta, d) - _solver_min_gap(x, beta, d))
    assert np.max(err / _frobenius(x, beta, d)) <= 1e-14


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d", [4, 5])
def test_qr_gap_kernel_reducible_and_degenerate_inputs(d, beta):
    rng = np.random.default_rng(50 + d + beta)
    dtype = complex if beta == 2 else float
    block = random_sym(d, 3, complex_=beta == 2)
    block[:2, 2:] = block[2:, :2] = 0.0  # two blocks: the chase restarts below the cut
    split = random_sym(d, 4, complex_=beta == 2)
    split[d - 2 :, : d - 2] = split[: d - 2, d - 2 :] = 0.0
    mats = [
        np.diag(rng.standard_normal(d)), np.diag([2.0, -1.0, 2.0] + [5.0] * (d - 3)),
        block, split, np.zeros((d, d)), 0.1 * np.eye(d), -7.3 * np.eye(d), 1e-300 * np.eye(d),
    ]
    x = np.array([matrix_to_vec(M.astype(dtype), beta) for M in mats])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gaps = _min_gap_by_qr(x, beta, d)
    ref = _solver_min_gap(x, beta, d)
    atol = 1e-14 * _frobenius(x, beta, d).max()
    np.testing.assert_allclose(gaps[:4], ref[:4], rtol=0.0, atol=atol)
    assert np.all(gaps[4:] == 0.0)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_qr_gap_kernel_scale_invariant(beta, scale):
    d = 4
    x = np.random.default_rng(8).standard_normal((2000, n_beta(beta, d)))
    gaps = _min_gap_by_qr(x, beta, d)
    np.testing.assert_allclose(
        _min_gap_by_qr(x * scale, beta, d) / scale, gaps, rtol=0.0, atol=1e-14 * np.abs(x).max()
    )
    # a power-of-two scale is exact in every step, so nothing moves
    two = 2.0 ** np.round(np.log2(scale))
    assert np.array_equal(_min_gap_by_qr(x * two, beta, d) / two, gaps)


@pytest.mark.parametrize("beta", [1, 2])
def test_qr_gap_kernel_bits_do_not_depend_on_the_batch(beta):
    # lanes that deflate at once, lanes that need many sweeps and split
    # lanes, each alone and in one batch
    d = 4
    x = np.concatenate([
        np.random.default_rng(9).standard_normal((300, n_beta(beta, d))),
        _planted_pairs(beta, 1e-10, 300, seed=10, d=d),
        matrix_to_vec(np.diag([1.0, 1.0, 0.0, -1.0]), beta)[None],
        matrix_to_vec(np.array([[1, 0.5, 0, 0], [0.5, 2, 0, 0], [0, 0, 3, 0.7], [0, 0, 0.7, -1]]),
                      beta)[None],
    ])
    whole = _min_gap_by_qr(x, beta, d)
    alone = np.array([_min_gap_by_qr(row, beta, d) for row in x])
    assert whole.tobytes() == alone.tobytes()
    assert _min_gap_by_qr(x.reshape(2, 301, -1), beta, d).tobytes() == whole.tobytes()


def test_qr_gap_kernel_raises_when_a_block_does_not_deflate(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
    x = np.random.default_rng(11).standard_normal((100, n_beta(1, 4)))
    with pytest.raises(np.linalg.LinAlgError, match="4 x 4 block"):
        _min_gap_by_qr(x, 1, 4)


def test_qr_gap_kernel_needs_the_dxd_packing():
    with pytest.raises(ValueError, match="packed coefficients"):
        _min_gap_by_qr(np.zeros(n_beta(2, 4)), 1, 4)
    with pytest.raises(ValueError, match="packed coefficients"):
        _min_gap_by_qr(np.zeros(n_beta(1, 5)), 1, 4)


def test_adjacent_gaps():
    eigs = np.array([[5.0, 3.0, 0.5], [1.0, 1.0, -2.0]])
    np.testing.assert_allclose(adjacent_gaps(eigs), [[2.0, 2.5], [0.0, 3.0]])


# -- contour projectors -------------------------------------------------------


def test_projector_matches_direct_top_eigenvector():
    M = random_sym(4, 11)
    lam, V = np.linalg.eigh(M)
    P = eigenprojection_contour(M, (0,))
    top = V[:, -1:]  # descending index 0 = ascending index d-1
    np.testing.assert_allclose(P, top @ top.T, atol=1e-9)
    assert np.trace(P) == pytest.approx(1.0, abs=1e-8)


def test_projector_cluster_pair():
    M = np.diag([4.0, 3.9, 1.0, -2.0])
    P = eigenprojection_contour(M, (0, 1))
    expected = np.diag([1.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(P, expected, atol=1e-9)
    assert np.trace(P) == pytest.approx(2.0, abs=1e-8)


@given(st.integers(2, 5), seeds)
@settings(max_examples=30, deadline=None)
def test_projector_invariants(d, seed):
    M = random_sym(d, seed, complex_=True)
    lam = ordered_eigenvalues(M)
    if np.min(-np.diff(lam)) < 1e-3:
        return  # nearly degenerate draw, separation handled by the error test
    P = eigenprojection_contour(M, (0,))
    np.testing.assert_allclose(P @ P, P, atol=1e-7)
    np.testing.assert_allclose(P @ M, M @ P, atol=1e-7)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-12)


def test_projector_full_spectrum_is_identity():
    M = random_sym(3, 2)
    P = eigenprojection_contour(M, (0, 1, 2))
    np.testing.assert_allclose(P, np.eye(3), atol=1e-9)


def test_projector_rejects_non_isolated_cluster():
    M = np.diag([1.0, 1.0 + 1e-12, 0.0])
    with pytest.raises(ValueError):
        eigenprojection_contour(M, (0,))


def test_projector_rejects_bad_cluster():
    M = np.diag([2.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        eigenprojection_contour(M, ())
    with pytest.raises(ValueError):
        eigenprojection_contour(M, (3,))


def test_projector_real_input_gives_real_output():
    P = eigenprojection_contour(random_sym(3, 4), (0,))
    assert P.dtype == np.float64
