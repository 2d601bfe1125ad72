"""Ordered spectra, gap statistics, contour projectors, collision detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencollide.ensembles import n_beta, vec_to_matrix
from eigencollide.fields import fbm_model, interval, sample_field_exact
from eigencollide.ensembles import build_ensemble_path
from eigencollide.spectral import (
    adjacent_gaps,
    detect_collisions,
    eigenprojection_contour,
    gap_closed_form_2x2,
    gap_series,
    min_gap,
    ordered_eigenvalues,
    spectrum_path,
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


def test_adjacent_gaps():
    eigs = np.array([[5.0, 3.0, 0.5], [1.0, 1.0, -2.0]])
    np.testing.assert_allclose(adjacent_gaps(eigs), [[2.0, 2.5], [0.0, 3.0]])


# -- spectrum paths and minimum gaps -----------------------------------------


def _toy_path(beta=1, d=3, replicas=2, npts=5, seed=31):
    g = interval(1.0, 2.0, npts)
    fields = sample_field_exact(g, fbm_model(0.4), seed, replicas * n_beta(beta, d))
    return build_ensemble_path(fields, beta, d, None)


def test_spectrum_path_shapes_and_order():
    path = _toy_path()
    sp = spectrum_path(path)
    assert sp.eigs.shape == (2, 5, 3)
    assert np.all(np.diff(sp.eigs, axis=-1) <= 0)
    # spot check one matrix against the direct solve
    lam = ordered_eigenvalues(path.matrix(1, 3))
    np.testing.assert_allclose(sp.eigs[1, 3], lam, rtol=1e-12, atol=1e-12)


def test_min_gap_finds_planted_minimum():
    path = _toy_path(replicas=3, npts=8)
    sp = spectrum_path(path)
    gaps, pairs = gap_series(sp)
    res = min_gap(sp)
    assert res.values.shape == (3,)
    for r in range(3):
        k = int(np.argmin(gaps[r]))
        assert res.values[r] == pytest.approx(gaps[r, k])
        assert res.times[r] == path.times[k]


def test_detect_collisions_threshold():
    path = _toy_path(replicas=4, npts=16, seed=7)
    sp = spectrum_path(path)
    gaps, _ = gap_series(sp)
    delta = np.quantile(gaps.min(axis=1), 0.6)
    events = detect_collisions(sp, delta)
    flagged = {e.replica for e in events}
    expected = {r for r in range(4) if gaps[r].min() < delta}
    assert flagged == expected
    for e in events:
        assert gaps[e.replica, e.time_index] < delta


# -- contour projectors -------------------------------------------------------


def test_projector_matches_direct_top_eigenvector():
    M = random_sym(4, 11)
    lam, V = np.linalg.eigh(M)
    proj = eigenprojection_contour(M, (0,))
    top = V[:, -1:]  # descending index 0 = ascending index d-1
    np.testing.assert_allclose(proj.matrix, top @ top.T, atol=1e-9)
    assert proj.trace == pytest.approx(1.0, abs=1e-8)


def test_projector_cluster_pair():
    M = np.diag([4.0, 3.9, 1.0, -2.0])
    proj = eigenprojection_contour(M, (0, 1))
    expected = np.diag([1.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(proj.matrix, expected, atol=1e-9)
    assert proj.trace == pytest.approx(2.0, abs=1e-8)


@given(st.integers(2, 5), seeds)
@settings(max_examples=30, deadline=None)
def test_projector_invariants(d, seed):
    M = random_sym(d, seed, complex_=True)
    lam = ordered_eigenvalues(M)
    if np.min(-np.diff(lam)) < 1e-3:
        return  # nearly degenerate draw, separation handled by the error test
    P = eigenprojection_contour(M, (0,)).matrix
    np.testing.assert_allclose(P @ P, P, atol=1e-7)
    np.testing.assert_allclose(P @ M, M @ P, atol=1e-7)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-12)


def test_projector_full_spectrum_is_identity():
    M = random_sym(3, 2)
    P = eigenprojection_contour(M, (0, 1, 2)).matrix
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
    with pytest.raises(ValueError):
        eigenprojection_contour(M, (0,), points=2)


def test_projector_real_input_gives_real_output():
    P = eigenprojection_contour(random_sym(3, 4), (0,)).matrix
    assert P.dtype == np.float64
