"""Charts on the degenerate set: frames, completions, degenerate samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencollide.geometry import (
    chart_matrix,
    check_frame,
    complete_frame,
    lambda_matrix,
    random_stiefel,
    sample_degenerate,
)

seeds = st.integers(0, 2**31)
dims = st.integers(3, 6)
fields = st.sampled_from(["real", "complex"])


def test_lambda_matrix_doubles_last_level():
    L = lambda_matrix([3.0, 1.0], 3)
    np.testing.assert_array_equal(L, np.diag([3.0, 1.0, 1.0]))
    L = lambda_matrix([5.0], 2)
    np.testing.assert_array_equal(L, np.diag([5.0, 5.0]))
    with pytest.raises(ValueError):
        lambda_matrix([1.0, 2.0, 3.0], 3)


def test_check_frame():
    check_frame(np.eye(4)[:, :2])
    check_frame(np.empty((3, 0)))  # empty frame is valid (the d = 2 chart)
    with pytest.raises(ValueError):
        check_frame(np.ones((3, 2)))


@given(dims, fields, seeds)
@settings(max_examples=40, deadline=None)
def test_random_stiefel_orthonormal(d, field, seed):
    Q = random_stiefel(d, d - 2, field, seed=seed)
    gram = Q.conj().T @ Q
    assert np.max(np.abs(gram - np.eye(d - 2))) < 1e-12
    assert np.iscomplexobj(Q) == (field == "complex")


def test_random_stiefel_deterministic():
    a = random_stiefel(4, 2, "real", seed=3)
    b = random_stiefel(4, 2, "real", seed=3)
    np.testing.assert_array_equal(a, b)


def test_random_stiefel_rejects_wide():
    with pytest.raises(ValueError):
        random_stiefel(3, 4, "real", seed=0)
    with pytest.raises(ValueError):
        random_stiefel(3, 2, "quaternion", seed=0)


@given(dims, fields, seeds)
@settings(max_examples=40, deadline=None)
def test_complete_frame_orthonormal(d, field, seed):
    R = random_stiefel(d, d - 2, field, seed=seed)
    eye = np.eye(d, dtype=complex if field == "complex" else float)
    try:
        full = complete_frame(R, eye)
    except ValueError:
        return  # reference too close to span, a documented rejection
    assert full.shape == (d, d)
    gram = full.conj().T @ full
    assert np.max(np.abs(gram - np.eye(d))) < 1e-12
    # first d-2 columns are the input frame, untouched
    np.testing.assert_array_equal(full[:, : d - 2], R)


def test_complete_frame_rejects_degenerate_reference():
    # reference columns d-2, d-1 inside the frame span force the floor
    R = np.eye(4)[:, :2]
    ref = np.eye(4)[:, [2, 3, 0, 1]]
    with pytest.raises(ValueError):
        complete_frame(R, ref)


def test_complete_frame_shape_checks():
    with pytest.raises(ValueError):
        complete_frame(np.eye(4)[:, :1], np.eye(4))  # wrong column count
    with pytest.raises(ValueError):
        complete_frame(np.eye(4)[:, :2], np.eye(3))  # wrong reference shape


@given(dims, fields, seeds)
@settings(max_examples=30, deadline=None)
def test_chart_matrix_degenerate_spectrum(d, field, seed):
    rng = np.random.default_rng(seed)
    R = random_stiefel(d, d - 2, field, rng=rng)
    eye = np.eye(d, dtype=complex if field == "complex" else float)
    try:
        frame = complete_frame(R, eye)
    except ValueError:
        return
    levels = np.sort(rng.standard_normal(d - 1))[::-1]
    M = chart_matrix(frame, levels)
    lam = np.linalg.eigvalsh(M)[::-1]
    expected = np.sort(np.concatenate([levels, levels[-1:]]))[::-1]
    np.testing.assert_allclose(lam, expected, atol=1e-10)
    assert np.min(lam[:-1] - lam[1:]) <= 1e-9  # repeated pair present


def test_chart_matrix_d2_is_scalar_matrix():
    frame = complete_frame(np.empty((2, 0)), np.eye(2))
    M = chart_matrix(frame, [2.5])
    np.testing.assert_allclose(M, 2.5 * np.eye(2), atol=1e-14)


@given(st.integers(2, 6), st.sampled_from([1, 2]), seeds)
@settings(max_examples=40, deadline=None)
def test_sample_degenerate_has_repeated_pair(d, beta, seed):
    M = sample_degenerate(d, beta, seed=seed)
    assert M.shape == (d, d)
    assert np.iscomplexobj(M) == (beta == 2)
    lam = np.linalg.eigvalsh(M)
    gaps = np.diff(lam)
    assert gaps.min() <= 1e-9
    # exactly d-1 distinct values: all other gaps stay separated
    if d > 2:
        assert np.sort(gaps)[1] > 1e-9


def test_sample_degenerate_level_draw_and_beta_check():
    def uniform(r, size):
        return r.uniform(-1.0, 1.0, size)

    M = sample_degenerate(4, 1, rng=np.random.default_rng(3), level_draw=uniform)
    lam = np.linalg.eigvalsh(M)
    assert np.all(np.abs(lam) <= 1.0 + 1e-12)
    assert np.min(np.diff(lam)) < 1e-10  # the doubled level
    with pytest.raises(ValueError, match="beta"):
        sample_degenerate(3, 1.5, seed=1)


def test_sample_degenerate_deterministic():
    a = sample_degenerate(4, 2, seed=17)
    b = sample_degenerate(4, 2, seed=17)
    np.testing.assert_array_equal(a, b)
