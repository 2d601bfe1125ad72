"""Packing isomorphisms, coefficient scales and shift validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencollide.ensembles import (
    _unpacking_basis,
    coefficient_scale,
    diagonal_positions,
    matrix_to_vec,
    n_beta,
    validate_shift,
    vec_to_matrix,
)

dims = st.integers(2, 6)
betas = st.sampled_from([1, 2])


def random_vec(beta, d, seed):
    return np.random.default_rng(seed).standard_normal(n_beta(beta, d))


# -- dimension counts and index bookkeeping ----------------------------------


def test_n_beta_values():
    assert n_beta(1, 2) == 3
    assert n_beta(2, 2) == 4
    assert n_beta(1, 3) == 6
    assert n_beta(2, 3) == 9
    assert n_beta(1, 4) == 10
    assert n_beta(2, 4) == 16


def test_n_beta_rejects():
    with pytest.raises(ValueError):
        n_beta(3, 2)
    with pytest.raises(ValueError):
        n_beta(1, 1)


@pytest.mark.parametrize("beta", [1.5, 2.9, 0.5, float("nan")])
def test_beta_checked_before_the_integer_cast(beta):
    # int(2.9) would be 2, a valid class; the class itself must be 1 or 2
    with pytest.raises(ValueError, match="beta"):
        n_beta(beta, 2)


def test_dimension_checked_before_the_integer_cast():
    # int(2.7) would be 2; an integral float is the integer it names
    with pytest.raises(ValueError, match="d: must be an integer"):
        n_beta(1, 2.7)
    assert n_beta(1, 3.0) == 6 and n_beta(2, 3.0) == 9


@given(dims)
@settings(max_examples=20)
def test_packing_matches_closed_form_index(d):
    # Row-major upper-triangle packing has the closed-form position
    # (1-based entry (i,j), i <= j):   k = i(1+2d-i)/2 - d + j
    # and the strict-upper imaginary block sits at
    #                                  k = n1 + i(2d-i-1)/2 - d + j
    # with n1 = d(d+1)/2. Check both against where a unit coefficient lands.
    n1 = d * (d + 1) // 2
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            k = i * (1 + 2 * d - i) // 2 - d + j  # 1-based
            x = np.zeros(n1)
            x[k - 1] = 1.0
            M = vec_to_matrix(x, 1, d)
            assert M[i - 1, j - 1] == 1.0
            expected_nonzeros = 1 if i == j else 2
            assert np.count_nonzero(M) == expected_nonzeros
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            k = n1 + i * (2 * d - i - 1) // 2 - d + j  # 1-based
            x = np.zeros(d * d)
            x[k - 1] = 1.0
            M = vec_to_matrix(x, 2, d)
            assert M[i - 1, j - 1] == 1j
            assert M[j - 1, i - 1] == -1j


def test_vec_to_matrix_d2_layouts():
    M = vec_to_matrix(np.array([1.0, 2.0, 3.0]), 1, 2)
    np.testing.assert_array_equal(M, [[1.0, 2.0], [2.0, 3.0]])
    M = vec_to_matrix(np.array([1.0, 2.0, 3.0, 4.0]), 2, 2)
    np.testing.assert_array_equal(M, [[1.0, 2.0 + 4.0j], [2.0 - 4.0j, 3.0]])


@given(betas, dims, st.integers(0, 2**31))
@settings(max_examples=60)
def test_pack_unpack_round_trip(beta, d, seed):
    x = random_vec(beta, d, seed)
    M = vec_to_matrix(x, beta, d)
    herm_defect = np.max(np.abs(M - M.conj().T))
    assert herm_defect == 0.0  # Hermitian by construction, not approximately
    np.testing.assert_array_equal(matrix_to_vec(M, beta), x)


def test_vec_to_matrix_batched():
    x = np.random.default_rng(3).standard_normal((5, 7, n_beta(2, 3)))
    M = vec_to_matrix(x, 2, 3)
    assert M.shape == (5, 7, 3, 3)
    np.testing.assert_array_equal(M[2, 4], vec_to_matrix(x[2, 4], 2, 3))


def _entrywise_matrix(x, beta, d):
    # the packing written out entry by entry, one matrix at a time
    M = np.zeros((d, d), dtype=float if beta == 1 else complex)
    k = 0
    for i in range(d):
        for j in range(i, d):
            M[i, j] = M[j, i] = x[k]
            k += 1
    if beta == 2:
        for i in range(d):
            for j in range(i + 1, d):
                M[i, j] += 1j * x[k]
                M[j, i] -= 1j * x[k]
                k += 1
    return M


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", [(), (7,), (3, 5), (2, 1, 4)])
def test_vec_to_matrix_matches_entrywise_reference(beta, d, shape):
    # exact values for every batch shape; a coefficient-major array read
    # through moveaxis is the non-contiguous layout the gap kernel passes
    rng = np.random.default_rng(100 * beta + 10 * d + len(shape))
    n = n_beta(beta, d)
    for x in (
        rng.standard_normal(shape + (n,)),
        np.moveaxis(rng.standard_normal((n,) + shape), 0, -1),
        rng.standard_normal(shape + (2 * n,))[..., ::2],
    ):
        M = vec_to_matrix(x, beta, d)
        assert M.shape == shape + (d, d)
        assert M.dtype == (np.float64 if beta == 1 else np.complex128)
        flat_x = x.reshape(-1, n)
        flat_m = M.reshape(-1, d, d)
        for xi, Mi in zip(flat_x, flat_m):
            np.testing.assert_array_equal(Mi, _entrywise_matrix(xi, beta, d))


def test_vec_to_matrix_output_is_writable_and_basis_is_not():
    M = vec_to_matrix(np.arange(9.0), 2, 3)
    M[0, 0] = 5.0  # a fresh array, not a view of the cached basis
    B = _unpacking_basis(2, 3)
    assert not B.flags.writeable
    assert B.shape == (9, 18)
    assert set(np.unique(B)) <= {-1.0, 0.0, 1.0}


def test_matrix_to_vec_rejects_non_hermitian():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        matrix_to_vec(M, 1)


def test_matrix_to_vec_rejects_complex_for_beta1():
    M = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]])
    with pytest.raises(ValueError):
        matrix_to_vec(M, 1)


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        vec_to_matrix(np.zeros(5), 1, 3)


def test_coefficient_scale():
    s = coefficient_scale(1, 3)
    assert s.shape == (6,)
    np.testing.assert_allclose(s[diagonal_positions(3)], np.sqrt(2.0))
    off = np.setdiff1d(np.arange(6), diagonal_positions(3))
    np.testing.assert_allclose(s[off], 1.0)
    np.testing.assert_allclose(coefficient_scale(2, 3), np.ones(9))


# -- shift validation ---------------------------------------------------------


def test_validate_shift_none_is_zero():
    A = validate_shift(None, 1, 3)
    np.testing.assert_array_equal(A, np.zeros((3, 3)))


def test_validate_shift_rejects():
    with pytest.raises(ValueError):
        validate_shift(np.zeros((2, 3)), 1, 2)
    with pytest.raises(ValueError):
        validate_shift(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2)  # not symmetric
    with pytest.raises(ValueError):
        validate_shift(np.array([[0.0, 1j], [-1j, 0.0]]), 1, 2)  # complex for beta=1


def test_validate_shift_rejects_non_finite():
    # nan passes the Hermitian check (its defect is nan, not > 1e-12), and a
    # nan shift makes every gap nan, which no threshold counts as a hit
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            validate_shift(np.array([[bad, 0.0], [0.0, 0.0]]), 1, 2)
    with pytest.raises(ValueError, match="finite"):
        validate_shift(np.array([[0.0, complex(0.0, np.nan)], [complex(0.0, np.nan), 0.0]]), 2, 2)


def test_one_hermitian_check_for_every_entry_point():
    # matrix_to_vec, validate_shift and the spectral entry points share one check
    from eigencollide.spectral import eigenprojection_contour, ordered_eigenvalues

    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    for call in (
        lambda: matrix_to_vec(skew, 1),
        lambda: validate_shift(skew, 1, 2),
        lambda: ordered_eigenvalues(skew),
        lambda: eigenprojection_contour(skew, (0,)),
    ):
        with pytest.raises(ValueError, match="not Hermitian within 1e-12"):
            call()
    complex_sym = np.array([[0.0, 1j], [-1j, 0.0]])
    for call in (lambda: matrix_to_vec(complex_sym, 1), lambda: validate_shift(complex_sym, 1, 2)):
        with pytest.raises(ValueError, match="beta = 1 requires a real"):
            call()
    with pytest.raises(ValueError, match="square"):
        ordered_eigenvalues(np.zeros((2, 3)))


def test_validate_shift_hermitian_complex():
    A = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 0.0]])
    out = validate_shift(A, 2, 2)
    assert out.dtype == complex
    np.testing.assert_array_equal(out, A)
