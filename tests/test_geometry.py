"""Charts on the degenerate set: frames, completions, degenerate samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencollide.geometry import (
    check_frame,
    complete_frame,
    random_stiefel,
    sample_degenerate,
)

seeds = st.integers(0, 2**31)
dims = st.integers(3, 6)
fields = st.sampled_from(["real", "complex"])


def test_check_frame():
    check_frame(np.eye(4)[:, :2])
    check_frame(np.empty((3, 0)))  # empty frame is valid (the d = 2 chart)
    with pytest.raises(ValueError):
        check_frame(np.ones((3, 2)))
    stack = np.stack([np.eye(4)[:, :2]] * 3)
    check_frame(stack)
    stack[1, 0, 1] = 1e-6  # one bad frame in a stack fails the whole check
    with pytest.raises(ValueError, match="not orthonormal"):
        check_frame(stack)


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


def _chart_reference(n, d, beta, rng, draw):
    """Per-point chart: Haar frame, completion, then Pi diag(levels, l*) Pi*.

    The draws are those of sample_degenerate: every frame's Gaussians in one
    stack (real parts, then imaginary parts), then every level in one
    (n, d-1) draw. The chart does not depend on the completion, so when the
    identity is too close to a frame's span the frame is completed against a
    fixed basis that takes nothing from rng.
    """
    field = "real" if beta == 1 else "complex"
    dtype = float if beta == 1 else complex
    spare = random_stiefel(d, d, field, seed=12345)
    G = rng.standard_normal((n, d, d - 2))
    if beta == 2:
        G = (G + 1j * rng.standard_normal((n, d, d - 2))) / np.sqrt(2.0)
    levels = np.sort(draw(rng, (n, d - 1)), axis=1)[:, ::-1]
    out = []
    for g, lev in zip(G, levels):
        R, T = np.linalg.qr(g)
        R = R * (np.diag(T) / np.abs(np.diag(T)))
        try:
            frame = complete_frame(R, np.eye(d, dtype=dtype))
        except ValueError:
            frame = complete_frame(R, spare)
        lam = np.diag(np.concatenate([lev, lev[-1:]]))
        out.append(frame @ lam @ frame.conj().T)
    return np.array(out)


LEVEL_DRAWS = {
    "uniform": lambda r, size: r.uniform(-1.0, 1.0, size),
    "normal": lambda r, size: r.standard_normal(size),
}


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("levels", sorted(LEVEL_DRAWS))
def test_sample_degenerate_batch_matches_chart(d, beta, levels):
    draw = LEVEL_DRAWS[levels]
    seed = 100 * d + 10 * beta + len(levels)
    M = sample_degenerate(d, beta, rng=np.random.default_rng(seed), level_draw=draw, size=500)
    ref = _chart_reference(500, d, beta, np.random.default_rng(seed), draw)
    assert M.shape == (500, d, d)
    assert np.iscomplexobj(M) == (beta == 2)
    np.testing.assert_array_equal(M, np.swapaxes(M.conj(), -1, -2))  # exactly Hermitian
    assert np.max(np.abs(M - ref)) <= 1e-12


@given(st.integers(2, 6), st.sampled_from([1, 2]), seeds)
@settings(max_examples=40, deadline=None)
def test_sample_degenerate_has_repeated_pair(d, beta, seed):
    M = sample_degenerate(d, beta, seed=seed)
    assert M.shape == (d, d)
    stack = sample_degenerate(d, beta, seed=seed, size=8)
    assert stack.shape == (8, d, d)
    for A in (M, *stack):
        assert np.iscomplexobj(A) == (beta == 2)
        gaps = np.diff(np.linalg.eigvalsh(A))
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
    assert a.shape == (4, 4)  # size=None is one matrix, not a stack of one
    np.testing.assert_array_equal(a, b)


def test_sample_degenerate_redraws_only_tied_rows():
    calls = []

    def tie_once(r, shape):
        x = r.standard_normal(shape)
        if not calls:
            x[2] = [0.5, 0.5, -1.0]  # row 2 ties on the first call
        calls.append(shape)
        return x

    M = sample_degenerate(4, 1, rng=np.random.default_rng(4), level_draw=tie_once, size=5)
    assert calls == [(5, 3), (1, 3)]
    # the untied rows keep their first draw: the same points as a tie-free draw
    ref = sample_degenerate(4, 1, rng=np.random.default_rng(4), size=5)
    np.testing.assert_array_equal(np.delete(M, 2, axis=0), np.delete(ref, 2, axis=0))
    gaps = np.sort(np.diff(np.linalg.eigvalsh(M[2])))
    assert gaps[0] <= 1e-9 < gaps[1]  # the redrawn row has exactly one repeated pair


def test_samplers_need_seed_or_rng():
    with pytest.raises(ValueError, match="seed or rng"):
        random_stiefel(4, 2, "real")
    with pytest.raises(ValueError, match="seed or rng"):
        sample_degenerate(4, 1)


def test_complete_frame_accepts_references_one_pass_rejects():
    # a single Gram-Schmidt pass fails the 1e-12 check on 2 of these d = 3
    # frames and 4 of the d = 5 ones; two passes complete them all
    for d in (3, 5):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            R = random_stiefel(d, d - 2, "real", rng=rng)
            full = complete_frame(R, np.eye(d))
            assert np.max(np.abs(full.T @ full - np.eye(d))) <= 1e-12
