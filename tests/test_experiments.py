"""Monte Carlo studies: refinement coupling, sweeps, exponent fits, samplers."""

import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import helmert

from eigencollide import experiments, spectral
from eigencollide.capacity import collision_regime
from eigencollide.config import ExperimentConfig
from eigencollide.ensembles import (
    coefficient_scale,
    diagonal_positions,
    matrix_to_vec,
    n_beta,
    validate_shift,
    vec_to_matrix,
)
from eigencollide.experiments import (
    BATCH,
    _expansion,
    _gaps_from_fields,
    _helmert,
    _min_gaps_ladder,
    _wilson_interval,
    degenerate_point_cloud,
    flattened_degenerate_sampler,
    gap_exponent_fit,
    oracle_vector_reduction,
    phase_sweep,
    refinement_study,
    small_time_study,
)
from eigencollide.fields import _fgn_anchor_weights, _fgn_unit_sqrt_eigenvalues, _fgn_weights
from eigencollide.streams import TAG_BOXDIM, TAG_GAPFIT, substream


def _cfg(**kw):
    base = dict(
        beta=1, d=2, hurst=(0.25,), interval=(1.0, 2.0),
        intervals=256, replicas=200, kappa=1.0, seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -- Wilson intervals ----------------------------------------------------------


def test_wilson_interval_known_values():
    # z = 1.96: 5/10 -> (0.2366, 0.7634); standard worked example
    lo, hi = _wilson_interval(5, 10)
    assert lo == pytest.approx(0.2366, abs=2e-3)
    assert hi == pytest.approx(0.7634, abs=2e-3)
    lo, hi = _wilson_interval(0, 50)
    assert lo == 0.0
    assert 0.0 < hi < 0.1


def test_wilson_interval_bounds_and_order():
    for hits, n in [(0, 5), (5, 5), (3, 7), (1, 1000)]:
        lo, hi = _wilson_interval(hits, n)
        assert 0.0 <= lo <= hits / n <= hi <= 1.0


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        _wilson_interval(3, 0)
    with pytest.raises(ValueError):
        _wilson_interval(7, 5)


def test_wilson_coverage_meta():
    # 2000 simulated binomials at p = 0.1, n = 200: nominal 95% coverage
    rng = np.random.default_rng(0)
    p, n, sims = 0.1, 200, 2000
    hits = rng.binomial(n, p, size=sims)
    covered = 0
    for h in hits:
        lo, hi = _wilson_interval(int(h), n)
        covered += lo <= p <= hi
    assert covered / sims > 0.92


# -- gap kernel -----------------------------------------------------------------


def _packed(F: np.ndarray, beta: int, d: int, a: np.ndarray) -> np.ndarray:
    """Fields (m, nf, nt) as the gap kernel reads them: scaled, shifted by the packed a."""
    return F * coefficient_scale(beta, d)[:, None] + a[:, None]


def _reference_gaps(F: np.ndarray, beta: int, d: int, A: np.ndarray) -> np.ndarray:
    """Minimum adjacent gap of A + X(t), X built entry by entry from F (m, nf, nt).

    Packing: the d(d+1)/2 upper-triangle copies row-major, then for beta = 2
    the d(d-1)/2 strict-upper imaginary copies row-major.
    """
    m, _, nt = F.shape
    out = np.empty((m, nt))
    for r in range(m):
        for k in range(nt):
            X = np.zeros((d, d), dtype=complex)
            f = 0
            for i in range(d):
                for j in range(i, d):
                    x = F[r, f, k]
                    f += 1
                    if i == j:
                        X[i, i] = np.sqrt(2.0) * x if beta == 1 else x
                    else:
                        X[i, j] += x
                        X[j, i] += x
            if beta == 2:
                for i in range(d):
                    for j in range(i + 1, d):
                        x = F[r, f, k]
                        f += 1
                        X[i, j] += 1j * x
                        X[j, i] -= 1j * x
            lam = np.linalg.eigvalsh(A + X)
            out[r, k] = np.min(np.diff(lam))
    return out


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_gap_kernel_matches_reference_pipeline(d, beta):
    # the experiments' gap kernel (closed form at d = 2) against an explicit
    # per-entry matrix build and eigvalsh on identical coefficients, with a
    # nonzero Hermitian shift; the reference shares no packing helper with it
    m, nt = 3, 9
    nf = n_beta(beta, d)
    F = experiments._field_path_batch(nf, (0.3,), 1 / 8, 8.0, nt, 17, (), 0, m)[0]
    rng = np.random.default_rng(10 * beta + d)
    G = rng.standard_normal((d, d))
    if beta == 2:
        G = G + 1j * rng.standard_normal((d, d))
    A = 0.5 * (G + G.conj().T)
    a = matrix_to_vec(validate_shift(A, beta, d), beta)
    fast = _gaps_from_fields(_packed(F, beta, d, a), beta, d)
    ref = _reference_gaps(F, beta, d, A)
    assert fast.shape == (m, nt)
    np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-10)


# -- traceless sampling ------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_helmert_rows_orthonormal_and_traceless(d):
    H = _helmert(d)
    assert H.shape == (d - 1, d)
    np.testing.assert_allclose(H @ H.T, np.eye(d - 1), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(H @ np.ones(d), 0.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("d", range(2, 9))
def test_helmert_is_scipys_bit_for_bit(d):
    # built in numpy so the gap kernel does not import scipy.linalg
    ours, ref = _helmert(d), helmert(d)
    assert ours.shape == ref.shape and ours.dtype == ref.dtype
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_expansion_keeps_gaps(d, beta):
    # Helmert coordinates of iid fields, expanded back, differ from them only
    # by a multiple of the identity: same gaps, zero trace
    m, nt = 4, 7
    nb = n_beta(beta, d)
    F = np.random.default_rng(100 * beta + d).standard_normal((m, nb, nt))
    diag = diagonal_positions(d)
    off = np.setdiff1d(np.arange(nb), diag)
    coords = np.concatenate([np.matmul(helmert(d), F[:, diag]), F[:, off]], axis=1)
    expanded = np.matmul(_expansion(beta, d), coords)
    rng = np.random.default_rng(7 * d + beta)
    G = rng.standard_normal((d, d))
    if beta == 2:
        G = G + 1j * rng.standard_normal((d, d))
    a = matrix_to_vec(validate_shift(0.5 * (G + G.conj().T), beta, d), beta)
    np.testing.assert_allclose(
        _gaps_from_fields(expanded + a[:, None], beta, d),
        _gaps_from_fields(_packed(F, beta, d, a), beta, d),
        rtol=0.0, atol=1e-10,
    )
    np.testing.assert_allclose(expanded[:, diag].sum(axis=1), 0.0, rtol=0.0, atol=1e-12)
    # the map is helmert(d)^T on the diagonal and the identity off it, scaled
    scale = coefficient_scale(beta, d)[:, None]
    np.testing.assert_array_equal(expanded[:, off], coords[:, d - 1 :] * scale[off])
    np.testing.assert_allclose(
        expanded[:, diag], scale[diag] * np.matmul(helmert(d).T, coords[:, : d - 1]),
        rtol=0.0, atol=1e-15 * np.abs(expanded).max(),
    )


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d, nt", [(2, 16385), (3, 4097), (4, 1025)])
def test_expansion_allocates_only_its_output(d, nt, beta):
    # one warm expansion of an 8-replica block, the matmul the d >= 3 gap
    # kernel runs, allocates its output and no temporary of comparable size
    paths = np.random.default_rng(d + beta).standard_normal((BATCH, n_beta(beta, d) - 1, nt))
    out = np.matmul(_expansion(beta, d), paths)
    tracemalloc.start()
    try:
        np.matmul(_expansion(beta, d), paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.nbytes


def _shift(beta: int, d: int, seed: int) -> tuple:
    """A nonzero Hermitian shift A and its packed coefficients."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    if beta == 2:
        G = G + 1j * rng.standard_normal((d, d))
    A = validate_shift(0.5 * (G + G.conj().T), beta, d)
    return A, matrix_to_vec(A, beta)


@pytest.mark.parametrize("beta", [1, 2])
def test_path_gaps_match_reference_pipeline(beta):
    # the ladder's d = 2 kernel on Helmert coordinates of iid fields against
    # the explicit per-entry build and eigvalsh on the fields themselves:
    # they differ by a multiple of the identity, so the gaps agree
    m, nt = 3, 9
    nb = n_beta(beta, 2)
    F = experiments._field_path_batch(nb, (0.3,), 1 / 8, 8.0, nt, 23, (), 0, m)[0]
    diag = diagonal_positions(2)
    off = np.setdiff1d(np.arange(nb), diag)
    coords = np.concatenate([np.matmul(helmert(2), F[:, diag]), F[:, off]], axis=1)
    A, a = _shift(beta, 2, 30 + beta)
    fast = experiments._path_gaps(coords, a, beta, 2)
    assert fast.shape == (m, nt)
    np.testing.assert_allclose(fast, _reference_gaps(F, beta, 2, A), rtol=0.0, atol=1e-10)
    # D E = diag(2, 2) at beta 1 and diag(sqrt 2, 2, 2) at beta 2
    w, _ = experiments._path_form(beta)
    np.testing.assert_allclose(w, [2.0, 2.0] if beta == 1 else [np.sqrt(2.0), 2.0, 2.0], rtol=1e-15)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_path_gaps_equal_the_expanded_route(d, beta, shifted):
    # against expand, shift, _gaps_from_fields on the sampler's paths: at
    # d = 2 bit for bit without a shift and to rounding with one, at d >= 3
    # it is that route
    nt = {2: 1025, 3: 257, 4: 65}[d]
    paths = experiments._field_path_batch(
        n_beta(beta, d) - 1, (0.3,), 1 / 256, 256.0, nt, 2611, (), 0, BATCH
    )[0]
    A, a = _shift(beta, d, 40 + 2 * d + beta) if shifted else (None, np.zeros(n_beta(beta, d)))
    coeffs = np.matmul(_expansion(beta, d), paths)
    coeffs += a[:, None]
    old = _gaps_from_fields(coeffs, beta, d)
    new = experiments._path_gaps(paths, a, beta, d)
    if d >= 3 or not shifted:
        np.testing.assert_array_equal(new, old)
    else:
        np.testing.assert_allclose(new, old, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("beta", [1, 2])
def test_path_gaps_allocate_only_two_buffers(beta):
    # one warm d = 2 call on an 8-replica block at the finest mesh allocates
    # its output and one scratch buffer of the same (m, T) shape, nothing of
    # the size of the (m, n_beta, T) coefficient block
    paths = np.random.default_rng(beta).standard_normal((BATCH, n_beta(beta, 2) - 1, 16385))
    a = np.arange(1.0, n_beta(beta, 2) + 1)
    out = experiments._path_gaps(paths, a, beta, 2)
    tracemalloc.start()
    try:
        experiments._path_gaps(paths, a, beta, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (BATCH, 16385)
    assert peak <= 2.05 * out.nbytes


# -- nested-grid coupling --------------------------------------------------------


def test_minima_never_increase_under_refinement():
    # ladder 32..256 on [1, 2]: step 1/256, window start i0 = 256
    strides = [8, 4, 2, 1]
    minima = _min_gaps_ladder(
        1, 2, (0.3,), 1.0 / 256, 256.0, 257, strides, np.zeros((2, 2)), 64, 5, (9,), 1
    )
    assert minima.shape == (1, 64, 4)
    minima = minima[0]
    # finer mesh minimizes over a superset of times, elementwise
    for c in range(3):
        assert np.all(minima[:, c + 1] <= minima[:, c] + 1e-15)


def test_min_gaps_ladder_validation():
    # the ladder checks run in refinement_study, the window check in the config
    with pytest.raises(ValueError):
        refinement_study(_cfg(replicas=8), [64, 32])
    with pytest.raises(ValueError):
        refinement_study(_cfg(replicas=8), [48, 64])
    with pytest.raises(ValueError):
        refinement_study(_cfg(interval=(0.0, 1.0), replicas=8), [32, 64])


def test_ladder_argument_must_end_at_intervals():
    # the run samples at the ladder's top and the manifest records intervals;
    # a ladder argument replaces mesh_ladder, so the config's rule judges it
    cfg = _cfg(replicas=8)  # intervals 256
    finest = r"^intervals: must equal the finest mesh_ladder entry {}, got 256"
    with pytest.raises(ValueError, match=finest.format(512)):
        refinement_study(cfg, (128, 256, 512))
    with pytest.raises(ValueError, match=finest.format(128)):
        phase_sweep([0.2, 0.75], cfg.replace(mesh_ladder=(64, 128)))
    assert refinement_study(cfg, (64, 256)).stats[-1].intervals == 256


@pytest.mark.parametrize("threads", [1, 2])
def test_ladder_argument_equals_the_config_ladder(threads):
    # perfbench/make_reference.py passes its ladder positionally: that call
    # returns exactly what the ladder stated in the config returns
    cfg = _cfg(replicas=70)
    ladder = (64, 128, 256)
    by_argument = refinement_study(cfg, ladder, threads)
    in_config = refinement_study(cfg.replace(mesh_ladder=ladder), threads=threads)
    np.testing.assert_equal(dataclasses.asdict(by_argument), dataclasses.asdict(in_config))
    assert [s.intervals for s in in_config.stats] == list(ladder)


def test_refinement_study_consistency():
    st = refinement_study(_cfg(mesh_ladder=(64, 128, 256)))
    assert len(st.stats) == 3
    for s in st.stats:
        assert s.replicas == 200
        assert s.wilson_lo <= s.p_hat <= s.wilson_hi
    # threshold schedule delta = mesh^H on the unit-length window
    np.testing.assert_allclose(
        [s.delta for s in st.stats], [(1 / 64) ** 0.25, (1 / 128) ** 0.25, (1 / 256) ** 0.25]
    )
    one = refinement_study(_cfg(), [256]).stats[0]
    assert one.p_hat == st.stats[-1].p_hat  # same substream prefix, same mesh


_BATCH_CASES = [
    # (beta, d, hs, shift): d = 2 with both beta, a shift and two H; d = 3; d = 4
    # with both beta, beta 1 with a shift
    (1, 2, (0.3, 0.7), np.array([[1.0, 0.3], [0.3, -0.2]])),
    (2, 2, (0.25, 0.45), np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, -0.2]])),
    (1, 3, (0.3,), None),
    (2, 4, (0.25,), None),
    (1, 4, (0.3,), np.diag([1.0, 1.0, 0.0, -0.5])),
]


@pytest.mark.parametrize("threads", [1, 3])
def test_minima_do_not_depend_on_the_batch_size(threads, monkeypatch):
    # each replica draws from its own substream and every step after the
    # draw is per replica (numpy transforms each embedding row on its own),
    # so the batch size moves no bit; 70 replicas leave a partial last batch
    for beta, d, hs, shift in _BATCH_CASES:
        A = validate_shift(shift, beta, d)
        minima = []
        for batch in (32, 8, 5, 1):
            monkeypatch.setattr(experiments, "BATCH", batch)
            minima.append(_min_gaps_ladder(
                beta, d, hs, 1.0 / 64, 64.0, 65, (4, 2, 1), A, 70, 19, (4,), threads
            ))
        for other in minima[1:]:
            assert other.tobytes() == minima[0].tobytes(), (beta, d)


def test_window_law_is_solved_once_per_run():
    # the caches are filled before the pool starts, once per H; pool threads
    # that each missed the cache would solve the same entry again
    _fgn_anchor_weights.cache_clear()
    _fgn_unit_sqrt_eigenvalues.cache_clear()
    _fgn_weights.cache_clear()
    hs = (0.3, 0.7)
    cfg = _cfg(intervals=16384, mesh_ladder=(4096, 16384), replicas=4 * BATCH)
    phase_sweep(hs, cfg, threads=4)
    assert _fgn_anchor_weights.cache_info().misses == len(hs)
    assert _fgn_weights.cache_info().misses == len(hs)


def test_sweep_working_set_is_bounded():
    # traced allocations of one 32-replica two-H sweep at d = 2, beta = 2
    # on the ladder 256..16384 stay below 24 MB
    cfg = _cfg(beta=2, intervals=16384, mesh_ladder=tuple(2**k for k in range(8, 15)), replicas=32)
    phase_sweep((0.25, 0.45), cfg)  # fills the embedding and anchor caches
    tracemalloc.start()
    try:
        phase_sweep((0.25, 0.45), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_refinement_study_thread_determinism():
    cfg = _cfg(replicas=3 * BATCH + 7, mesh_ladder=(64, 256))
    a = refinement_study(cfg, threads=1)
    b = refinement_study(cfg, threads=4)
    for sa, sb in zip(a.stats, b.stats):
        assert sa.hits == sb.hits


def test_d4_gap_kernel_from_several_threads_equals_serial():
    # the d = 4 gap kernel holds no lock and is reentrant: called from more
    # threads than cores at once, on different blocks, it returns exactly
    # what it returns one block at a time
    beta, d, workers = 2, 4, 4
    rng = np.random.default_rng(44)
    a = matrix_to_vec(validate_shift(np.diag([1.0, 1.0, 0.0, -1.0]), beta, d), beta)
    blocks = [
        _packed(rng.standard_normal((8, n_beta(beta, d), 257)), beta, d, a)
        for _ in range(2 * workers)
    ]
    serial = [_gaps_from_fields(F, beta, d) for F in blocks]
    barrier = threading.Barrier(workers)

    def run(F):
        barrier.wait(timeout=60)
        return _gaps_from_fields(F, beta, d)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for lo in range(0, len(blocks), workers):
                got = list(pool.map(run, blocks[lo : lo + workers], timeout=60))
                for g, s in zip(got, serial[lo : lo + workers]):
                    np.testing.assert_array_equal(g, s)
    finally:
        sys.setswitchinterval(switch)


def test_d4_gap_kernel_runs_on_the_calling_thread(monkeypatch):
    # at d >= 4 the batches run on the calling thread whatever threads is: a
    # pool thread beside the QR kernel only trades GIL hand-offs with it.
    # eigvalsh runs only for the shift check
    kernel_threads, eigvalsh_calls = [], [0]
    tridiagonal, eigvalsh = spectral._tridiagonal, np.linalg.eigvalsh

    def recording(*args):
        kernel_threads.append(threading.get_ident())
        return tridiagonal(*args)

    def counting_eigvalsh(M):
        eigvalsh_calls[0] += 1
        return eigvalsh(M)

    monkeypatch.setattr(spectral, "_tridiagonal", recording)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    stats = small_time_study(2, 4, None, [1.0], 0.25, 16, 4 * BATCH, seed=3, threads=4)
    assert stats[0].replicas == 4 * BATCH
    # the shift check, then one kernel call per batch, each on this thread
    assert eigvalsh_calls[0] == 1
    assert kernel_threads == [threading.get_ident()] * 4


def test_d3_batches_run_in_the_pool(monkeypatch):
    # below d = 4 threads keep their meaning: every batch runs on a pool thread
    kernel_threads, path_gaps = [], experiments._path_gaps

    def recording(*args):
        kernel_threads.append(threading.get_ident())
        return path_gaps(*args)

    monkeypatch.setattr(experiments, "_path_gaps", recording)
    small_time_study(2, 3, None, [1.0], 0.25, 16, 4 * BATCH, seed=3, threads=2)
    assert len(kernel_threads) == 4 and threading.get_ident() not in kernel_threads


def test_small_time_d4_thread_determinism():
    # threads is accepted at d = 4, though its batches run on the calling
    # thread: identical stats at 1 and 2 threads
    args = (2, 4, None, [1.0, 0.25], 0.25, 64, 2 * BATCH + 5)
    one = small_time_study(*args, seed=21, kappa=0.5, threads=1)
    two = small_time_study(*args, seed=21, kappa=0.5, threads=2)
    assert one == two
    assert 0 < sum(s.hits for s in one) < sum(s.replicas for s in one)


def test_refinement_study_rejects_multiparameter():
    with pytest.raises(NotImplementedError):
        refinement_study(_cfg(hurst=(0.4, 0.4)))


def test_shift_changes_hits():
    # a large split shift suppresses collisions entirely at moderate thresholds
    split = np.diag([10.0, -10.0])
    st0 = refinement_study(_cfg(intervals=128, mesh_ladder=(128,)))
    st1 = refinement_study(_cfg(intervals=128, mesh_ladder=(128,), shift=split))
    assert st1.stats[0].hits < st0.stats[0].hits


def test_phase_sweep_regimes_and_separation():
    cfg = _cfg(replicas=300, mesh_ladder=(64, 256))
    sw = phase_sweep([0.2, 0.75], cfg)
    assert sw.regimes == ("collision", "no_collision")
    assert sw.separation_ratio > 1.0
    with pytest.raises(ValueError):
        phase_sweep([0.2, 0.505], cfg)  # too close to critical


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "beta,d,hs,shift",
    [
        (1, 2, (0.3, 0.7), None),
        (2, 2, (0.25, 0.45), None),
        (2, 3, (0.25, 0.45), np.diag([0.5, 0.0, -0.5]) + np.array(
            [[0, 0.2j, 0.1], [-0.2j, 0, 0.3 - 0.1j], [0.1, 0.3 + 0.1j, 0]]
        )),
    ],
)
def test_sweep_equals_per_hurst_refinement(beta, d, hs, shift, threads):
    # common random numbers: the sweep maps each replica's normals through
    # every H, and its stream key (seed, TAG_COLLISION, replica) does not
    # name H, so each study is the one-H run of its H, field for field
    cfg = _cfg(beta=beta, d=d, shift=shift, replicas=70, mesh_ladder=(64, 256))
    sweep = phase_sweep(hs, cfg, threads=threads)
    for h, study in zip(hs, sweep.studies):
        alone = refinement_study(cfg.replace(hurst=(h,)), threads=threads)
        np.testing.assert_equal(dataclasses.asdict(study), dataclasses.asdict(alone))
    assert sweep.studies[0].stats[-1].hits > 0  # the collision side is not empty


# -- exponent fit ----------------------------------------------------------------


def test_gap_exponent_beta1_cdf_oracle():
    # closed-form small-gap law at the unit time: P(gap < eps) = 1 - exp(-eps^2/8)
    fit = gap_exponent_fit(1, 2, 1.0, 30_000, (0.1, 0.5), seed=4)
    oracle = 1.0 - np.exp(-fit.eps**2 / 8.0)
    se = np.sqrt(oracle * (1 - oracle) / fit.samples)
    mask = fit.cdf > 0
    assert np.max(np.abs(fit.cdf - oracle)[mask] / se[mask]) < 5.0
    assert fit.slope == pytest.approx(2.0, abs=0.35)


@pytest.mark.parametrize("beta,d", [(1, 2), (2, 3)])
def test_gap_exponent_cdf_counts_equal_the_sorted_search(beta, d, monkeypatch):
    # the CDF counts gaps below each eps; on a fixed seed it equals the
    # sort-and-searchsorted formula, entry for entry
    seen = []
    kernel = experiments._gaps_from_fields

    def recording(*args):
        out = kernel(*args)
        seen.append(out[0].copy())  # one (1, k) path per chunk
        return out

    monkeypatch.setattr(experiments, "_gaps_from_fields", recording)
    fit = gap_exponent_fit(beta, d, 1.0, 10_000, (0.1, 0.5), seed=8)
    gaps = np.sort(np.concatenate(seen))
    assert gaps.size == fit.samples
    np.testing.assert_array_equal(
        fit.cdf, np.searchsorted(gaps, fit.eps, side="left") / fit.samples
    )


def _gap_fit_on_one_point_paths(beta, d, t0, samples, window, seed, hurst):
    # the fit as written before the chunk became coefficient planes: each
    # chunk is k one-point paths (k, n_beta, 1), so the kernel reads every
    # coefficient strided by n_beta
    nf = n_beta(beta, d)
    gaps = np.empty(samples)
    for ci, start in enumerate(range(0, samples, 4096)):
        stop = min(start + 4096, samples)
        fields = substream(seed, TAG_GAPFIT, ci).standard_normal((stop - start, nf, 1))
        fields = fields * float(t0) ** float(hurst)
        packed = _packed(fields, beta, d, np.zeros(nf))
        gaps[start:stop] = experiments._gaps_from_fields(packed, beta, d)[:, 0]
    eps = np.geomspace(window[0], window[1], 12)
    cdf = np.array([np.count_nonzero(gaps < e) for e in eps]) / samples
    mask = cdf > 0
    (slope, _), cov = np.polyfit(np.log(eps[mask]), np.log(cdf[mask]), 1, cov=True)
    return cdf, float(slope), float(np.sqrt(cov[0, 0]))


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_gap_exponent_fit_equals_the_one_point_path_route(beta, d):
    # 10_000 samples: two full chunks and a short one
    args = (beta, d, 2.0, 10_000, (0.1, 0.9), 21, 0.3)
    fit = gap_exponent_fit(*args[:6], hurst=args[6])
    cdf, slope, stderr = _gap_fit_on_one_point_paths(*args)
    assert fit.cdf.tobytes() == cdf.tobytes()
    assert (fit.slope, fit.stderr) == (slope, stderr)


def test_gap_exponent_scale_free():
    f1 = gap_exponent_fit(1, 2, 1.0, 30_000, (0.1, 0.5), seed=4)
    f2 = gap_exponent_fit(1, 2, 4.0, 30_000, (0.2, 1.0), seed=4, hurst=0.5)
    # doubling the process scale (4^0.5 = 2) doubles the gap scale, same slope
    assert f2.slope == pytest.approx(f1.slope, abs=1e-9)


def test_gap_exponent_validation():
    with pytest.raises(ValueError):
        gap_exponent_fit(1, 2, 1.0, 100, (0.1, 0.5), seed=1)  # too few samples
    with pytest.raises(ValueError):
        gap_exponent_fit(1, 2, 1.0, 20_000, (0.5, 0.1), seed=1)  # bad window
    with pytest.raises(ValueError):
        gap_exponent_fit(1, 2, 0.0, 20_000, (0.1, 0.5), seed=1)


# -- small-time study -------------------------------------------------------------


def test_small_time_probability_stable():
    stats = small_time_study(1, 2, None, [1.0, 0.25], 0.3, 128, 400, seed=13)
    p = [s.p_hat for s in stats]
    assert all(x > 0.3 for x in p)
    assert max(p) / min(p) < 1.4  # scale-free hitting probability


def test_small_time_accepts_repeated_pair_shift():
    A = np.diag([1.0, 1.0])  # spectrum cardinality d-1 = 1
    stats = small_time_study(1, 2, A, [0.5], 0.3, 64, 100, seed=13)
    assert stats[0].replicas == 100


def test_small_time_validation():
    with pytest.raises(ValueError):
        small_time_study(1, 2, None, [1.0], 0.7, 64, 50, seed=1)  # wrong regime
    with pytest.raises(ValueError):
        small_time_study(1, 2, np.diag([2.0, -2.0]), [1.0], 0.3, 64, 50, seed=1)
    with pytest.raises(ValueError):
        small_time_study(1, 2, None, [0.5, 1.0], 0.3, 64, 50, seed=1)  # increasing T
    with pytest.raises(ValueError, match="finite"):
        # a nan shift makes every gap nan, so it would report 0 hits
        small_time_study(1, 2, [[np.nan, 0.0], [0.0, 0.0]], [1.0, 0.5], 0.25, 64, 16, 7)


@pytest.mark.parametrize("beta", [1, 2])
def test_small_time_rejects_the_critical_line(beta):
    # one rule decides the regime: an H that collision_regime calls critical
    # is not in the collision regime, however close below 1/(1+beta) it is
    H = 1.0 / (1.0 + beta) - 1e-12
    assert collision_regime(beta, (H,)) == "critical"
    with pytest.raises(ValueError, match="requires the collision regime"):
        small_time_study(beta, 2, None, [1.0], H, 16, 4, seed=1)


def test_small_time_rejects_hurst_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the Hurst check")

    monkeypatch.setattr(experiments, "_field_path_batch", no_sampling)
    for H in (-0.1, 0.0, float("nan")):
        with pytest.raises(ValueError, match="Hurst|regime"):
            small_time_study(1, 2, None, [1.0], H, 64, 50, seed=1, threads=2)


# -- oracle and degenerate samplers ------------------------------------------------


@pytest.mark.parametrize("beta", [1, 2])
def test_oracle_vector_reduction_small(beta):
    cfg = _cfg(beta=beta, intervals=256, replicas=64)
    assert oracle_vector_reduction(cfg) < 1e-10


def test_oracle_requires_d2_and_zero_shift():
    # d = 3 raises; a nonzero shift is compared against vec_to_matrix(coeffs) + A
    with pytest.raises(ValueError):
        oracle_vector_reduction(_cfg(d=3))
    real = np.array([[1.0, 0.3], [0.3, -0.2]])
    assert oracle_vector_reduction(_cfg(shift=real, replicas=64)) < 1e-10
    herm = real + 1j * np.array([[0.0, 0.4], [-0.4, 0.0]])
    assert oracle_vector_reduction(_cfg(beta=2, shift=herm, replicas=64)) < 1e-10


@pytest.mark.parametrize("beta,d", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_flattened_sampler_points_are_degenerate(beta, d):
    sampler = flattened_degenerate_sampler(d, beta)
    pts = sampler(20, substream(3, 50))
    mats = vec_to_matrix(pts, beta, d)
    for M in mats:
        lam = np.linalg.eigvalsh(M)
        assert np.min(np.diff(lam)) <= 1e-9


@pytest.mark.parametrize("beta", [1, 2])
def test_d2_degenerate_points_are_the_scalar_line(beta):
    # d = 2 has empty frames: the packed points are (c, 0, c) (and a zero
    # imaginary coordinate for beta = 2), c the first n level draws
    n = 300
    zero = np.zeros(n)
    c = substream(3, 50).uniform(-1.0, 1.0, n)
    want = np.stack([c, zero, c] + [zero] * (beta - 1), axis=1)
    np.testing.assert_array_equal(flattened_degenerate_sampler(2, beta)(n, substream(3, 50)), want)
    c = substream(8, TAG_BOXDIM).standard_normal(n)
    want = np.stack([c, zero, c] + [zero] * (beta - 1), axis=1)
    np.testing.assert_array_equal(degenerate_point_cloud(n, 2, beta, seed=8), want)


def test_degenerate_point_cloud_shape_and_determinism():
    a = degenerate_point_cloud(1200, 2, 1, seed=8)
    b = degenerate_point_cloud(1200, 2, 1, seed=8)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1200, 3)
    # the flattened scalar-matrix line: first and last coordinates equal
    np.testing.assert_array_equal(a[:, 0], a[:, 2])
    np.testing.assert_array_equal(a[:, 1], 0.0)
