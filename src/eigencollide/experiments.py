"""Monte Carlo orchestration: collision probabilities under grid refinement,
Hurst phase sweeps, small-gap exponent fits, small-time studies, and the d=2
closed-form oracle.

Collision runs sample each replica once at the finest mesh and reuse strided
subgrids for the coarser ladder entries, so refining the grid never
increases a replica's minimum gap. All randomness is drawn from per-replica
keyed substreams in fixed-size batches (BATCH), so every result is
bit-identical for any worker count and any BATCH (on one machine: see
streams._polar_normals). BATCH bounds each worker's working set, which grows
in proportion to Nmax. Threads run the batches in a pool; the d >= 4
gap kernel runs one call at a time (spectral).

The sampler draws n_beta - 1 scalar fBm paths per replica, not n_beta: gaps
are invariant under Y -> Y + cI, so the trace direction is never sampled.
The diagonal is written from d - 1 Helmert coordinates (_helmert, built in
numpy to keep scipy.linalg off the import path), which has the law of iid
diagonal fields projected onto trace zero; with coefficient_scale that is
one cached (n_beta, n_beta - 1) map per (beta, d) (_expansion). Only the
window is synthesized: a path on npoints points costs L raw words mapped to
2L float32 normals (streams._polar_normals, _MAP_WORDS words per call), one
float32 real-input inverse FFT of length 2L (fields.fgn_from_normals) and
one float64 normal for its start, L the smallest power of two >= npoints - 1.
The spectral weights and the law of the start given the increments are
solved once per (npoints, H, step) and (npoints, H, a/step), cached, and
filled before any batch starts (_fill_window_caches); a/step need not be an
integer. The float32 path error is bounded in tests/test_fields.py.

The collision loop's gap kernel is _path_gaps. At d = 2 it reads the gap
from the paths as a weighted norm of the shifted traceless coordinates
(_path_form), with no packed coefficients and no matrix. At d >= 3 it
expands the paths to packed coefficients and calls _gaps_from_fields: the
trigonometric roots of the characteristic cubic at d = 3, and Householder
tridiagonalization with QR sweeps at d >= 4 (spectral._min_gap_by_qr); no
matrix is built. gap_exponent_fit calls _gaps_from_fields at every d.

A collision run over several Hurst values (phase_sweep) draws each
replica's normals once and maps them through every H's embedding and
anchor weights (common random numbers). The stream key does not name H, so
each H's estimate keeps its law and equals its one-H run bit for bit, while
estimates across H are positively correlated. Measured costs are in the
README (Performance).
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import collision_regime
from .config import _time_ladder
from .ensembles import (
    _unpacking_basis,
    coefficient_scale,
    diagonal_positions,
    matrix_to_vec,
    n_beta,
    validate_shift,
    vec_to_matrix,
)
from . import fields
from .fields import (
    _check_hurst,
    _fgn_anchor_weights,
    _fgn_half_length,
    _fgn_weights,
    fgn_from_normals,
)
from .spectral import (
    _gap_closed_form_3x3,
    _min_gap_by_qr,
    adjacent_gaps,
    gap_closed_form_2x2,
    ordered_eigenvalues,
)
from .geometry import sample_degenerate
from .streams import (
    TAG_BOXDIM,
    TAG_COLLISION,
    TAG_GAPFIT,
    TAG_ORACLE,
    TAG_SMALLTIME,
    _polar_normals,
    substream,
)

# only perfbench/tracing.py reads these names (it patches them); nothing here
# calls them: the embedding's roots reach the sampler inside the cached
# fields._fgn_weights
_fgn_exact = fields._fgn_exact
fgn_sqrt_eigenvalues = fields.fgn_sqrt_eigenvalues

__all__ = [
    "CollisionStats",
    "RefinementResult",
    "PhaseSweepResult",
    "ExponentFit",
    "refinement_study",
    "gap_exponent_fit",
    "phase_sweep",
    "small_time_study",
    "oracle_vector_reduction",
    "flattened_degenerate_sampler",
    "degenerate_point_cloud",
]

# replicas per batch and per gap-kernel call; any value gives the same bits
BATCH = 8

# precision of the window sampler's normals and synthesis (fields.fgn_from_normals)
_NORMALS = np.dtype(np.float32)

# raw words per streams._polar_normals call, in whole rows of the batch's
# normals: short rows are mapped several at a time (README, Performance)
_MAP_WORDS = 2**14

_Z95 = 1.959963984540054


def _wilson_interval(hits: int, n: int) -> tuple:
    """Wilson 95% score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    if not 0 <= hits <= n:
        raise ValueError("hits must lie in [0, n]")
    z = _Z95
    denom = n + z * z
    center = (hits + 0.5 * z * z) / denom
    half = z * np.sqrt(hits * (n - hits) / n + 0.25 * z * z) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class CollisionStats:
    """Collision-probability estimate at one (interval, mesh, threshold) point."""

    p_hat: float
    wilson_lo: float
    wilson_hi: float
    hits: int
    replicas: int
    delta: float
    intervals: int  # mesh cell count N
    interval: tuple  # (a, b) time window


@dataclass(frozen=True)
class RefinementResult:
    """Collision estimates along a mesh ladder, sharing replicas across meshes.

    trend_last_over_first = p_hat at the finest mesh over the coarsest;
    trend_top_pair = finest over second-finest (nan where undefined).
    """

    stats: tuple
    trend_last_over_first: float
    trend_top_pair: float


@dataclass(frozen=True)
class PhaseSweepResult:
    """One refinement study per Hurst value, plus the cross-threshold summary.

    separation_ratio divides the smallest finest-mesh p_hat on the collision
    side by the largest on the no-collision side (nan if either side is
    empty or the denominator is 0 with a 0 numerator).
    """

    hurst_values: tuple
    regimes: tuple
    studies: tuple
    separation_ratio: float


@dataclass(frozen=True)
class ExponentFit:
    """Log-log slope of the small-gap CDF over an epsilon window."""

    slope: float
    stderr: float
    window: tuple
    samples: int
    eps: np.ndarray
    cdf: np.ndarray


def _threshold(kappa: float, mesh: float, H: float) -> float:
    """delta = kappa * mesh^H, the Hoelder-modulus threshold schedule."""
    return float(kappa) * float(mesh) ** float(H)


def _run_batches(replicas: int, threads: int, work) -> None:
    """Apply work(lo, hi) over fixed [lo, hi) replica batches, maybe threaded.

    Batching is identical for any thread count; workers write disjoint output
    slices, so scheduling cannot change results.
    """
    spans = [(lo, min(lo + BATCH, replicas)) for lo in range(0, replicas, BATCH)]
    if threads <= 1:
        for lo, hi in spans:
            work(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda s: work(*s), spans))


def _fill_window_caches(hs: Sequence[float], step: float, i0: float, npoints: int) -> None:
    """Solve each H's spectral and anchor weights before a pool starts.

    _field_path_batch reads both from lru_caches, which do not stop two
    threads computing the same entry: pool threads that all miss would
    each solve it.
    """
    n = npoints - 1
    for H in hs:
        _fgn_weights(_fgn_half_length(n), H, step, _NORMALS)
        _fgn_anchor_weights(n, H, i0)


def _field_path_batch(
    nf: int,
    hs: Sequence[float],
    step: float,
    i0: float,
    npoints: int,
    seed: int,
    prefix: tuple,
    lo: int,
    hi: int,
) -> np.ndarray:
    """nf iid fBm paths per H for replicas [lo, hi): shape (len(hs), hi-lo, nf, npoints).

    The paths live on the uniform grid a + k*step (k = 0..npoints-1) with
    a = i0*step, and only that window is synthesized. Every H maps the same
    normals (common random numbers): each replica draws nf rows of 2L
    float32 normals, each from L raw words (streams._polar_normals), and then
    nf float64 ones (Generator.standard_normal) from its own substream, in
    that order. Row f drives field f's circulant embedding of half-length
    L = fields._fgn_half_length(n), synthesized in float32, whose first
    n = npoints - 1 outputs are the path's increments; the last nf draw the
    anchors X(a) from their law given those increments,
    X(a) = w . inc + step^H sqrt(v) z (fields._fgn_anchor_weights). The
    anchors, the cumulative sum and everything after it are float64. The
    matrix experiments pass nf = n_beta - 1 (see _expansion).
    """
    n = npoints - 1
    L = _fgn_half_length(n)
    m = hi - lo
    rngs = [substream(seed, *prefix, r) for r in range(lo, hi)]
    z = np.empty((m, 2 * L), dtype=_NORMALS)
    # the polar map's buffers, for `rows` rows of z per call
    rows = min(m, max(1, _MAP_WORDS // L))
    words = np.empty(rows * L, dtype=np.uint64)
    scratch = np.empty((3, rows * L), dtype=_NORMALS)
    out = np.empty((len(hs), m, nf, npoints))
    for f in range(nf):
        for r in range(0, m, rows):
            block = z[r : r + rows]
            count = block.size // 2
            draws = [rng.bit_generator.random_raw(L) for rng in rngs[r : r + rows]]
            np.concatenate(draws, out=words[:count])
            _polar_normals(words[:count], block.reshape(-1), scratch[:, :count])
        for k, H in enumerate(hs):
            out[k, :, f, 1:] = fgn_from_normals(z, H, step)[:, :n]
    anchors = np.array([rng.standard_normal(nf) for rng in rngs])
    for k, H in enumerate(hs):
        w, v = _fgn_anchor_weights(n, H, i0)
        # anchors in column 0, increments after them: one cumsum gives the paths
        out[k, :, :, 0] = anchors * (step**H * np.sqrt(v))
        out[k, :, :, 0] += out[k, :, :, 1:] @ w
    np.cumsum(out, axis=3, out=out)
    return out


def _helmert(d: int) -> np.ndarray:
    """The (d-1, d) Helmert matrix: orthonormal rows, each orthogonal to ones.

    Row k is (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k+1)) with k ones. The
    arithmetic is scipy.linalg.helmert's, so the values are bitwise its own.
    """
    k = np.arange(1, d)
    h = np.tril(np.ones((d, d)), -1)[1:] - np.diag(np.arange(d))[1:]
    return h / np.sqrt(k * (k + 1))[:, None]


@functools.lru_cache(maxsize=None)
def _expansion(beta: int, d: int) -> np.ndarray:
    """Read-only (n_beta, n_beta - 1) map E from traceless fields to packed coefficients.

    Diagonal rows hold helmert(d)^T, off-diagonal rows are unit vectors in
    packing order, and every row is multiplied by coefficient_scale. Built
    once per (beta, d); np.matmul(E, paths) expands a batch of paths
    (m, n_beta - 1, T), writing the (m, n_beta, T) block directly.
    """
    nb = n_beta(beta, d)
    diag = diagonal_positions(d)
    E = np.zeros((nb, nb - 1))
    E[diag, : d - 1] = _helmert(d).T
    E[np.setdiff1d(np.arange(nb), diag), np.arange(d - 1, nb - 1)] = 1.0
    E *= coefficient_scale(beta, d)[:, None]
    E.flags.writeable = False
    return E


def _gaps_from_fields(coeffs: np.ndarray, beta: int, d: int) -> np.ndarray:
    """Minimum adjacent eigenvalue gap of Y(t): (m, npoints).

    coeffs (m, n_beta, npoints) are the packed coefficients of Y = A + X,
    the shift added; they are read, not copied. d = 2 and d = 3 go through
    the closed forms of spectral, d >= 4 through spectral._min_gap_by_qr.
    """
    x = np.moveaxis(coeffs, 1, -1)
    if d == 2:
        return gap_closed_form_2x2(x, beta)
    if d == 3:
        return _gap_closed_form_3x3(x, beta)
    return _min_gap_by_qr(x, beta, d)


@functools.lru_cache(maxsize=None)
def _path_form(beta: int) -> tuple:
    """Read-only (w, S): at d = 2 the gap is |w * (P + S a)| over the traceless paths P.

    Y = A + E P with E = _expansion and a the packed shift. The gap of a
    2 x 2 Hermitian M is |D x|, D x = (M11 - M22, 2 Re M12, 2 Im M12) read
    off its matrix (_unpacking_basis). D E is diagonal, diag(2, 2) at
    beta 1 and diag(sqrt 2, 2, 2) at beta 2, so w = diag and S a = D a / w.
    """
    nb = n_beta(beta, 2)
    M = np.vstack([_expansion(beta, 2).T, np.eye(nb)]) @ _unpacking_basis(beta, 2)
    M = M.reshape(len(M), 2, 2, beta)
    Dx = np.vstack([M[:, 0, 0, 0] - M[:, 1, 1, 0], 2.0 * M[:, 0, 1].T])
    w = np.diag(Dx[:, : nb - 1]).copy()
    if np.any(Dx[:, : nb - 1] != np.diag(w)):
        raise AssertionError(f"the d = 2 gap is not a weighted norm of the paths (beta {beta})")
    S = Dx[:, nb - 1 :] / w[:, None]
    w.flags.writeable = S.flags.writeable = False
    return w, S


def _path_gaps(paths: np.ndarray, a: np.ndarray, beta: int, d: int) -> np.ndarray:
    """Minimum adjacent gap (m, T) of A + X from one batch's traceless paths (m, n_beta - 1, T).

    a is the packed shift. d = 2 reads the paths as the weighted norm of
    _path_form, in two (m, T) buffers; d >= 3 expands them by _expansion,
    adds a in place and calls _gaps_from_fields.
    """
    if d != 2:
        coeffs = np.matmul(_expansion(beta, d), paths)
        coeffs += a[:, None]
        return _gaps_from_fields(coeffs, beta, d)
    w, S = _path_form(beta)
    gap2 = np.empty((paths.shape[0], paths.shape[2]))
    term = np.empty_like(gap2)
    for f, shift in enumerate(S @ a):  # field 0's square starts the sum
        np.multiply(np.add(paths[:, f], shift, out=term), w[f], out=term)
        np.square(term, out=term if f else gap2)
        if f:
            gap2 += term
    return np.sqrt(gap2, out=gap2)


def _window_start(a: float, b: float, N: int) -> tuple:
    """(step, i0) of the N-cell mesh on [a, b], where a = i0 * step.

    ExperimentConfig guarantees 0 < a < b. i0 is real: the anchor law holds
    off the mesh too. Within 1e-9 of an integer it is snapped to it, so
    on-mesh windows do not depend on how a/step rounds.
    """
    step = (b - a) / N
    i0 = a / step
    if abs(i0 - round(i0)) <= 1e-9:
        i0 = float(round(i0))
    return step, i0


def _min_gaps_ladder(
    beta: int,
    d: int,
    hs: Sequence[float],
    step: float,
    i0: float,
    npoints: int,
    strides: Sequence[int],
    A: np.ndarray,
    replicas: int,
    seed: int,
    prefix: tuple,
    threads: int,
) -> np.ndarray:
    """Per-replica minimum gaps on strided subgrids: (len(hs), replicas, len(strides)).

    Samples each replica once on the grid (i0 + k) * step, k < npoints, from
    one set of normals mapped through every H (_field_path_batch), and takes
    the minimum over every strides[j]-th point. Coarser subgrids reuse the
    same paths (nested-grid coupling), so the reported minimum never
    increases under refinement, replica by replica. Each batch runs the gap
    kernel once per H on all of its replicas.
    """
    nf = n_beta(beta, d) - 1
    a = matrix_to_vec(A, beta)
    _fill_window_caches(hs, step, i0, npoints)
    minima = np.empty((len(hs), replicas, len(strides)))

    def work(lo: int, hi: int) -> None:
        paths = _field_path_batch(nf, hs, step, i0, npoints, seed, prefix, lo, hi)
        for k, per_h in enumerate(paths):
            gaps = _path_gaps(per_h, a, beta, d)
            for col, stride in enumerate(strides):
                minima[k, lo:hi, col] = gaps[:, ::stride].min(axis=1)

    _run_batches(replicas, threads, work)
    return minima


def _stats_from_minima(
    minima_col: np.ndarray, delta: float, N: int, window: tuple
) -> CollisionStats:
    n = minima_col.shape[0]
    hits = int(np.count_nonzero(minima_col < delta))
    lo, hi = _wilson_interval(hits, n)
    return CollisionStats(
        p_hat=hits / n,
        wilson_lo=lo,
        wilson_hi=hi,
        hits=hits,
        replicas=n,
        delta=float(delta),
        intervals=int(N),
        interval=window,
    )


def _refinement_studies(config, hs: Sequence[float], threads: int) -> list:
    """One RefinementResult per H in hs on config.ladder(), every H mapping the same normals."""
    ladder = config.ladder()
    a, b = config.interval
    Nmax = ladder[-1]
    step, i0 = _window_start(a, b, Nmax)
    A = validate_shift(config.shift, config.beta, config.d)
    minima = _min_gaps_ladder(
        config.beta, config.d, hs, step, i0, Nmax + 1, [Nmax // N for N in ladder], A,
        config.replicas, config.seed, (TAG_COLLISION,), threads,
    )
    studies = []
    for H, per_h in zip(hs, minima):
        stats = [
            _stats_from_minima(per_h[:, col], _threshold(config.kappa, (b - a) / N, H), N, (a, b))
            for col, N in enumerate(ladder)
        ]
        p = [s.p_hat for s in stats]
        first = p[0] if p[0] > 0 else np.nan
        second = p[-2] if len(p) > 1 and p[-2] > 0 else np.nan
        studies.append(RefinementResult(
            stats=tuple(stats),
            trend_last_over_first=p[-1] / first,
            trend_top_pair=p[-1] / second if len(p) > 1 else np.nan,
        ))
    return studies


def refinement_study(
    config,
    mesh_ladder: Optional[Sequence[int]] = None,
    threads: int = 1,
) -> RefinementResult:
    """Collision probability across config.ladder() with nested-grid coupling.

    The threshold at mesh N is delta_N = kappa * ((b-a)/N)^H. Shared replicas
    across the ladder make the trend ratios low-variance. A mesh_ladder
    given here replaces config.mesh_ladder, so the config's validator judges
    it. perfbench/make_reference.py is the one caller outside the tests;
    the parameter goes when that script states its ladder in its config
    (ROADMAP item 3, step 2). A critical H, where Q = 1/H equals beta + 1
    and the paper's dichotomy is undecided, runs with a UserWarning.
    """
    if mesh_ladder is not None:
        config = config.replace(mesh_ladder=tuple(mesh_ladder))
    H = config.path_hurst()
    if collision_regime(config.beta, (H,)) == "critical":
        warnings.warn(
            f"Q = {1.0 / H:.6g} equals beta+1 = {config.beta + 1}: "
            "critical case, the collision dichotomy is undecided here",
            UserWarning,
        )
    return _refinement_studies(config, (H,), threads)[0]


def phase_sweep(hurst_values: Sequence[float], config, threads: int = 1) -> PhaseSweepResult:
    """One refinement study per Hurst value, on config.ladder().

    Every H must stay at least 0.02 away from the critical value 1/(1+beta),
    where the dichotomy is undecided. All H share each replica's normals
    (common random numbers): study k is bit-identical to
    refinement_study(config.replace(hurst=(hurst_values[k],))), and estimates
    across H are positively correlated, so the summary ratio, which compares
    finest-mesh estimates across the threshold, is a paired comparison.
    """
    critical = 1.0 / (1.0 + config.beta)
    hs = tuple(_check_hurst(h) for h in hurst_values)
    for h in hs:
        if abs(h - critical) < 0.02:
            raise ValueError(
                f"H={h} is within 0.02 of the critical value {critical:.4g}"
            )
    studies = _refinement_studies(config, hs, threads)
    regimes = [collision_regime(config.beta, (h,)) for h in hs]
    coll = [s.stats[-1].p_hat for s, r in zip(studies, regimes) if r == "collision"]
    none = [s.stats[-1].p_hat for s, r in zip(studies, regimes) if r == "no_collision"]
    if coll and none:
        lo_side = min(coll)
        hi_side = max(none)
        sep = lo_side / hi_side if hi_side > 0 else (np.inf if lo_side > 0 else np.nan)
    else:
        sep = np.nan
    return PhaseSweepResult(
        hurst_values=hs,
        regimes=tuple(regimes),
        studies=tuple(studies),
        separation_ratio=float(sep),
    )


def gap_exponent_fit(
    beta: int,
    d: int,
    t0: float,
    samples: int,
    window: tuple,
    seed: int,
    hurst: float = 0.5,
) -> ExponentFit:
    """Small-gap CDF slope of X(t0) from i.i.d. samples, log-log regression.

    The slope estimates beta + 1 (the codimension of the degenerate set).
    hurst only sets the sampling scale t0^H; the exponent itself is
    scale-free, which is why t0-invariance holds.

    Samples are drawn in chunks of 4096 from substream (seed, TAG_GAPFIT,
    chunk), each chunk as a (k, n_beta) array of normals, one sample per
    row. The chunk is scaled by t0^H, then by coefficient_scale, into
    contiguous coefficient planes (n_beta, k) and goes to _gaps_from_fields
    as one (1, n_beta, k) block, one path of k points, whose gaps are those
    of k one-point paths bit for bit. There is no shift.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for a stable fit")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    lo, hi = float(window[0]), float(window[1])
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    scale = float(t0) ** float(hurst)
    nf = n_beta(beta, d)
    coefficients = coefficient_scale(beta, d)[:, None]
    gaps = np.empty(samples)
    chunk = 4096
    for ci, start in enumerate(range(0, samples, chunk)):
        stop = min(start + chunk, samples)
        rng = substream(seed, TAG_GAPFIT, ci)
        draws = rng.standard_normal((stop - start, nf))
        planes = np.empty((1, nf, stop - start))
        np.multiply(draws.T, scale, out=planes[0])
        planes *= coefficients
        gaps[start:stop] = _gaps_from_fields(planes, beta, d)[0]
    eps = np.geomspace(lo, hi, 12)
    cdf = np.array([np.count_nonzero(gaps < e) for e in eps]) / samples
    mask = cdf > 0
    if mask.sum() < 2:
        raise ValueError("empty window: no gap mass inside [lo, hi]")
    x = np.log(eps[mask])
    y = np.log(cdf[mask])
    (slope, _), cov = np.polyfit(x, y, 1, cov=True)
    return ExponentFit(
        slope=float(slope),
        stderr=float(np.sqrt(cov[0, 0])),
        window=(lo, hi),
        samples=samples,
        eps=eps,
        cdf=cdf,
    )


def small_time_study(
    beta: int,
    d: int,
    A,
    T_values: Sequence[float],
    hurst: float,
    intervals: int,
    replicas: int,
    seed: int,
    kappa: float = 1.0,
    threads: int = 1,
) -> list:
    """Collision estimates on shrinking windows (0, T], meshed proportionally to T.

    Meaningful only in the collision regime as collision_regime decides it
    (H < 1/(1+beta), off the critical line). The shift must satisfy
    the instant-collision hypothesis: A = 0 or spectrum cardinality d-1 (one
    repeated pair). The grid is t = k*T/N (k = 1..N); the origin is excluded
    because X(0) = 0 exactly.
    """
    H = _check_hurst(hurst)
    if collision_regime(beta, (H,)) != "collision":
        raise ValueError("small-time study requires the collision regime H < 1/(1+beta)")
    A = validate_shift(A, beta, d)
    distinct = 1 + np.count_nonzero(adjacent_gaps(ordered_eigenvalues(A)) > 1e-9)
    if np.any(A != 0) and distinct != d - 1:
        raise ValueError(
            "shift must be 0 or have spectrum cardinality d-1 (one repeated pair)"
        )
    out = []
    for ti, T in enumerate(_time_ladder(list(T_values), "T_values")):
        step = T / intervals
        minima = _min_gaps_ladder(
            beta, d, (H,), step, 1.0, intervals, (1,), A, replicas, seed, (TAG_SMALLTIME, ti),
            threads,
        )
        delta = _threshold(kappa, step, H)
        out.append(_stats_from_minima(minima[0, :, 0], delta, intervals, (0.0, T)))
    return out


def oracle_vector_reduction(config, threads: int = 1) -> float:
    """Max pathwise |eigensolver gap - closed-form gap| for d = 2 paths Y = A + X.

    The formula side is the collision loop's kernel, _path_gaps, on the
    sampled paths and the packed shift A = config.shift; the pipeline side
    expands the paths, materializes the matrices, adds A and diagonalizes.
    The two agree up to eigensolver tolerance; anything above 1e-10
    indicates a packing or assembly bug.
    """
    if config.d != 2:
        raise ValueError("the vector-reduction oracle is a d = 2 construction")
    beta = config.beta
    H = config.path_hurst()
    a, b = config.interval
    N = config.intervals
    step, i0 = _window_start(a, b, N)
    A = validate_shift(config.shift, beta, 2)
    a = matrix_to_vec(A, beta)
    _fill_window_caches((H,), step, i0, N + 1)
    worst = np.zeros(int(np.ceil(config.replicas / BATCH)))

    def work(lo: int, hi: int) -> None:
        paths = _field_path_batch(
            n_beta(beta, 2) - 1, (H,), step, i0, N + 1, config.seed, (TAG_ORACLE,), lo, hi
        )
        formula = _path_gaps(paths[0], a, beta, 2)
        # unshifted: the pipeline adds A as a matrix
        coeffs = np.matmul(_expansion(beta, 2), paths[0])
        mats = vec_to_matrix(coeffs.transpose(0, 2, 1), beta, 2) + A
        eigs = ordered_eigenvalues(mats)
        pipeline = eigs[..., 0] - eigs[..., 1]
        worst[lo // BATCH] = np.max(np.abs(pipeline - formula))

    _run_batches(config.replicas, threads, work)
    return float(worst.max())


def flattened_degenerate_sampler(d: int, beta: int):
    """Point sampler on the flattened degenerate set, for energy integrals.

    Returns sampler(n, rng) -> (n, n_beta(beta, d)) drawing n degenerate
    matrices in one sample_degenerate call (levels uniform on [-1, 1], Haar
    frames) and packing them. For d = 2 the points are (c, 0, c) (plus a zero
    imaginary coordinate for beta = 2) with c = rng.uniform(-1, 1, n).
    """

    def sampler(n: int, rng: np.random.Generator) -> np.ndarray:
        M = sample_degenerate(
            d, beta, rng=rng, level_draw=lambda r, shape: r.uniform(-1.0, 1.0, shape), size=n
        )
        return matrix_to_vec(M, beta)

    return sampler


def degenerate_point_cloud(npoints: int, d: int, beta: int, seed: int) -> np.ndarray:
    """Flattened degenerate samples (standard-normal levels) for dimension fits.

    The d = 2 cloud lies on the line {(c, 0, c)} (plus a zero imaginary
    coordinate for beta = 2); its box-counting slope estimates 1, matching
    the chart parameter count n_1(2) - 2.
    """
    rng = substream(seed, TAG_BOXDIM)
    return matrix_to_vec(sample_degenerate(d, beta, rng=rng, size=npoints), beta)
