"""Monte Carlo orchestration: collision probabilities under grid refinement,
Hurst phase sweeps, small-gap exponent fits, small-time studies, and the d=2
closed-form oracle.

Performance notes. Collision runs sample each replica once at the finest mesh
and reuse strided subgrids for the coarser ladder entries, so refining the
grid never increases a replica's minimum gap by construction. All randomness
is drawn from per-replica counter-based substreams in fixed-size batches
(BATCH below), which makes every result bit-identical for any worker count.
BATCH is part of the output contract: changing it reshuffles nothing
statistically but changes nothing bitwise either (draws are per replica);
it is fixed to keep fft batch shapes, and therefore float rounding, stable.

The path sampler draws n_beta - 1 scalar fBm paths per replica, not n_beta:
eigenvalue gaps are invariant under Y -> Y + cI, so the trace direction is
never sampled. The diagonal is written from d - 1 Helmert coordinates, which
has the law of iid diagonal fields projected onto trace zero
(_traceless_fields); the gap process keeps its law exactly. Only the window
is synthesized: a path on npoints grid points costs 2L + 1 normals and one
real-input inverse FFT of length 2L (fields.fgn_from_normals), L the smallest
power of two >= npoints - 1, whatever the window's distance from the origin.
Its value at the window's start is drawn from its law given the increments,
with weights solved once per (npoints, H, a/step) and cached; a/step need
not be an integer.

A collision run over several Hurst values (phase_sweep) draws each
replica's normals once and maps them through every H's embedding and
anchor weights (common random numbers). The stream key does not name H, so
each H's estimate keeps its law and equals its one-H run bit for bit, while
estimates across H are positively correlated.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import helmert

from .capacity import collision_regime
from .ensembles import (
    coefficient_scale,
    diagonal_positions,
    matrix_to_vec,
    n_beta,
    validate_shift,
    vec_to_matrix,
)
from .fields import (
    _check_hurst,
    _fgn_anchor_weights,
    _fgn_exact,
    _fgn_half_length,
    fgn_from_normals,
    fgn_sqrt_eigenvalues,
)
from .spectral import adjacent_gaps, gap_closed_form_2x2, ordered_eigenvalues
from .geometry import sample_degenerate
from .streams import (
    TAG_BOXDIM,
    TAG_COLLISION,
    TAG_GAPFIT,
    TAG_ORACLE,
    TAG_SMALLTIME,
    substream,
)

__all__ = [
    "CollisionStats",
    "RefinementResult",
    "PhaseSweepResult",
    "ExponentFit",
    "wilson_interval",
    "refinement_study",
    "gap_exponent_fit",
    "phase_sweep",
    "small_time_study",
    "oracle_vector_reduction",
    "validate_ladder",
    "flattened_degenerate_sampler",
    "degenerate_point_cloud",
]

# replica batch size; fixed (see module docstring)
BATCH = 32
# replicas per gap-kernel call within a batch; any value gives the same bits
KERNEL_BLOCK = 8

_Z95 = 1.959963984540054


def wilson_interval(hits: int, n: int) -> tuple:
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


def _require_r1(hurst: tuple) -> float:
    if len(hurst) != 1:
        raise NotImplementedError(
            "path experiments are implemented for 1-parameter time only; "
            "multiparameter Hurst vectors enter through the decision rule"
        )
    return hurst[0]


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
    normals and then nf more from its own substream, in that order. Row f
    drives field f's circulant embedding of half-length
    L = fields._fgn_half_length(n), whose first n = npoints - 1 outputs are
    the path's increments; the last nf draw the anchors X(a) from their law
    given those increments, X(a) = w . inc + step^H sqrt(v) z
    (fields._fgn_anchor_weights). An H whose embedding fails uses the first
    n normals of each row for exact dense increments; the rows are n wide
    only if every H fails. The matrix experiments pass nf = n_beta - 1 (see
    _traceless_fields).
    """
    n = npoints - 1
    L = _fgn_half_length(n)
    roots = [fgn_sqrt_eigenvalues(L, H, step) for H in hs]
    failed = [r is None for r in roots]
    if any(failed):
        # embedding failure: exact dense fallback, reported not fatal
        warnings.warn(
            "circulant embedding not nonnegative definite; exact fallback",
            RuntimeWarning,
        )
    m = hi - lo
    rngs = [substream(seed, *prefix, r) for r in range(lo, hi)]
    z = np.empty((m, n if all(failed) else 2 * L))
    dense = np.empty((m, nf, n)) if any(failed) else None
    out = np.empty((len(hs), m, nf, npoints))
    for f in range(nf):
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        if dense is not None:
            dense[:, f] = z[:, :n]
        for k, sqrt_eigs in enumerate(roots):
            if sqrt_eigs is not None:
                out[k, :, f, 1:] = fgn_from_normals(z, sqrt_eigs)[:, :n]
    anchors = np.array([rng.standard_normal(nf) for rng in rngs])
    for k, (H, sqrt_eigs) in enumerate(zip(hs, roots)):
        if sqrt_eigs is None:
            out[k, :, :, 1:] = _fgn_exact(n, H, step, dense.reshape(m * nf, n)).reshape(m, nf, n)
        w, v = _fgn_anchor_weights(n, H, i0, sqrt_eigs is None)
        # anchors in column 0, increments after them: one cumsum gives the paths
        out[k, :, :, 0] = anchors * (step**H * np.sqrt(v))
        out[k, :, :, 0] += out[k, :, :, 1:] @ w
    np.cumsum(out, axis=3, out=out)
    return out


def _traceless_fields(paths: np.ndarray, beta: int, d: int) -> np.ndarray:
    """Expand n_beta - 1 iid paths (m, n_beta - 1, T) to the fields (m, n_beta, T).

    paths[:, :d-1] are Helmert coordinates g of the diagonal, which becomes
    helmert(d)^T g; the rest are the off-diagonal coefficients in packing
    order. The result has the law of iid fields projected onto trace zero,
    and gaps are invariant under Y -> Y + cI, so the gap process keeps its law.
    """
    nb = n_beta(beta, d)
    diag = diagonal_positions(d)
    out = np.empty(paths.shape[:1] + (nb,) + paths.shape[2:])
    out[:, np.setdiff1d(np.arange(nb), diag)] = paths[:, d - 1 :]
    out[:, diag] = np.matmul(helmert(d).T, paths[:, : d - 1])
    return out


def _gaps_from_fields(fields: np.ndarray, beta: int, d: int, A: np.ndarray) -> np.ndarray:
    """Minimum adjacent eigenvalue gap of Y(t) = A + X(t): (m, npoints).

    fields (m, nfields, npoints) are scaled to the packed coefficients of X
    and shifted by those of A. d = 2 goes through the closed form (no
    matrices, no eigensolver); larger d materializes matrices and
    diagonalizes.
    """
    coeffs = fields * coefficient_scale(beta, d)[:, None]
    coeffs += matrix_to_vec(A, beta)[:, None]
    coeffs = np.moveaxis(coeffs, 1, -1)
    if d == 2:
        return gap_closed_form_2x2(coeffs, beta)
    eigs = np.linalg.eigvalsh(vec_to_matrix(coeffs, beta, d))[..., ::-1]
    return adjacent_gaps(eigs).min(axis=-1)


def validate_ladder(mesh_ladder: Sequence[int]) -> tuple:
    """Check a refinement ladder for nested-grid coupling; returns it as ints.

    Meshes must be positive and strictly increasing, and each must divide the
    finest, so every coarser grid is a strided subgrid of the finest one.
    """
    ladder = tuple(int(N) for N in mesh_ladder)
    if not ladder or list(ladder) != sorted(set(ladder)) or ladder[0] < 1:
        raise ValueError(f"mesh_ladder: need strictly increasing positive meshes, got {ladder}")
    if any(ladder[-1] % N for N in ladder):
        raise ValueError(f"mesh_ladder: every mesh must divide the finest, got {ladder}")
    return ladder


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
    increases under refinement, replica by replica.
    """
    nf = n_beta(beta, d) - 1
    minima = np.empty((len(hs), replicas, len(strides)))

    def work(lo: int, hi: int) -> None:
        paths = _field_path_batch(nf, hs, step, i0, npoints, seed, prefix, lo, hi)
        # the kernel is per replica: sub-blocks bound its temporaries
        for k in range(len(hs)):
            for s in range(lo, hi, KERNEL_BLOCK):
                e = min(s + KERNEL_BLOCK, hi)
                fields = _traceless_fields(paths[k, s - lo : e - lo], beta, d)
                gaps = _gaps_from_fields(fields, beta, d, A)
                for col, stride in enumerate(strides):
                    minima[k, s:e, col] = gaps[:, ::stride].min(axis=1)

    _run_batches(replicas, threads, work)
    return minima


def _stats_from_minima(
    minima_col: np.ndarray, delta: float, N: int, window: tuple
) -> CollisionStats:
    n = minima_col.shape[0]
    hits = int(np.count_nonzero(minima_col < delta))
    lo, hi = wilson_interval(hits, n)
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


def _refinement_studies(config, hs: Sequence[float], mesh_ladder, threads: int) -> list:
    """One RefinementResult per H in hs, every H mapping the same normals."""
    ladder = config.ladder() if mesh_ladder is None else validate_ladder(mesh_ladder)
    if ladder[-1] != config.intervals:
        raise ValueError(f"mesh_ladder: must end at intervals {config.intervals}, got {ladder}")
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
    """Collision probability across a mesh ladder with nested-grid coupling.

    The threshold at mesh N is delta_N = kappa * ((b-a)/N)^H. Shared replicas
    across the ladder make the trend ratios low-variance. mesh_ladder
    defaults to config.ladder(); a ladder given here must end at
    config.intervals, the mesh the manifest records.
    """
    return _refinement_studies(config, (_require_r1(config.hurst),), mesh_ladder, threads)[0]


def phase_sweep(
    hurst_values: Sequence[float],
    config,
    mesh_ladder: Optional[Sequence[int]] = None,
    threads: int = 1,
) -> PhaseSweepResult:
    """One refinement study per Hurst value, on a shared mesh ladder.

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
    studies = _refinement_studies(config, hs, mesh_ladder, threads)
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
    A = validate_shift(None, beta, d)
    gaps = np.empty(samples)
    chunk = 4096
    for ci, start in enumerate(range(0, samples, chunk)):
        stop = min(start + chunk, samples)
        rng = substream(seed, TAG_GAPFIT, ci)
        fields = rng.standard_normal((stop - start, nf, 1)) * scale
        gaps[start:stop] = _gaps_from_fields(fields, beta, d, A)[:, 0]
    gaps.sort()
    eps = np.geomspace(lo, hi, 12)
    cdf = np.searchsorted(gaps, eps, side="left") / samples
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

    Meaningful in the collision regime H < 1/(1+beta). The shift must satisfy
    the instant-collision hypothesis: A = 0 or spectrum cardinality d-1 (one
    repeated pair). The grid is t = k*T/N (k = 1..N); the origin is excluded
    because X(0) = 0 exactly.
    """
    H = _check_hurst(hurst)
    if not H < 1.0 / (1.0 + beta):
        raise ValueError("small-time study requires the collision regime H < 1/(1+beta)")
    A = validate_shift(A, beta, d)
    distinct = 1 + np.count_nonzero(np.diff(np.linalg.eigvalsh(A)) > 1e-9)
    if np.any(A != 0) and distinct != d - 1:
        raise ValueError(
            "shift must be 0 or have spectrum cardinality d-1 (one repeated pair)"
        )
    Ts = [float(T) for T in T_values]
    if any(T <= 0 for T in Ts) or sorted(Ts, reverse=True) != Ts:
        raise ValueError("T ladder must be positive and decreasing")
    out = []
    for ti, T in enumerate(Ts):
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

    Rebuilds the gap path straight from the retained scalar fields and the
    shift A = config.shift, for beta = config.beta, and compares with the
    full pipeline (pack, materialize, add A, diagonalize). The two agree up
    to eigensolver tolerance; anything above 1e-10 indicates a packing or
    assembly bug.
    """
    if config.d != 2:
        raise ValueError("the vector-reduction oracle is a d = 2 construction")
    beta = config.beta
    H = _require_r1(config.hurst)
    a, b = config.interval
    N = config.intervals
    step, i0 = _window_start(a, b, N)
    A = validate_shift(config.shift, beta, 2)
    worst = np.zeros(int(np.ceil(config.replicas / BATCH)))

    def work(lo: int, hi: int) -> None:
        fields = _traceless_fields(
            _field_path_batch(
                n_beta(beta, 2) - 1, (H,), step, i0, N + 1, config.seed, (TAG_ORACLE,), lo, hi
            )[0],
            beta, 2,
        )
        formula = _gaps_from_fields(fields, beta, 2, A)
        coeffs = fields.transpose(0, 2, 1) * coefficient_scale(beta, 2)
        mats = vec_to_matrix(coeffs, beta, 2) + A
        eigs = ordered_eigenvalues(mats)
        pipeline = eigs[..., 0] - eigs[..., 1]
        worst[lo // BATCH] = np.max(np.abs(pipeline - formula))

    _run_batches(config.replicas, threads, work)
    return float(worst.max())


def _degenerate_points(n: int, d: int, beta: int, rng, draw) -> np.ndarray:
    """n packed degenerate matrices, (n, n_beta(beta, d)); levels from draw(rng, size).

    d = 2 is the line {c I} and is vectorized; larger d loops through the
    chart construction (Haar frames, distinct descending levels), so keep n
    moderate there.
    """
    nb = n_beta(beta, d)
    if d == 2:
        c = draw(rng, n)
        out = np.zeros((n, nb))
        out[:, 0] = c
        out[:, 2] = c
        return out
    out = np.empty((n, nb))
    for i in range(n):
        M = sample_degenerate(d, beta, rng=rng, level_draw=draw)
        out[i] = matrix_to_vec(M, beta)
    return out


def flattened_degenerate_sampler(d: int, beta: int):
    """Point sampler on the flattened degenerate set, for energy integrals.

    Returns sampler(n, rng) -> (n, n_beta(beta, d)) drawing degenerate
    matrices through the chart (levels uniform on [-1, 1], Haar frames) and
    packing them.
    """

    def sampler(n: int, rng: np.random.Generator) -> np.ndarray:
        return _degenerate_points(n, d, beta, rng, lambda r, size: r.uniform(-1.0, 1.0, size))

    return sampler


def degenerate_point_cloud(npoints: int, d: int, beta: int, seed: int) -> np.ndarray:
    """Flattened degenerate samples (standard-normal levels) for dimension fits.

    The d = 2 cloud lies on the line {(c, 0, c)} (plus a zero imaginary
    coordinate for beta = 2); its box-counting slope estimates 1, matching
    the chart parameter count n_1(2) - 2.
    """
    rng = substream(seed, TAG_BOXDIM)
    return _degenerate_points(npoints, d, beta, rng, lambda r, size: r.standard_normal(size))
