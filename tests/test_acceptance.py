"""Acceptance suite: twelve end-to-end criteria for the numeric stack.

Each criterion prints one PASS/FAIL line with its measured statistic and
runtime, then asserts the same condition. Master seeds are pinned; every
statistic here is bit-reproducible (see the reproducibility criterion).
"""

import json
import time

import numpy as np
import pytest

from eigencollide.capacity import (
    box_counting_dim,
    capacity_lower_bound,
    collision_regime,
    energy_integral,
    uniform_unit_interval,
)
from eigencollide.cli import main as cli_main
from eigencollide.config import ExperimentConfig
from eigencollide.experiments import (
    _field_path_batch,
    _window_start,
    degenerate_point_cloud,
    flattened_degenerate_sampler,
    gap_exponent_fit,
    oracle_vector_reduction,
    phase_sweep,
)
from eigencollide.fields import (
    covariance_matrix,
    fbm_covariance,
    volterra_covariance_quadrature,
)
from eigencollide.geometry import complete_frame, random_stiefel, sample_degenerate
from eigencollide.spectral import eigenprojection_contour, ordered_eigenvalues
from eigencollide.streams import TAG_FIELD, TAG_GEOMETRY, substream

SEED = 20260822

LADDER = tuple(2**k for k in range(8, 15))  # 256 .. 16384


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# -- 1: the window sampler reproduces the fbm covariance ----------------------


def test_criterion_01_covariance_exactness(capsys):
    # the sampler every experiment runs, 16 points on [1, 2]; every H maps
    # the same normals, so each H's block is its one-H draw bit for bit
    t0 = time.monotonic()
    worst = 0.0
    step, i0 = _window_start(1.0, 2.0, 15)
    paths = _field_path_batch(1, (0.3, 0.5, 0.7), step, i0, 16, SEED, (TAG_FIELD,), 0, 10_000)
    for H, per_h in zip((0.3, 0.5, 0.7), paths):
        X = per_h[:, 0]
        R = covariance_matrix(np.linspace(1.0, 2.0, 16), H)
        S = X.T @ X / len(X)
        # MC standard error of a Gaussian second moment: (R_ii R_jj + R_ij^2)/m
        se = np.sqrt((np.outer(np.diag(R), np.diag(R)) + R**2) / len(X))
        worst = max(worst, float(np.max(np.abs(S - R) / se)))
    dt = time.monotonic() - t0
    ok = worst <= 5.0 and dt < 60.0
    _report(
        capsys,
        f"{_verdict(ok)} criterion 01 covariance exactness: "
        f"max |S-R|/SE = {worst:.2f} (<= 5), {dt:.1f}s (< 60s)",
    )
    assert worst <= 5.0
    assert dt < 60.0


# -- 2: Volterra kernel cross-check ------------------------------------------


def test_criterion_02_volterra_cross_check(capsys):
    t0 = time.monotonic()
    H = 0.3
    worst = 0.0
    for s in (0.5, 1.0, 1.5):
        for t in (0.5, 1.0, 1.5):
            quad_val = volterra_covariance_quadrature(s, t, H)
            exact = fbm_covariance(s, t, H)
            worst = max(worst, abs(quad_val - exact) / exact)
    dt = time.monotonic() - t0
    ok = worst <= 1e-3 and dt < 60.0
    _report(
        capsys,
        f"{_verdict(ok)} criterion 02 Volterra cross-check: "
        f"max rel err = {worst:.2e} (<= 1e-3), {dt:.1f}s",
    )
    assert worst <= 1e-3
    assert dt < 60.0


# -- 3: d=2 pipeline identity --------------------------------------------------


def test_criterion_03_d2_pipeline_identity(capsys):
    t0 = time.monotonic()
    discs = {}
    for beta in (1, 2):
        cfg = ExperimentConfig(
            beta=beta, d=2, hurst=(0.3,), interval=(1.0, 2.0),
            intervals=1023, replicas=1000, seed=SEED,  # 1024 sample times on [1, 2]
        )
        discs[beta] = oracle_vector_reduction(cfg)
    dt = time.monotonic() - t0
    worst = max(discs.values())
    ok = worst <= 1e-10 and dt < 60.0
    _report(
        capsys,
        f"{_verdict(ok)} criterion 03 d=2 pipeline identity: "
        f"max |solver - closed form| = {worst:.2e} (<= 1e-10), {dt:.1f}s (< 60s)",
    )
    assert worst <= 1e-10
    assert dt < 60.0


# -- 4: small-gap exponent = codimension ---------------------------------------


def test_criterion_04_gap_exponent(capsys):
    t0 = time.monotonic()
    fit1 = gap_exponent_fit(1, 2, 1.0, 100_000, (0.1, 0.5), seed=SEED)
    fit2 = gap_exponent_fit(2, 2, 1.0, 100_000, (0.25, 0.9), seed=SEED)
    dt = time.monotonic() - t0
    err1 = abs(fit1.slope - 2.0)
    err2 = abs(fit2.slope - 3.0)
    # beta=1 admits a closed-form small-gap law, so check the CDF itself too
    oracle = 1.0 - np.exp(-fit1.eps**2 / 8.0)
    se = np.sqrt(np.maximum(oracle * (1 - oracle), 1e-12) / fit1.samples)
    cdf_z = float(np.max(np.abs(fit1.cdf - oracle) / se))
    ok = err1 <= 0.2 and err2 <= 0.3 and cdf_z <= 5.0 and dt < 120.0
    _report(
        capsys,
        f"{_verdict(ok)} criterion 04 gap exponent: "
        f"slope(beta=1) = {fit1.slope:.3f} (2 +- 0.2), "
        f"slope(beta=2) = {fit2.slope:.3f} (3 +- 0.3), "
        f"beta=1 CDF vs closed form = {cdf_z:.2f} SE (<= 5), {dt:.1f}s (< 120s)",
    )
    assert err1 <= 0.2
    assert err2 <= 0.3
    assert cdf_z <= 5.0
    assert dt < 120.0


# -- 5 and 6: collision probability phase transition ---------------------------


def _phase_transition(beta, h_low, h_high):
    # one sweep: both H map the same normals, as two refinement studies at
    # this seed would; results do not depend on the thread count (criterion 11)
    base = ExperimentConfig(
        beta=beta, d=2, hurst=(h_low,), interval=(1.0, 2.0),
        intervals=LADDER[-1], replicas=10_000, kappa=1.0, seed=SEED,
        mesh_ladder=LADDER,
    )
    low, high = phase_sweep((h_low, h_high), base, threads=2).studies
    return low, high


def _assert_phase_transition(capsys, num, beta, h_low, h_high, budget):
    t0 = time.monotonic()
    low, high = _phase_transition(beta, h_low, h_high)
    dt = time.monotonic() - t0
    p_low = low.stats[-1].p_hat
    p_high = high.stats[-1].p_hat
    separated = low.stats[-1].hits >= 4 * high.stats[-1].hits and p_low > 0
    trend = low.trend_top_pair
    stable = trend >= 0.8
    decayed = high.stats[0].hits >= 4 * high.stats[-1].hits and high.stats[0].hits > 0
    ok = separated and stable and decayed and dt < budget
    _report(
        capsys,
        f"{_verdict(ok)} criterion {num:02d} phase transition beta={beta}: "
        f"p(H={h_low}) = {p_low:.4f} >= 4 p(H={h_high}) = 4 x {p_high:.4f}; "
        f"trend {trend:.3f} >= 0.8; "
        f"decay {high.stats[0].hits} -> {high.stats[-1].hits} hits (>= 4x); "
        f"{dt:.0f}s (< {budget:.0f}s)",
    )
    assert separated
    assert stable
    assert decayed
    assert dt < budget


@pytest.mark.slow
def test_criterion_05_phase_transition_beta1(capsys):
    _assert_phase_transition(capsys, 5, 1, 0.3, 0.7, 600.0)


@pytest.mark.slow
def test_criterion_06_phase_transition_beta2(capsys):
    _assert_phase_transition(capsys, 6, 2, 0.25, 0.45, 900.0)


# -- 7: degenerate geometry -----------------------------------------------------


def test_criterion_07_degenerate_geometry(capsys):
    t0 = time.monotonic()
    # every chart output has a repeated eigenvalue
    worst_gap = 0.0
    for k in range(100):
        d = 2 + k % 4
        beta = 1 + k % 2
        (M,) = sample_degenerate(d, beta, substream(SEED + k, TAG_GEOMETRY), 1)
        lam = np.linalg.eigvalsh(M)
        worst_gap = max(worst_gap, float(np.min(np.diff(lam))))
    # frame completions orthonormal to 1e-12
    worst_frame = 0.0
    for k in range(100):
        d = 3 + k % 4
        beta = 1 + k % 2
        R = random_stiefel(d, d - 2, beta, substream(SEED + k, TAG_GEOMETRY))
        eye = np.eye(d, dtype=complex if beta == 2 else float)
        full = complete_frame(R, eye)
        defect = float(np.max(np.abs(full.conj().T @ full - np.eye(d))))
        worst_frame = max(worst_frame, defect)
    # box-counting dimension of the flattened d=2 degenerate samples
    cloud = degenerate_point_cloud(4000, 2, 1, seed=SEED)
    span = float(np.linalg.norm(cloud.max(axis=0) - cloud.min(axis=0)))
    scales = np.geomspace(span / 256, span / 4, 6)
    dim = box_counting_dim(cloud, scales).slope
    dt = time.monotonic() - t0
    ok = worst_gap <= 1e-9 and worst_frame <= 1e-12 and abs(dim - 1.0) <= 0.2 and dt < 120.0
    _report(
        capsys,
        f"{_verdict(ok)} criterion 07 degenerate geometry: "
        f"max chart gap = {worst_gap:.1e} (<= 1e-9), "
        f"max frame defect = {worst_frame:.1e} (<= 1e-12), "
        f"box dim = {dim:.3f} (1 +- 0.2), {dt:.1f}s (< 120s)",
    )
    assert worst_gap <= 1e-9
    assert worst_frame <= 1e-12
    assert abs(dim - 1.0) <= 0.2
    assert dt < 120.0


# -- 8: contour projector vs direct solver ---------------------------------------


def test_criterion_08_eigenprojection(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst_frob = worst_idem = worst_trace = 0.0
    done = 0
    while done < 1000:
        G = rng.standard_normal((4, 4))
        M = 0.5 * (G + G.T)
        lam = ordered_eigenvalues(M)
        if lam[0] - lam[1] <= 0.5:
            continue  # criterion targets separation > 0.5
        P = eigenprojection_contour(M, (0,))
        _, V = np.linalg.eigh(M)
        direct = V[:, -1:] @ V[:, -1:].T
        worst_frob = max(worst_frob, float(np.linalg.norm(P - direct)))
        worst_idem = max(worst_idem, float(np.linalg.norm(P @ P - P)))
        worst_trace = max(worst_trace, abs(float(np.trace(P)) - 1.0))
        done += 1
    dt = time.monotonic() - t0
    ok = worst_frob <= 1e-8 and worst_idem <= 1e-6 and worst_trace <= 1e-6 and dt < 60.0
    _report(
        capsys,
        f"{_verdict(ok)} criterion 08 eigenprojection: "
        f"max Frobenius gap = {worst_frob:.1e} (<= 1e-8), "
        f"idempotence = {worst_idem:.1e}, trace = {worst_trace:.1e} (<= 1e-6), "
        f"{dt:.1f}s (< 60s)",
    )
    assert worst_frob <= 1e-8
    assert worst_idem <= 1e-6
    assert worst_trace <= 1e-6
    assert dt < 60.0


# -- 9: collision decision rule ---------------------------------------------------


def test_criterion_09_decision_rule(capsys):
    table = [
        ((1, 0.7), "no_collision"),
        ((1, 0.3), "collision"),
        ((2, 0.25), "collision"),
        ((2, 0.45), "no_collision"),
        ((1, 0.5), "critical"),
        ((2, 1.0 / 3.0), "critical"),
        ((2, (0.8, 0.8)), "no_collision"),  # Q = 2.5 < 3 in the two-parameter case
    ]
    results = [collision_regime(beta, H) == want for (beta, H), want in table]
    ok = all(results)
    _report(
        capsys,
        f"{_verdict(ok)} criterion 09 decision rule: "
        f"{sum(results)}/{len(results)} table entries exact",
    )
    assert ok


# -- 10: capacity and energy -------------------------------------------------------


def test_criterion_10_capacity(capsys):
    t0 = time.monotonic()
    est = energy_integral(uniform_unit_interval, 0.5, 1_000_000, SEED)
    z = abs(est.value - 8.0 / 3.0) / est.stderr
    sampler = flattened_degenerate_sampler(2, 1)
    b1, div = capacity_lower_bound(sampler, (0.5, 1.5), 200_000, SEED)
    (b2,) = capacity_lower_bound(sampler, (0.5,), 400_000, SEED)
    jump = abs(b2.bound - b1.bound) / b1.bound
    dt = time.monotonic() - t0
    ok = (
        z <= 3.0
        and b1.bound > 0
        and not b1.divergent
        and jump <= 0.05
        and div.divergent
        and dt < 120.0
    )
    _report(
        capsys,
        f"{_verdict(ok)} criterion 10 capacity: "
        f"interval energy z = {z:.2f} (<= 3), chart bound = {b1.bound:.4f} > 0, "
        f"doubling jump = {100 * jump:.2f}% (<= 5%), "
        f"alpha=1.5 divergent = {div.divergent}, {dt:.1f}s (< 120s)",
    )
    assert z <= 3.0
    assert b1.bound > 0 and not b1.divergent
    assert jump <= 0.05
    assert div.divergent
    assert dt < 120.0


# -- 11: bit-identical results across worker counts ---------------------------------


def test_criterion_11_reproducibility(capsys, tmp_path):
    t0 = time.monotonic()
    cfg = {
        "beta": 1,
        "d": 2,
        "hurst": 0.25,
        "interval": [1.0, 2.0],
        "intervals": 256,
        "replicas": 200,
        "seed": SEED,
        "mesh_ladder": [64, 256],
        "sweep": {"hurst_values": [0.2, 0.8]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    identical = True
    for sub, fmt in (("simulate", "csv"), ("sweep", "jsonl")):
        blobs = []
        for workers in (1, 4, 8):
            out = tmp_path / f"{sub}-{workers}"
            rc = cli_main(
                [sub, "--config", str(cfg_path), "--out", str(out),
                 "--threads", str(workers), "--format", fmt]
            )
            assert rc == 0
            blobs.append((out / f"results.{fmt}").read_bytes())
        identical = identical and blobs[0] == blobs[1] == blobs[2]
    dt = time.monotonic() - t0
    ok = identical and dt < 120.0
    _report(
        capsys,
        f"{_verdict(ok)} criterion 11 reproducibility: "
        f"result files bit-identical across workers (1, 4, 8) = {identical}, "
        f"{dt:.1f}s",
    )
    assert identical
    assert dt < 120.0


# -- 12: the dichotomy at d = 4 on a window away from the origin ----------------


def test_criterion_12_phase_transition_d4(capsys):
    # beta 1, critical H = 1/2. The rules compare paired counts on the same
    # replicas: at seeds 101 and 102 their margins read 8.7 and 11.6 SE
    # (H = 0.3) and 5.4 and 7.4 SE (H = 0.7)
    t0 = time.monotonic()
    ladder = (64, 128, 256, 512, 1024)
    base = ExperimentConfig(
        beta=1, d=4, hurst=(0.3,), interval=(1.0, 2.0), intervals=ladder[-1],
        replicas=2000, kappa=1.0, seed=SEED, mesh_ladder=ladder,
    )
    low, high = phase_sweep((0.3, 0.7), base, threads=2).studies
    dt = time.monotonic() - t0
    grows = low.stats[-1].hits >= low.stats[0].hits
    decays = high.stats[0].hits >= 1.5 * high.stats[-1].hits
    ok = grows and decays and dt < 60.0
    _report(
        capsys,
        f"{_verdict(ok)} criterion 12 phase transition d=4 beta=1: "
        f"H=0.3 hits {low.stats[0].hits} -> {low.stats[-1].hits} (N 64 -> 1024, no fall); "
        f"H=0.7 hits {high.stats[0].hits} -> {high.stats[-1].hits} (>= 1.5x fall); "
        f"{dt:.1f}s (< 60s)",
    )
    assert grows
    assert decays
    assert dt < 60.0
