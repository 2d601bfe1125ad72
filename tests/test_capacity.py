"""Riesz kernels, energy integrals, capacity bounds, box counting, decision rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencollide.capacity import (
    box_counting_dim,
    capacity_lower_bound,
    collision_regime,
    energy_integral,
    f_alpha,
    q_index,
    uniform_unit_interval,
)

# -- kernel -------------------------------------------------------------------


def test_f_alpha_positive_branch():
    assert f_alpha(2.0, 0.5) == pytest.approx(2.0**-0.5)
    assert f_alpha(0.25, 2.0) == pytest.approx(16.0)
    assert f_alpha(0.0, 0.5) == np.inf


def test_f_alpha_log_branch():
    assert f_alpha(1.0, 0.0) == pytest.approx(1.0)  # log(e/1)
    assert f_alpha(np.exp(-1.0), 0.0) == pytest.approx(2.0)
    assert f_alpha(5.0, 0.0) == pytest.approx(1.0)  # capped at 1 for r > 1
    assert f_alpha(0.0, 0.0) == np.inf


def test_f_alpha_constant_branch():
    assert f_alpha(0.0, -1.0) == 1.0
    assert f_alpha(7.0, -0.5) == 1.0


def test_f_alpha_vectorized_and_validated():
    r = np.array([0.25, 1.0, 4.0])
    np.testing.assert_allclose(f_alpha(r, 1.0), [4.0, 1.0, 0.25])
    with pytest.raises(ValueError):
        f_alpha(-1.0, 0.5)


@given(st.floats(1e-6, 1e3), st.floats(0.01, 3.0))
def test_f_alpha_monotone_decreasing(r, alpha):
    assert f_alpha(r, alpha) >= f_alpha(r * 2.0, alpha)


# -- decision rule ------------------------------------------------------------


def test_q_index():
    assert q_index(0.5) == pytest.approx(2.0)
    assert q_index((0.5, 0.25)) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        q_index(0.0)
    with pytest.raises(ValueError):
        q_index((0.5, 1.0))


def test_collision_regime_single_parameter():
    assert collision_regime(1, 0.3) == "collision"
    assert collision_regime(1, 0.7) == "no_collision"
    assert collision_regime(1, 0.5) == "critical"
    assert collision_regime(2, 0.25) == "collision"
    assert collision_regime(2, 0.45) == "no_collision"
    assert collision_regime(2, 1.0 / 3.0) == "critical"


def test_collision_regime_multiparameter():
    # Q = 1/0.8 + 1/0.8 = 2.5 < 3 for the Hermitian class
    assert collision_regime(2, (0.8, 0.8)) == "no_collision"
    # Q = 4 > 3
    assert collision_regime(2, (0.5, 0.5)) == "collision"
    assert collision_regime(1, (0.9, 0.9)) == "collision"  # Q = 2.22 > 2


def test_collision_regime_rejects_bad_beta():
    with pytest.raises(ValueError):
        collision_regime(3, 0.5)
    with pytest.raises(ValueError):
        collision_regime(1.5, 0.5)


def test_q_index_rejects_overflow():
    # subnormal H lies in (0, 1), but 1/H overflows to inf
    with pytest.raises(ValueError, match="not finite"):
        q_index((5e-324,))
    with pytest.raises(ValueError, match="not finite"):
        collision_regime(1, (0.3, 5e-324))
    assert q_index((1e-300,)) == pytest.approx(1e300)


def test_decision_rule_rejects_nan_hurst():
    # NaN fails every comparison, so a range check written as two rejections
    # lets it through; the decision rule must not read it as "no_collision"
    with pytest.raises(ValueError, match="Hurst"):
        q_index(np.nan)
    with pytest.raises(ValueError, match="Hurst"):
        q_index((0.5, np.nan))
    with pytest.raises(ValueError, match="Hurst"):
        collision_regime(1, (np.nan,))


# -- energy -------------------------------------------------------------------


def test_energy_unit_interval_oracle():
    # int_0^1 int_0^1 |u-v|^(-1/2) du dv = 8/3
    est = energy_integral(uniform_unit_interval, 0.5, 50_000, 7)
    assert est.divergent_pairs == 0
    assert abs(est.value - 8.0 / 3.0) < 4.0 * est.stderr


def test_energy_alpha_zero_log_oracle():
    # int int (1 - log|u-v|) = 1 + 3/2 = 5/2 on the unit square
    est = energy_integral(uniform_unit_interval, 0.0, 50_000, 7)
    assert abs(est.value - 2.5) < 4.0 * est.stderr


def test_energy_deterministic():
    a = energy_integral(uniform_unit_interval, 0.5, 1000, 42)
    b = energy_integral(uniform_unit_interval, 0.5, 1000, 42)
    assert a.value == b.value and a.stderr == b.stderr


def test_energy_counts_divergent_pairs():
    def atom(n, rng):
        return np.zeros((n, 2))  # a point mass: every pair coincides

    est = energy_integral(atom, 0.5, 100, 1)
    assert est.divergent_pairs == 100
    assert est.value == np.inf

    est0 = energy_integral(atom, -1.0, 100, 1)  # constant kernel never diverges
    assert est0.divergent_pairs == 0
    assert est0.value == pytest.approx(1.0)


def test_energy_rejects_no_pairs():
    with pytest.raises(ValueError, match="at least one pair"):
        energy_integral(uniform_unit_interval, 0.5, 0, 1)
    with pytest.raises(ValueError, match="at least one pair"):
        capacity_lower_bound(uniform_unit_interval, (0.5,), 0, 1)


# -- capacity bound -----------------------------------------------------------


def test_capacity_bound_unit_interval_stable():
    (cb,) = capacity_lower_bound(uniform_unit_interval, (0.5,), 40_000, 3)
    assert cb.bound == pytest.approx(3.0 / 8.0, rel=0.05)
    assert not cb.divergent


def test_capacity_bound_flags_point_mass():
    def atom(n, rng):
        return np.zeros((n, 1))

    (cb,) = capacity_lower_bound(atom, (0.5,), 1000, 3)
    assert cb.divergent
    assert cb.bound == 0.0


def test_capacity_bound_flags_supercritical_alpha():
    # alpha above the support dimension: energy grows without bound, the
    # half-vs-full probe sees the jump even without exact coincidences
    (cb,) = capacity_lower_bound(uniform_unit_interval, (1.5,), 40_000, 3)
    assert cb.divergent


def test_energy_and_bound_call_the_sampler_once():
    # one sampler call of 2 * pairs points per estimate, whatever the number
    # of alphas; the half probe is the energy of the first 2h points of that
    # draw, h = pairs // 2
    calls = []

    def counting(n, rng):
        calls.append(n)
        return uniform_unit_interval(n, rng)

    est = energy_integral(counting, 0.5, 600, 5)
    assert calls == [1200]
    assert est == energy_integral(uniform_unit_interval, 0.5, 600, 5)
    calls.clear()
    bounds = capacity_lower_bound(counting, (0.5, 1.5), 601, 5)
    assert calls == [1202]
    assert len(bounds) == 2
    for alpha, cb in zip((0.5, 1.5), bounds):
        # field for field what a one-alpha call on the same draw gives
        assert capacity_lower_bound(uniform_unit_interval, (alpha,), 601, 5) == (cb,)
        assert cb.energy == energy_integral(uniform_unit_interval, alpha, 601, 5)
        assert cb.energy_half == energy_integral(uniform_unit_interval, alpha, 300, 5)


# -- box counting -------------------------------------------------------------


def test_box_counting_line():
    rng = np.random.default_rng(0)
    pts = np.zeros((2000, 3))
    pts[:, 0] = rng.random(2000)
    pts[:, 1] = pts[:, 0]
    scales = np.geomspace(1e-3, 0.2, 6)
    res = box_counting_dim(pts, scales)
    assert res.slope == pytest.approx(1.0, abs=0.2)


def test_box_counting_square():
    rng = np.random.default_rng(1)
    pts = np.zeros((20000, 3))
    pts[:, :2] = rng.random((20000, 2))
    scales = np.geomspace(0.01, 0.2, 6)
    res = box_counting_dim(pts, scales)
    assert res.slope == pytest.approx(2.0, abs=0.25)


@given(
    dim=st.integers(1, 9),
    distinct=st.integers(1, 400),
    side=st.integers(1, 12),
    steps=st.lists(st.integers(1, 8), min_size=4, max_size=6, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_box_counting_counts_the_distinct_cell_rows(dim, distinct, side, steps, seed):
    # lattice points, spacing h, repeated to 1200 rows: every scale below is
    # a whole number of spacings, so many points sit exactly on cell
    # boundaries, and duplicates share a cell at every scale
    rng = np.random.default_rng(seed)
    h = 0.125
    lattice = rng.integers(0, side + 1, (distinct, dim)) * h + rng.normal(size=dim)
    pts = lattice[rng.integers(0, distinct, 1200)]
    scales = np.sort(np.array(steps, dtype=float) * h)
    lo = pts.min(axis=0)
    expected = [
        len({tuple(row) for row in np.floor((pts - lo) / eps).astype(np.int64)})
        for eps in scales
    ]
    if np.all(pts.max(axis=0) == lo):
        assert box_counting_dim(pts, scales).counts.tolist() == [1] * len(scales)
    elif len(set(expected)) < 2:
        with pytest.raises(ValueError, match="degenerate fit"):
            box_counting_dim(pts, scales)
    else:
        assert box_counting_dim(pts, scales).counts.tolist() == expected


def test_box_counting_identical_points_slope_zero():
    pts = np.ones((1500, 2))
    res = box_counting_dim(pts, np.geomspace(0.01, 0.5, 5))
    assert res.slope == 0.0
    assert res.residual == 0.0


def test_box_counting_validation():
    pts = np.random.default_rng(2).random((1500, 2))
    with pytest.raises(ValueError):
        box_counting_dim(pts[:100], np.geomspace(0.01, 0.5, 5))  # too few points
    with pytest.raises(ValueError):
        box_counting_dim(pts, [0.1, 0.2, 0.3])  # too few scales
    with pytest.raises(ValueError):
        box_counting_dim(pts, [0.1, 0.2, 0.3, -0.4])  # negative scale
    with pytest.raises(ValueError):
        # scales so coarse that every count is 1: no fit possible
        box_counting_dim(pts, [10.0, 11.0, 12.0, 13.0])
