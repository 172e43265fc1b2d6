import math

import numpy as np
import pytest

from expanse import entropy
from expanse.entropy import (
    EntropyError,
    bowen_ball_test,
    entropy_estimate,
    h_star_estimate,
    spanning_cardinality,
    x_delta_set,
)
from expanse.flows import (
    interval_flow,
    rotation_flow,
    suspension_doubling,
    trivial_flow,
)
from expanse.spaces import CircleUnion, FiniteSet, exp_radii


def section_grid(m):
    return [np.array([k / m, 0.5]) for k in range(m)]


@pytest.fixture(scope="module")
def exp_rot():
    return rotation_flow(CircleUnion(exp_radii(8)))


# ------------------------------------------------------------ bowen balls

def test_bowen_ball_self():
    flow = interval_flow(1.0)
    assert bowen_ball_test(flow, np.array([0.3]), np.array([0.3]), 10.0, 1e-9)


def test_bowen_ball_rotation_t_invariant(exp_rot):
    x = np.array([math.exp(-1), 0.0])
    y = exp_rot.evaluate(0.3, x)
    d0 = float(exp_rot.space.distance(x, y))
    for t in (0.0, 5.0, 20.0, 40.0):
        assert bowen_ball_test(exp_rot, x, y, t, d0 * 1.000001)
        assert not bowen_ball_test(exp_rot, x, y, t, d0 * 0.999)


def test_bowen_ball_interval_separation_grows():
    flow = interval_flow(1.0)
    assert not bowen_ball_test(flow, np.array([0.3]), np.array([0.31]), 10.0, 0.01)
    assert bowen_ball_test(flow, np.array([0.3]), np.array([0.31]), 0.0, 0.011)


# --------------------------------------------------------- spanning sets

def test_spanning_trivial_two_points():
    flow = trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]]))
    for t in (1.0, 5.0):
        est = spanning_cardinality(flow, flow.space.grid(), t, eps=0.5)
        assert est.cardinality == 2
        assert est.method == "exact_small"


def circle_grid_cover_oracle(n_grid, eps, radius=1.0):
    # minimal arcs covering n evenly spaced circle points, chord radius eps
    half = 2.0 * math.asin(eps / (2.0 * radius))
    per_center = 2 * int(half / (2.0 * math.pi / n_grid)) + 1
    return math.ceil(n_grid / per_center)


def test_spanning_rotation_constant_in_t_matches_arc_oracle():
    flow = rotation_flow(CircleUnion([1.0]))
    grid = flow.space.grid(16, with_origin=False)
    oracle = circle_grid_cover_oracle(16, 0.5)
    cards = [spanning_cardinality(flow, grid, t, eps=0.5).cardinality
             for t in (1.0, 5.0, 10.0)]
    assert cards == [oracle] * 3


def test_spanning_verifies_cover_and_exact_leq_greedy():
    flow = rotation_flow(CircleUnion([1.0]))
    grid = flow.space.grid(16, with_origin=False)
    cover = entropy._bowen_matrices(flow, grid, [2.0], 0.05)[2.0] <= 0.5
    exact = entropy._exact_minimum_cover(cover)
    greedy = entropy._greedy_cover(cover)
    assert len(exact) <= len(greedy)
    est = spanning_cardinality(flow, grid, 2.0, 0.5)
    assert (est.cardinality, est.method) == (len(exact), "exact_small")
    # every grid point inside some Bowen ball of each chosen set
    for chosen in (exact, greedy):
        for p in grid:
            assert any(bowen_ball_test(flow, grid[c], p, 2.0, 0.5) for c in chosen)


def test_entropy_estimate_verifies_cover(monkeypatch):
    flow = suspension_doubling()
    grid = section_grid(32)  # over EXACT_SMALL_LIMIT, so the greedy cover runs
    entropy_estimate(flow, grid, [1.0, 2.0], [0.25])
    monkeypatch.setattr(entropy, "_greedy_cover", lambda cover: [0])
    with pytest.raises(EntropyError, match="cover verification failed"):
        entropy_estimate(flow, grid, [1.0, 2.0], [0.25])


def test_spanning_suspension_doubles_per_unit_time():
    flow = suspension_doubling()
    grid = section_grid(256)
    cards = {t: spanning_cardinality(flow, grid, t, eps=0.25).cardinality
             for t in (2.0, 3.0, 4.0)}
    assert 1.6 <= cards[3.0] / cards[2.0] <= 2.4
    assert 1.6 <= cards[4.0] / cards[3.0] <= 2.4


def test_spanning_monotonicity_in_t_and_eps():
    flow = suspension_doubling()
    grid = section_grid(128)
    r = {(t, e): spanning_cardinality(flow, grid, t, e).cardinality
         for t in (1.0, 2.0, 3.0) for e in (0.4, 0.2)}
    for e in (0.4, 0.2):
        assert r[(1.0, e)] <= r[(2.0, e)] <= r[(3.0, e)]
    for t in (1.0, 2.0, 3.0):
        assert r[(t, 0.4)] <= r[(t, 0.2)]


def test_spanning_empty_grid():
    with pytest.raises(EntropyError):
        spanning_cardinality(interval_flow(1.0), [], 1.0, 0.1)


# ------------------------------------------------------ entropy estimates

def test_entropy_trivial_is_zero():
    flow = trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    est = entropy_estimate(flow, flow.space.grid(), [1.0, 2.0, 4.0], [0.5, 0.25])
    assert est.h_estimate == pytest.approx(0.0, abs=1e-12)


def test_entropy_rotation_zero(exp_rot):
    grid = exp_rot.space.grid(12)
    est = entropy_estimate(exp_rot, grid, [5.0, 10.0, 20.0], [0.1, 0.05])
    assert abs(est.h_estimate) <= 0.02
    for _, slope in est.per_eps_slopes:
        assert slope >= -0.01


def test_entropy_suspension_near_ln2():
    flow = suspension_doubling()
    est = entropy_estimate(flow, section_grid(512), [2.0, 3.0, 4.0, 5.0],
                           [0.25, 0.2])
    assert est.h_estimate == pytest.approx(math.log(2.0), rel=0.15)
    # symbolic oracle: r within a small factor of ceil(2^floor(t+1/2) / (2 eps))
    for t, e, r in est.r_table:
        sym = math.ceil(2.0 ** math.floor(t + 0.5) / (2.0 * e))
        assert sym / 3.0 <= r <= 3.0 * sym


def test_entropy_degenerate_ladder():
    flow = trivial_flow(FiniteSet([[0.0, 0.0]]))
    with pytest.raises(EntropyError):
        entropy_estimate(flow, flow.space.grid(), [1.0], [0.5])


# ------------------------------------------------------------- X_delta

def test_x_delta_rotation_radius_threshold(exp_rot):
    grid = exp_rot.space.grid(8)
    kept = x_delta_set(exp_rot, 0.2, grid=grid, T_escape=20.0)
    kept_norms = sorted({round(float(np.hypot(*p)), 12) for p in kept})
    assert kept_norms == sorted({round(r, 12) for r in exp_rot.space.radii
                                 if r >= 0.2})
    # exactly the grid points on those circles
    expected = [p for p in grid if np.hypot(*p) >= 0.2]
    assert len(kept) == len(expected)


def test_x_delta_interval_empty():
    flow = interval_flow(1.0)
    kept = x_delta_set(flow, 0.1, grid=flow.space.grid(64), T_escape=50.0)
    assert kept == []


def test_x_delta_nesting(exp_rot):
    grid = exp_rot.space.grid(8)
    small = x_delta_set(exp_rot, 0.1, grid=grid, T_escape=10.0)
    large = x_delta_set(exp_rot, 0.3, grid=grid, T_escape=10.0)
    small_keys = {tuple(p) for p in small}
    assert all(tuple(p) in small_keys for p in large)


def test_x_delta_trivial_flow_empty():
    flow = trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]]))
    assert x_delta_set(flow, 0.5, grid=flow.space.grid()) == []


def test_x_delta_beyond_diameter_empty(exp_rot):
    assert x_delta_set(exp_rot, exp_rot.space.diameter + 0.1,
                       grid=exp_rot.space.grid(4)) == []


def test_x_delta_validation(exp_rot):
    with pytest.raises(EntropyError):
        x_delta_set(exp_rot, 0.0)


# --------------------------------------------------------------- h star

def test_h_star_interval_empty_flag():
    flow = interval_flow(1.0)
    est = h_star_estimate(flow, [0.1, 0.2], [2.0, 4.0], [0.1],
                          grid=flow.space.grid(32), T_escape=50.0)
    assert est.all_empty
    assert est.h_estimate == 0.0


def test_h_star_insure_outer_circles(exp_rot):
    est = h_star_estimate(exp_rot, [0.2], [5.0, 10.0], [0.1],
                          grid=exp_rot.space.grid(8), T_escape=10.0)
    assert not est.all_empty
    assert est.K_descriptor["delta"] == 0.2
    assert abs(est.h_estimate) <= 0.02


def test_nonsingular_entropy_desk_checks(exp_rot):
    # singular-equicontinuous flow: h* vanishes (interval flow at scale)
    interval_est = h_star_estimate(interval_flow(1.0), [0.1], [2.0, 4.0], [0.1],
                                   grid=interval_flow(1.0).space.grid(32))
    assert interval_est.h_estimate <= 0.02
    # omega = X for rotations: h and h* agree
    grid = exp_rot.space.grid(8)
    h_full = entropy_estimate(exp_rot, grid, [5.0, 10.0], [0.1]).h_estimate
    h_star = h_star_estimate(exp_rot, [0.05, 0.2], [5.0, 10.0], [0.1],
                             grid=grid, T_escape=10.0).h_estimate
    assert abs(h_full - h_star) <= 0.02
