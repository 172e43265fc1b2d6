import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanse.alignment import rep_epsilon_check
from expanse.flows import interval_flow, rotation_flow, suspension_doubling
from expanse.shadowing import (
    PseudoOrbit,
    ShadowingError,
    cumulative_clock,
    default_candidates,
    find_shadow,
    generate_pseudo_orbit,
)
from expanse.spaces import CircleUnion


def make_po(durations, points=None, i_min=None):
    n = len(durations)
    if points is None:
        points = [(0.3,)] * n
    if i_min is None:
        i_min = -(n // 2)
    return PseudoOrbit(points=tuple(points), durations=tuple(durations),
                       i_min=i_min, T_min=1.0, delta=0.0)


# ----------------------------------------------------------------- clock

def test_clock_unit_steps():
    po = make_po([1.0] * 8)
    assert cumulative_clock(po, 3) == 3.0


def test_clock_zero():
    po = make_po([1.0] * 8)
    assert cumulative_clock(po, 0) == 0.0


def test_clock_direct_summation():
    po = make_po([2.0, 3.0, 5.0], i_min=0)
    assert cumulative_clock(po, 2) == 5.0


def test_clock_negative_indices():
    po = make_po([2.0, 3.0, 5.0, 7.0], i_min=-2)
    # S(-1) = -t_{-1} = -3, S(-2) = -(t_{-2} + t_{-1}) = -5
    assert cumulative_clock(po, -1) == -3.0
    assert cumulative_clock(po, -2) == -5.0


def test_clock_out_of_range():
    po = make_po([1.0] * 4)
    with pytest.raises(ShadowingError):
        cumulative_clock(po, po.i_max + 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1.0, 5.0), min_size=2, max_size=10),
       st.integers(0, 9))
def test_clock_telescopes(durs, shift):
    i_min = -min(shift, len(durs) - 1)
    po = make_po(durs, i_min=i_min)
    for i in range(po.i_min, po.i_max + 1):
        lhs = cumulative_clock(po, i + 1) - cumulative_clock(po, i)
        assert lhs == pytest.approx(po.entry(i)[1], abs=1e-12)


# ------------------------------------------------------------ generation

def test_generate_respects_jump_bound():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 10, delta=1e-3, seed=7)
    po.validate(flow)
    assert all(t >= 1.0 for t in po.durations)
    assert po.i_min == -5 and po.i_max == 4


def test_generate_zero_delta_is_exact_orbit():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 6, delta=0.0, seed=1)
    for i in range(po.i_min, po.i_max):
        x, t = po.entry(i)
        nxt, _ = po.entry(i + 1)
        assert flow.space.distance(flow.evaluate(t, x), nxt) == 0.0


def test_generate_deterministic_under_seed():
    flow = interval_flow(1.0)
    a = generate_pseudo_orbit(flow, np.array([0.3]), 8, 1e-3, seed=42)
    b = generate_pseudo_orbit(flow, np.array([0.3]), 8, 1e-3, seed=42)
    assert a == b


def test_generate_validation():
    flow = interval_flow(1.0)
    with pytest.raises(ShadowingError):
        generate_pseudo_orbit(flow, np.array([0.3]), 4, -0.1, seed=0)
    with pytest.raises(ShadowingError):
        generate_pseudo_orbit(flow, np.array([0.3]), 4, 0.1, T_min=0.5, seed=0)


def test_serialization_roundtrip(tmp_path):
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 6, 1e-3, seed=3)
    path = tmp_path / "po.txt"
    po.save(path)
    loaded = PseudoOrbit.load(path)
    assert loaded == po


# ------------------------------------------------------------- shadowing

def test_exact_orbit_shadowed_with_tiny_error():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 6, delta=0.0, seed=5)
    res = find_shadow(flow, po, eps=0.05)
    assert res is not None
    assert res.max_error <= 1e-9
    assert rep_epsilon_check(res.reparam, 0.05)


def test_interval_pseudo_orbits_shadowed():
    flow = interval_flow(1.0)
    for seed in range(5):
        po = generate_pseudo_orbit(flow, np.array([0.3]), 10, delta=1e-3,
                                   seed=seed)
        res = find_shadow(flow, po, eps=0.05)
        assert res is not None, f"seed {seed} not shadowed"
        assert res.max_error <= 0.05
        assert rep_epsilon_check(res.reparam, 0.05)
        assert len(res.per_segment_errors) == 10
        assert max(res.per_segment_errors) == pytest.approx(res.max_error, abs=1e-12)


def radial_drift_po(radii):
    # entries at angle 0 on consecutive circles; full-turn durations make
    # phi_{t_i}(x_i) = x_i, so each seam jump is the radial gap
    points = [(r, 0.0) for r in radii]
    durations = [2.0 * math.pi] * len(radii)
    delta = max(abs(radii[i + 1] - radii[i]) for i in range(len(radii) - 1))
    return PseudoOrbit(points=tuple(points), durations=tuple(durations),
                       i_min=-(len(radii) // 2), T_min=1.0, delta=delta * 1.0001)


def test_radial_drift_not_shadowed():
    radii = [0.8 + 0.02 * k for k in range(11)]  # total drift 0.2
    flow = rotation_flow(CircleUnion(radii))
    po = radial_drift_po(radii)
    po.validate(flow)
    res = find_shadow(flow, po, eps=0.05)
    assert res is None
    best = find_shadow(flow, po, eps=0.05, mode="best")
    # any single-circle orbit misses half of the radial drift
    assert best.max_error >= 0.1 - 1e-9


def test_shadow_error_monotone_under_candidate_refinement():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 8, delta=5e-3, seed=11)
    lvl1 = default_candidates(flow, po, 0.05, level=1)
    lvl2 = lvl1 + default_candidates(flow, po, 0.05, level=2)
    e1 = find_shadow(flow, po, 0.05, candidate_grid=lvl1, mode="best").max_error
    e2 = find_shadow(flow, po, 0.05, candidate_grid=lvl2, mode="best").max_error
    assert e2 <= e1 + 1e-15


def test_find_shadow_validation():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 4, 1e-3, seed=0)
    with pytest.raises(ShadowingError):
        find_shadow(flow, po, eps=0.0)


def test_find_shadow_forward_semiflow():
    flow = suspension_doubling()
    x = (0.3, 0.5)
    pts = (x, tuple(flow.evaluate(1.0, x)))
    two_sided = make_po([1.0, 1.0], points=pts, i_min=-1)
    with pytest.raises(ShadowingError, match="forward semiflow"):
        find_shadow(flow, two_sided, eps=0.05)
    one_sided = make_po([1.0, 1.0], points=pts, i_min=0)
    res = find_shadow(flow, one_sided, eps=0.05)
    assert res is not None
    assert res.max_error <= 1e-12
