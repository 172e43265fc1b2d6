import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanse.flows import (
    FlowError,
    field_norm,
    flow_from_config,
    integrate_flow,
    interval_flow,
    interval_flow_eval,
    interval_flow_transit_time,
    min_orbit_diameter,
    rotation_flow,
    rotation_flow_eval,
    sample_orbit,
    suspension_doubling,
    trivial_flow,
)
from expanse.spaces import CircleUnion, FiniteSet, SpaceError, exp_radii, harmonic_radii


def logistic(x):
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x)


def rotation_field(z):
    z = np.asarray(z, dtype=float)
    return np.stack([-z[..., 1], z[..., 0]], axis=-1)


# ---------------------------------------------------------------- interval

def test_interval_fixes_endpoints():
    for t in (-3.0, 0.0, 0.7, 900.0):
        assert interval_flow_eval(1.0, t, 0.0) == 0.0
        assert interval_flow_eval(1.0, t, 1.0) == 1.0


def test_interval_closed_form_vs_rk4():
    # RK4 oracle for the logistic field, step 1e-4
    got = interval_flow_eval(1.0, math.log(2.0), 0.5)
    oracle = float(integrate_flow(logistic, math.log(2.0), np.array([0.5]), 1e-4)[0])
    assert got == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_interval_lambda_zero_is_identity():
    assert interval_flow_eval(0.0, 5.0, 0.37) == pytest.approx(0.37, abs=1e-15)


def test_interval_overflow_guard():
    assert interval_flow_eval(1.0, 800.0, 0.4) == 1.0
    assert interval_flow_eval(1.0, -800.0, 0.4) == 0.0
    assert interval_flow_eval(-1.0, 800.0, 0.4) == 0.0


def transit_time_rk4_bisection(x, y, lo=-12.0, hi=12.0, iters=60):
    # independent oracle: bisect RK4 flow time (monotone in t)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = float(integrate_flow(logistic, mid, np.array([x]), 1e-3)[0])
        if val < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_transit_time_against_rk4_bisection():
    t = interval_flow_transit_time(1.0 / 3.0, 2.0 / 3.0)
    assert t == pytest.approx(math.log(4.0), abs=1e-12)
    assert t == pytest.approx(transit_time_rk4_bisection(1.0 / 3.0, 2.0 / 3.0), abs=1e-7)


def test_transit_time_same_point_and_reversal():
    assert interval_flow_transit_time(0.42, 0.42) == 0.0
    assert interval_flow_transit_time(2.0 / 3.0, 1.0 / 3.0) == pytest.approx(
        -math.log(4.0), abs=1e-12)


def test_transit_time_domain_errors():
    with pytest.raises(FlowError):
        interval_flow_transit_time(0.0, 0.5)
    with pytest.raises(FlowError):
        interval_flow_transit_time(0.5, 1.0)


@settings(max_examples=150, deadline=None)
@given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6), st.floats(-8, 8))
def test_interval_monotone_in_x(x, y, t):
    if x == y:
        return
    lo, hi = min(x, y), max(x, y)
    assert interval_flow_eval(1.0, t, lo) < interval_flow_eval(1.0, t, hi)


# ---------------------------------------------------------------- rotation

def test_rotation_period_and_identity():
    z = np.array([math.exp(-1), 0.0])
    assert np.allclose(rotation_flow_eval(2.0 * math.pi, z), z, atol=1e-12)
    assert np.allclose(rotation_flow_eval(0.0, z), z, atol=0)


def test_rotation_quarter_turn_vs_rk4():
    z = np.array([math.exp(-1), 0.0])
    got = rotation_flow_eval(math.pi / 2.0, z)
    oracle = integrate_flow(rotation_field, math.pi / 2.0, z, 1e-4)
    assert np.allclose(got, [0.0, math.exp(-1)], atol=1e-12)
    assert np.allclose(got, oracle, atol=1e-8)


def test_rotation_is_isometry():
    sp = CircleUnion(harmonic_radii(8))
    rng = np.random.default_rng(5)
    for _ in range(100):
        z, w = sp.random_point(rng), sp.random_point(rng)
        t = rng.uniform(-10, 10)
        d0 = sp.distance(z, w)
        d1 = sp.distance(rotation_flow_eval(t, z), rotation_flow_eval(t, w))
        assert d1 == pytest.approx(d0, abs=1e-12)


# ---------------------------------------------------------------- integrator

def test_integrate_zero_time_is_identity():
    x = np.array([0.3, 0.4])
    assert np.array_equal(integrate_flow(rotation_field, 0.0, x, 1e-3), x)


def test_integrate_rotation_periodicity():
    x = np.array([1.0 / 3.0, 0.0])
    out = integrate_flow(rotation_field, 2.0 * math.pi, x, 1e-4)
    assert np.allclose(out, x, atol=1e-6)


def test_integrate_step_budget():
    with pytest.raises(FlowError):
        integrate_flow(logistic, 1e6, np.array([0.5]), 1e-6)


@pytest.mark.parametrize("name", ["interval", "circles"])
def test_closed_form_vs_integrator_catalog(name):
    if name == "interval":
        flow = interval_flow(1.0)
        pts = [np.array([x]) for x in (0.2, 0.5, 0.9)]
    else:
        flow = rotation_flow(CircleUnion(exp_radii(4)))
        pts = [np.array([math.exp(-1), 0.0]), np.array([0.5 * math.exp(-1), 0.5 * math.exp(-1) * math.sqrt(3)])]
        pts[1] = pts[1] / np.hypot(*pts[1]) * math.exp(-2)
    rng = np.random.default_rng(7)
    for x in pts:
        for _ in range(4):
            t = rng.uniform(-10, 10)
            closed = flow.evaluate(t, x)
            rk4 = integrate_flow(flow.vector_field, t, x, 1e-4)
            assert flow.space.distance(closed, rk4) <= 1e-6


@pytest.mark.parametrize("make", [
    lambda: interval_flow(1.0),
    lambda: interval_flow(-0.5),
    lambda: rotation_flow(CircleUnion(harmonic_radii(6))),
    lambda: trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]])),
])
def test_group_law_sampled(make):
    flow = make()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = flow.space.random_point(rng)
        t, s = rng.uniform(-10, 10, size=2)
        lhs = flow.evaluate(t + s, x)
        rhs = flow.evaluate(t, flow.evaluate(s, x))
        assert flow.space.distance(lhs, rhs) <= 1e-8
    # phi_0 = identity, singular points fixed
    x = flow.space.random_point(rng)
    assert flow.space.distance(flow.evaluate(0.0, x), x) == 0.0
    for p in flow.singular.points:
        for t in np.linspace(-10, 10, 9):
            assert flow.space.distance(flow.evaluate(t, np.asarray(p)), np.asarray(p)) <= 1e-10


def test_group_law_suspension_forward():
    flow = suspension_doubling()
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = flow.space.random_point(rng)
        t, s = rng.uniform(0, 6, size=2)
        lhs = flow.evaluate(t + s, x)
        rhs = flow.evaluate(t, flow.evaluate(s, x))
        assert flow.space.distance(lhs, rhs) <= 1e-8
    with pytest.raises(FlowError):
        flow.evaluate(-1.0, np.array([0.3, 0.2]))


# ---------------------------------------------------------------- sampling

def test_sample_orbit_trivial():
    flow = trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]]))
    s = sample_orbit(flow, np.array([0.0, 0.0]), T=1.0, h=0.5)
    assert np.allclose(s.points, 0.0)
    assert len(s.times) == 5 and np.all(np.diff(s.times) == 0.5)


def test_sample_orbit_interval_endpoints():
    flow = interval_flow(1.0)
    s = sample_orbit(flow, np.array([0.5]), T=math.log(2.0), h=math.log(2.0))
    assert s.points[:, 0] == pytest.approx([1.0 / 3.0, 0.5, 2.0 / 3.0], abs=1e-12)
    assert s.sing_dists == pytest.approx([1.0 / 3.0, 0.5, 1.0 / 3.0], abs=1e-12)


def test_sample_orbit_rotation_antipodal():
    flow = rotation_flow(CircleUnion(exp_radii(2)))
    r = math.exp(-1)
    s = sample_orbit(flow, np.array([r, 0.0]), T=2 * math.pi, h=math.pi)
    xs = s.points[:, 0]
    assert xs == pytest.approx([r, -r, r, -r, r], abs=1e-12)
    assert s.field_norms == pytest.approx([r] * 5, abs=1e-15)


def test_sample_orbit_budget():
    with pytest.raises(FlowError):
        sample_orbit(interval_flow(1.0), np.array([0.5]), T=1e5, h=1e-3)


# ---------------------------------------------------------------- field norm

def test_field_norm_values():
    flow = interval_flow(1.0)
    assert field_norm(flow, np.array([0.5])) == 0.25
    assert field_norm(flow, np.array([0.0])) == 0.0
    rot = rotation_flow(CircleUnion([0.7]))
    assert field_norm(rot, np.array([0.7, 0.0])) == 0.7


def test_field_norm_requires_field():
    flow = suspension_doubling()
    assert field_norm(flow, np.array([0.1, 0.1])) == 1.0
    bare = interval_flow(1.0)
    object.__setattr__(bare, "vector_field", None)
    with pytest.raises(FlowError):
        field_norm(bare, np.array([0.5]))
    with pytest.raises(FlowError):
        field_norm(bare, np.array([[0.5], [0.25]]))


@pytest.mark.parametrize("flow", [interval_flow(1.0), rotation_flow(CircleUnion(exp_radii(4))),
                                  suspension_doubling()], ids=lambda f: f.name)
def test_field_norm_batch_matches_points(flow):
    rng = np.random.default_rng(5)
    pts = np.array([flow.space.random_point(rng) for _ in range(50)])
    batch = field_norm(flow, pts)
    assert batch.shape == (50,)
    assert batch.tolist() == [field_norm(flow, p) for p in pts]


# ------------------------------------------------------ min orbit diameter

def test_min_orbit_diameter_rotation_is_full_chord():
    r = 1.0 / 3.0
    flow = rotation_flow(CircleUnion([r, r / 2]))
    grid = [np.array([r, 0.0]), np.array([0.0, r / 2])]
    # each circle's orbit reaches its antipode: diameter 2 * radius
    got = min_orbit_diameter(flow, grid, T=math.pi, h=math.pi / 64)
    assert got == pytest.approx(2 * (r / 2), rel=1e-6)


def test_min_orbit_diameter_interval_grows_to_one():
    flow = interval_flow(1.0)
    d = min_orbit_diameter(flow, [np.array([0.5])], T=30.0, h=0.1)
    assert d == pytest.approx(1.0, abs=1e-6)


def test_min_orbit_diameter_trivial_zero():
    flow = trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]]))
    assert min_orbit_diameter(flow, [np.array([0.0, 0.0])], T=1.0, h=0.5) == 0.0


def test_min_orbit_diameter_empty_grid():
    with pytest.raises(FlowError):
        min_orbit_diameter(interval_flow(1.0), [], T=1.0, h=0.5)


# ---------------------------------------------------------------- config

def test_flow_from_config():
    f = flow_from_config({"name": "interval", "lambda": 1.0})
    assert f.name == "interval" and f.params["lambda"] == 1.0
    g = flow_from_config({"name": "circles", "family": "harmonic", "depth": 16})
    assert len(g.space.radii) == 16
    c = flow_from_config({"name": "circles", "radii": [0.8, 0.82, 0.84]})
    assert c.space.radii == (0.84, 0.82, 0.8)
    h = flow_from_config({"name": "trivial", "space": {"kind": "finite_set", "points": [[0.0], [1.0]]}})
    assert h.name == "trivial"
    s = flow_from_config({"name": "suspension_doubling"})
    assert s.forward_only
    with pytest.raises(FlowError):
        flow_from_config({"name": "lorenz"})


@pytest.mark.parametrize("cfg, error, named", [
    ({"name": "circles", "famliy": "harmonic"}, FlowError, "'famliy'"),
    ({"name": "interval", "lamda": 3}, FlowError, "'lamda'"),
    ({"name": "suspension_doubling", "depth": 2, "radii": [1.0]}, FlowError, "'depth', 'radii'"),
    ({"name": "interval", "lambda": "3"}, FlowError, "lambda"),
    ({"name": "circles", "family": "harmonc"}, SpaceError, "'harmonc'"),
    ({"name": "circles", "depth": -1}, SpaceError, "depth"),
    ({"name": "trivial", "space": {"kind": "interval01", "radii": [1.0]}}, SpaceError, "'radii'"),
])
def test_flow_from_config_rejects_bad_keys(cfg, error, named):
    with pytest.raises(error, match=named):
        flow_from_config(cfg)
