import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanse.flows import (
    FLOW_KEYS,
    FlowError,
    _rotation_eval,
    field_norm,
    flow_from_config,
    integrate_flow,
    interval_flow,
    interval_flow_transit_time,
    min_orbit_diameter,
    rotation_flow,
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

def interval_flow_eval(lam, t, x):
    """phi_t(x) of interval_flow(lam) at one point of [0, 1], as a float."""
    return float(interval_flow(lam).evaluate(t, np.array([x]))[0])


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
@example(0.9999989999999999, 0.999999, 2.0)  # both images are 0.9999998646645998
@example(0.08564999584529007, 0.08564999584529008, 2.7631322762698964)  # swapped by 1 ulp
def test_interval_monotone_in_x(x, y, t):
    lo, hi = min(x, y), max(x, y)
    f_lo, f_hi = interval_flow_eval(1.0, t, lo), interval_flow_eval(1.0, t, hi)
    # each image is rounded a few times, so images of close inputs may tie
    # or swap by a few ulps
    slack = 8 * math.ulp(max(f_lo, f_hi))
    assert f_lo <= f_hi + slack
    # the derivative e/(1 + x(e - 1))^2 is monotone in x: its least value on
    # [lo, hi] is at an end, and the exact images lie at least that far apart
    e = math.exp(t)
    gap = min(e / (1.0 + v * (e - 1.0)) ** 2 for v in (lo, hi)) * (hi - lo)
    if gap > 2 * slack:
        assert f_lo < f_hi


# ---------------------------------------------------------------- rotation

def test_rotation_period_and_identity():
    z = np.array([math.exp(-1), 0.0])
    assert np.allclose(_rotation_eval(2.0 * math.pi, z), z, atol=1e-12)
    assert np.allclose(_rotation_eval(0.0, z), z, atol=0)


def test_rotation_quarter_turn_vs_rk4():
    z = np.array([math.exp(-1), 0.0])
    got = _rotation_eval(math.pi / 2.0, z)
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
        d1 = sp.distance(_rotation_eval(t, z), _rotation_eval(t, w))
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
    with pytest.raises(FlowError):
        integrate_flow(logistic, np.array([0.1, -1e6]), np.array([[0.5], [0.5]]), 1e-6)


@pytest.mark.parametrize("call, named", [
    # an infinite step used to return a sample whose window_T and times were NaN
    (lambda: sample_orbit(interval_flow(1.0), [0.3], 1.0, math.inf), "h"),
    (lambda: sample_orbit(interval_flow(1.0), [0.3], math.nan, 0.1), "T"),
    (lambda: sample_orbit(interval_flow(1.0), [0.3], 1.0, 0.0), "h"),
    (lambda: integrate_flow(logistic, 1.0, np.array([0.5]), math.nan), "step"),
    (lambda: integrate_flow(logistic, 1.0, np.array([0.5]), 0.0), "step"),
], ids=["sample-h-inf", "sample-T-nan", "sample-h-zero", "rk4-step-nan", "rk4-step-zero"])
def test_sampling_refuses_bad_scales(call, named):
    with pytest.raises(FlowError, match=f"^{named} must be a finite number > 0, got "):
        call()


def test_integrate_per_row_times():
    x = np.array([[1.0 / 3.0, 0.0], [0.0, 0.5], [0.2, 0.1], [0.3, 0.4]])
    t = np.array([1.5, -1.5, 1.5, 0.0])
    out = integrate_flow(rotation_field, t, x, 1e-3)
    # rows with |t| = max |t| take the scalar call's steps, so their bits match
    for i in range(3):
        assert np.array_equal(out[i], integrate_flow(rotation_field, t[i], x[i], 1e-3))
    assert np.array_equal(out[3], x[3])
    # a shorter time takes more, smaller steps than its own scalar call
    short = integrate_flow(rotation_field, np.array([1.5, 0.4]), x[:2], 1e-3)[1]
    assert np.allclose(short, _rotation_eval(0.4, x[1]), atol=1e-12)


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
    xs, ts = [], []
    for x in pts:
        for _ in range(4):
            xs.append(x)
            ts.append(rng.uniform(-10, 10))
    closed = np.array([flow.evaluate(t, x) for t, x in zip(ts, xs)])
    # one RK4 loop for all 4 x |pts| target times
    rk4 = integrate_flow(flow.vector_field, np.array(ts), np.array(xs), 1e-4)
    assert rk4.shape == closed.shape
    assert (flow.space.distance(closed, rk4) <= 1e-6).all()


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
    assert flow.singular.distances(s.points) == pytest.approx([1.0 / 3.0, 0.5, 1.0 / 3.0],
                                                             abs=1e-12)


def test_sample_orbit_rotation_antipodal():
    flow = rotation_flow(CircleUnion(exp_radii(2)))
    r = math.exp(-1)
    s = sample_orbit(flow, np.array([r, 0.0]), T=2 * math.pi, h=math.pi)
    xs = s.points[:, 0]
    assert xs == pytest.approx([r, -r, r, -r, r], abs=1e-12)
    assert field_norm(flow, s.points) == pytest.approx([r] * 5, abs=1e-15)


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
    assert field_norm(suspension_doubling(), np.array([0.1, 0.1])) == 1.0


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
    assert f.name == "interval" and f.lipschitz_L == 1.0
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


@pytest.mark.parametrize("cfg", [{"name": name} for name in FLOW_KEYS]
                         + [{"name": "interval", "lambda": 0.0}])
def test_every_config_flow_has_orbit_times(cfg):
    flow = flow_from_config(cfg)  # interval at lambda 0 is the trivial flow
    assert flow.orbit_times is not None


CONTRACT_FLOWS = [{"name": name} for name in FLOW_KEYS] + [
    {"name": "interval", "lambda": 0.0}, {"name": "interval", "lambda": -2.0}]


@pytest.mark.parametrize("cfg", CONTRACT_FLOWS, ids=lambda c: "-".join(map(str, c.values())))
def test_flow_contract_oracle(cfg):
    # |V(x) - V(y)| <= lipschitz_L d(x, y) on grid pairs, and V = 0 on Sing
    flow = flow_from_config(cfg)
    pts = np.array(flow.space.grid(16))
    v = np.asarray(flow.vector_field(pts), dtype=float)
    dv = np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(-1))
    d = flow.space.distance(pts[:, None, :], pts[None, :, :])
    assert (dv <= flow.lipschitz_L * d * (1.0 + 1e-12)).all()
    for p in flow.singular.points:
        assert field_norm(flow, np.array(p)) == 0.0


@pytest.mark.parametrize("field, value", [("evaluate_fn", None), ("vector_field", None),
                                          ("orbit_times", None), ("lipschitz_L", None),
                                          ("lipschitz_L", -1.0), ("lipschitz_L", math.inf),
                                          ("lipschitz_L", math.nan)])
def test_flow_construction_refuses_broken_contract(field, value):
    with pytest.raises(FlowError, match=f"forged: {field}"):
        dataclasses.replace(interval_flow(1.0), name="forged", **{field: value})


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
