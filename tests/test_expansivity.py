import functools
import gc
import math
import re
import weakref

import numpy as np
import pytest

from expanse import alignment, expansivity
from expanse.expansivity import (
    ExpansivityError,
    ball_inclusion_check,
    check_equicontinuity,
    check_property,
    comparability_constants,
    default_pair_grid,
    delta_star,
    hierarchy_check,
    local_norm_constant,
    return_time_bound_check,
)
from expanse.alignment import recompute_cost
from expanse.flows import interval_flow, rotation_flow, sample_orbit, trivial_flow
from expanse.spaces import CircleUnion, FiniteSet, SpaceError, exp_radii, harmonic_radii

FAST = dict(T=6.0, h=0.05, band_width=1.0)


@pytest.fixture(scope="module")
def harmonic_rot():
    return rotation_flow(CircleUnion(harmonic_radii(16)))


@pytest.fixture(scope="module")
def exp_rot():
    return rotation_flow(CircleUnion(exp_radii(8)))


# ------------------------------------------------------- check_property

def test_gabi_singular_expansive_falsified(harmonic_rot):
    rep = check_property(harmonic_rot, "singular_expansive", eps=1.0, delta=0.1, **FAST)
    assert rep.verdict == "falsified"
    rx = math.hypot(*rep.witness.x.coords)
    ry = math.hypot(*rep.witness.y.coords)
    n = round(1.0 / rx)
    assert n >= 9
    assert ry == pytest.approx(1.0 / (n + 1), abs=1e-12)
    assert rep.witness.alignment.cost <= 0.1 + 1e-9


def test_insure_singular_expansive_certified(exp_rot):
    # adjacent-circle weighted ratio is 1 - 1/e ~ 0.632 for every n,
    # so delta below that admits no hypothesis pair off the diagonal
    rep = check_property(exp_rot, "singular_expansive", eps=0.5, delta=0.45, **FAST)
    assert rep.verdict == "certified_at_scale"


def test_insure_expansive_falsified_small_circles(exp_rot):
    # circles accumulate at the origin, so unit-weight closeness is cheap
    rep = check_property(exp_rot, "expansive", eps=0.5, delta=0.05, **FAST)
    assert rep.verdict == "falsified"


def test_trivial_two_point_expansive_certified():
    flow = trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]]))
    rep = check_property(flow, "expansive", eps=1.0, delta=0.5, **FAST)
    assert rep.verdict == "certified_at_scale"


def test_rescaling_same_orbit_pairs_pass(harmonic_rot):
    pairs = [
        (np.array([0.5, 0.0]), harmonic_rot.evaluate(0.5, np.array([0.5, 0.0]))),
        (np.array([1.0, 0.0]), np.array([1.0, 0.0])),
    ]
    rep = check_property(harmonic_rot, "rescaling", eps=1.0, delta=0.3,
                         pair_grid=pairs, **FAST)
    assert rep.verdict == "certified_at_scale"
    assert rep.stats["pairs_below_delta"] == 2


def test_falsified_witness_is_reproducible(harmonic_rot):
    rep = check_property(harmonic_rot, "singular_expansive", eps=1.0, delta=0.1, **FAST)
    w = rep.witness
    cost, _ = recompute_cost(harmonic_rot, w.x.vec, w.y.vec,
                             np.arange(-120, 121) * 0.05,
                             w.alignment.reparam, "sing_dist")
    assert cost == pytest.approx(w.alignment.cost, abs=1e-9)


def test_check_property_budget_inconclusive(harmonic_rot):
    rep = check_property(harmonic_rot, "singular_expansive", eps=1.0, delta=1e-6,
                         max_pairs=3, **FAST)
    assert rep.verdict == "inconclusive"
    assert rep.stats["pairs_checked"] == 3
    # an isometry never separates the pairs, so only the budget stops the scan
    pairs = [(np.array([0.5, 0.0]), 0.5 * np.array([math.cos(0.02 * k), math.sin(0.02 * k)]))
             for k in (1, 2, 3)]
    equi = check_equicontinuity(harmonic_rot, False, eps=0.1, delta=0.05,
                                pair_grid=pairs, T=6.0, h=0.05, max_pairs=2)
    assert equi.verdict == "inconclusive"
    assert equi.stats["pairs_checked"] == 2
    for bad in ("3", -1, 0, True, 2.5):
        with pytest.raises(ExpansivityError, match="max_pairs"):
            check_property(harmonic_rot, "singular_expansive", eps=1.0, delta=1e-6,
                           max_pairs=bad, **FAST)
        with pytest.raises(ExpansivityError, match="max_pairs"):
            check_equicontinuity(harmonic_rot, False, eps=0.1, delta=0.05,
                                 pair_grid=pairs, T=6.0, h=0.05, max_pairs=bad)


def _bad_scale_cases():
    flow = interval_flow(1.0)
    pairs = [(np.array([0.3]), np.array([0.31]))]
    drivers = {
        "check_property": lambda eps, delta, **kw: check_property(
            flow, "kstar", eps, delta, pairs, **{**FAST, **kw}),
        "check_equicontinuity": lambda eps, delta, **kw: check_equicontinuity(
            flow, False, eps, delta, pairs, **{"T": 6.0, "h": 0.05, **kw}),
        "ball_inclusion_check": lambda eps, delta, **kw: ball_inclusion_check(
            flow, eps, delta, **kw),
        "delta_star": lambda eps, delta, **kw: delta_star(
            flow, "kstar", [eps], pairs, **{**FAST, **kw}),
        "hierarchy_check": lambda eps, delta, **kw: hierarchy_check(
            flow, pairs, delta, **{**FAST, **kw}),
    }
    reads = {"delta_star": ("eps",), "hierarchy_check": ("delta",)}
    # the scale arguments each driver takes besides eps and delta
    scale_reads = {"check_property": ("T", "h", "band_width", "t0_step"),
                   "check_equicontinuity": ("T", "h"),
                   "delta_star": ("T", "h", "band_width", "t0_step"),
                   "hierarchy_check": ("T", "h", "band_width")}
    for driver, call in drivers.items():
        for name in reads.get(driver, ("eps", "delta")):
            for bad in (math.nan, math.inf, 0.0, -0.5):
                scales = {"eps": 0.5, "delta": 0.1, name: bad}
                yield pytest.param(functools.partial(call, **scales),
                                   rf"{name}\S* must .*, got {re.escape(repr(bad))}$",
                                   id=f"{driver}-{name}-{bad}")
        for name in scale_reads.get(driver, ()):
            for bad in (math.nan, math.inf, 0.0):
                yield pytest.param(functools.partial(call, 0.5, 0.1, **{name: bad}),
                                   rf"^{name} must .*, got {re.escape(repr(bad))}$",
                                   id=f"{driver}-{name}-{bad}")
    yield pytest.param(functools.partial(drivers["ball_inclusion_check"], 0.5, 0.1,
                                         ball_samples=0),
                       r"^ball_samples must be an integer >= 1, got 0$",
                       id="ball_inclusion_check-ball_samples-0")
    # a negative window used to fail only in Reparam: "knots must be strictly increasing"
    yield pytest.param(functools.partial(drivers["check_equicontinuity"], 0.5, 0.1, T=-1),
                       r"^T must .*, got -1$", id="check_equicontinuity-T--1")
    yield pytest.param(lambda: delta_star(flow, "kstar", []), "eps_values is empty",
                       id="delta_star-no-eps")


@pytest.mark.parametrize("call, message", _bad_scale_cases())
def test_drivers_reject_bad_eps_and_delta(monkeypatch, call, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an orbit was sampled")

    monkeypatch.setattr(expansivity, "sample_orbit", no_sampling)
    with pytest.raises(ExpansivityError, match=message):
        call()


def test_check_property_validation(harmonic_rot):
    with pytest.raises(ExpansivityError):
        check_property(harmonic_rot, "bogus", 1.0, 0.1)
    with pytest.raises(ExpansivityError):
        check_property(harmonic_rot, "kstar", -1.0, 0.1)


def test_strict_t0_flag(harmonic_rot):
    pairs = [(np.array([0.5, 0.0]), harmonic_rot.evaluate(0.3, np.array([0.5, 0.0])))]
    free = check_property(harmonic_rot, "singular_expansive", 1.0, 0.3,
                          pair_grid=pairs, **FAST)
    strict = check_property(harmonic_rot, "singular_expansive", 1.0, 0.3,
                            pair_grid=pairs, strict_t0=True, **FAST)
    assert free.verdict == "certified_at_scale"
    assert strict.verdict == "certified_at_scale"
    assert strict.scale["strict_t0"] is True


# ------------------------------------------------------ equicontinuity

@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_interval_plain_equicontinuity_falsified(delta):
    flow = interval_flow(1.0)
    rep = check_equicontinuity(flow, False, eps=0.1, delta=delta, T=20.0, h=0.01)
    assert rep.verdict == "falsified"
    w = rep.witness
    assert w.alignment.cost >= 0.1
    # witness separation re-derived by dense time sampling
    ts = np.linspace(-20, 20, 80001)
    sep = np.abs(flow.evaluate(ts, w.x.vec)[:, 0] - flow.evaluate(ts, w.y.vec)[:, 0])
    assert sep.max() >= 0.1


def test_interval_singular_equicontinuity_certified():
    flow = interval_flow(1.0)
    rep = check_equicontinuity(flow, True, eps=0.85, delta=0.4, T=20.0, h=0.01)
    assert rep.verdict == "certified_at_scale"
    # the analytic route: transit times stay below ln(1.4/0.6) <= 0.85
    assert math.log(1.4 / 0.6) <= 0.85


def test_rotation_plain_equicontinuity_certified(exp_rot):
    rep = check_equicontinuity(exp_rot, False, eps=0.25, delta=0.25, T=10.0, h=0.05)
    assert rep.verdict == "certified_at_scale"


def test_trivial_flow_singular_equicontinuous():
    flow = trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]]))
    rep = check_equicontinuity(flow, True, eps=0.5, delta=0.9, T=5.0, h=0.5)
    assert rep.verdict == "certified_at_scale"


# ------------------------------------------------------- ball inclusion

def test_ball_inclusion_certified_085():
    flow = interval_flow(1.0)
    rep = ball_inclusion_check(flow, eps=0.85, delta=0.4,
                               x_grid=flow.space.grid(200), ball_samples=50)
    assert rep.verdict == "certified_at_scale"
    assert rep.stats["max_transit_time"] <= 0.85 + 1e-9
    assert rep.stats["max_transit_time"] == pytest.approx(
        math.log(1.4 / 0.6), abs=5e-3)


def test_ball_inclusion_falsified_05():
    flow = interval_flow(1.0)
    rep = ball_inclusion_check(flow, eps=0.5, delta=0.4,
                               x_grid=flow.space.grid(200), ball_samples=50)
    assert rep.verdict == "falsified"
    assert rep.witness.alignment.cost > 0.5


def test_ball_inclusion_center_is_trivial():
    flow = interval_flow(1.0)
    # y = x transits in time 0; the x = 1/2 ball needs ln(1.1/0.9) ~ 0.2007
    assert list(flow.orbit_times(np.array([0.5]), np.array([0.5]), -1.0, 1.0)) == [0.0]
    rep = ball_inclusion_check(flow, eps=0.25, delta=0.1,
                               x_grid=[np.array([0.5])], ball_samples=3)
    assert rep.verdict == "certified_at_scale"
    assert rep.stats["max_transit_time"] == pytest.approx(
        math.log(1.1 / 0.9), abs=1e-12)


def test_ball_inclusion_validation(harmonic_rot):
    flow = interval_flow(1.0)
    with pytest.raises(ExpansivityError):
        ball_inclusion_check(flow, eps=0.5, delta=0.7)
    with pytest.raises(ExpansivityError):
        ball_inclusion_check(harmonic_rot, eps=0.5, delta=0.4)


# ------------------------------------------------------------ constants

def dense_ratio_oracle():
    # dense-grid maximization of the closed-form ratios for the logistic field
    xs = np.unique(np.concatenate([np.linspace(1e-9, 1 - 1e-9, 2_000_001)]))
    v = xs * (1 - xs)
    dist = np.minimum(xs, 1 - xs)
    b = (v / dist).max()
    i = int(np.argmax(dist / v))
    return b, (dist / v)[i], xs[i]


def test_comparability_constants_logistic():
    B_or, C_or, argc_or = dense_ratio_oracle()
    rep = comparability_constants(interval_flow(1.0))
    assert rep.B == pytest.approx(1.0, abs=1e-3)
    assert rep.B <= B_or + 1e-12
    assert rep.C == pytest.approx(2.0, abs=1e-3)
    assert C_or == pytest.approx(2.0, abs=1e-6)
    assert rep.argmax_C[0] == pytest.approx(0.5, abs=1e-3)
    assert argc_or == pytest.approx(0.5, abs=1e-3)


def test_comparability_constants_rotation(exp_rot):
    rep = comparability_constants(exp_rot)
    assert rep.B == pytest.approx(1.0, abs=1e-6)
    assert rep.C == pytest.approx(1.0, abs=1e-6)
    assert not rep.degenerate


def test_weight_bridge_pointwise(exp_rot):
    # field_norm <= B * sing_dist and sing_dist <= C * field_norm on the grid
    rep = comparability_constants(exp_rot)
    pts = np.array([p for p in exp_rot.space.grid(8, with_origin=False)])
    v = exp_rot.vector_field(pts)
    norms = np.sqrt((v ** 2).sum(-1))
    dists = exp_rot.singular.distances(pts)
    assert (norms <= rep.B * dists + 1e-9).all()
    assert (dists <= rep.C * norms + 1e-9).all()


def test_local_norm_constant_logistic():
    c, info = local_norm_constant(interval_flow(1.0), n_pairs=2000)
    assert c == pytest.approx(0.25, abs=1e-12)
    assert info["halvings"] == 0


def test_local_norm_constant_rotation(exp_rot):
    c, info = local_norm_constant(exp_rot, n_pairs=2000)
    assert c == pytest.approx(0.25, abs=1e-12)
    assert info["halvings"] == 0


# ----------------------------------------------------------- return time

def test_return_time_bound_rotation_single_circle():
    flow = rotation_flow(CircleUnion([1.0]))
    rep = return_time_bound_check(flow, x_grid=[np.array([1.0, 0.0])],
                                  delta_grid=[0.05, 0.1, 0.2], r_hi=3.0)
    assert rep["violation"] is None
    assert rep["r0"] == 3.0


def test_return_time_bound_interval():
    flow = interval_flow(1.0)
    rep = return_time_bound_check(flow, x_grid=[np.array([0.5])],
                                  delta_grid=[0.05], r_hi=1.0)
    # monotone orbit: the only returns are the initial dwell, |t| < 3 delta
    assert rep["violation"] is None


def test_return_time_full_period_violates():
    # |t| near 2 pi returns to the chord ball, so r0 bisects below 2 pi
    flow = rotation_flow(CircleUnion([1.0]))
    rep = return_time_bound_check(flow, x_grid=[np.array([1.0, 0.0])],
                                  delta_grid=[0.1], r_hi=7.0)
    assert rep["violation"] is not None
    assert rep["r0"] < 2.0 * math.pi


def test_return_time_bound_rejects_off_space_grid():
    flow = rotation_flow(CircleUnion(exp_radii(4)))
    with pytest.raises(SpaceError, match=r"\(5\.0, 0\.0\) not in"):
        return_time_bound_check(flow, x_grid=[[5.0, 0.0]], delta_grid=[0.1])


# ------------------------------------------------------------ hierarchy

@pytest.mark.parametrize("make", [
    lambda: interval_flow(1.0),
    lambda: rotation_flow(CircleUnion(exp_radii(6))),
    lambda: rotation_flow(CircleUnion(harmonic_radii(6))),
    lambda: trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]])),
])
def test_hierarchy_implication_zero_violations(make):
    flow = make()
    rep = hierarchy_check(flow, delta=0.25, T=4.0, h=0.05, band_width=0.5)
    assert rep["violations"] == []
    assert rep["n_pairs"] > 0


def test_hierarchy_hypothesis_nonvacuous():
    flow = interval_flow(1.0)
    rep = hierarchy_check(flow, delta=0.25, T=4.0, h=0.05, band_width=0.5)
    diam = rep["diam"]
    assert any(cs <= 0.25 / diam for _, _, cs, _ in rep["pairs"])


def test_repeated_pairs_aligned_once(monkeypatch):
    flow = trivial_flow(FiniteSet([[0.0, 0.0], [1.0, 0.0]]))
    a, b = flow.space.grid()
    costed = []

    def counting_align_batch(orbit_pairs, weight_kind, *args, **kwargs):
        costed.extend((weight_kind, tuple(xs.base), tuple(ys.base))
                      for xs, ys in orbit_pairs)
        return alignment._align_batch(orbit_pairs, weight_kind, *args, **kwargs)

    monkeypatch.setattr(expansivity, "_align_batch", counting_align_batch)
    rep = hierarchy_check(flow, [(a, b), (b, b), (a, b)], delta=0.25,
                          T=1.0, h=0.05, band_width=0.5)
    # each distinct pair is costed once per weight kind
    assert sorted(costed) == sorted((w, tuple(x), tuple(y)) for w in ("sing_dist", "unit")
                                    for x, y in [(a, b), (b, b)])
    assert rep["pairs"][0] == rep["pairs"][2]


@pytest.mark.parametrize("batch", [1, 2, 10])
def test_scan_pairs_frees_each_sample_after_its_last_pair(batch):
    flow = rotation_flow(CircleUnion(harmonic_radii(4)))
    a, b, c, d = (flow.space.on_circle(i, 0.3 * i) for i in range(4))
    pairs = [(a, b), (a, c), (a, b), (b, c), (c, c), (a, b), (c, d)]
    keys = [(tuple(x), tuple(y)) for x, y in pairs]
    distinct = list(dict.fromkeys(keys))
    T, h = 1.0, 0.1
    refs, costed = {}, []

    def sup_gap(xs, ys):
        return float(flow.space.distance(xs.points, ys.points).max())

    def check_freed():
        # a sample is alive exactly while a distinct pair that needs it is uncosted
        gc.collect()
        for p, ref in refs.items():
            pending = any(p in key for key in distinct if key not in costed)
            assert (ref() is not None) == pending, p

    def cost(orbit_pairs):
        check_freed()
        for xs, ys in orbit_pairs:
            for s in (xs, ys):
                p = tuple(s.base)
                if p in refs:  # sampled once: the held sample comes back
                    assert refs[p]() is s
                refs[p] = weakref.ref(s)
            costed.append((tuple(xs.base), tuple(ys.base)))
        return [sup_gap(xs, ys) for xs, ys in orbit_pairs]

    out = []
    for x, y, c in expansivity._scan_pairs(flow, pairs, T, h, cost, batch):
        check_freed()
        out.append((tuple(x), tuple(y), c))
    assert costed == distinct  # a repeated pair is costed once, in first-listing order
    assert not any(ref() for ref in refs.values())
    assert out == [(*key, sup_gap(sample_orbit(flow, x, T, h), sample_orbit(flow, y, T, h)))
                   for key, (x, y) in zip(keys, pairs)]


def test_check_property_same_at_every_batch_size(monkeypatch):
    # criterion 1's falsification at a small scale: the witness is pair 97 of
    # 116; delta_star and hierarchy_check scan on the same batcher. Every
    # kernel call takes at most pairs_per_batch pairs, and no result moves
    flow = rotation_flow(CircleUnion(harmonic_radii(10)))
    T, h, band = 2.0, 0.05, 1.0
    cells = (2 * int(round(T / h)) + 1) * (2 * int(round(band / h)) + 1)
    n_pairs = len(default_pair_grid(flow, 0.1))
    sizes = []

    def sizing_align_batch(orbit_pairs, *args, **kwargs):
        sizes.append(len(orbit_pairs))
        return alignment._align_batch(orbit_pairs, *args, **kwargs)

    def witness(rep):
        w = rep.witness
        return (rep.verdict, rep.pair_costs, w.x, w.y, w.alignment.reparam.knots_t.tobytes(),
                w.alignment.reparam.knots_s.tobytes())

    drivers = {  # name: (run, what must not move)
        "check_property": (functools.partial(check_property, flow, "singular_expansive",
                                             eps=1.0, delta=0.1), witness),
        "delta_star": (functools.partial(delta_star, flow, "singular_expansive", [1.0, 0.5]),
                       list),
        "hierarchy_check": (functools.partial(hierarchy_check, flow, delta=0.1), dict),
    }
    monkeypatch.setattr(expansivity, "_align_batch", sizing_align_batch)
    for name, (run, kept) in drivers.items():
        outs = {}
        for per in (1, 3, n_pairs):
            monkeypatch.setattr(alignment, "BATCH_CELLS", per * cells)
            sizes.clear()
            outs[per] = kept(run(T=T, h=h, band_width=band))
            assert max(sizes) <= alignment.pairs_per_batch(T, h, band) == per, name
            assert max(sizes) == min(per, n_pairs), name  # the cap binds
        assert outs[1] == outs[3] == outs[n_pairs], name
        if name == "check_property":
            assert outs[1][0] == "falsified" and len(outs[1][1]) < n_pairs


# a pair off exp(4)'s circles, which every pair scan used to cost and certify
OFF_SPACE_PAIRS = [([5.0, 0.0], [5.0, 0.0005])]


@pytest.mark.parametrize("scan", [
    lambda flow: check_property(flow, "expansive", 0.1, 1e-3, OFF_SPACE_PAIRS,
                                T=2.0, h=0.1, band_width=0.5),
    lambda flow: check_equicontinuity(flow, False, 0.1, 1e-3, OFF_SPACE_PAIRS,
                                      T=2.0, h=0.1),
    lambda flow: hierarchy_check(flow, OFF_SPACE_PAIRS, T=2.0, h=0.1, band_width=0.5),
    lambda flow: delta_star(flow, "expansive", [0.1], OFF_SPACE_PAIRS,
                            T=2.0, h=0.1, band_width=0.5),
], ids=["check_property", "check_equicontinuity", "hierarchy_check", "delta_star"])
def test_pair_grid_off_space_rejected(scan):
    with pytest.raises(SpaceError, match=r"\(5\.0, 0\.0\) not in"):
        scan(rotation_flow(CircleUnion(exp_radii(4))))


# --------------------------------------------------------- delta search

def test_delta_star_unknown_property(harmonic_rot):
    with pytest.raises(ExpansivityError, match="unknown property: 'bogus'"):
        delta_star(harmonic_rot, "bogus", [1.0], **FAST)


def test_delta_star_curve_gabi(harmonic_rot):
    pairs = [(np.array([1.0 / n, 0.0]), np.array([1.0 / (n + 1), 0.0]))
             for n in (3, 9)]
    curve = delta_star(harmonic_rot, "singular_expansive", [1.0], pair_grid=pairs,
                       **FAST)
    (eps, d_star), = curve
    # smallest falsifying cost: ratio 1/(n+1) at n = 9
    assert d_star == pytest.approx(0.1, abs=1e-9)


def test_delta_star_does_not_depend_on_the_ladder():
    # each eps scans its own default grid: the interval's ladder [0.05, 0.5]
    # used to scan the grid of 0.05 for both and gave delta*(0.5) = 0.0631,
    # where [0.5] alone gives 0.25
    flow = interval_flow(1.0)
    scale = {"T": 2.0, "h": 0.05, "band_width": 0.5}
    ladder = [0.05, 0.5, 0.2]
    curve = delta_star(flow, "kstar", ladder, **scale)
    assert [eps for eps, _ in curve] == ladder
    for eps, d_star in curve:
        assert delta_star(flow, "kstar", [eps], **scale) == [(eps, d_star)]
    assert curve[1] == (0.5, 0.25)


def test_equicontinuity_implication_arithmetic(exp_rot):
    # pairs satisfying the singular hypothesis at delta/diam also satisfy
    # the plain hypothesis at delta (dist <= diam pointwise)
    delta = 0.3
    diam = exp_rot.space.diameter
    pts = exp_rot.space.grid(8)
    sing = exp_rot.singular
    for x in pts:
        for y in pts:
            d = float(exp_rot.space.distance(np.asarray(x), np.asarray(y)))
            if d <= (delta / diam) * float(sing.distances(np.asarray(x))):
                assert d <= delta
