import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanse import entropy, spaces
from expanse.entropy import (
    EntropyError,
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
from expanse.spaces import (
    CircleUnion,
    FiniteSet,
    Interval01,
    Space,
    SpaceError,
    Torus2,
    as_coords,
    exp_radii,
)


def section_grid(m):
    return [np.array([k / m, 0.5]) for k in range(m)]


@pytest.fixture(scope="module")
def exp_rot():
    return rotation_flow(CircleUnion(exp_radii(8)))


# ------------------------------------------------------------ bowen balls

def bowen_ball_test(flow, x, y, t, eps, h_sample=0.05):
    """Sampled max of d(phi_s x, phi_s y) over s in [0, t] is <= eps: one cover cell."""
    return bool(entropy._bowen_covers(flow, [x, y], [t], [eps], h_sample)[(t, eps)][0, 1])

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
    cover = entropy._bowen_covers(flow, grid, [2.0], [0.5], 0.05)[(2.0, 0.5)]
    exact = entropy._exact_minimum_cover(cover)
    greedy = entropy._greedy_cover(cover, cover)  # a Bowen cover is its own transpose
    assert len(exact) <= len(greedy)
    est = spanning_cardinality(flow, grid, 2.0, 0.5)
    assert (est.cardinality, est.method) == (len(exact), "exact_small")
    # every grid point inside some Bowen ball of each chosen set
    for chosen in (exact, greedy):
        for p in grid:
            assert any(bowen_ball_test(flow, grid[c], p, 2.0, 0.5) for c in chosen)


def bowen_matrices_reference(flow, pts, t_ladder, h_sample):
    # the earlier full-matrix loop, kept verbatim as the oracle for the live-pair sweep
    pts = np.array([as_coords(p) for p in pts])
    m = pts.shape[0]
    t_ladder = sorted(t_ladder)
    ts = entropy._forward_times(t_ladder[-1], h_sample)
    orbits = np.stack([flow.evaluate(ts, p) for p in pts])  # (m, n_t, d)
    out = {}
    running = np.zeros((m, m))
    next_cp = 0
    for j in range(len(ts)):
        snap = orbits[:, j, :]
        d = flow.space.distance(snap[:, None, :], snap[None, :, :])
        np.maximum(running, d, out=running)
        while next_cp < len(t_ladder) and ts[j] >= t_ladder[next_cp] - 1e-12:
            out[t_ladder[next_cp]] = running.copy()
            next_cp += 1
    return out


def attained_eps(want, count=4):
    # distances the reference attains, so some pairs sit exactly at eps
    vals = np.unique(np.concatenate([mat.ravel() for mat in want.values()]))
    return sorted({float(vals[k * (len(vals) - 1) // (count - 1)]) for k in range(count)})


def assert_covers_match(flow, grid, t_ladder, eps_ladder, h_sample, want):
    got = entropy._bowen_covers(flow, grid, t_ladder, eps_ladder, h_sample)
    assert set(got) == {(t, e) for t in t_ladder for e in eps_ladder}
    for (t, e), cover in got.items():
        assert cover.dtype == bool and cover.shape == (len(grid), len(grid))
        assert np.array_equal(cover, want[t] <= e), (t, e)
        assert np.array_equal(cover, cover.T), (t, e)  # _min_cover relies on it


def offgrid_section(m):
    return [np.array([k / m + 1 / 3, 0.25]) for k in range(m)]


BOWEN_CASES = {
    **{f"doubling-{m}": (suspension_doubling, lambda m=m: section_grid(m), [2.0, 3.0, 4.0])
       for m in (1, 127, 128, 129, 300)},
    "doubling-offgrid": (suspension_doubling, lambda: offgrid_section(64), [0.5, 1.7]),
    "doubling-offgrid-16": (suspension_doubling, lambda: offgrid_section(16), [0.5, 1.7]),
    "circles-exp4": (lambda: rotation_flow(CircleUnion(exp_radii(4))),
                     lambda: CircleUnion(exp_radii(4)).grid(40), [1.0, 2.5]),
    "interval": (lambda: interval_flow(1.0), lambda: Interval01().grid(200), [1.0, 2.0, 3.0]),
}


# every case at the default block; blocks of 1 and 7 pairs, which split rows,
# only where their per-block calls stay cheap
@pytest.mark.parametrize("case, pair_block", [
    *[pytest.param(case, entropy._PAIR_BLOCK, id=case) for case in BOWEN_CASES],
    *[pytest.param(case, b, id=f"{case}-block{b}")
      for case in ("doubling-1", "doubling-offgrid-16") for b in (1, 7)],
])
def test_bowen_matrices_match_full_matrix_reference(case, pair_block, monkeypatch):
    # the Bowen covers equal the full running-max matrices thresholded at each eps
    make_flow, make_grid, t_ladder = BOWEN_CASES[case]
    flow, grid = make_flow(), make_grid()
    monkeypatch.setattr(entropy, "_PAIR_BLOCK", pair_block)
    want = bowen_matrices_reference(flow, grid, t_ladder, 0.05)
    eps_ladder = attained_eps(want)
    assert_covers_match(flow, grid, t_ladder, eps_ladder, 0.05, want)
    # a lower largest eps drops pairs step by step, so the live set shrinks across blocks
    assert_covers_match(flow, grid, t_ladder, eps_ladder[:2], 0.05, want)
    # an eps above the diameter keeps every pair live to the end
    above = flow.space.diameter + 0.1
    assert_covers_match(flow, grid, t_ladder, eps_ladder + [above], 0.05, want)
    assert entropy._bowen_covers(flow, grid, t_ladder, [above], 0.05)[
        (t_ladder[-1], above)].all()


SPACE_FLOWS = {
    Interval01: lambda: interval_flow(1.0),
    CircleUnion: lambda: rotation_flow(CircleUnion(exp_radii(3))),
    Torus2: suspension_doubling,
    FiniteSet: lambda: trivial_flow(FiniteSet([[0.0, 0.0], [0.3, 0.4], [1.0, 0.0],
                                              [0.3, -0.4], [0.6, 0.8]])),
}


def test_cover_property_test_reaches_every_space():
    defined = {cls for cls in vars(spaces).values()
               if isinstance(cls, type) and issubclass(cls, Space) and cls is not Space}
    assert defined == set(SPACE_FLOWS)


@settings(max_examples=150, deadline=None)
@given(space_cls=st.sampled_from(sorted(SPACE_FLOWS, key=lambda c: c.__name__)),
       m=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1),
       t_ladder=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
       h_sample=st.sampled_from([0.05, 0.1, 0.37]),
       n_attained=st.integers(0, 3),
       free_eps=st.lists(st.floats(0.0, 1.5), max_size=2))
def test_bowen_covers_match_dense_threshold_in_every_space(
        space_cls, m, seed, t_ladder, h_sample, n_attained, free_eps):
    flow = SPACE_FLOWS[space_cls]()
    rng = np.random.default_rng(seed)
    grid = [flow.space.random_point(rng) for _ in range(m)]
    if space_cls is CircleUnion and rng.random() < 0.5:
        grid[0] = np.zeros(2)  # the origin
    want = bowen_matrices_reference(flow, grid, t_ladder, h_sample)
    vals = np.unique(np.concatenate([mat.ravel() for mat in want.values()]))
    eps_ladder = [float(v) for v in rng.choice(vals, size=n_attained)] + free_eps
    if not eps_ladder:
        eps_ladder = [float(vals[-1])]
    assert_covers_match(flow, grid, sorted(set(t_ladder)), sorted(set(eps_ladder)),
                        h_sample, want)


def exact_cover_reference(cover):
    # the earlier exhaustive scan: first covering combination of the smallest size
    m = cover.shape[0]
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            if cover[list(combo)].any(axis=0).all():
                return list(combo)
    raise AssertionError("unreachable: full set always covers")


@st.composite
def cover_matrices(draw):
    m = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cover = rng.random((m, m)) < density
    if draw(st.booleans()):
        cover |= cover.T  # Bowen covers are symmetric; the search must not rely on it
    np.fill_diagonal(cover, True)
    return cover


@settings(max_examples=400, deadline=None)
@given(cover_matrices())
def test_exact_cover_matches_itertools_reference(cover):
    assert entropy._exact_minimum_cover(cover) == exact_cover_reference(cover)


def test_exact_cover_matches_reference_on_doubling_sections():
    flow = suspension_doubling()
    for m, t, eps in ((12, 2.0, 0.25), (20, 1.0, 0.3), (20, 2.0, 0.3)):  # r = 12, 4, 7
        cover = entropy._bowen_covers(flow, section_grid(m), [t], [eps], 0.05)[(t, eps)]
        assert entropy._exact_minimum_cover(cover) == exact_cover_reference(cover)


def greedy_cover_reference(cover: np.ndarray) -> list:
    """Greedy set cover on a boolean centers-by-points matrix; ties go low."""
    # the earlier recount loop, kept verbatim as the oracle for the incremental greedy
    m = cover.shape[0]
    uncovered = np.ones(m, dtype=bool)
    chosen = []
    while uncovered.any():
        counts = (cover & uncovered[None, :]).sum(axis=1)
        c = int(np.argmax(counts))
        if counts[c] == 0:
            raise EntropyError("grid point not coverable (should cover itself)")
        chosen.append(c)
        uncovered &= ~cover[c]
    return chosen


@st.composite
def tied_cover_matrices(draw):
    # rows drawn from a few patterns, so many centres tie on their counts
    m = draw(st.integers(1, 60))
    n_patterns = draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cover = (rng.random((n_patterns, m)) < density)[rng.integers(0, n_patterns, m)]
    if draw(st.booleans()):
        cover |= cover.T
    np.fill_diagonal(cover, True)
    return cover


@settings(max_examples=300, deadline=None)
@given(st.one_of(cover_matrices(), tied_cover_matrices()))
def test_greedy_cover_matches_recount_reference(cover):
    assert entropy._greedy_cover(cover, cover.T) == greedy_cover_reference(cover)


def test_greedy_cover_rejects_uncoverable_point():
    cover = np.eye(4, dtype=bool)
    cover[2, 2] = False
    with pytest.raises(EntropyError, match="not coverable"):
        entropy._greedy_cover(cover, cover.T)


def test_greedy_cover_rejects_covered_by_out_of_step():
    # a non-symmetric cover passed as its own covered_by: the counts go wrong and
    # centre 0 is picked again, covering nothing new
    cover = np.array([[1, 0, 1], [0, 1, 1], [0, 1, 1]], dtype=bool)
    assert entropy._greedy_cover(cover, cover.T) == greedy_cover_reference(cover)
    with pytest.raises(EntropyError, match="not the transpose"):
        entropy._greedy_cover(cover, cover)


def test_entropy_estimate_verifies_cover(monkeypatch):
    flow = suspension_doubling()
    grid = section_grid(32)  # over EXACT_SMALL_LIMIT, so the greedy cover runs
    entropy_estimate(flow, grid, [1.0, 2.0], [0.25])
    monkeypatch.setattr(entropy, "_greedy_cover", lambda cover, covered_by: [0])
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


def test_spanning_matches_entropy_ladder_cells():
    # a single-eps sweep and the ladder sweep prune at different eps; r must agree
    flow = suspension_doubling()
    grid = section_grid(256)
    est = entropy_estimate(flow, grid, [2.0, 3.0, 4.0], [0.25, 0.2])
    for t, eps, r in est.r_table:
        assert spanning_cardinality(flow, grid, t, eps).cardinality == r


@pytest.mark.parametrize("run, match", [
    (lambda f, g: entropy_estimate(f, g, [1.0, 2.0], []), "empty eps ladder"),
    (lambda f, g: h_star_estimate(f, [0.1], [1.0, 2.0], [], grid=g), "empty eps ladder"),
    (lambda f, g: entropy_estimate(f, g, [1.0, 2.0], [0.1, -0.1]), r"eps .* got -0\.1"),
    (lambda f, g: spanning_cardinality(f, g, 1.0, -0.1), r"eps .* got -0\.1"),
    (lambda f, g: h_star_estimate(f, [0.1], [1.0, 2.0], [-0.1], grid=g), r"eps .* got -0\.1"),
    (lambda f, g: entropy_estimate(f, g, [1.0, 2.0], [0.1], h_sample=0), "h_sample .* got 0"),
    (lambda f, g: spanning_cardinality(f, g, 1.0, 0.1, h_sample=0), "h_sample .* got 0"),
    (lambda f, g: h_star_estimate(f, [0.1], [1.0, 2.0], [0.1], grid=g, h_sample=0),
     "h_sample .* got 0"),
    (lambda f, g: entropy_estimate(f, g, [1.0, 2.0], [0.1], h_sample=math.nan),
     "h_sample .* got nan"),
    (lambda f, g: spanning_cardinality(f, g, 1.0, 0.1, h_sample=math.nan),
     "h_sample .* got nan"),
    (lambda f, g: spanning_cardinality(f, g, -1.0, 0.1), r"t must .* got -1\.0"),
    (lambda f, g: entropy_estimate(f, g, [-1.0, 2.0], [0.1]), r"t must .* got -1\.0"),
    (lambda f, g: h_star_estimate(f, [], [1.0, 2.0], [0.1], grid=g), "empty delta ladder"),
    # a NaN eps used to fail every comparison and answer False
    (lambda f, g: spanning_cardinality(f, g, 1.0, math.nan), "eps .* got nan"),
    (lambda f, g: x_delta_set(f, 0.1, grid=g, T_escape=math.nan), "T_escape .* got nan"),
    # a repeated time used to count twice and fit a slope to one distinct time
    (lambda f, g: entropy_estimate(f, g, [2.0, 2.0], [0.25]), "t_ladder"),
], ids=["empty-eps", "hstar-empty-eps", "negative-eps", "spanning-negative-eps",
        "hstar-negative-eps", "h-zero", "spanning-h-zero", "hstar-h-zero", "h-nan",
        "spanning-h-nan", "spanning-negative-t", "negative-t", "hstar-empty-delta",
        "spanning-eps-nan", "xdelta-T-escape-nan", "repeated-t"])
def test_bad_inputs_fail_fast(run, match):
    # the interval flow's X_delta grids are all empty, so h_star_estimate must
    # reject its ladders before it would return an all-empty estimate
    flow = interval_flow(1.0)
    with pytest.raises(EntropyError, match=match):
        run(flow, flow.space.grid(32))


def test_spanning_empty_grid():
    with pytest.raises(EntropyError):
        spanning_cardinality(interval_flow(1.0), [], 1.0, 0.1)


@pytest.mark.parametrize("flow, grid", [
    (interval_flow(1.0), [[5.0], [7.0]]),
    (trivial_flow(FiniteSet([[0.0], [1.0]])), [[0.1, 0.2]]),
])
def test_grid_off_space_rejected(flow, grid):
    with pytest.raises(SpaceError, match="not in"):
        spanning_cardinality(flow, grid, 1.0, 0.1)
    with pytest.raises(SpaceError, match="not in"):
        entropy_estimate(flow, grid, [1.0, 2.0], [0.1])


@pytest.mark.parametrize("run", [
    lambda flow, grid: x_delta_set(flow, 0.2, grid=grid, T_escape=2.0),
    lambda flow, grid: h_star_estimate(flow, [0.2], [1.0, 2.0], [0.1], grid=grid,
                                       T_escape=2.0),
], ids=["x_delta_set", "h_star_estimate"])
def test_x_delta_grid_off_space_rejected(run):
    # x_delta_set used to keep (5, 0), which lies on no circle of exp(4)
    with pytest.raises(SpaceError, match=r"\(5\.0, 0\.0\) not in"):
        run(rotation_flow(CircleUnion(exp_radii(4))), [[1.0, 0.0], [5.0, 0.0]])


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


def test_x_delta_empty_singular_set_keeps_the_grid(monkeypatch):
    # the doubling suspension has no singular point: dist(., Sing) is the
    # diameter everywhere, so no orbit is sampled
    flow = suspension_doubling()
    monkeypatch.setattr(entropy, "sample_orbit", None)
    kept = x_delta_set(flow, 0.5)
    assert [p.tolist() for p in kept] == [p.tolist() for p in flow.space.grid(64)]
    assert x_delta_set(flow, flow.space.diameter * (1.0 + 1e-12)) == []


def test_x_delta_validation(exp_rot):
    with pytest.raises(EntropyError):
        x_delta_set(exp_rot, 0.0)


def test_x_delta_rejects_nan_delta(exp_rot):
    # NaN fails every comparison, so it used to pass the delta <= 0 check and keep nothing
    with pytest.raises(EntropyError, match="delta must be a finite number > 0, got nan"):
        x_delta_set(exp_rot, math.nan)


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
