import itertools
import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanse import alignment, shadowing
from expanse.alignment import rep_epsilon_check
from expanse.flows import (
    FlowModel,
    interval_flow,
    rotation_flow,
    suspension_doubling,
    trivial_flow,
)
from expanse.shadowing import (
    PseudoOrbit,
    ShadowingError,
    cumulative_clock,
    default_candidates,
    find_shadow,
    generate_pseudo_orbit,
)
from expanse.spaces import CircleUnion, Interval01, SpaceError, exp_radii, harmonic_radii


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


def _first_without_threshold(flow, po, eps):
    """Mode "first" as a scan of single-candidate "best" searches, which sweep every row."""
    for z in default_candidates(flow, po, eps):
        res = find_shadow(flow, po, eps, candidate_grid=[z], mode="best")
        if res.max_error <= eps:
            return res
    return None


def _interval_po(seed):
    return interval_flow(1.0), generate_pseudo_orbit(
        interval_flow(1.0), np.array([0.3]), 10, delta=1e-3, seed=seed)


def _exp4_po():
    flow = rotation_flow(CircleUnion(exp_radii(4)))
    return flow, generate_pseudo_orbit(flow, np.array([1.0, 0.0]), 6, 1e-3, seed=7)


def _drift_po():
    radii = [0.8 + 0.02 * k for k in range(11)]
    return rotation_flow(CircleUnion(radii)), radial_drift_po(radii)


def _digest(res):
    if res is None:
        return None
    return (res.shadow_point, res.max_error, res.per_segment_errors,
            res.reparam.knots_t.tolist(), res.reparam.knots_s.tolist())


# criterion 8's seeds 0 and 2 pass on their first candidate, 4 and 13 on their
# second, after the first is abandoned; every drift candidate is abandoned
@pytest.mark.parametrize("make, shadowed", [
    (lambda: _interval_po(0), True), (lambda: _interval_po(2), True),
    (lambda: _interval_po(4), True), (lambda: _interval_po(13), True),
    (_exp4_po, True), (_drift_po, False),
], ids=["interval-seed0", "interval-seed2", "interval-seed4", "interval-seed13",
        "exp4-seed7", "drift"])
def test_first_mode_threshold_keeps_results(make, shadowed):
    flow, po = make()
    res = find_shadow(flow, po, eps=0.05)
    assert (res is not None) == shadowed
    assert _digest(res) == _digest(_first_without_threshold(flow, po, 0.05))


# a side that fails is decided by the kernel's path pass at eps and never reaches
# its cost sweep: every drift candidate fails forward; interval seed 0's first candidate
# passes both sides; seed 4's first passes forward, fails backward, and its
# second passes both
@pytest.mark.parametrize("make, kernel_calls", [
    (_drift_po, 0), (lambda: _interval_po(0), 2), (lambda: _interval_po(4), 3),
], ids=["drift", "interval-seed0", "interval-seed4"])
def test_first_mode_runs_kernel_only_on_passing_sides(make, kernel_calls, monkeypatch):
    kernel, calls = shadowing._minimax_band_dp, []
    monkeypatch.setattr(shadowing, "_minimax_band_dp",
                        lambda *a, **kw: calls.append(1) or kernel(*a, **kw))
    flow, po = make()
    find_shadow(flow, po, eps=0.05)
    assert len(calls) == kernel_calls


# a drift candidate fails within a few hundred rows of its forward cone, so
# the search evaluates only the cells those rows read: the whole forward
# orbit of every candidate was 640,273 points
def test_drift_search_evaluates_only_the_cells_it_reads(monkeypatch):
    points, evaluate = [], FlowModel.evaluate

    def counted(self, t, x):
        out = evaluate(self, t, x)
        points.append(len(np.atleast_2d(out)))
        return out

    monkeypatch.setattr(FlowModel, "evaluate", counted)
    flow, po = _drift_po()
    assert find_shadow(flow, po, eps=0.05) is None
    assert sum(points) <= 640_273 // 2


@pytest.mark.parametrize("flow, z, m_lo", [
    (interval_flow(1.0), [0.3], -369), (interval_flow(2.5), [0.9], -369),
    (rotation_flow(CircleUnion(exp_radii(8))), [0.0, math.exp(-3)], -369),
    (rotation_flow(CircleUnion(harmonic_radii(16))), [-0.25, 0.0], -369),
    (trivial_flow(Interval01()), [0.7], -369), (suspension_doubling(), [0.3, 0.5], 0),
], ids=["interval", "interval-2.5", "exp8", "harmonic16", "trivial", "suspension-doubling"])
def test_orbit_cells_match_one_call(flow, z, m_lo):
    # a cone search evaluates its cells lazily, in whatever batches its rows
    # read (evaluate_fn is elementwise in t); backward cells are negated as
    # integers. Every batch gives the bytes of one two-sided call
    h_u, m_hi, q = 0.02 / 41, 1189, 41
    z = np.array(z)
    whole = flow.evaluate(np.arange(m_lo, m_hi + 1) * h_u, z)
    rng = np.random.default_rng(0)
    for sign, top in ((1, m_hi), (-1, -m_lo)):
        cells = np.arange(top + 1)
        for batch in (cells, cells[::-1], rng.permutation(cells), cells[::q], cells[5:6],
                      cells[top // 3:top // 2], rng.choice(cells, min(top + 1, 50))):
            got = flow.evaluate(sign * batch * h_u, z)
            assert got.tobytes() == whole[sign * batch - m_lo].tobytes()


def test_shadow_error_monotone_under_candidate_refinement():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 8, delta=5e-3, seed=11)
    lvl1 = default_candidates(flow, po, 0.05)
    # refine the tau ladder around the index-0 entry from eps/2 steps to eps/4
    z0, _ = po.entry(0)
    lvl2 = lvl1 + [flow.evaluate(k * 0.05 / 4.0, z0) for k in (-2, -1, 1, 2)]
    e1 = find_shadow(flow, po, 0.05, candidate_grid=lvl1, mode="best").max_error
    e2 = find_shadow(flow, po, 0.05, candidate_grid=lvl2, mode="best").max_error
    assert e2 <= e1 + 1e-15


def test_find_shadow_validation():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 4, 1e-3, seed=0)
    with pytest.raises(ShadowingError):
        find_shadow(flow, po, eps=0.0)


def test_find_shadow_refuses_a_step_with_one_sample_time(monkeypatch):
    # one segment of duration < 2 sampled at h = 5 is the clock 0 alone; it
    # used to raise AlignmentError from Reparam after both cone searches
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 1, 1e-3, seed=0)
    monkeypatch.setattr(shadowing, "_try_candidate", None)  # no candidate is searched
    with pytest.raises(ShadowingError, match=r"^h = 5\.0 leaves one sample time on the"
                                             r" clock range \[0\.0, 1\.6"):
        find_shadow(flow, po, eps=0.05, h=5.0)


def test_find_shadow_rejects_nan_eps():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 4, 1e-3, seed=0)
    # NaN fails every comparison: it used to pass eps <= 0 and crash in math.ceil
    with pytest.raises(ShadowingError, match="eps must be a finite number > 0, got nan"):
        find_shadow(flow, po, eps=math.nan)
    with pytest.raises(ShadowingError, match="^h must be a finite number > 0, got nan$"):
        find_shadow(flow, po, eps=0.05, h=math.nan)
    for kwargs, named in (({"n_segments": 0}, "n_segments"), ({"delta": math.nan}, "delta"),
                          ({"T_min": math.nan}, "T_min"), ({"T_min": 0.5}, "T_min")):
        args = {"n_segments": 4, "delta": 1e-3, **kwargs}
        with pytest.raises(ShadowingError, match=f"^{named} must"):
            generate_pseudo_orbit(flow, np.array([0.3]), seed=0, **args)


@pytest.mark.parametrize("header, row, named", [
    ("# i_min=0 T_min=1 delta=0.001", "0.3,nan", "duration"),
    ("# i_min=0 T_min=1 delta=0.001", "0.3,inf", "duration"),
    ("# i_min=0 T_min=nan delta=0.001", "0.3,1.5", "T_min"),
    ("# i_min=0 T_min=1 delta=nan", "0.3,1.5", "delta"),
], ids=["duration-nan", "duration-inf", "T_min-nan", "delta-nan"])
def test_pseudo_orbit_refuses_non_finite_values(tmp_path, header, row, named):
    # a NaN duration used to load and then die in int(); a NaN header ran to a report
    path = tmp_path / "po.txt"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ShadowingError, match=f"^(every )?{named} must"):
        PseudoOrbit.load(path)


_HEAD = "# i_min=0 T_min=1 delta=0.001"


@pytest.mark.parametrize("text, named", [
    ("", "needs a header line"),
    (f"{_HEAD}\n", "needs a header line"),
    ("# i_min=0 delta=0.001\n0.3,1.5\n", "line 1: .* has no 'T_min'"),
    ("garbage\n0.3,1.5\n", "line 1: header 'garbage' has no 'i_min'"),
    ("# i_min=zero T_min=1 delta=0.001\n0.3,1.5\n", "line 1: .* must read i_min=<integer>"),
    (f"{_HEAD}\n0.3\n", "line 2: '0.3' is not at least 2 comma-separated"),
    (f"{_HEAD}\n\n0.3,1.5\n0.3,abc\n", "line 4: '0.3,abc' is not 2 comma-separated"),
    (f"{_HEAD}\n0.3,1.5\n0.3,0.4,1.5\n", "line 3: '0.3,0.4,1.5' is not 2 comma-separated"),
], ids=["empty", "no-rows", "no-T_min", "garbage-header", "bad-i_min", "no-coordinate",
        "bad-number", "ragged"])
def test_pseudo_orbit_load_refuses_bad_layout(tmp_path, text, named):
    # these used to die in a KeyError, in dict(), in float() or as a bad
    # duration, with messages that named neither the file nor the line
    path = tmp_path / "po.txt"
    path.write_text(text)
    with pytest.raises(ShadowingError, match=f"^{re.escape(str(path))}.*{named}"):
        PseudoOrbit.load(path)


def test_find_shadow_rejects_loaded_off_space_point(tmp_path):
    path = tmp_path / "po.txt"
    make_po([1.0, 1.0, 1.0], points=[(0.3,), (1.7,), (0.3,)]).save(path)
    with pytest.raises(SpaceError, match=r"\(1\.7,\) not in interval01"):
        find_shadow(interval_flow(1.0), PseudoOrbit.load(path), eps=0.05)


def test_find_shadow_rejects_off_space_candidate():
    radii = [0.8 + 0.02 * k for k in range(11)]
    flow = rotation_flow(CircleUnion(radii))
    po = radial_drift_po(radii)
    # the first candidate lies on the orbit; the second on no circle
    for mode in ("first", "best"):
        with pytest.raises(SpaceError, match=r"\(5\.0, 0\.0\) not in"):
            find_shadow(flow, po, 0.05, candidate_grid=[[0.8, 0.0], [5.0, 0.0]], mode=mode)


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


def test_find_shadow_unknown_mode():
    flow = interval_flow(1.0)
    po = generate_pseudo_orbit(flow, np.array([0.3]), 4, 1e-3, seed=0)
    # a candidate that cannot even be read: the mode must be rejected first
    with pytest.raises(ShadowingError, match="'bogus'"):
        find_shadow(flow, po, eps=0.05, candidate_grid=[object()], mode="bogus")


# ------------------------------------------------------ cone search oracle

def _sweep(lc_rows, prev=None):
    """Forward minimax sweep over cone rows; returns terminal costs and choices."""
    D = lc_rows[0] if prev is None else np.maximum(lc_rows[0], prev)
    choices = []
    for r in range(1, len(lc_rows)):
        width = len(lc_rows[r])
        prev_w = len(D)
        cand = np.full((3, width), np.inf)
        for a, off in enumerate((0, -1, -2)):
            lo = max(0, -off)
            hi = min(width, prev_w - off)
            if lo < hi:
                cand[a, lo:hi] = D[lo + off:hi + off]
        pick = np.argmin(cand, axis=0).astype(np.int8)
        D = np.maximum(lc_rows[r], cand[pick, np.arange(width)])
        choices.append(pick)
    return D, choices


def _backtrack(choices, end):
    path = [end]
    for pick in reversed(choices):
        off = (0, -1, -2)[int(pick[path[-1]])]
        path.append(path[-1] + off)
    path.reverse()
    return path


def _ref_cone_search(table, n_lo, n_hi, q):
    """The cone search the band kernel replaced: (max_error, orbit cell per row)."""
    m_lo = -n_lo * (q + 1)
    errors, cells = [], np.empty(n_lo + n_hi + 1, dtype=np.int64)
    for direction, count in ((+1, n_hi), (-1, n_lo)):
        rows = []
        for r in range(count + 1):
            lo = direction * r * q - r
            rows.append(table[n_lo + direction * r, lo - m_lo:lo + 2 * r + 1 - m_lo])
        D, choices = _sweep(rows)
        end = int(np.argmin(D))
        errors.append(float(D[end]))
        for r, rel in enumerate(_backtrack(choices, end)):
            cells[n_lo + direction * r] = direction * r * q - r + rel
    return max(errors), cells


def _brute_side_costs(table, n_lo, n_hi, q):
    """Forward, backward: the min over every path from cell 0 with steps q-1, q, q+1 of its max."""
    m_lo = -n_lo * (q + 1)
    sides = []
    for direction, count in ((+1, n_hi), (-1, n_lo)):
        steps = np.array(list(itertools.product((q - 1, q, q + 1), repeat=count)),
                         dtype=np.int64).reshape(3 ** count, count)
        cells = direction * np.cumsum(np.c_[np.zeros(len(steps), np.int64), steps], axis=1)
        rows = n_lo + direction * np.arange(count + 1)
        sides.append(float(table[rows, cells - m_lo].max(axis=1).min()))
    return sides


def _brute_cone_search(table, n_lo, n_hi, q):
    return max(_brute_side_costs(table, n_lo, n_hi, q))


class _TableSpace:
    """Distance from orbit cell m, stored as (m, 0), to reference row a, stored as (a, 1)."""

    def __init__(self, table, m_lo):
        self.table, self.m_lo = table, m_lo

    def distance(self, a, b):
        a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        a_is_ref = a[..., 1] == 1.0
        row = np.where(a_is_ref, a[..., 0], b[..., 0]).astype(np.int64)
        cell = np.where(a_is_ref, b[..., 0], a[..., 0]).astype(np.int64)
        return self.table[row, cell - self.m_lo]


@st.composite
def _cone_tables(draw):
    q = draw(st.integers(2, 4))
    n_lo = draw(st.integers(0, 5))
    n_hi = draw(st.integers(0 if n_lo else 1, 5))  # a reparam needs two knots
    shape = (n_lo + n_hi + 1, (n_lo + n_hi) * (q + 1) + 1)
    # small integer costs make ties common
    vals = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                         min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return q, n_lo, n_hi, np.array(vals).reshape(shape)


def _try_table_candidate(case, threshold=None):
    """_try_candidate on a cone table, with the reference as one segment."""
    q, n_lo, n_hi, table = case
    # with h = q the fine step h/q is 1, so orbit times are the cell indices
    flow = SimpleNamespace(
        space=_TableSpace(table, -n_lo * (q + 1)),
        evaluate=lambda t, z: np.stack([np.asarray(t, float), np.zeros(np.shape(t))], -1))
    ts = np.arange(-n_lo, n_hi + 1) * float(q)
    ref = np.stack([np.arange(len(ts), dtype=float), np.ones(len(ts))], -1)
    return shadowing._try_candidate(
        flow, SimpleNamespace(points=[None]), np.zeros(2), float(q), q, ts, ref,
        np.zeros(len(ts), dtype=np.int64), threshold)


@settings(max_examples=300, deadline=None)
@given(_cone_tables())
def test_cone_search_matches_reference_and_brute_force(case):
    q, n_lo, n_hi, table = case
    err, reparam, per_seg = _try_table_candidate(case)
    ref_err, _ = _ref_cone_search(table, n_lo, n_hi, q)
    assert err == ref_err
    assert err == _brute_cone_search(table, n_lo, n_hi, q)
    cells = reparam.knots_s.astype(np.int64)
    assert reparam.knots_s.tolist() == cells.tolist()
    assert cells[n_lo] == 0
    assert set(np.diff(cells).tolist()) <= {q - 1, q, q + 1}
    assert table[np.arange(len(cells)), cells + n_lo * (q + 1)].max() == err
    assert per_seg == (err,)


@settings(max_examples=300, deadline=None)
@given(_cone_tables(), st.data())
def test_threshold_search_matches_brute_force(case, data):
    q, n_lo, n_hi, table = case
    # thresholds at the table's values put ties at the bound; midpoints fall between
    vals = np.unique(table)
    threshold = data.draw(st.sampled_from(np.r_[vals, (vals[:-1] + vals[1:]) / 2].tolist()))
    forward, backward = _brute_side_costs(table, n_lo, n_hi, q)
    with mock.patch.object(shadowing, "_minimax_band_dp",
                           wraps=shadowing._minimax_band_dp) as kernel:
        tried = _try_table_candidate(case, threshold)
    # the backward side is searched only once the forward side passes, and
    # only a side that passes the path pass at the threshold reaches the kernel
    passes = [forward <= threshold, max(forward, backward) <= threshold]
    assert kernel.call_count == sum(passes)
    if not passes[1]:
        assert tried is None
        return
    err, reparam, per_seg = tried
    best_err, best_reparam, best_per_seg = _try_table_candidate(case)
    assert err == best_err
    assert reparam.knots_t.tolist() == best_reparam.knots_t.tolist()
    assert reparam.knots_s.tolist() == best_reparam.knots_s.tolist()
    assert per_seg == best_per_seg


def _corridor(noise, steps, cut=None):
    """A cone table: noise with a pinned corridor of zero costs, cut at row cut."""
    table = np.array(noise, dtype=float).reshape(len(steps) + 1, 2 * len(steps) + 1)
    cols = len(steps) + np.cumsum(np.r_[0, steps]).astype(np.int64)
    table[np.arange(len(cols)), cols] = 0.0
    if cut is not None:
        table[cut, cols[cut]] = 3.0
    return table


@st.composite
def _sweep_tables(draw):
    W = draw(st.integers(0, 9))
    size = (W + 1) * (2 * W + 1)
    noise = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=size, max_size=size))
    steps = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=W, max_size=W))
    # at eps 0.5 the corridor alone decides; at 1.5 and 2.5 a third and two
    # thirds of the noise is within eps too
    table = _corridor(noise, steps, draw(st.none() | st.integers(0, W)))
    return W, table, draw(st.sampled_from([0.5, 1.5, 2.5]))


# tiny blocks refetch every few rows, and a range that grows or moves on
# either side moves the block origin left or right; a corridor that keeps
# stepping one way ends each widened block at its widened edge, so the next
# block is fetched as the range stands and left on that side a row later
@settings(max_examples=300, deadline=None)
@given(_sweep_tables(), st.integers(1, 3), st.integers(1, 12))
@example((9, _corridor([3.0] * 190, [-1] * 9), 0.5), 3, 12)
@example((9, _corridor([3.0] * 190, [1] * 9), 0.5), 3, 12)
def test_reaches_last_row_matches_brute_force(case, rows, values):
    W, table, eps = case
    n = W + 1

    def local_cost(r0, r1, lo, hi):
        assert 0 <= r0 < r1 <= n and 0 <= lo < hi <= 2 * W + 1
        return table[None, r0:r1, lo:hi]

    with mock.patch.multiple(alignment, _BLOCK_ROWS=rows, _BLOCK_VALUES=values):
        reached = alignment._reach(local_cost, n, W, [eps], fix_row=0) is not None
    # some pinned path, column W at row 0 and a step of -1, 0 or +1 a row,
    # has every local cost <= eps
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=W)), dtype=np.int64)
    cols = W + np.cumsum(np.c_[np.zeros(len(steps), np.int64), steps], axis=1)
    assert reached == bool((table[np.arange(n), cols].max(axis=1) <= eps).any())


def test_reaches_last_row_fetches_a_growing_cone_in_few_blocks():
    # on a zero table the reach grows a column a side every row; as in the
    # cost sweep, two fetches cover _BLOCK_ROWS + 1 rows, the pin's block first
    W = 300
    pulled = []

    def local_cost(r0, r1, lo, hi):
        pulled.append((r0, r1))
        return np.zeros((1, r1 - r0, hi - lo))

    assert alignment._reach(local_cost, W + 1, W, [0.5], fix_row=0) is not None
    assert len(pulled) <= 2 * -(-(W + 1) // (alignment._BLOCK_ROWS + 1)) + 1
