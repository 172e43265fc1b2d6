import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanse import alignment
from expanse.alignment import (
    AlignmentError,
    Reparam,
    _find_orbit_time,
    _minimax_band_dp,
    align,
    recompute_cost,
    rep_epsilon_check,
)
from expanse.expansivity import check_property, default_pair_grid
from expanse.flows import (
    interval_flow,
    rotation_flow,
    sample_orbit,
    suspension_doubling,
    trivial_flow,
)
from expanse.spaces import (
    CircleUnion,
    FiniteSet,
    Interval01,
    as_coords,
    exp_radii,
    harmonic_radii,
)


@pytest.fixture(scope="module")
def harmonic_rot():
    return rotation_flow(CircleUnion(harmonic_radii(16)))


@pytest.fixture(scope="module")
def exp_rot():
    return rotation_flow(CircleUnion(exp_radii(8)))


# ---------------------------------------------------------------- reparam

def test_reparam_requires_strict_monotonicity():
    with pytest.raises(AlignmentError):
        Reparam(np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(AlignmentError):
        Reparam(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))


def test_reparam_identity_extension():
    r = Reparam.identity(-2.0, 2.0)
    assert r(5.0) == 5.0 and r(-7.0) == -7.0
    sh = Reparam(np.array([-2.0, 2.0]), np.array([-1.5, 2.5]))
    assert sh(3.0) == pytest.approx(3.5, abs=1e-15)


def test_rep_epsilon_check_examples():
    ident = Reparam.identity(-1.0, 1.0)
    assert rep_epsilon_check(ident, 0.0)
    assert rep_epsilon_check(ident, 0.3)

    t = np.linspace(-1.0, 1.0, 21)
    fast = Reparam(t, 1.2 * t)
    assert not rep_epsilon_check(fast, 0.1)

    offset = Reparam(t, t + 0.3)
    assert rep_epsilon_check(offset, 0.0)


def test_reparam_compression_roundtrip():
    t = np.linspace(-1.0, 1.0, 41)
    s = np.where(t < 0, t, 2.0 * t)
    s = s + np.arange(41) * 1e-13  # strictness
    r = Reparam(t, s)
    c = r.compressed()
    assert c.knots_t.size < r.knots_t.size
    probe = np.linspace(-1.0, 1.0, 301)
    assert np.abs(c(probe) - r(probe)).max() <= 1e-10


# ------------------------------------------------------- minimax DP oracle

def _ref_minimax_band_dp(lc, W, fix_row=None):
    """The kernel's stated rule for one pair, a row at a time: (cost, k-path).

    The cost is the least max of lc along a band path. The path keeps the
    cells with lc <= cost next to (k - 1, k or k + 1) a kept cell of the row
    before (row 0: any cell; row fix_row: only k = W), ends on the kept
    last-row cell with the least |k - W| (the lesser k of two), and steps
    back to the diagonal predecessor if kept, else k + 1, else k - 1.
    """
    n, width = lc.shape
    admitted = [np.arange(width) == W if i == fix_row else np.ones(width, bool)
                for i in range(n)]

    def near(row, pad):  # each cell's k - 1, k and k + 1 neighbours in row
        ext = np.r_[pad, row, pad]
        return ext[:-2], ext[1:-1], ext[2:]

    D = np.where(admitted[0], lc[0], math.inf)
    for i in range(1, n):
        D = np.where(admitted[i], np.maximum(lc[i], np.minimum.reduce(near(D, math.inf))),
                     math.inf)
    cost = float(D.min())
    kept = [admitted[0] & (lc[0] <= cost)]
    for i in range(1, n):
        kept.append(admitted[i] & (lc[i] <= cost) & np.logical_or.reduce(near(kept[-1], False)))
    ks = np.flatnonzero(kept[-1])
    k = int(ks[np.lexsort((ks, np.abs(ks - W)))[0]])
    path = [k]
    for i in range(n - 1, 0, -1):
        k = next(j for j in (k, k + 1, k - 1) if 0 <= j < width and kept[i - 1][j])
        path.append(k)
    return cost, np.array(path[::-1], dtype=np.int64)


def _brute_min_sup(lc, W, fix_row):
    """Min over every monotone band path (k moves by -1, 0 or +1) of its max cost."""
    n, width = lc.shape
    moves = np.array(list(itertools.product((-1, 0, 1), repeat=n - 1)),
                     dtype=np.int64).reshape(3 ** (n - 1), n - 1)
    best = math.inf
    for start in range(width):
        paths = start + np.cumsum(np.c_[np.zeros(len(moves), np.int64), moves], axis=1)
        keep = (paths.min(axis=1) >= 0) & (paths.max(axis=1) < width)
        if fix_row is not None:
            keep &= paths[:, fix_row] == W
        if keep.any():
            best = min(best, float(lc[np.arange(n), paths[keep]].max(axis=1).min()))
    return best


@st.composite
def _dp_batches(draw):
    # n up to 7 and W up to 3 draw the shadow cone shape (fix_row 0, W = n - 1)
    # and rows after the reachable offsets fill the band
    n = draw(st.integers(1, 7))
    W = draw(st.integers(1, 3))
    fix_row = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    batch = draw(st.integers(1, 4))
    # small integer costs make ties common; inf marks zero-weight cells
    cell = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf])
    vals = draw(st.lists(cell, min_size=batch * n * (2 * W + 1),
                         max_size=batch * n * (2 * W + 1)))
    lc = np.array(vals).reshape(batch, n, 2 * W + 1)
    if draw(st.booleans()):
        # a cheap zero-offset column beside costlier cells: its cost prunes them
        centre = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=batch * n,
                               max_size=batch * n))
        lc[:, :, W] = np.array(centre).reshape(batch, n)
    elif draw(st.booleans()):
        # each member cheap on one column only: at a bound below 2 the rows
        # after row 0 keep one cell a member, so unpinned blocks step straight
        cols = draw(st.lists(st.integers(0, 2 * W), min_size=batch, max_size=batch))
        lc = np.minimum(lc, 1.0) + 2.0
        lc[np.arange(batch), :, cols] -= 2.0
    # each member's bound lies this far above its optimum, or below it when
    # negative; the alphabet makes bounds often equal the optimum or +inf
    slack = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, math.inf, -0.5, -1.0]),
                          min_size=batch, max_size=batch))
    # per-member shifts, pinned or not
    shift = draw(st.lists(st.integers(-3, 3), min_size=batch, max_size=batch))
    if draw(st.booleans()):
        shift = [0] * batch
    return lc, W, fix_row, slack, np.array(shift)


def _buffer(lc, shift):
    """lc laid out on the kernel's shifted buffer; cells outside a member's band cost 0."""
    B, n, width = lc.shape
    spread = int(np.ptp(shift))
    buf = np.zeros((B, n, width + spread))
    for b in range(B):
        c0 = int(shift.max() - shift[b])
        buf[b, :, c0:c0 + width] = lc[b]
    return buf


def _local_cost(lc, log=None, shift=None):
    """The kernel's local-cost callable over a dense (B, n, 2W+1) array."""
    buf = lc if shift is None else _buffer(lc, shift)

    def local_cost(i0, i1, lo, hi):
        assert 0 <= i0 < i1 <= buf.shape[1] and 0 <= lo < hi <= buf.shape[2]
        if log is not None:
            log.append((i0, i1))
        return buf[:, i0:i1, lo:hi]
    return local_cost


@contextlib.contextmanager
def _marking_path_pass(log):
    """Append None to log as the kernel's path pass starts."""
    reach = alignment._reach
    with mock.patch.object(alignment, "_reach",
                           side_effect=lambda *args: log.append(None) or reach(*args)):
        yield


def _passes(log):
    """A fetch log split into the cost sweep's fetches and the path pass's."""
    cut = log.index(None) if None in log else len(log)
    return log[:cut], log[cut + 1:]


@settings(max_examples=400, deadline=None)
@given(_dp_batches(), st.integers(1, 40), st.integers(1, 3),
       st.sampled_from([math.inf, math.inf, 1.0, -math.inf]))
def test_minimax_kernel_matches_oracle(case, block_values, block_rows, path_below):
    lc, W, fix_row, slack, shift = case
    n = lc.shape[1]
    brute = [_brute_min_sup(m, W, fix_row) for m in lc]
    # a bound below an infinite optimum is any finite one
    bound = np.array([c + s if s >= 0 else (c + s if math.isfinite(c) else 2.0)
                      for c, s in zip(brute, slack)])
    # small blocks make the kernel ask again whenever its range moves, with
    # a side widened where the range left the block and as it stands elsewhere
    with mock.patch.object(alignment, "_BLOCK_VALUES", block_values), \
            mock.patch.object(alignment, "_BLOCK_ROWS", block_rows):
        costs, paths = _minimax_band_dp(_local_cost(lc, shift=shift), n, W, bound, fix_row,
                                        shift, path_below)
        for b in range(lc.shape[0]):
            ref_cost, ref_path = _ref_minimax_band_dp(lc[b], W, fix_row)
            assert ref_cost == brute[b]
            if bound[b] < brute[b]:
                ref_cost, ref_path = math.inf, np.full(n, -1)
            assert costs[b] == ref_cost
            if ref_cost > path_below:  # a member whose path no caller reads
                assert paths[b].tolist() == [-1] * n
                continue
            assert paths[b].tolist() == ref_path.tolist()
            if ref_path[0] >= 0:  # admissible, and its max local cost is the cost
                assert (ref_path >= 0).all() and (ref_path <= 2 * W).all()
                assert (np.abs(np.diff(ref_path)) <= 1).all()
                assert fix_row is None or ref_path[fix_row] == W
                assert lc[b, np.arange(n), ref_path].max() == ref_cost
            single_cost, single_path = _minimax_band_dp(_local_cost(lc[b:b + 1]), n, W,
                                                        bound[b:b + 1], fix_row)
            assert single_cost[0] == ref_cost
            assert single_path[0].tolist() == ref_path.tolist()


@pytest.mark.parametrize("fix_row", [None, 0, 3])
def test_minimax_kernel_keeps_infinite_members_path(fix_row):
    # member 0 has no finite path (row 4 is all inf), so its zero-offset
    # bound is +inf and nothing is pruned for it; member 1's cheap
    # zero-offset column prunes its costly cells
    n, W = 9, 3
    rng = np.random.default_rng(7)
    lc = rng.integers(0, 4, size=(2, n, 2 * W + 1)).astype(float)
    lc[0, 4] = math.inf
    lc[1, :, W] = 0.5
    bound = lc[:, :, W].max(axis=1)
    costs, paths = _minimax_band_dp(_local_cost(lc), n, W, bound, fix_row)
    for b in range(2):
        ref_cost, ref_path = _ref_minimax_band_dp(lc[b], W, fix_row)
        assert costs[b] == ref_cost
        assert paths[b].tolist() == ref_path.tolist()
    assert costs[0] == math.inf and (paths[0] >= 0).all()
    alone_cost, alone_path = _minimax_band_dp(_local_cost(lc[:1]), n, W, bound[:1], fix_row)
    assert alone_cost[0] == math.inf and alone_path[0].tolist() == paths[0].tolist()


def test_minimax_kernel_keeps_infinite_member_in_shifted_batch():
    # the infinite member 0 sits 260 columns right of member 2, so 260 of
    # its buffer columns lie outside its band. Their cells cost +inf like
    # every cell of member 0, so only the band mask keeps them off the path
    # its +inf cost keeps every in-band cell for
    n, W = 300, 130
    rng = np.random.default_rng(11)
    lc = rng.integers(0, 4, size=(3, n, 2 * W + 1)).astype(float)
    lc[0, 4] = math.inf
    lc[1, :, W + 2] = 0.5
    lc[2, :, 0] = 0.0
    shift = np.array([W, 2, -W])
    bound = np.array([math.inf, 0.5, 0.0])
    costs, paths = _minimax_band_dp(_local_cost(lc, shift=shift), n, W, bound, shift=shift)
    for b in range(3):
        ref_cost, ref_path = _ref_minimax_band_dp(lc[b], W)
        assert costs[b] == ref_cost
        assert paths[b].tolist() == ref_path.tolist()
    assert costs[0] == math.inf and ((paths[0] >= 0) & (paths[0] <= 2 * W)).all()
    # pinned, each member's zero offset sits on its own buffer column
    for fix_row in (0, n // 2):
        costs, paths = _minimax_band_dp(_local_cost(lc, shift=shift), n, W, bound, fix_row,
                                        shift)
        for b in range(3):
            ref_cost, ref_path = _ref_minimax_band_dp(lc[b], W, fix_row)
            if ref_cost > bound[b]:
                ref_cost, ref_path = math.inf, np.full(n, -1)
            assert costs[b] == ref_cost
            assert paths[b].tolist() == ref_path.tolist()


def test_minimax_kernel_tie_rule_is_per_cell():
    # the backtrack decides cell by cell: the least |offset| on the last row,
    # then the diagonal, k + 1, k - 1 predecessor. The identity path (k = W
    # on every row) costs 2, the least cost, so the kernel returns it; the
    # rule it replaced let row 1 take row 0's cheaper column 1 and kept
    # [1 2 2 2 2], which costs 2 as well
    W = 2
    lc = np.array([[1, 1, 2, 2, 2], [1, 2, 2, 1, 2], [2, 2, 1, 2, 0],
                   [1, 2, 2, 1, 1], [0, 1, 1, 2, 2]], dtype=float)
    assert lc[np.arange(len(lc)), W].max() == 2.0
    cases = [(lc, [2, 2, 2, 2, 2]),
             # [2 2 2] and [1 1 2] both cost 0; the diagonal keeps k = 2 though
             # [1 1 2] has the smaller sum of |offset| (1 against 3)
             (np.array([[1, 0, 0], [1, 0, 0], [1, 1, 0]]), [2, 2, 2]),
             # row 1 keeps k = 0 and 2, not the diagonal 1: k + 1 comes first
             (np.array([[0, 0, 0], [0, 1, 0], [1, 0, 1]]), [2, 2, 1]),
             # the last row keeps k = 0 and 2, as far from k = 1: the lesser k
             (np.array([[0, 0, 0], [0, 1, 0]]), [0, 0])]
    for lc, path in cases:
        lc = np.asarray(lc, dtype=float)
        W = lc.shape[1] // 2
        costs, paths = _minimax_band_dp(_local_cost(lc[None]), len(lc), W, [math.inf])
        assert costs[0] == lc[np.arange(len(lc)), path].max()
        assert paths[0].tolist() == path
        assert _ref_minimax_band_dp(lc, W)[1].tolist() == path


def test_minimax_kernel_matches_oracle_at_falsify_scale():
    # criterion 1's kernel shape (n = 4001, W = 200) on integer costs, so
    # nearly every cell ties on cost and the tie rule decides each path
    n, W = 4001, 200
    rng = np.random.default_rng(3)
    lc = rng.integers(0, 3, size=(2, n, 2 * W + 1)).astype(float)
    lc[0, n // 2] = math.inf  # member 0 has no finite path and keeps every cell
    lc[1, :, W] = np.minimum(lc[1, :, W], 1.0)  # member 1's zero offset prunes
    refs = [_ref_minimax_band_dp(m, W) for m in lc]
    assert refs[0][0] == math.inf and refs[1][0] == 1.0
    # shifted W apart, member 0 has 2W buffer columns outside its band, each
    # +inf like its cells, which its path must never take
    for shift in (None, np.array([W, -W])):
        costs, paths = _minimax_band_dp(_local_cost(lc, shift=shift), n, W,
                                        np.array([math.inf, 1.0]), shift=shift)
        for b, (ref_cost, ref_path) in enumerate(refs):
            assert costs[b] == ref_cost
            assert paths[b].tolist() == ref_path.tolist()
        assert ((paths >= 0) & (paths <= 2 * W)).all()


def test_minimax_kernel_abandons_without_more_blocks(monkeypatch):
    n, W = 40, 2
    lc = np.zeros((3, n, 2 * W + 1))
    lc[1:, 5:] = 3.0  # members 1 and 2 cost 3 from row 5 on; member 0 costs 0
    monkeypatch.setattr(alignment, "_BLOCK_VALUES", 1)  # one row per request
    pulled = []
    free_costs, free_paths = _minimax_band_dp(_local_cost(lc), n, W, np.full(3, math.inf))
    # a mixed batch sweeps every row and keeps the survivor's cost and path;
    # the survivor keeps every column, so its path pass reads every row too
    with _marking_path_pass(pulled):
        costs, paths = _minimax_band_dp(_local_cost(lc, pulled), n, W, np.full(3, 2.0))
    assert pulled == [(i, i + 1) for i in range(n)] + [None] + [(i, i + 1) for i in range(n)]
    assert costs.tolist() == [free_costs[0], math.inf, math.inf]
    assert paths[0].tolist() == free_paths[0].tolist()
    assert (paths[1:] == -1).all()
    # once every member is dead the kernel asks for no further row: row 5 is the last
    pulled.clear()
    costs, paths = _minimax_band_dp(_local_cost(lc[1:], pulled), n, W, np.full(2, 2.0),
                                    fix_row=0)
    assert pulled == [(i, i + 1) for i in range(6)]
    assert costs.tolist() == [math.inf, math.inf]
    assert (paths == -1).all()


def _one_column_batch(n, W, cols, seed):
    """Member b keeps only column cols[b]: it costs 0 or 1 there and 2 or 3 elsewhere."""
    rng = np.random.default_rng(seed)
    lc = rng.integers(2, 4, size=(len(cols), n, 2 * W + 1)).astype(float)
    for b, c in enumerate(cols):
        lc[b, :, c] = rng.integers(0, 2, size=n)
    return lc


def _straight_blocks(lc, W, bound, fix_row=None, shift=None, block_values=40, block_rows=32,
                     log=None):
    """Run the kernel with small blocks, check it against the oracle, check
    that its path pass fetches no row of a block stepped straight nor the
    row before one, and return what each _straight_run call decided (True:
    the block stepped straight). log gets the fetched (first row, end row)
    of the cost sweep, None, then those of the path pass."""
    n = lc.shape[1]
    log = [] if log is None else log
    decided, straight = [], set()

    def spy(prev, block, bound):
        col = straight_run(prev, block, bound)
        decided.append(col is not None)
        if col is not None:  # the block just fetched steps whole
            straight.update(range(log[-1][0] - 1, log[-1][1]))
        return col

    straight_run = alignment._straight_run
    with mock.patch.object(alignment, "_BLOCK_VALUES", block_values), \
            mock.patch.object(alignment, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(alignment, "_straight_run", side_effect=spy), \
            _marking_path_pass(log):
        costs, paths = _minimax_band_dp(_local_cost(lc, log, shift), n, W, bound, fix_row,
                                        shift)
    for b in range(lc.shape[0]):
        ref_cost, ref_path = _ref_minimax_band_dp(lc[b], W, fix_row)
        if ref_cost > bound[b]:
            ref_cost, ref_path = math.inf, np.full(n, -1)
        assert costs[b] == ref_cost
        assert paths[b].tolist() == ref_path.tolist()
    assert not any(straight.intersection(range(i0, i1)) for i0, i1 in _passes(log)[1])
    return decided


@pytest.mark.parametrize("shift", [None, [2, 0, -1]])
@pytest.mark.parametrize("event", ["none", "rises", "sideways"])
# a block always holds its first row, so block_rows 0 steps like 1; at
# (200, 32) _BLOCK_VALUES caps blocks at 9 rows, 6 shifted
@pytest.mark.parametrize("block_values,block_rows", [(1, 0), (100, 1), (200, 2), (200, 32)])
def test_minimax_kernel_straight_blocks_match_oracle(shift, event, block_values, block_rows):
    # each member keeps one column, every other cell is above its bound, so
    # whole blocks step straight down it; at row 17 member 1's kept cell
    # either goes above its bound (it dies) or moves one column right
    n, W = 40, 3
    lc = _one_column_batch(n, W, [1, 3, 5], seed=5)
    if event == "rises":
        lc[1, 17, 3] = 5.0
    if event == "sideways":
        lc[1, 17:, 4] = lc[1, 17:, 3]
        lc[1, 17:, 3] = 2.0
    shift = None if shift is None else np.array(shift)
    decided = _straight_blocks(lc, W, np.ones(3), shift=shift, block_values=block_values,
                               block_rows=block_rows)
    assert any(decided)
    if event != "none":
        assert not all(decided)  # the block holding row 17 steps row by row


def test_minimax_kernel_pinned_block_steps_row_by_row():
    # every member keeps its zero offset, on three different buffer columns;
    # a block that holds the pin steps row by row, every other block runs
    # a block that holds the pin steps row by row, every other block runs;
    # the path pass copies the columns of the runs and reads only the rows
    # of the block that holds the pin
    n, W = 40, 2
    lc = _one_column_batch(n, W, [W, W, W], seed=6)
    shift, bound = np.array([1, 0, -2]), np.ones(3)
    log = []  # row 0, then one entry per block; the path pass reads nothing
    assert all(_straight_blocks(lc, W, bound, shift=shift, block_values=200, log=log))
    pulled, path_pass = _passes(log)
    assert path_pass == []
    b0, b1 = pulled[3]
    assert b1 - b0 >= 3
    # the pin as the last row before a block, its first row, inside it, its last row
    for fix_row in (b0 - 1, b0, b0 + 1, b1 - 1):
        log = []
        decided = _straight_blocks(lc, W, bound, fix_row, shift, 200, log=log)
        blocks, path_pass = _passes(log)
        assert blocks == pulled
        assert decided == [True] * (len(blocks) - 2)
        p0, p1 = next(block for block in blocks if block[0] <= fix_row < block[1])
        assert path_pass and all(p0 <= i0 < i1 <= p1 for i0, i1 in path_pass)


def test_minimax_kernel_infinite_bound_keeps_infinite_cells():
    # a +inf bound keeps +inf cells, so rows with a single finite cell are
    # not a straight run for it, and at cost +inf its path keeps every cell
    # and runs down the zero offset: alone, and beside members that keep
    # one column each
    lc = np.full((8, 3), math.inf)
    lc[[0, 2, 3, 5], 0] = [0.0, 0.0, 0.0, 1.0]
    lc[[1, 7], 1] = lc[4, 2] = 2.0
    cost, path = _ref_minimax_band_dp(lc, 1)
    assert cost == math.inf and path.tolist() == [1] * 8
    _straight_blocks(lc[None], 1, np.array([math.inf]), block_values=4)
    batch = _one_column_batch(8, 1, [0, 2], seed=7)
    _straight_blocks(np.concatenate([batch, lc[None]]), 1, np.array([1.0, 1.0, math.inf]),
                     block_values=4)


@pytest.mark.parametrize("block_values", [1, 2 ** 17])
def test_minimax_kernel_pinned_infinite_member_keeps_tie_path(block_values):
    # member 1's pinned cell is +inf, and its +inf bound keeps it: the
    # member costs +inf and its tie path still runs through the pin
    lc = np.zeros((2, 4, 7))
    lc[1, 2, 3] = math.inf
    with mock.patch.object(alignment, "_BLOCK_VALUES", block_values):
        costs, paths = _minimax_band_dp(_local_cost(lc), 4, 3, np.array([0.0, math.inf]), 2)
    assert costs.tolist() == [0.0, math.inf]
    assert paths[1].tolist() == [3, 3, 3, 3]


def test_minimax_kernel_fetches_held_ranges_as_they_stand():
    # the members keep columns 5, 6 and 7, so every row's range is 4:9 and
    # never leaves a block: each fetch after row 0 spans exactly 4:9
    n, W = 200, 6
    lc = _one_column_batch(n, W, [5, 6, 7], seed=8)
    fetched, local_cost = [], _local_cost(lc)

    def logged(i0, i1, lo, hi):
        fetched.append((lo, hi))
        return local_cost(i0, i1, lo, hi)

    costs, paths = _minimax_band_dp(logged, n, W, np.ones(3))
    for b in range(3):
        ref_cost, ref_path = _ref_minimax_band_dp(lc[b], W)
        assert costs[b] == ref_cost and paths[b].tolist() == ref_path.tolist()
    assert fetched[0] == (0, 2 * W + 1) and len(fetched) > 2
    assert fetched[1:] == [(4, 9)] * (len(fetched) - 1)


def test_minimax_kernel_fetches_a_growing_cone_in_few_blocks():
    # a cone pinned at row 0 with zero costs grows a column a side every
    # row; a block fetched as the range stands is left a row later, and the
    # next is widened by its rows, so in the cost sweep and in the path pass
    # alike two fetches cover _BLOCK_ROWS + 1 rows
    n = W = 300
    log = []
    with _marking_path_pass(log):
        costs, paths = _minimax_band_dp(_local_cost(np.zeros((1, n, 2 * W + 1)), log), n, W,
                                        [0.0], fix_row=0)
    assert costs[0] == 0.0 and paths[0].tolist() == [W] * n
    for pulled in _passes(log):
        assert len(pulled) <= 2 * -(-n // (alignment._BLOCK_ROWS + 1)) + 1


def _ref_lift_knots(times, path_k, W, h, fix_idx):
    """The loop form of alignment._lift_path's knot values."""
    j_abs = np.arange(len(path_k)) + path_k
    s = (j_abs - (len(times) - 1) // 2 - W) * h
    eta = h * 1e-12
    start = 0
    n = len(s)
    corr = np.zeros(n)
    for i in range(1, n + 1):
        if i == n or j_abs[i] != j_abs[start]:
            if i - start > 1:
                anchor = start
                if fix_idx is not None and start <= fix_idx < i:
                    anchor = fix_idx
                corr[start:i] = (np.arange(start, i) - anchor) * eta
            start = i
    return s + corr


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.data(), st.booleans())
def test_lift_path_matches_loop(W, start, data, fix):
    moves = data.draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=2, max_size=40))
    k = [min(start, 2 * W)]
    for m in moves[: len(moves) - len(moves) % 2]:  # an odd number of knots
        k.append(min(max(k[-1] + m, 0), 2 * W))
    path_k = np.array(k)
    n_half = (len(path_k) - 1) // 2
    times = np.arange(-n_half, n_half + 1) * 0.05
    fix_idx = n_half if fix else None
    rep = alignment._lift_path(times, path_k, W, 0.05, fix_idx)
    assert rep.knots_s.tobytes() == _ref_lift_knots(times, path_k, W, 0.05, fix_idx).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 20), st.booleans(), st.data())
def test_lift_path_strictly_increasing_and_anchored(W, n_half, fix, data):
    moves = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=2 * n_half,
                               max_size=2 * n_half))
    # a band path; under fix_idx it passes through the zero offset at t = 0
    k = np.empty(2 * n_half + 1, dtype=np.int64)
    k[n_half] = W if fix else data.draw(st.integers(0, 2 * W))
    for i in range(n_half + 1, len(k)):
        k[i] = min(max(k[i - 1] + moves[i - 1], 0), 2 * W)
    for i in range(n_half - 1, -1, -1):
        k[i] = min(max(k[i + 1] - moves[i], 0), 2 * W)
    times = np.arange(-n_half, n_half + 1) * 0.05
    rep = alignment._lift_path(times, k, W, 0.05, n_half if fix else None)
    assert (np.diff(rep.knots_s) > 0).all()
    if fix:
        assert rep.knots_s[n_half] == 0.0 and rep(0.0) == 0.0


_RATIO_CELL = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_RATIO_CELL, _RATIO_CELL), min_size=1, max_size=30))
def test_weighted_ratio_conventions(cells):
    dists, w = np.array(cells).T
    ratio = alignment._weighted_ratio(dists, w)
    zero = w == 0.0
    assert (ratio[zero & (dists == 0.0)] == 0.0).all()
    assert (ratio[zero & (dists > 0.0)] == math.inf).all()
    with np.errstate(over="ignore"):  # tiny weights overflow to inf in both
        assert ratio[~zero].tobytes() == (dists[~zero] / w[~zero]).tobytes()


# ---------------------------------------------------------------- align

def test_align_self_is_zero_cost_identity():
    flow = interval_flow(1.0)
    xs = sample_orbit(flow, np.array([0.37]), T=5.0, h=0.05)
    res = align(xs, xs, weight_kind="unit", band_width=1.0)
    assert res.cost == 0.0
    probe = np.linspace(-5.0, 5.0, 101)
    assert np.abs(res.reparam(probe) - probe).max() <= 1e-9


@pytest.mark.parametrize("weight", ["unit", "sing_dist", "field_norm"])
def test_align_orbit_equivalent_pair_costs_at_most_discretization(weight):
    flow = interval_flow(1.0)
    tau = 0.5
    x = np.array([0.3])
    y = flow.evaluate(tau, x)
    h = 0.05
    xs = sample_orbit(flow, x, T=5.0, h=h)
    ys = sample_orbit(flow, y, T=5.0, h=h)
    res = align(xs, ys, weight_kind=weight, band_width=1.0)
    # y = phi_tau(x) with tau on the grid: the shifted path is exact
    assert res.cost <= 1e-12
    probe = np.linspace(-4.0, 4.0, 41)
    assert np.abs(res.reparam(probe) - (probe - tau)).max() <= 1e-9


def test_align_gabi_adjacent_circles_cost(harmonic_rot):
    x = np.array([1.0 / 9.0, 0.0])
    y = np.array([1.0 / 10.0, 0.0])
    xs = sample_orbit(harmonic_rot, x, T=5.0, h=0.05)
    ys = sample_orbit(harmonic_rot, y, T=5.0, h=0.05)
    res = align(xs, ys, weight_kind="sing_dist", band_width=1.0)
    # analytic ratio 1/(n+1) with n = 9, achieved by the identity reparam
    assert res.cost == pytest.approx(0.1, abs=1e-12)
    probe = np.linspace(-5.0, 5.0, 101)
    assert np.abs(res.reparam(probe) - probe).max() <= 1e-9


def test_align_band_monotonicity(harmonic_rot):
    x = np.array([1.0, 0.0])
    y = harmonic_rot.evaluate(1.3, np.array([0.5, 0.0]))
    xs = sample_orbit(harmonic_rot, x, T=4.0, h=0.05)
    ys = sample_orbit(harmonic_rot, y, T=4.0, h=0.05)
    costs = [align(xs, ys, band_width=b).cost for b in (0.25, 0.5, 1.0, 2.0)]
    assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(costs, costs[1:]))


def test_align_symmetry_on_isometric_flow(exp_rot):
    x = np.array([math.exp(-1), 0.0])
    y = exp_rot.evaluate(0.7, np.array([math.exp(-2), 0.0]))
    xs = sample_orbit(exp_rot, x, T=4.0, h=0.05)
    ys = sample_orbit(exp_rot, y, T=4.0, h=0.05)
    a = align(xs, ys, weight_kind="unit", band_width=1.0)
    b = align(ys, xs, weight_kind="unit", band_width=1.0)
    assert a.cost == pytest.approx(b.cost, abs=1e-9)


def test_align_fix_zero_pins_origin():
    flow = interval_flow(1.0)
    x = np.array([0.3])
    y = flow.evaluate(0.5, x)
    xs = sample_orbit(flow, x, T=5.0, h=0.05)
    ys = sample_orbit(flow, y, T=5.0, h=0.05)
    res = align(xs, ys, weight_kind="unit", fix_zero=True, band_width=1.0)
    assert res.reparam(0.0) == 0.0
    free = align(xs, ys, weight_kind="unit", fix_zero=False, band_width=1.0)
    assert free.cost <= res.cost + 1e-12


@pytest.mark.parametrize("fix_zero", [False, True])
def test_align_batch_matches_single_pairs(harmonic_rot, fix_zero):
    orbits = [sample_orbit(harmonic_rot, np.array([r, 0.0]), T=3.0, h=0.05)
              for r in (1.0, 0.5, 1.0 / 3.0, 0.25)]
    orbits.append(sample_orbit(harmonic_rot, harmonic_rot.evaluate(0.8, orbits[1].base),
                               T=3.0, h=0.05))
    pairs = [(orbits[i], orbits[j]) for i in range(5) for j in range(5)]
    singles = [align(xs, ys, "sing_dist", fix_zero, 1.0) for xs, ys in pairs]
    for one, res in zip(singles, alignment._align_batch(pairs, "sing_dist", fix_zero, 1.0)):
        assert res.cost == one.cost and res.argmax_t == one.argmax_t
        assert np.array_equal(res.reparam.knots_s, one.reparam.knots_s)


def _dense_local_costs(xs, ys, weight, W):
    """Every band cell's weighted separation, (n, 2W+1), on the y orbit widened by W a side."""
    n, h = len(xs.times), xs.step_h
    n_half = (n - 1) // 2
    ext = np.r_[-(n_half + W):-n_half, n_half + 1:n_half + W + 1] * h
    tails = ys.flow.evaluate(ext, ys.base)
    y_ext = np.concatenate([tails[:W], ys.points, tails[W:]])
    cells = y_ext[np.arange(n)[:, None] + np.arange(2 * W + 1)]
    return alignment._weighted_ratio(xs.flow.space.distance(xs.points[:, None], cells),
                                     alignment._weights(xs, weight)[:, None])


def _real_orbit_pairs(flow):
    if isinstance(flow.space, CircleUnion):
        bases = [np.array([r, 0.0]) for r in flow.space.radii[:4]]
        bases.append(flow.evaluate(0.3, bases[1]))
        bases.append(flow.space.on_circle(2, 2.0))
    else:
        bases = [np.array([v]) for v in (0.2, 0.27, 0.5, 0.52, 0.9)]
    orbits = [sample_orbit(flow, b, T=2.0, h=0.05) for b in bases]
    return [(orbits[i], orbits[j]) for i in range(len(orbits))
            for j in range(len(orbits)) if abs(i - j) <= 2]


@pytest.mark.parametrize("flow", [rotation_flow(CircleUnion(exp_radii(8))),
                                  rotation_flow(CircleUnion(harmonic_radii(6))),
                                  interval_flow(1.0)], ids=["exp8", "harmonic6", "interval"])
@pytest.mark.parametrize("weight", ["unit", "sing_dist", "field_norm"])
@pytest.mark.parametrize("fix_zero", [False, True])
def test_align_batch_matches_dense_oracle(flow, weight, fix_zero):
    # the pruned kernel on real orbits against the per-pair recurrence on
    # every band cell: same cost, path and argmax_t
    pairs = _real_orbit_pairs(flow)
    band = 0.5
    W = int(math.floor(band / 0.05 + 1e-9))
    n_half = (len(pairs[0][0].times) - 1) // 2
    fix_idx = n_half if fix_zero else None
    for (xs, ys), res in zip(pairs, alignment._align_batch(pairs, weight, fix_zero, band)):
        lc = _dense_local_costs(xs, ys, weight, W)
        cost, path = _ref_minimax_band_dp(lc, W, fix_idx)
        assert res.cost == cost
        lifted = alignment._lift_path(xs.times, path, W, 0.05, fix_idx)
        assert res.reparam.knots_s.tobytes() == lifted.knots_s.tobytes()
        assert res.argmax_t == xs.times[int(np.argmax(lc[np.arange(len(path)), path]))]


def _mixed_offset_pairs(flow, extra):
    """Radial, same-circle rotated and phi_0.5 pairs (best offsets 0, -3 and -10
    cells at h = 0.05), plus antipodal pairs or an origin pair."""
    sp = flow.space
    pairs = []
    for i in range(3):
        for ang in (0.0, 1.0, 2.5):
            x = sp.on_circle(i, ang)
            pairs += [(x, sp.on_circle(i + 1, ang)), (x, sp.on_circle(i, ang + 0.15)),
                      (x, flow.evaluate(0.5, x))]
            if extra == "antipodal":
                pairs.append((x, sp.on_circle(i, ang + math.pi)))
    if extra == "origin":
        pairs.append((np.zeros(2), sp.on_circle(5, 0.3)))
    return pairs


@pytest.mark.parametrize("extra", [None, "antipodal", "origin"])
@pytest.mark.parametrize("weight", ["unit", "sing_dist"])
@pytest.mark.parametrize("fix_zero", [False, True])
def test_align_batch_mixed_offsets_match_dense_oracle(monkeypatch, extra, weight, fix_zero):
    # pairs whose best paths lie at different offsets share one centred sweep
    flow = rotation_flow(CircleUnion(harmonic_radii(6)))
    T, h, band = 2.0, 0.05, 1.0
    W = int(math.floor(band / h + 1e-9))
    pairs = [(sample_orbit(flow, x, T, h), sample_orbit(flow, y, T, h))
             for x, y in _mixed_offset_pairs(flow, extra)]
    shifts = []
    kernel = alignment._minimax_band_dp

    def spy(local_cost, n, W, bound, fix_row=None, shift=None, path_below=math.inf):
        shifts.append(shift)
        return kernel(local_cost, n, W, bound, fix_row, shift, path_below)

    monkeypatch.setattr(alignment, "_minimax_band_dp", spy)
    n_half = (len(pairs[0][0].times) - 1) // 2
    fix_idx = n_half if fix_zero else None
    results = alignment._align_batch(pairs, weight, fix_zero, band)
    # an antipodal pair's cheapest cells lie at both band edges, and the
    # origin pair's at every column (under sing_dist its bound is +inf), so
    # centring would not narrow the sweep: the layout rule keeps the band
    assert bool(shifts[0].any()) == (not fix_zero and extra is None)
    for (xs, ys), res in zip(pairs, results):
        lc = _dense_local_costs(xs, ys, weight, W)
        cost, path = _ref_minimax_band_dp(lc, W, fix_idx)
        assert res.cost == cost
        lifted = alignment._lift_path(xs.times, path, W, h, fix_idx)
        assert res.reparam.knots_s.tobytes() == lifted.knots_s.tobytes()
        assert res.argmax_t == xs.times[int(np.argmax(lc[np.arange(len(path)), path]))]
    if extra == "origin" and weight == "sing_dist":
        assert results[-1].cost == math.inf


def test_align_batch_sweeps_few_cells_on_falsify_grid(monkeypatch):
    # criterion 1's first 20 pairs at its scale: the centred sweep asks for
    # under 1/40 of the band's local costs (about 1/56 in 126 requests; a
    # sweep pruned by the zero-offset bound alone asks for about 3/10)
    flow = rotation_flow(CircleUnion(harmonic_radii(16)))
    T, h, band = 20.0, 0.01, 2.0
    pairs = [(sample_orbit(flow, x, T, h), sample_orbit(flow, y, T, h))
             for x, y in default_pair_grid(flow, 0.1)[:20]]
    asked = []
    kernel = alignment._minimax_band_dp

    def counting(local_cost, *args):
        def counted(i0, i1, lo, hi):
            out = local_cost(i0, i1, lo, hi)
            asked.append(out.size)
            return out
        return kernel(counted, *args)

    monkeypatch.setattr(alignment, "_minimax_band_dp", counting)
    alignment._align_batch(pairs, "sing_dist", False, band)
    n, W = 2 * int(round(T / h)) + 1, int(math.floor(band / h + 1e-9))
    assert sum(asked) < len(pairs) * n * (2 * W + 1) / 40
    assert len(asked) <= 126


def test_falsify_scale_path_pass_fetches_nothing(monkeypatch):
    # criterion 1's falsifier steps every row after row 0 in straight blocks,
    # so the path pass copies their columns and the three kernel calls fetch
    # only what the cost sweep fetches
    calls, fetched = [], []
    kernel = alignment._minimax_band_dp

    def counting(local_cost, *args):
        def counted(*block):
            out = local_cost(*block)
            fetched.append(out.size)
            return out
        calls.append(1)
        return kernel(counted, *args)

    monkeypatch.setattr(alignment, "_minimax_band_dp", counting)
    rep = check_property(rotation_flow(CircleUnion(harmonic_radii(16))), "singular_expansive",
                         eps=1.0, delta=0.1)
    assert rep.verdict == "falsified"
    assert (len(calls), len(fetched), sum(fetched)) == (3, 378, 1_535_081)


def test_align_batch_reads_paths_below_a_cost(harmonic_rot):
    # a batch gives a path only to the pairs a caller reads; their results,
    # and every cost, are those of the batch that reads every path
    orbits = [sample_orbit(harmonic_rot, np.array([r, 0.0]), T=3.0, h=0.05)
              for r in (1.0, 0.5, 1.0 / 3.0, 0.25)]
    pairs = [(a, b) for a in orbits for b in orbits]
    every = alignment._align_batch(pairs, "sing_dist", False, 1.0)
    cut = float(np.median([res.cost for res in every]))
    for res, some in zip(every, alignment._align_batch(pairs, "sing_dist", False, 1.0, cut)):
        assert some.cost == res.cost
        if res.cost <= cut:
            assert some.argmax_t == res.argmax_t
            assert some.reparam.knots_s.tobytes() == res.reparam.knots_s.tobytes()
        else:
            assert some.reparam is None and math.isnan(some.argmax_t)


def test_align_batch_needs_shared_grid(harmonic_rot):
    a = sample_orbit(harmonic_rot, np.array([1.0, 0.0]), T=2.0, h=0.05)
    b = sample_orbit(harmonic_rot, np.array([0.5, 0.0]), T=3.0, h=0.05)
    with pytest.raises(AlignmentError):
        alignment._align_batch([(a, a), (b, b)], "unit", False, 1.0)


def test_align_infeasible_band():
    flow = interval_flow(1.0)
    xs = sample_orbit(flow, np.array([0.4]), T=1.0, h=0.1)
    with pytest.raises(AlignmentError):
        align(xs, xs, band_width=0.05)


def test_align_zero_weight_sentinel():
    flow = interval_flow(1.0)
    xs = sample_orbit(flow, np.array([0.0]), T=1.0, h=0.1)
    ys = sample_orbit(flow, np.array([0.5]), T=1.0, h=0.1)
    res = align(xs, ys, weight_kind="sing_dist", band_width=0.5)
    assert res.cost == math.inf
    same = align(xs, xs, weight_kind="sing_dist", band_width=0.5)
    assert same.cost == 0.0


def test_align_returned_reparam_strictly_monotone(harmonic_rot):
    x = np.array([0.5, 0.0])
    y = np.array([1.0 / 3.0, 0.0])
    xs = sample_orbit(harmonic_rot, x, T=3.0, h=0.05)
    ys = sample_orbit(harmonic_rot, y, T=3.0, h=0.05)
    res = align(xs, ys, weight_kind="unit", band_width=1.0)
    assert (np.diff(res.reparam.knots_s) > 0).all()
    assert (np.diff(res.reparam.knots_t) > 0).all()


def test_align_cost_matches_recompute():
    flow = interval_flow(1.0)
    x = np.array([0.2])
    y = np.array([0.27])
    xs = sample_orbit(flow, x, T=5.0, h=0.05)
    ys = sample_orbit(flow, y, T=5.0, h=0.05)
    for weight in ("unit", "sing_dist"):
        res = align(xs, ys, weight_kind=weight, band_width=1.0)
        cost, argmax_t = recompute_cost(flow, x, y, xs.times, res.reparam, weight)
        assert cost == pytest.approx(res.cost, abs=1e-9)
        assert argmax_t == pytest.approx(res.argmax_t, abs=1e-9)


def test_align_refinement_convergence_logged():
    flow = interval_flow(1.0)
    x = np.array([0.3])
    y = np.array([0.33])
    costs = {}
    for h in (0.1, 0.05):
        xs = sample_orbit(flow, x, T=5.0, h=h)
        ys = sample_orbit(flow, y, T=5.0, h=h)
        costs[h] = align(xs, ys, weight_kind="unit", band_width=1.0).cost
    change = abs(costs[0.1] - costs[0.05])
    print(f"refinement: cost(h=0.1)={costs[0.1]:.6g} cost(h=0.05)={costs[0.05]:.6g} "
          f"change={change:.3g} (C_hat={change / 0.05:.3g})")
    assert math.isfinite(change)


# ------------------------------------------------------- orbit membership

def orbit_membership(flow, x, y, eps):
    """t0 in [-eps, eps] with phi_t0(x) within 1e-7 of y, or None."""
    return _find_orbit_time(flow, x, y, -eps, eps, 1e-7)

def test_membership_same_point():
    flow = interval_flow(1.0)
    assert orbit_membership(flow, np.array([0.4]), np.array([0.4]), 1.0) == 0.0


def test_membership_interval_transit():
    flow = interval_flow(1.0)
    t0 = orbit_membership(flow, np.array([1.0 / 3.0]), np.array([2.0 / 3.0]), 1.5)
    assert t0 == pytest.approx(math.log(4.0), abs=1e-9)
    # outside the window: absent
    assert orbit_membership(flow, np.array([1.0 / 3.0]), np.array([2.0 / 3.0]), 1.0) is None


def test_align_rejects_nan_band():
    # a NaN band used to die in int(): "cannot convert float NaN to integer"
    xs = sample_orbit(interval_flow(1.0), np.array([0.4]), T=1.0, h=0.1)
    with pytest.raises(AlignmentError, match="^band_width must be a finite number > 0, got nan$"):
        align(xs, xs, band_width=math.nan)


ORACLE_STEP = 1e-4
ORACLE_TOL = 1e-4  # >= half a step at speed <= 1: the grid sees every exact hit


def dense_orbit_oracle(flow, x, target, lo, hi):
    """Brute-force hits of phi_[lo,hi](x) near target on a dense time grid.

    Returns (step, any grid point within ORACLE_TOL, the grid times that are
    local minima of the distance and within ORACLE_TOL).
    """
    n = int(math.ceil((hi - lo) / ORACLE_STEP)) + 1
    ts = np.linspace(lo, hi, n)
    d = flow.space.distance(flow.evaluate(ts, x), target[None, :])
    pad = np.concatenate([[np.inf], d, [np.inf]])
    is_min = (d <= pad[:-2]) & (d <= pad[2:])
    step = ts[1] - ts[0] if n > 1 else 0.0
    return step, bool((d <= ORACLE_TOL).any()), ts[is_min & (d <= ORACLE_TOL)]


def _planted_time(rng, lo, hi):
    """A time in or around [lo, hi]; one in four lies just past an end."""
    if rng.integers(4):
        return rng.uniform(lo - 1.0, hi + 1.0)
    return hi + rng.uniform(0.0, 0.5) * ORACLE_TOL if rng.integers(2) \
        else lo - rng.uniform(0.0, 0.5) * ORACLE_TOL


def _circle_case(flow, rng):
    sp = flow.space
    x = sp.on_circle(int(rng.integers(len(sp.radii))), rng.uniform(0, 2 * math.pi))
    lo = rng.uniform(-10.0, 6.0)
    hi = lo + rng.uniform(0.0, 4.0 * math.pi)
    kind = rng.integers(3)
    if kind == 0:  # planted: on the orbit, at a time in or around the window
        target = flow.evaluate(_planted_time(rng, lo, hi), x)
    elif kind == 1:  # planted, then moved off the orbit by about the tolerance
        target = flow.evaluate(rng.uniform(lo, hi), x) * (1.0 + rng.uniform(0, 2) * ORACLE_TOL)
    else:  # anywhere on the union, usually another circle
        target = sp.on_circle(int(rng.integers(len(sp.radii))), rng.uniform(0, 2 * math.pi))
    return x, target, lo, hi


def _interval_case(flow, rng):
    u = rng.uniform()
    x = np.array([rng.choice([u, 10.0 ** -(1 + 6 * u), 1.0 - 10.0 ** -(1 + 6 * u), 0.0, 1.0],
                             p=[0.5, 0.2, 0.2, 0.05, 0.05])])
    lo = rng.uniform(-8.0, 6.0)
    hi = lo + rng.uniform(0.0, 6.0)
    kind = rng.integers(3)
    if kind == 0:
        target = flow.evaluate(_planted_time(rng, lo, hi), x)
    elif kind == 1:
        target = flow.evaluate(rng.uniform(lo, hi), x) + rng.uniform(-2, 2) * ORACLE_TOL
    else:  # anywhere, or a fixed endpoint, which the orbit nears at -+inf
        target = np.array([rng.choice([rng.uniform(), 0.0, 1.0])])
    return x, np.clip(target, 0.0, 1.0), lo, hi


def _trivial_case(flow, rng):
    pts = flow.space.grid(5)
    x = as_coords(pts[int(rng.integers(len(pts)))])
    target = x if rng.integers(2) else as_coords(pts[int(rng.integers(len(pts)))])
    lo = rng.uniform(-6.0, 4.0)  # windows with and without 0
    return x, target, lo, lo + rng.uniform(0.0, 3.0)


def _suspension_case(flow, rng):
    x = rng.uniform(0.0, 1.0, 2)
    lo = max(rng.uniform(-1.0, 5.0), 0.0)  # a forward semiflow: t >= 0
    hi = lo + rng.uniform(0.0, 3.0)
    kind = rng.integers(3)
    if kind == 0:
        target = flow.evaluate(max(_planted_time(rng, lo, hi), 0.0), x)
    elif kind == 1:
        target = np.mod(flow.evaluate(rng.uniform(lo, hi), x)
                        + rng.uniform(-1.5, 1.5, 2) * ORACLE_TOL, 1.0)
    else:
        target = rng.uniform(0.0, 1.0, 2)
    return x, target, lo, hi


ORACLE_FLOWS = {
    "circles": (lambda: rotation_flow(CircleUnion(harmonic_radii(6))), _circle_case),
    "interval": (lambda: interval_flow(1.0), _interval_case),
    "interval_negative": (lambda: interval_flow(-0.7), _interval_case),
    "trivial_finite": (lambda: trivial_flow(FiniteSet([[0.0, 0.0], [0.3, 0.4], [1.0, 0.0]])),
                       _trivial_case),
    "trivial_interval": (lambda: trivial_flow(Interval01()), _trivial_case),
    "suspension_doubling": (suspension_doubling, _suspension_case),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FLOWS))
def test_find_orbit_time_matches_dense_oracle(name):
    """Sound, complete and nearest-0 against a dense grid, on every catalog flow."""
    make_flow, make_case = ORACLE_FLOWS[name]
    flow = make_flow()
    rng = np.random.default_rng(sorted(ORACLE_FLOWS).index(name))
    hits = 0
    for _ in range(40):
        x, target, lo, hi = make_case(flow, rng)
        t = _find_orbit_time(flow, x, target, lo, hi, ORACLE_TOL)
        step, any_hit, oracle = dense_orbit_oracle(flow, x, target, lo, hi)
        case = (x.tolist(), target.tolist(), lo, hi, t)
        if t is not None:  # sound
            assert lo <= t <= hi, case
            assert flow.space.distance(flow.evaluate(t, x), target) <= ORACLE_TOL, case
            hits += 1
        assert t is not None or not any_hit, case  # complete
        if len(oracle):  # no oracle closest approach nearer 0 by a grid step
            assert abs(t) <= np.abs(oracle).min() + step + 1e-12, case
    assert 8 <= hits <= 36, hits  # planted hits and misses both occur


def test_suspension_hits_either_side_of_the_wrap():
    # targets within tol of s = 0 that the orbit reaches only on one side of
    # a section crossing: just before it (s = 1 - 2^-53 or 1 - 2^-52, old
    # branch) or at it (s = 0, doubled branch)
    flow, x = suspension_doubling(), np.array([0.3, 0.5])
    cases = [((0.3, 1e-9), 0.0, 2.0, np.nextafter(1.0, 0.0) - 0.5),
             ((0.6, 1e-9), 1.0, 2.0, np.nextafter(2.0, 0.0) - 0.5),
             ((0.6, 1.0 - 1e-9), 0.0, 1.0, 0.5),
             ((0.2, 1.0 - 1e-9), 1.0, 2.0, 1.5)]
    for target, lo, hi, want in cases:
        assert _find_orbit_time(flow, x, np.array(target), lo, hi, 1e-7) == want


def test_membership_long_window_first_period(harmonic_rot):
    # a window of about 318 periods: the hit nearest 0 is in the first
    x = np.array([0.5, 0.0])
    y = harmonic_rot.evaluate(0.8, x)
    assert orbit_membership(harmonic_rot, x, y, 1000.0) == pytest.approx(0.8, abs=1e-9)
    assert orbit_membership(harmonic_rot, x, y, 0.7) is None


def test_trivial_window_returns_end_nearest_zero():
    for flow in (trivial_flow(Interval01()), trivial_flow(FiniteSet([[0.0], [1.0]]))):
        x = np.array([1.0])
        assert _find_orbit_time(flow, x, x, 2.0, 5.0, 1e-7) == 2.0
        assert _find_orbit_time(flow, x, x, -5.0, -2.0, 1e-7) == -2.0
        assert _find_orbit_time(flow, x, x, -5.0, 3.0, 1e-7) == 0.0
        assert _find_orbit_time(flow, x, np.array([0.0]), -5.0, 3.0, 1e-7) is None


def test_membership_different_circles_absent(harmonic_rot):
    x = np.array([1.0 / 9.0, 0.0])
    y = np.array([1.0 / 10.0, 0.0])
    assert orbit_membership(harmonic_rot, x, y, 3.0) is None


def test_membership_rotation_same_circle(harmonic_rot):
    x = np.array([0.5, 0.0])
    y = harmonic_rot.evaluate(0.8, x)
    t0 = orbit_membership(harmonic_rot, x, y, 1.0)
    assert t0 == pytest.approx(0.8, abs=1e-6)
