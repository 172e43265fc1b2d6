"""Monotone time-reparametrization search minimizing weighted orbit separation.

The class of increasing homeomorphisms is approximated by monotone lattice
paths on the sample grid: each x-time t_i is paired with one y-time u_j,
and j advances by 0, 1 or 2 cells per step inside a fixed offset band
|u - t| <= band_width. The path cost is the sup (not the sum) of the
weighted separations, matching the "for every t" bound of the expansivity
definitions. Lattice paths are lifted to strictly increasing
piecewise-linear maps.

One kernel, _minimax_band_dp, runs this bottleneck DP for a batch of pairs:
a float sweep of the running max gives every cost, and a path pass on
bit-packed rows, run only on the pairs whose path a caller reads, picks one
path by the tie rule stated there (it leans toward the identity). Local
costs come in row blocks from a strided window view of each extended
y-orbit. Cells above a pair's reference bound are pruned and pairs share
one corridor where that narrows the sweep: at T = 20, h = 0.01, band 2 a
row sweeps about 1/20 of the band, nearly every row block steps whole, and
BATCH_CELLS caps a call at 41 pairs. The shadow cone search runs on it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import require
from .flows import FlowModel, OrbitSample, field_norm, sample_orbit
from .spaces import as_coords

BATCH_CELLS = 2 ** 26  # band cells of one kernel call, as if none were pruned
_BLOCK_VALUES = 2 ** 17  # local costs of a row block over its first row's range
_BLOCK_ROWS = 32  # rows per block at most, so a widened side wastes few cells
_FLAT_SLOPE = 1e-12  # spread applied to flat runs so knots stay strictly monotone


class AlignmentError(ValueError):
    pass


@dataclass(frozen=True)
class Reparam:
    """Strictly increasing piecewise-linear time change on [-T, T].

    Extended by identity slope beyond the knot window.
    """

    knots_t: np.ndarray
    knots_s: np.ndarray

    def __post_init__(self):
        kt, ks = np.asarray(self.knots_t, float), np.asarray(self.knots_s, float)
        if kt.ndim != 1 or kt.shape != ks.shape or kt.size < 2:
            raise AlignmentError("need matching 1-d knot arrays with >= 2 knots")
        if not (np.diff(kt) > 0).all() or not (np.diff(ks) > 0).all():
            raise AlignmentError("knots must be strictly increasing")
        object.__setattr__(self, "knots_t", kt)
        object.__setattr__(self, "knots_s", ks)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.knots_t, self.knots_s)
        lo, hi = self.knots_t[0], self.knots_t[-1]
        out = np.where(t < lo, self.knots_s[0] + (t - lo), out)
        out = np.where(t > hi, self.knots_s[-1] + (t - hi), out)
        return float(out) if out.ndim == 0 else out

    def slopes(self) -> np.ndarray:
        return np.diff(self.knots_s) / np.diff(self.knots_t)

    @classmethod
    def identity(cls, lo: float, hi: float) -> "Reparam":
        return cls(np.array([lo, hi]), np.array([lo, hi]))

    def compressed(self) -> "Reparam":
        """Drop interior knots where the slope does not change."""
        kt, ks = self.knots_t, self.knots_s
        if kt.size <= 2:
            return self
        sl = self.slopes()
        keep = np.ones(kt.size, dtype=bool)
        keep[1:-1] = np.abs(np.diff(sl)) > 1e-15
        return Reparam(kt[keep], ks[keep])


@dataclass(frozen=True)
class AlignmentResult:
    """Minimized sup of weighted separation and the reparam achieving it (or None, unread)."""

    cost: float
    reparam: Optional[Reparam]
    argmax_t: float
    weight_kind: str


def rep_epsilon_check(s: Reparam, eps: float) -> bool:
    """True iff every knot-interval slope lies in [1-eps, 1+eps].

    For piecewise-linear maps the knot-slope condition is equivalent to the
    bound over all difference quotients. Slopes are compared to within a
    1e-9 cushion so exactly-representable offsets of the identity pass.
    """
    return bool(np.all(np.abs(s.slopes() - 1.0) <= eps + 1e-9))


def _weights(xs: OrbitSample, weight_kind: str) -> np.ndarray:
    """The weight at each point of xs: 1, dist(., Sing) or ||V(.)||."""
    if weight_kind == "unit":
        return np.ones_like(xs.times)
    if weight_kind == "sing_dist":
        return xs.flow.singular.distances(xs.points)
    if weight_kind == "field_norm":
        return field_norm(xs.flow, xs.points)
    raise AlignmentError(f"unknown weight kind: {weight_kind!r}")


def _weighted_ratio(dists: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Separation over weight; 0/0 -> 0, positive/0 -> +inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = dists / w
    bad = w <= 0.0
    if bad.any():
        ratio = np.where(bad & (dists <= 0.0), 0.0, ratio)
        ratio = np.where(bad & (dists > 0.0), np.inf, ratio)
    return ratio


def _minimax_band_dp(local_cost, n: int, W: int, bound, fix_row: Optional[int] = None,
                     shift=None, path_below: float = math.inf):
    """Minimax DP over monotone lattice paths in an offset band, B pairs at once.

    lc[b, i, k] is the cost of pairing x-time i with y-offset k - W cells,
    for band columns 0 <= k <= 2W; j advances by 0, 1 or 2 per i step, so k
    moves by -1, 0 or +1, and row fix_row admits only k = W. A member's cost
    C* is the least max of lc along such a path. Returns (costs (B,),
    k-paths (B, n)). The tie rule: the path pass (_reach) keeps the cells
    with lc <= C* next to (k - 1, k or k + 1) a kept cell of the row before,
    any cell on row 0; the path (_backtrack) ends on the kept last-row cell
    with the least |offset|, the lesser k of two, and steps back to the
    diagonal predecessor if kept, else k + 1, else k - 1. A path depends
    only on its member's local costs, not on the batch, bound or blocks,
    and need not have the least summed |offset| among equal-cost paths.

    The costs come from a float sweep of the running max. A cell whose
    running max exceeds its member's bound (B,) is +inf; a member whose
    cost exceeds it gets cost +inf and -1s, and one with cost > path_below
    gets -1s. Each row updates the columns next to the row before's finite
    cells and fetches a new block by _block's rule once its range leaves
    the last. A block without fix_row steps whole when the row before keeps
    at most one cell per member (<= its bound) and every block row keeps
    exactly those: each path of cost <= bound runs straight down that
    column, whose block max the value takes, and the path pass sets those
    rows without a fetch. shift (B,) puts member b's column k at buffer
    column k + max(shift) - shift[b], so members whose best paths lie at
    different offsets share one narrow range. local_cost(i0, i1, lo, hi)
    returns the costs of rows i0..i1-1 at buffer columns lo..hi-1, (B,
    i1 - i0, hi - lo); its values outside a member's band are ignored.
    """
    bound = np.asarray(bound, dtype=float)
    B = len(bound)
    # the kernel's arrays are column-major, (columns, B): a row's range is contiguous
    shift, width, k_of = _layout(W, shift, B)
    # a cell above its member's cap is +inf; the cap is -inf outside the band
    cap = np.where((k_of >= 0) & (k_of <= 2 * W), bound, -np.inf)
    # a kept cell is within its member's bound, so a column keeps one iff its min <= top
    top = bound.max()

    def pruned(i0, i1, lo, hi):  # (rows, columns, B)
        lc = local_cost(i0, i1, lo, hi).transpose(1, 2, 0)
        return np.ascontiguousarray(np.where(lc > cap[lo:hi], np.inf, lc))

    # two row buffers with two pad columns a side; column c sits at c + 2,
    # and a cell outside the previous row's range reads as +inf
    lo, hi = 0, width
    D = np.full((2, width + 4, B), np.inf)
    cur = D[0, lo + 2:hi + 2]
    cur[...] = pruned(0, 1, lo, hi)[0]
    runs = []  # (first row, end row, kept buffer column per member) of each block stepped whole
    blk, b0, b1, c0, c1, col = None, 0, 1, 0, width, None  # row 0 as a block over the buffer
    written = [None, None]
    members = np.arange(B)
    i = 0
    while i < n:
        if i:
            d, cur = D[(i - 1) % 2, lo + 1:hi + 3], D[i % 2, lo + 2:hi + 2]
            if not (i < b1 and c0 <= lo and hi <= c1):
                b0 = i
                b1, c0, c1 = _block(i, lo, hi, c0, c1, n, width, B)
                blk = pruned(b0, b1, c0, c1)
                # more live columns than members means some member keeps two
                col = _straight_run(d[1:-1], blk[:, lo - c0:hi - c0], bound) \
                    if live.size <= B and (fix_row is None or not b0 <= fix_row < b1) else None
            if col is not None:
                # step the whole block: each member's path runs straight down
                # its one kept column, and the next row fetches a new block
                i, prev = b1 - 1, d[1:-1]
                cur = D[i % 2, lo + 2:hi + 2]
                if (b1 - b0) % 2:
                    cur[...] = prev
                cur[col, members] = np.maximum(prev[col, members],
                                               blk[:, lo - c0 + col, members].max(axis=0))
                # a run that continues the last one on the same columns extends it
                b0 = runs.pop()[0] if runs and runs[-1][1] == b0 and (
                    runs[-1][2] == lo + col).all() else b0
                runs.append((b0, b1, lo + col))
            else:
                # predecessor of offset k is k (dj=1), k+1 (dj=0) or k-1 (dj=2);
                # a pruned predecessor is +inf, so the max is <= the bound or +inf
                np.minimum(d[2:], d[1:-1], out=cur)
                np.minimum(cur, d[:-2], out=cur)
                np.maximum(blk[i - b0, lo - c0:hi - c0], cur, out=cur)
        if i == fix_row:  # the pin cuts every cell but each member's zero offset
            np.copyto(cur, np.inf, where=k_of[lo:hi] != W)
        # the next row reads at most two cells past this row's range; clear
        # them unless this buffer's last row had the same range and cleared them
        if written[i % 2] != (lo, hi):
            D[i % 2, lo:lo + 2] = D[i % 2, hi + 2:hi + 4] = np.inf
            written[i % 2] = lo, hi
        live = (np.minimum.reduce(cur, axis=1) <= top).nonzero()[0]
        if not live.size:  # no cell left
            return np.full(B, np.inf), np.full((B, n), -1, dtype=np.int64)
        lo, hi = max(lo + int(live[0]) - 1, 0), min(lo + int(live[-1]) + 2, width)
        i += 1
    costs = cur.min(axis=0)
    alive = costs <= bound
    read = np.flatnonzero(alive & (costs <= path_below))
    costs[~alive] = np.inf
    paths = np.full((B, n), -1, dtype=np.int64)
    if read.size:
        paths[read] = _backtrack(*_reach(local_cost, n, W, costs[read], fix_row, shift, read,
                                         runs), W, k_of[0, read])
    return costs, paths


def _layout(W, shift, B):
    """(shift, buffer width, band column k of each member at each buffer column (width, B))."""
    shift = np.zeros(B, dtype=np.int64) if shift is None else np.asarray(shift, np.int64)
    top = int(shift.max())
    width = 2 * W + 1 + top - int(shift.min())
    return shift, width, np.arange(-top, width - top)[:, None] + shift


def _block(i, lo, hi, c0, c1, n, width, per_row):
    """(b1, c0, c1): the row block i:b1 to fetch for row i's range lo:hi after block c0:c1.

    A range moves at most a column a side per row, so a side where lo:hi
    left c0:c1 is widened by the block's rows, the other fetched as it
    stands; _BLOCK_VALUES caps the range's cells (per_row values a cell).
    """
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // (per_row * (hi - lo)), n - i))
    return (i + rows, max(lo - rows, 0) if lo < c0 else lo,
            min(hi + rows, width) if hi > c1 else hi)


def _straight_run(prev, block, bound):
    """Each member's one kept column if a row block can step straight down it, else None.

    prev (columns, B) is the row before the block and block (rows, columns,
    B) its pruned local costs; a cell is kept when <= its member's bound. A
    member that keeps none gets column 0 and stays +inf.
    """
    keep = prev <= bound
    if keep.sum(axis=0).max() > 1 or not (keep == (block <= bound)).all():
        return None
    return keep.argmax(axis=0)


def _one_cell(cols, S):
    """The packed row holding bit cols[m] of each member m (see _reach)."""
    cells = bytearray(len(cols) * S // 8)
    for m, c in enumerate(cols.tolist()):
        cells[(m * S + c) // 8] = 1 << c % 8
    return int.from_bytes(cells, "little")


def _reach(local_cost, n, W, limit, fix_row=None, shift=None, of=slice(None), runs=()):
    """The path pass's (kept rows, their blocks, S), or None once a row keeps none.

    Member m is batch member of[m]. A cell is kept when it is in the band,
    its local cost is <= limit[m] and a kept cell of the row before is at
    its k - 1, k or k + 1 (row 0: any; row fix_row: k = W only). A row is
    one Python int, bit m * S + c + 1 - base for member m's buffer column c,
    with a zero bit on each side of a member's columns; base is the first
    column of the row's block (blocks: (first row, base) each), so the ints
    stay as short as the range. On the rows of runs, the sweep's whole-block
    steps, and the row before, a member keeps only the run's column.
    """
    limit = np.asarray(limit, dtype=float)
    shift, width, k_of = _layout(W, shift, len(limit))
    M, S = len(limit), (width + 9) // 8 * 8  # a member's columns, a zero, in whole bytes
    shifted = width > 2 * W + 1  # then some buffer columns lie outside a member's band
    ok = ((k_of[:, of] >= 0) & (k_of[:, of] <= 2 * W)).T[:, None] if shifted else None
    every = int.from_bytes((b"\1" + bytes(S // 8 - 1)) * M, "little")  # bit 0 of each member
    pin, limit = _one_cell(W + 1 - k_of[0, of], S), limit[:, None, None]
    reach = pin if fix_row == 0 else ((1 << width) - 1 << 1) * every
    b0 = b1 = out = base = start = c0 = 0
    c1, kept, blocks = width, [], []
    for s0, s1, run in [(b0 - 1, b1, col) for b0, b1, col in runs] + [(n, n, None)]:
        for i in range(start, s0):  # the rows before the next run
            if i >= b1 or reach & out:
                span, m = reach, M  # or the upper half of the members onto the lower
                while m > 1:
                    m = (m + 1) // 2
                    span |= span >> m * S
                lo, hi = (span & -span).bit_length() - 1, (span & (1 << S) - 1).bit_length()
                b0, (b1, c0, c1) = i, _block(i, max(lo - 1 + base, 0),
                                             min(hi - 1 + base, width), c0, c1, s0, width,
                                             len(shift))
                reach, base = reach >> c0 - base if c0 >= base else reach << base - c0, c0
                blocks.append((i, base))
                keep = local_cost(b0, b1, c0, c1)[of] <= limit  # (M, rows, columns)
                if shifted:
                    keep &= ok[..., c0:c1]
                if M > 1:  # member m's block columns at m * S.., up to the last member's
                    cells = np.zeros((b1 - b0, M, S), dtype=bool)
                    cells[:, :, :c1 - c0] = keep.transpose(1, 0, 2)
                    keep = cells.reshape(b1 - b0, -1)[:, :(M - 1) * S + c1 - c0]
                rows = [int.from_bytes(r.tobytes(), "little") << 1 for r in np.packbits(
                    keep.reshape(b1 - b0, -1), axis=1, bitorder="little")]
                if fix_row is not None and b0 <= fix_row < b1:
                    rows[fix_row - b0] &= pin >> base
                # a reach grows a column a side per row: it leaves at column c0 - 1 or c1
                out = ((c0 > 0) | (c1 < width) << c1 - c0 + 1) * every
            row = reach & rows[i - b0]
            if not row:
                return None
            kept.append(row)
            reach = row >> 1 | row | row << 1
        if run is not None:  # consecutive runs share a row
            s0, row, base, b1 = max(s0, start), _one_cell(run[of] + 1, S), 0, 0
            kept += [row] * (s1 - s0)
            blocks.append((s0, base))
            reach = row >> 1 | row | row << 1
        start = s1
    return kept, blocks, S


def _backtrack(kept, blocks, S, W, k0):
    """Each member's k-path by the tie rule through _reach's kept rows, (M, n).

    k0 (M,) is each member's band column at buffer column 0. All members step
    back at once on the packed rows; only rows where one moves are unpacked.
    """
    n, M, blocks = len(kept), len(k0), iter(blocks[::-1])
    start, base = next(blocks)
    last = np.unpackbits(np.frombuffer((kept[-1] << base).to_bytes(M * S // 8, "little"),
                                       np.uint8), bitorder="little").reshape(M, S)[:, 1:]
    m, c = np.nonzero(last)  # the kept last-row cells, member by member
    order = np.lexsort((2 * np.abs(c + k0[m] - W) + (c + k0[m] > W), m))
    sel = _one_cell(c[order[np.searchsorted(m, np.arange(M))]] + 1, S) >> base
    marks = [(n - 1, sel, base)]  # each row whose cells differ from the row after
    for i in range(n - 1, 0, -1):
        prev = kept[i - 1]
        if i == start:  # row i - 1 is in the block before
            start, b = next(blocks)
            sel, base = sel << base - b if b < base else sel >> b - base, b
        elif prev is kept[i]:  # the same cells: every member steps on its diagonal
            continue
        rest = sel & ~prev  # the members whose diagonal predecessor is not kept
        if rest:
            up = rest << 1 & prev
            rest ^= up >> 1
            sel = (sel & prev) | up | rest >> 1 & prev
            marks.append((i - 1, sel, base))
    rows, sels, bases = zip(*marks)
    # a member's S bits are whole bytes, so its one cell is in its one nonzero byte
    raw = np.frombuffer(b"".join(s.to_bytes(M * S // 8, "little") for s in sels),
                        np.uint8).reshape(len(sels), M, S // 8)
    cols = 8 * raw.argmax(axis=2) + np.log2(raw.max(axis=2), dtype=float).astype(np.int64) \
        + np.array(bases)[:, None] - 1
    return np.repeat((cols + k0)[::-1].T, np.diff((-1,) + rows[::-1]), axis=1)


def _lift_path(times: np.ndarray, path_k: np.ndarray, W: int, h: float,
               fix_idx: Optional[int]) -> Reparam:
    """Lift a lattice path to a strictly increasing piecewise-linear map.

    Flat runs (repeated y-cells) are spread by a slope of ~1e-12 so knot
    values stay strictly monotone; when a zero anchor is requested the
    spread is centered there so s(0) = 0 exactly.
    """
    j_abs = np.arange(len(path_k)) + path_k  # y-cell index, origin at -T - W*h
    s = (j_abs - (len(times) - 1) // 2 - W) * h
    new_cell = np.r_[True, j_abs[1:] != j_abs[:-1]]
    run = np.cumsum(new_cell) - 1  # index of each knot's flat run
    anchor = np.flatnonzero(new_cell)[run]
    if fix_idx is not None:
        anchor[run == run[fix_idx]] = fix_idx
    return Reparam(times.copy(), s + (np.arange(len(s)) - anchor) * (h * _FLAT_SLOPE))


def align(xs: OrbitSample, ys: OrbitSample, weight_kind: str = "unit",
          fix_zero: bool = False, band_width: float = 2.0) -> AlignmentResult:
    """Minimal sup-cost alignment of two orbit samples.

    Searches monotone lattice paths with |s(t) - t| <= band_width and
    returns the piecewise-linear reparametrization achieving the minimum of
    sup_t d(phi_t(x), phi_{s(t)}(y)) / w(phi_t(x)). With fix_zero the path
    is constrained through s(0) = 0.
    """
    return align_batch([(xs, ys)], weight_kind, fix_zero, band_width)[0]


def pairs_per_batch(T: float, h: float, band_width: float) -> int:
    """How many pairs sampled over [-T, T] with step h one kernel call takes.

    BATCH_CELLS counts every band cell, pruned or not: 41 pairs at T = 20,
    h = 0.01, band 2. The path pass keeps under 4 bits per band cell (32 MiB
    unshifted, under twice that shifted). The drivers batch their scans by it.
    """
    n = 2 * int(round(T / h)) + 1
    return max(1, BATCH_CELLS // (n * (2 * int(math.floor(band_width / h + 1e-9)) + 1)))


def align_batch(pairs, weight_kind: str = "unit", fix_zero: bool = False,
                band_width: float = 2.0) -> list:
    """align for each (xs, ys) in pairs; all samples share T, h and a space.

    Lists longer than pairs_per_batch go through the kernel in chunks.
    """
    return _align_batch(pairs, weight_kind, fix_zero, band_width)


def _align_batch(pairs, weight_kind, fix_zero, band_width, path_below=math.inf) -> list:
    """align_batch; only pairs with cost <= path_below get a path, the rest reparam None."""
    require(AlignmentError, "positive", band_width=band_width)
    if not pairs:
        return []
    (xs0, ys0), h = pairs[0], pairs[0][0].step_h
    if any(abs(s.step_h - h) > 1e-15 or abs(s.window_T - xs0.window_T) > 1e-12
           for pair in pairs for s in pair):
        raise AlignmentError("samples must share T and h")
    W = int(math.floor(band_width / h + 1e-9))
    if W < 1:
        raise AlignmentError("infeasible band: band_width < h")
    per = pairs_per_batch(xs0.window_T, h, band_width)
    if len(pairs) > per:
        return [res for lo in range(0, len(pairs), per) for res in
                _align_batch(pairs[lo:lo + per], weight_kind, fix_zero, band_width, path_below)]

    space, n = ys0.flow.space, len(xs0.times)
    n_half = (n - 1) // 2
    # only the W margin samples on each side of a y-window are new
    margin = np.r_[-(n_half + W):-n_half, n_half + 1:n_half + W + 1] * h
    margins = [ys.flow.evaluate(margin, ys.base) for _, ys in pairs]
    y_ext = np.stack([np.concatenate([m[:W], ys.points, m[W:]])
                      for m, (_, ys) in zip(margins, pairs)])
    x_pts = np.stack([xs.points for xs, _ in pairs])
    w = np.stack([_weights(xs, weight_kind) for xs, _ in pairs])
    members = np.arange(len(pairs))

    def cells(y, rows=slice(None), of=slice(None)):
        """Local costs of the x-points of members `of` at `rows` against y[member, row, ...]."""
        at = (of, rows) + (None,) * (y.ndim - 3)
        return _weighted_ratio(space.distance(x_pts[at], y), w[at])

    # band[b, i, k] = y_ext[b, i + k]: a strided view, never materialized
    band = np.moveaxis(sliding_window_view(y_ext, 2 * W + 1, axis=1), -1, 2)
    fix_idx = n_half if fix_zero else None
    bound, shift = _reference_bound(cells, band, fix_idx)
    windows = band
    if shift.any():
        # member b's column k sits at buffer column k + max(shift) - shift[b];
        # the edge-padded cells outside its band are masked by the kernel
        width = 2 * W + 1 + int(np.ptp(shift))
        cols = np.arange(n + width - 1) + (shift - shift.max())[:, None]
        y_buf = y_ext[members[:, None], np.clip(cols, 0, n + 2 * W - 1)]
        windows = np.moveaxis(sliding_window_view(y_buf, width, axis=1), -1, 2)

    def local_cost(i0, i1, lo, hi):
        return cells(windows[:, i0:i1, lo:hi], slice(i0, i1))

    costs, paths = _minimax_band_dp(local_cost, n, W, bound, fix_idx, shift, path_below)
    # the local costs along each path, to locate its max (a path of -1s reads valid cells)
    along = cells(y_ext[members[:, None], np.arange(n) + paths])
    argmax_t = np.where(paths[:, 0] >= 0, xs0.times[np.argmax(along, axis=1)], math.nan)
    return [AlignmentResult(cost=float(c), weight_kind=weight_kind, argmax_t=float(t),
                            reparam=_lift_path(xs.times, path, W, h, fix_idx)
                            if path[0] >= 0 else None)
            for (xs, _), c, path, t in zip(pairs, costs, paths, argmax_t)]


def _reference_bound(cells, band, fix_idx: Optional[int]):
    """Each member's cheapest reference path: (its cost as the bound, shift).

    The references are constant offsets: zero, and each member's cheapest
    column at rows 0, n // 2 and n - 1. A pin admits only the zero offset.
    The shift puts the cheapest reference on one buffer column, unless
    that fails to narrow the union of the cells within the bound on those
    three rows, or the bound is +inf.
    """
    B, n, width = band.shape[:3]
    W = width // 2
    rows = [0, n // 2, n - 1]
    sampled = cells(band[:, rows], rows)  # (B, 3, 2W + 1)
    cand = np.full((B, 1), W)
    if fix_idx is None:
        cand = np.concatenate([cand, sampled.argmin(axis=2)], axis=1)
    # each distinct column once; a repeat keeps +inf, so argmin picks its first
    path_costs = np.full(cand.shape, np.inf)
    for c in range(cand.shape[1]):
        of = np.flatnonzero((cand[:, :c] != cand[:, c:c + 1]).all(axis=1))
        path_costs[of, c] = cells(band[of, :, cand[of, c]], of=of).max(axis=1)
    best = path_costs.argmin(axis=1)[:, None]
    bound = np.take_along_axis(path_costs, best, axis=1)[:, 0]
    shift = np.where(np.isfinite(bound), np.take_along_axis(cand, best, axis=1)[:, 0] - W, 0)
    # the span of the kept cells on the sampled rows, with and without the shift
    kept = sampled <= bound[:, None, None]
    first = kept.argmax(axis=2)
    last = 2 * W - kept[:, :, ::-1].argmax(axis=2)

    def span(s):
        return int(((last - s[:, None]).max(axis=0) - (first - s[:, None]).min(axis=0)).sum())

    if span(shift) >= span(np.zeros_like(shift)):
        shift = np.zeros_like(shift)
    return bound, shift


def recompute_cost(flow: FlowModel, x, y, times: np.ndarray, reparam: Reparam,
                   weight_kind: str):
    """Re-evaluate the sup of the weighted separation along a given reparam.

    Used to audit alignment results and recorded witnesses: evaluates both
    flows afresh on the sample grid rather than trusting cached arrays.
    """
    x = as_coords(x)
    y = as_coords(y)
    T = float(times[-1])
    h = float(times[1] - times[0])
    xs = sample_orbit(flow, x, T, h)
    y_pts = flow.evaluate(reparam(times), y)
    dists = flow.space.distance(xs.points, y_pts)
    ratio = _weighted_ratio(dists, _weights(xs, weight_kind))
    i = int(np.argmax(ratio))
    return float(ratio[i]), float(times[i])


def _find_orbit_time(flow: FlowModel, x, target, lo: float, hi: float,
                     tol: float) -> Optional[float]:
    """A time t in [lo, hi] with d(phi_t(x), target) <= tol, or None.

    The candidates are 0 and the flow's closed-form closest-approach times
    (flow.orbit_times), each clamped to [lo, hi]; it returns the candidate
    nearest 0 whose freshly evaluated point lies within tol. That is not
    always the smallest such |t|: near the interval's fixed endpoints the
    tol-set spans about 1e-3 in time, and its edge is no candidate.
    """
    x = as_coords(x)
    target = as_coords(target)
    ts = np.clip(np.append(0.0, flow.orbit_times(x, target, lo, hi)), lo, hi)
    ts = ts[np.argsort(np.abs(ts), kind="stable")]
    hit = flow.space.distance(flow.evaluate(ts, x), target[None, :]) <= tol
    return float(ts[np.argmax(hit)]) if hit.any() else None
