"""Monotone time-reparametrization search minimizing weighted orbit separation.

The class of increasing homeomorphisms is approximated by monotone lattice
paths on the sample grid: each x-time t_i is paired with one y-time u_j,
and j advances by 0, 1 or 2 cells per step inside a fixed offset band
|u - t| <= band_width. The path cost is the sup (not the sum) of the
weighted separations, matching the "for every t" bound of the expansivity
definitions; ties lean toward the identity cell by cell, by the rule that
_minimax_band_dp states. Lattice paths are lifted to strictly increasing
piecewise-linear maps.

One kernel runs this bottleneck DP for a batch of pairs on (band, pairs)
rows. It asks a callable for the local costs of a row block at a column
range, computed from a strided window view of each extended y-orbit, so no
pair's full cost tensor is built. Each pair comes with a bound, the cost
of its cheapest reference path (constant offsets: zero, and the cheapest
column of three sampled rows); a cell above the bound lies on no optimal
path and is set to +inf. Each pair's columns are shifted so that its
cheapest reference sits on one shared column, unless that fails to narrow
the cells within the bounds on the sampled rows. Each row then sweeps only
the columns next to the previous row's finite cells, and stores its path
choices for those columns only: at T = 20, h = 0.01, band 2 about 1/20 of
the band. Costs, paths and ties are those of the full sweep. BATCH_CELLS
caps the cells of a full sweep (41 pairs at that scale); align_batch
splits longer lists, and align is the batch of one. A call that prunes
nothing stores at most 64 MiB of int8 path choices unshifted, and under
(4W + 1) / (2W + 1) times that, below 128 MiB, shifted. The shadow cone
search in shadowing runs on this kernel too, so both share its tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .flows import FlowModel, OrbitSample, sample_orbit
from .spaces import as_coords

_PEN_INF = 2.0 ** 40  # penalty of pad and out-of-band cells, far above any path's
_STEP = np.array([0, 1, -1])  # k of the predecessor minus k, by tie priority
BATCH_CELLS = 2 ** 26  # band cells of one kernel call, as if none were pruned
_BLOCK_VALUES = 2 ** 17  # local costs built per row block
_BLOCK_MARGIN = 2  # columns a row block adds either side of its first row's range
_BLOCK_ROWS = 32  # rows per block at most, so a growing range wastes few cells
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

    @classmethod
    def shift(cls, lo: float, hi: float, tau: float) -> "Reparam":
        return cls(np.array([lo, hi]), np.array([lo + tau, hi + tau]))

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
    """Minimized sup of weighted separation and the reparam achieving it."""

    cost: float
    reparam: Reparam
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
    if weight_kind == "unit":
        return np.ones_like(xs.times)
    if weight_kind == "sing_dist":
        return xs.sing_dists
    if weight_kind == "field_norm":
        if xs.field_norms is None:
            raise AlignmentError("sample carries no field norms")
        return xs.field_norms
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
                     shift=None):
    """Minimax DP over monotone lattice paths in an offset band, B pairs at once.

    lc[b, i, k] is the cost of pairing x-time i with y-offset k - W cells,
    for band columns 0 <= k <= 2W, and j advances by 0, 1 or 2 per i step.
    The tie rule acts cell by cell: each cell keeps the predecessor with
    the least running max, then the least running penalty (its prefix's
    sum of |offset|), then the diagonal, k+1 and k-1 predecessor in that
    order, and the last row keeps the least cost, then the least penalty,
    then the least k. Max and sum do not distribute, so among equal-cost
    paths the one kept need not have the least summed |offset|: a cheaper
    prefix can win a cell from which both reach the same cost.

    A cell is cost + 1j * penalty and a candidate adds priority / 4 (0,
    0.25, 0.5) to it; numpy orders complex values by real, then imaginary
    part, so np.minimum applies the rule and np.modf splits the winner's
    priority from its penalty. An in-band penalty stays far below 2^51,
    where quarters are exact; pad and out-of-band cells cost +inf and gain
    _PEN_INF a row, so they never beat the in-band diagonal. Cells are
    added, compared and split, never multiplied (inf * 0 is nan). Row
    fix_row keeps only each member's zero offset k = W: its other cells
    become pad cells, as if cut, so a finite cell of a later row i has
    |k - W| <= i - fix_row. Returns (costs (B,), k-paths (B, n)).

    bound (B,) caps each member: a cell whose running value exceeds its
    member's bound is +inf, and a member whose cost exceeds its bound gets
    cost +inf and a path of -1s. The cost of any admissible path is a
    bound that never fires, and a cell above it lies on no optimal path,
    so the cap changes no cost, path or tie; a member whose bound is +inf
    keeps every cell. Each row updates only the columns between the first
    and last finite cell of the row before, widened by one and clipped to
    the buffer, asks local_cost for little more than those, and keeps its
    path choices for those columns only. The call returns as soon as a row
    has no finite cell left.

    shift (B,) centres each member's corridor: member b's column k sits at
    buffer column k + max(shift) - shift[b], so the buffer is 2W + 1 +
    (max(shift) - min(shift)) columns wide and members whose best paths
    lie at different offsets share one narrow column range. Buffer columns
    outside a member's band are +inf. local_cost(i0, i1, lo, hi) returns
    the local costs of rows i0..i1-1 at buffer columns lo..hi-1, shape
    (B, i1 - i0, hi - lo); its values outside a member's band are ignored.
    """
    bound = np.asarray(bound, dtype=float)
    B = len(bound)
    shift = np.zeros(B, dtype=np.int64) if shift is None else np.asarray(shift, np.int64)
    s_hi = int(shift.max())
    width = 2 * W + 1 + int(np.ptp(shift))
    # the kernel's arrays are column-major, (columns, B): a row's range is contiguous
    k_of = np.arange(width)[:, None] - s_hi + shift  # member b's band column at each buffer column
    in_band = (k_of >= 0) & (k_of <= 2 * W)
    pen = np.where(in_band, np.abs(k_of - W), _PEN_INF).astype(float)
    # a cell above its member's cap is +inf; the cap is -inf outside the band
    cap = np.where(in_band, bound, -np.inf)
    # a kept cell is within its member's bound, so a column keeps one iff its min <= top
    top = bound.max()

    def pruned(i0, i1, lo, hi):  # (rows, columns, B)
        lc = local_cost(i0, i1, lo, hi).transpose(1, 2, 0)
        return np.ascontiguousarray(np.where(lc > cap[lo:hi], np.inf, lc))

    # two row buffers with two pad columns a side; column c sits at c + 2,
    # and a cell outside the previous row's range reads as the pad value
    pad = complex(np.inf, _PEN_INF)
    lo, hi = 0, width
    D = np.full((2, width + 4, B), pad)
    cur = D[0, lo + 2:hi + 2]
    cur.real, cur.imag = pruned(0, 1, lo, hi)[0], pen[lo:hi]
    choices = [None] * n  # (lo, (hi - lo, B) int8 choices) per swept row
    blk, b0, b1, c0, c1 = None, 0, 0, 0, 0
    written = [None, None]
    for i in range(n):
        if i:
            if not (i < b1 and c0 <= lo and hi <= c1):
                # a block of rows at this row's columns widened by _BLOCK_MARGIN
                b0, c0, c1 = i, max(lo - _BLOCK_MARGIN, 0), min(hi + _BLOCK_MARGIN, width)
                rows = _BLOCK_VALUES // (B * (c1 - c0))
                b1 = min(n, i + max(1, min(_BLOCK_ROWS, rows)))
                blk = pruned(b0, b1, c0, c1)
            d, cur = D[(i - 1) % 2, lo + 1:hi + 3], D[i % 2, lo + 2:hi + 2]
            # predecessor of offset k is k (diagonal, dj=1), k+1 (dj=0) or k-1
            # (dj=2); its tie priority / 4 joins the penalty in the key
            np.add(d[2:], 0.25j, out=cur)
            np.minimum(d[1:-1], cur, out=cur)
            c = d[:-2] + 0.5j
            np.minimum(cur, c, out=cur)
            np.modf(cur.imag, out=(c.real, cur.imag))
            choices[i] = lo, np.empty((hi - lo, B), dtype=np.int8)
            np.multiply(c.real, 4, out=choices[i][1], casting="unsafe")
            cur.imag += pen[lo:hi]
            # a pruned predecessor is +inf, so the max is <= the bound or +inf
            np.maximum(blk[i - b0, lo - c0:hi - c0], cur.real, out=cur.real)
        if i == fix_row:  # the pin cuts every cell but each member's zero offset
            np.copyto(cur, pad, where=pen[lo:hi] != 0)
        # the next row reads at most two cells past this row's range; clear
        # them unless this buffer's last row had the same range and cleared them
        if written[i % 2] != (lo, hi):
            D[i % 2, lo:lo + 2] = D[i % 2, hi + 2:hi + 4] = pad
            written[i % 2] = lo, hi
        live = (np.minimum.reduce(cur.real, axis=1) <= top).nonzero()[0]
        if not live.size:  # no cell left
            return np.full(B, np.inf), np.full((B, n), -1, dtype=np.int64)
        last_lo = lo
        lo, hi = max(lo + int(live[0]) - 1, 0), min(lo + int(live[-1]) + 2, width)
    # numpy orders complex values by real part, then by imaginary part
    k = cur.argmin(axis=0)
    costs = cur.real[k, np.arange(B)]
    k += last_lo
    # a dead member's walk could leave the kept cells, and its path is -1s anyway
    alive = np.flatnonzero(costs <= bound)
    k = k[alive]
    kept = np.empty((n, len(alive)), dtype=np.int64)
    kept[-1] = k
    for i in range(n - 1, 0, -1):
        row_lo, ch = choices[i]
        k = k + _STEP[ch[k - row_lo, alive]]
        kept[i - 1] = k
    paths = np.full((B, n), -1, dtype=np.int64)
    paths[alive] = kept.T + (shift[alive] - s_hi)[:, None]
    costs[costs > bound] = np.inf
    return costs, paths


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

    The cap, BATCH_CELLS, counts every band cell, pruned or not, so an
    unshifted call that prunes nothing stores at most BATCH_CELLS int8 path
    choices (64 MiB); at T = 20, h = 0.01, band 2 that is 41 pairs. A
    shifted call stores its choices over a buffer up to 4W + 1 columns
    wide, so at most BATCH_CELLS * (4W + 1) / (2W + 1), below 128 MiB. The
    drivers also batch their pair scans by it.
    """
    n = 2 * int(round(T / h)) + 1
    return max(1, BATCH_CELLS // (n * (2 * int(math.floor(band_width / h + 1e-9)) + 1)))


def align_batch(pairs, weight_kind: str = "unit", fix_zero: bool = False,
                band_width: float = 2.0) -> list:
    """align for each (xs, ys) in pairs; all samples share T, h and a space.

    Lists longer than pairs_per_batch go through the kernel in chunks.
    """
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
                align_batch(pairs[lo:lo + per], weight_kind, fix_zero, band_width)]

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

    costs, paths = _minimax_band_dp(local_cost, n, W, bound, fix_idx, shift)
    # the local costs along each chosen path, recomputed to locate its max
    along = cells(y_ext[members[:, None], np.arange(n) + paths])
    return [AlignmentResult(cost=float(c), reparam=_lift_path(xs.times, path, W, h, fix_idx),
                            argmax_t=float(xs.times[int(np.argmax(a))]),
                            weight_kind=weight_kind)
            for (xs, _), c, path, a in zip(pairs, costs, paths, along)]


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


def orbit_membership(flow: FlowModel, x, y, eps: float,
                     tol_orbit: float = 1e-7) -> Optional[float]:
    """t0 in [-eps, eps] with phi_t0(x) within tol_orbit of y, if one exists.

    Decided in closed form (_find_orbit_time): 0 when y is within tol_orbit
    of x, else the closest-approach time nearest 0. A flow without an
    orbit_times hook is a FlowError.
    """
    if eps < 0:
        raise AlignmentError("eps must be nonnegative")
    flow.require_orbit_times()
    return _find_orbit_time(flow, x, y, -eps, eps, tol_orbit)
