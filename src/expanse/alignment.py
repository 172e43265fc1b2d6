"""Monotone time-reparametrization search minimizing weighted orbit separation.

The class of increasing homeomorphisms is approximated by monotone lattice
paths on the sample grid: each x-time t_i is paired with one y-time u_j,
and j advances by 0, 1 or 2 cells per step inside a fixed offset band
|u - t| <= band_width. The path cost is the sup (not the sum) of the
weighted separations, matching the "for every t" bound of the expansivity
definitions; ties are broken toward the path closest to the identity.
Lattice paths are lifted to strictly increasing piecewise-linear maps.

One kernel runs this bottleneck DP for a batch of pairs on (pairs, band)
rows. It asks a callable for the local costs of a row block at a column
range, computed from a strided window view of each extended y-orbit, so no
pair's full cost tensor is built. The zero-offset path is always
admissible, so its cost bounds each pair's optimum: cells above the bound
are set to +inf, and each row sweeps only the columns next to the previous
row's finite cells (about a third of the band at T = 20, h = 0.01, band
2). Costs, paths and ties are those of the full sweep. A kernel call holds
at most BATCH_CELLS int8 path choices (about 20 pairs at that scale);
align_batch splits longer lists, and align is the batch of one. The shadow
cone search in shadowing runs on this kernel too, so both share one tie
rule: among equal-cost paths the smallest sum of |offset|, then the
diagonal step. Rows after a pinned row update only the offsets it can
reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .flows import FlowModel, OrbitSample, sample_orbit
from .spaces import as_coords

_PEN_INF = 2 ** 54  # penalty of masked and out-of-band cells; 4x it fits int64
_KEY_INF = 2 ** 62  # packed key of a candidate above the row's minimum cost
_STEP = np.array([0, 1, -1])  # k of the predecessor minus k, by tie priority
BATCH_CELLS = 2 ** 25  # int8 path choices one kernel call may hold
_BLOCK_VALUES = 2 ** 17  # local costs built per row block
_BLOCK_MARGIN = 8  # columns a row block adds either side of its first row's range
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


def _minimax_band_dp(local_cost, n: int, W: int, fix_row: Optional[int] = None,
                     abandon_above: Optional[float] = None):
    """Minimax DP over monotone lattice paths in an offset band, B pairs at once.

    local_cost(i0, i1, lo, hi) returns the local costs of rows i0..i1-1 at
    band columns lo..hi-1, shape (B, i1 - i0, hi - lo); lc[b, i, k] is the
    cost of pairing x-time i with y-offset k - W cells, and j advances by
    0, 1 or 2 per i step. Ties in cost go to the smaller sum of |offset|,
    then to the diagonal, k+1 and k-1 predecessor in that order: each
    candidate's (penalty, priority) is packed as 4 * penalty + priority and
    compared only among candidates whose cost equals the row minimum. After
    fix_row only the offsets |k - W| <= i - fix_row can be reached (the pin
    cone). Returns (costs (B,), k-paths (B, n)).

    The zero-offset path (column W in every row) passes through the pinned
    row and lies in the cone, so its cost bounds member b's optimum; a cell
    whose running value exceeds that bound lies on no optimal path and is
    set to +inf, which changes no cost, path or tie. Each row then updates
    only the columns between the first and last finite cell of the row
    before, widened by one and clipped to the cone, and asks local_cost for
    little more than those. A member whose bound is +inf keeps every cell.

    With abandon_above the call decides cost <= abandon_above, and the
    threshold is the bound; the zero-offset cost is not computed, since it
    needs every row and an abandoned call asks for no row past the one
    where it stops. A member whose cost exceeds the threshold gets cost +inf
    and a path of -1s, and the call returns as soon as a row has no finite
    cell left. A member within the threshold keeps exactly the cost and
    path of a call without one.
    """
    width = 2 * W + 1
    pen4 = 4 * np.abs(np.arange(width, dtype=np.int64) - W)

    def cone(i):
        r = W if fix_row is None or i < fix_row else min(W, i - fix_row)
        return W - r, W + r + 1

    lo, hi = cone(0)
    row0 = local_cost(0, 1, lo, hi)
    B = row0.shape[0]
    if abandon_above is None:
        step = max(1, _BLOCK_VALUES // B)
        bound = np.max([local_cost(i, min(n, i + step), W, W + 1).max(axis=1, keepdims=True)
                        for i in range(0, n, step)], axis=0)
    else:
        bound = np.full((B, 1, 1), float(abandon_above))
    # a kept cell is within its member's bound, so a column keeps one iff its min <= top
    top = bound.max()

    def pruned(lc):
        return np.where(lc > bound, np.inf, lc)

    # two row buffers with two pad columns a side; column k sits at k + 2,
    # and a cell outside the previous row's range reads as (+inf, 4 * _PEN_INF)
    D = np.full((2, B, width + 4), np.inf)
    P4 = np.full((2, B, width + 4), 4 * _PEN_INF, dtype=np.int64)
    D[0, :, lo + 2:hi + 2] = pruned(row0)[:, 0]
    P4[0, :, lo + 2:hi + 2] = pen4[lo:hi]
    choices = np.empty((n, B, width), dtype=np.int8)
    best = np.empty((B, width))
    blk, b0, b1, c0, c1 = None, 0, 0, 0, 0
    written = [None, None]
    for i in range(n):
        if i:
            if not (i < b1 and c0 <= lo and hi <= c1):
                # a block of rows at this row's columns widened by _BLOCK_MARGIN
                b0, c0, c1 = i, max(lo - _BLOCK_MARGIN, 0), min(hi + _BLOCK_MARGIN, width)
                rows = _BLOCK_VALUES // (B * (c1 - c0))
                b1 = min(n, i + max(1, min(_BLOCK_ROWS, rows)))
                blk = pruned(local_cost(b0, b1, c0, c1))
            lc = blk[:, i - b0, lo - c0:hi - c0]
            d, p = D[(i - 1) % 2, :, lo + 1:hi + 3], P4[(i - 1) % 2, :, lo + 1:hi + 3]
            b = best[:, lo:hi]
            # predecessor of offset k is k (diagonal, dj=1), k+1 (dj=0) or k-1 (dj=2)
            np.minimum(d[:, 1:-1], d[:, 2:], out=b)
            np.minimum(b, d[:, :-2], out=b)
            q = np.where(d[:, 1:-1] == b, p[:, 1:-1], _KEY_INF)
            np.minimum(q, np.where(d[:, 2:] == b, p[:, 2:] + 1, _KEY_INF), out=q)
            np.minimum(q, np.where(d[:, :-2] == b, p[:, :-2] + 2, _KEY_INF), out=q)
            np.bitwise_and(q, 3, out=choices[i, :, lo:hi], casting="unsafe")
            np.bitwise_and(q, ~3, out=P4[i % 2, :, lo + 2:hi + 2])
            P4[i % 2, :, lo + 2:hi + 2] += pen4[lo:hi]
            # a pruned predecessor is +inf, so the max is <= the bound or +inf
            np.maximum(lc, b, out=D[i % 2, :, lo + 2:hi + 2])
        # the next row reads at most two cells past this row's range; clear
        # them unless this buffer's last row had the same range and cleared them
        if written[i % 2] != (lo, hi):
            D[i % 2, :, lo:lo + 2] = D[i % 2, :, hi + 2:hi + 4] = np.inf
            P4[i % 2, :, lo:lo + 2] = P4[i % 2, :, hi + 2:hi + 4] = 4 * _PEN_INF
            written[i % 2] = lo, hi
        live = D[i % 2, :, lo + 2:hi + 2].min(axis=0) <= top
        left, right = int(live.argmax()), int(live[::-1].argmax())
        k_lo, k_hi = cone(i + 1)
        last_lo, last_hi = lo, hi
        lo, hi = max(lo + left - 1, k_lo), min(hi - right + 1, k_hi)
        if not live[left] or lo >= hi:  # no cell left, or none next to the pinned offset
            return np.full(B, np.inf), np.full((B, n), -1, dtype=np.int64)
    d = D[(n - 1) % 2, :, last_lo + 2:last_hi + 2]
    p = P4[(n - 1) % 2, :, last_lo + 2:last_hi + 2]
    costs = d.min(axis=1)
    k = np.where(d == costs[:, None], p, _KEY_INF).argmin(axis=1) + last_lo
    paths = np.empty((n, B), dtype=np.int64)
    paths[-1] = k
    pairs = np.arange(B)
    for i in range(n - 1, 0, -1):
        k = k + _STEP[choices[i, pairs, k]]
        paths[i - 1] = k
    if abandon_above is not None:
        dead = costs > abandon_above
        costs[dead] = np.inf
        paths[:, dead] = -1
    return costs, paths.T


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
    """How many pairs sampled over [-T, T] with step h one kernel call holds."""
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
    # windows[b, i, k] = y_ext[b, i + k]: a strided view, never materialized
    windows = np.moveaxis(sliding_window_view(y_ext, 2 * W + 1, axis=1), -1, 2)

    def local_cost(i0, i1, lo, hi):
        return _weighted_ratio(space.distance(x_pts[:, i0:i1, None, :], windows[:, i0:i1, lo:hi]),
                               w[:, i0:i1, None])

    fix_idx = n_half if fix_zero else None
    costs, paths = _minimax_band_dp(local_cost, n, W, fix_row=fix_idx)
    # the local costs along each chosen path, recomputed to locate its max
    along = _weighted_ratio(space.distance(
        x_pts, y_ext[np.arange(len(pairs))[:, None], np.arange(n) + paths]), w)
    return [AlignmentResult(cost=float(c), reparam=_lift_path(xs.times, path, W, h, fix_idx),
                            argmax_t=float(xs.times[int(np.argmax(a))]),
                            weight_kind=weight_kind)
            for (xs, _), c, path, a in zip(pairs, costs, paths, along)]


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
    """Smallest-|t| time in [lo, hi] with d(phi_t(x), target) <= tol, if any."""
    x = as_coords(x)
    target = as_coords(target)
    if flow.transit_time_fn is not None:
        interior = 0.0 < x[0] < 1.0 and 0.0 < target[0] < 1.0
        if interior:
            t0 = float(flow.transit_time_fn(x[0], target[0]))
            if math.isfinite(t0) and flow.space.distance(flow.evaluate(t0, x), target) <= tol:
                # the transit time is unique for a monotone flow
                return t0 if lo <= t0 <= hi else None
        else:
            same = flow.space.distance(x, target) <= tol
            return 0.0 if same and lo <= 0.0 <= hi else None
    if flow.space.distance(x, target) <= tol and lo <= 0.0 <= hi:
        return 0.0
    if hi - lo < 1e-15:
        d0 = flow.space.distance(flow.evaluate(lo, x), target)
        return lo if d0 <= tol else None

    n = 257
    ts = np.linspace(lo, hi, n)
    pts = flow.evaluate(ts, x)
    d = flow.space.distance(pts, target[None, :])
    # between grid points the orbit moves at most ~ the consecutive travel,
    # so a true hit cannot hide under a coarse minimum above tol + travel
    travel = float(flow.space.distance(pts[1:], pts[:-1]).max())
    thresh = tol + travel
    if d.min() > thresh:
        return None
    hits = []
    for i in range(n):
        is_min = (i == 0 or d[i] <= d[i - 1]) and (i == n - 1 or d[i] <= d[i + 1])
        if not is_min or d[i] > thresh:
            continue
        a = ts[max(i - 1, 0)]
        b = ts[min(i + 1, n - 1)]
        for _ in range(90):
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            d1 = flow.space.distance(flow.evaluate(m1, x), target)
            d2 = flow.space.distance(flow.evaluate(m2, x), target)
            if d1 <= d2:
                b = m2
            else:
                a = m1
        t_star = 0.5 * (a + b)
        if flow.space.distance(flow.evaluate(t_star, x), target) <= tol:
            hits.append(t_star)
    if not hits:
        return None
    return min(hits, key=abs)


def orbit_membership(flow: FlowModel, x, y, eps: float,
                     tol_orbit: float = 1e-7) -> Optional[float]:
    """t0 in [-eps, eps] with phi_t0(x) within tol_orbit of y, if one exists.

    Uses the flow's closed-form transit time when available, otherwise a
    refined grid scan with local ternary refinement.
    """
    if eps < 0:
        raise AlignmentError("eps must be nonnegative")
    x = as_coords(x)
    y = as_coords(y)
    if flow.space.distance(x, y) <= tol_orbit:
        return 0.0
    return _find_orbit_time(flow, x, y, -eps, eps, tol_orbit)
