"""Monotone time-reparametrization search minimizing weighted orbit separation.

The class of increasing homeomorphisms is approximated by monotone lattice
paths on the sample grid: each x-time t_i is paired with one y-time u_j,
and j advances by 0, 1 or 2 cells per step inside a fixed offset band
|u - t| <= band_width. The path cost is the sup (not the sum) of the
weighted separations, matching the "for every t" bound of the expansivity
definitions; ties are broken toward the path closest to the identity.
Lattice paths are lifted to strictly increasing piecewise-linear maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flows import FlowModel, OrbitSample
from .spaces import as_coords

_PEN_INF = np.int64(2 ** 62)
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


def rep_epsilon_check(s: Reparam, eps: float, tol: float = 1e-9) -> bool:
    """True iff every knot-interval slope lies in [1-eps, 1+eps].

    For piecewise-linear maps the knot-slope condition is equivalent to the
    bound over all difference quotients. Slopes are compared to within a
    1e-9 cushion so exactly-representable offsets of the identity pass.
    """
    return bool(np.all(np.abs(s.slopes() - 1.0) <= eps + tol))


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
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dists / w
    bad = w <= 0.0
    if bad.any():
        ratio = np.where(bad & (dists <= 0.0), 0.0, ratio)
        ratio = np.where(bad & (dists > 0.0), np.inf, ratio)
    return ratio


def _lex_min3(c1, p1, c0, p0, c2, p2):
    """Lexicographic (cost, penalty) min of three candidate rows.

    The first candidate wins ties, so the diagonal step is preferred.
    """
    best_c, best_p = c1.copy(), p1.copy()
    choice = np.ones(c1.shape, dtype=np.int8)
    for cand_c, cand_p, tag in ((c0, p0, np.int8(0)), (c2, p2, np.int8(2))):
        better = (cand_c < best_c) | ((cand_c == best_c) & (cand_p < best_p))
        best_c = np.where(better, cand_c, best_c)
        best_p = np.where(better, cand_p, best_p)
        choice = np.where(better, tag, choice)
    return best_c, best_p, choice


def _minimax_band_dp(lc: np.ndarray, W: int, fix_row: Optional[int] = None):
    """Minimax DP over monotone lattice paths in an offset band.

    lc[i, k] is the local cost of pairing x-time i with y-offset k - W
    cells; j advances by 0, 1 or 2 per i step. Returns (cost, k-path).
    """
    n, width = lc.shape
    pen_unit = np.abs(np.arange(width, dtype=np.int64) - W)
    D = lc[0].copy()
    P = pen_unit.copy()
    choices = np.empty((n, width), dtype=np.int8)
    if fix_row == 0:
        D[np.arange(width) != W] = np.inf
        P[np.arange(width) != W] = _PEN_INF
    for i in range(1, n):
        # predecessor of offset k is k+1 (dj=0), k (dj=1) or k-1 (dj=2)
        c0 = np.append(D[1:], np.inf)
        p0 = np.append(P[1:], _PEN_INF)
        c2 = np.concatenate(([np.inf], D[:-1]))
        p2 = np.concatenate(([_PEN_INF], P[:-1]))
        best_c, best_p, ch = _lex_min3(D, P, c0, p0, c2, p2)
        D = np.maximum(lc[i], best_c)
        P = best_p + pen_unit
        choices[i] = ch
        if fix_row == i:
            D = np.where(np.arange(width) == W, D, np.inf)
            P = np.where(np.arange(width) == W, P, _PEN_INF)
    order = np.lexsort((P, D))
    k = int(order[0])
    cost = float(D[k])
    path = np.empty(n, dtype=np.int64)
    path[-1] = k
    for i in range(n - 1, 0, -1):
        k = k + 1 - int(choices[i, k])
        path[i - 1] = k
    return cost, path


def _lift_path(times: np.ndarray, path_k: np.ndarray, W: int, h: float,
               fix_idx: Optional[int]) -> Reparam:
    """Lift a lattice path to a strictly increasing piecewise-linear map.

    Flat runs (repeated y-cells) are spread by a slope of ~1e-12 so knot
    values stay strictly monotone; when a zero anchor is requested the
    spread is centered there so s(0) = 0 exactly.
    """
    j_abs = np.arange(len(path_k)) + path_k  # y-cell index, origin at -T - W*h
    s = (j_abs - (len(times) - 1) // 2 - W) * h
    eta = h * _FLAT_SLOPE
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
    return Reparam(times.copy(), s + corr)


def align(xs: OrbitSample, ys: OrbitSample, weight_kind: str = "unit",
          fix_zero: bool = False, band_width: float = 2.0) -> AlignmentResult:
    """Minimal sup-cost alignment of two orbit samples.

    Searches monotone lattice paths with |s(t) - t| <= band_width and
    returns the piecewise-linear reparametrization achieving the minimum of
    sup_t d(phi_t(x), phi_{s(t)}(y)) / w(phi_t(x)). With fix_zero the path
    is constrained through s(0) = 0.
    """
    if abs(xs.step_h - ys.step_h) > 1e-15 or abs(xs.window_T - ys.window_T) > 1e-12:
        raise AlignmentError("samples must share T and h")
    h = xs.step_h
    W = int(math.floor(band_width / h + 1e-9))
    if W < 1:
        raise AlignmentError("infeasible band: band_width < h")

    flow = ys.flow
    n = len(xs.times)
    n_half = (n - 1) // 2
    times_ext = np.arange(-(n_half + W), n_half + W + 1, dtype=float) * h
    y_ext = flow.evaluate(times_ext, ys.base)

    idx = np.arange(n)[:, None] + np.arange(2 * W + 1)[None, :]
    dists = flow.space.distance(xs.points[:, None, :], y_ext[idx])
    w = _weights(xs, weight_kind)
    lc = _weighted_ratio(dists, w[:, None])

    fix_idx = n_half if fix_zero else None
    cost, path = _minimax_band_dp(lc, W, fix_row=fix_idx)
    reparam = _lift_path(xs.times, path, W, h, fix_idx)
    per_t = lc[np.arange(n), path]
    argmax_t = float(xs.times[int(np.argmax(per_t))])
    return AlignmentResult(cost=cost, reparam=reparam, argmax_t=argmax_t,
                           weight_kind=weight_kind)


def recompute_cost(flow: FlowModel, x, y, times: np.ndarray, reparam: Reparam,
                   weight_kind: str):
    """Re-evaluate the sup of the weighted separation along a given reparam.

    Used to audit alignment results and recorded witnesses: evaluates both
    flows afresh on the sample grid rather than trusting cached arrays.
    """
    from .flows import sample_orbit

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
