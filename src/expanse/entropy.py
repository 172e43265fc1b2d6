"""Spanning-set cardinalities, Bowen entropy ladders, and X_delta sets.

Bowen covers come from one sweep over the sampled time grid that keeps only
live pairs: the running max of d(phi_s x, phi_s y) never falls, so a pair
above the ladder's largest eps is dropped for good, and each ladder time
writes one boolean cover per eps. No float distance matrix is kept.

One cover rule, _min_cover, sizes every (t, eps) cell: exact up to
EXACT_SMALL_LIMIT points, greedy beyond (set cover is NP-hard; the greedy
updates its counts incrementally), verified either way. Greedy cardinalities
are upper bounds whose approximation factor washes out of the
ln r(t, eps) / t slopes. Limits are replaced by finite ladders: the reports
carry ladder statistics, never a claimed limit. Ladders and h_sample are
checked before any sweep; a bad one raises EntropyError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import require
from .flows import FlowModel, sample_orbit
from .spaces import as_coords

EXACT_SMALL_LIMIT = 20


class EntropyError(ValueError):
    pass


@dataclass(frozen=True)
class SpanningEstimate:
    t: float
    eps: float
    cardinality: int
    spanning_points: tuple
    method: str  # greedy_cover | exact_small


@dataclass
class EntropyEstimate:
    per_eps_slopes: list        # (eps, slope of ln r over the t ladder)
    h_estimate: float           # slope at the smallest eps
    K_descriptor: dict
    r_table: list = field(default_factory=list)  # (t, eps, r)
    all_empty: bool = False


def _ladders(t_ladder, eps_ladder, h_sample, min_times: int = 2) -> tuple:
    """(t ascending, eps descending) as floats; EntropyError names a bad input."""
    t_ladder = sorted(float(t) for t in t_ladder)
    eps_ladder = sorted((float(e) for e in eps_ladder), reverse=True)
    if len(t_ladder) < min_times:
        raise EntropyError(f"degenerate t ladder: need at least {min_times} times")
    if not eps_ladder:
        raise EntropyError("empty eps ladder")
    for t in t_ladder:
        require(EntropyError, "nonnegative", t=t)
    for eps in eps_ladder:
        require(EntropyError, "nonnegative", eps=eps)
    require(EntropyError, "positive", h_sample=h_sample)
    return t_ladder, eps_ladder


def _forward_times(t: float, h_sample: float) -> np.ndarray:
    n = int(math.floor(t / h_sample + 1e-9))
    ts = np.arange(n + 1) * h_sample
    if ts[-1] < t - 1e-12:
        ts = np.append(ts, t)
    return ts


def _bowen_covers(flow, pts, t_ladder, eps_ladder, h_sample):
    """Bowen covers {(t, eps): (m, m) bool}: running max of d(phi_s x, phi_s y) <= eps.

    One pass over the time grid sweeps int32 index lists of the upper-half
    pairs (i <= j) that are still live. A running max never falls, so after
    each step a pair above max(eps_ladder) is dropped for good. At each
    ladder time every eps writes one cover, mirrored; the mirror is exact
    because every space's metric is symmetric bit for bit.
    """
    pts = np.array([as_coords(p) for p in pts])
    m = pts.shape[0]
    t_ladder = sorted(t_ladder)
    eps_max = max(eps_ladder)
    ts = _forward_times(t_ladder[-1], h_sample)
    orbits = np.stack([flow.evaluate(ts, p) for p in pts], axis=1)  # (n_t, m, d)
    rows, cols = (a.astype(np.int32) for a in np.triu_indices(m))
    running = np.zeros(rows.size)
    out = {}
    next_cp = 0
    for j in range(len(ts)):
        snap = orbits[j]
        d = flow.space.distance(snap.take(rows, axis=0), snap.take(cols, axis=0))
        np.maximum(running, d, out=running)
        live = running <= eps_max
        if not live.all():
            rows, cols, running = rows[live], cols[live], running[live]
        while next_cp < len(t_ladder) and ts[j] >= t_ladder[next_cp] - 1e-12:
            for eps in eps_ladder:
                keep = running <= eps
                cover = np.zeros((m, m), dtype=bool)
                cover[rows[keep], cols[keep]] = True
                cover[cols[keep], rows[keep]] = True
                out[(t_ladder[next_cp], eps)] = cover
            next_cp += 1
    return out


def _greedy_cover(cover: np.ndarray) -> list:
    """Greedy set cover on a boolean centers-by-points matrix; ties go low.

    The counts of still-uncovered points per centre are kept incrementally:
    each pick subtracts the columns of the points it newly covers.
    """
    covered_by = np.ascontiguousarray(cover.T)  # row p: the centres covering point p
    counts = np.count_nonzero(cover, axis=1)
    uncovered = np.ones(cover.shape[0], dtype=bool)
    chosen = []
    while uncovered.any():
        c = int(np.argmax(counts))
        if counts[c] == 0:
            raise EntropyError("grid point not coverable (should cover itself)")
        chosen.append(c)
        new = cover[c] & uncovered
        uncovered &= ~new
        counts -= np.count_nonzero(covered_by[new], axis=0)
    return chosen


def _exact_minimum_cover(cover: np.ndarray) -> list:
    """First minimum cover in itertools.combinations order, on int bitmasks.

    Bit p of rows[c] says centre c covers point p. The minimum size comes
    from branching on the coverers of the lowest uncovered point; the
    centres then come from a search in lexicographic order, pruned when the
    union of all centres still allowed cannot finish the cover.
    """
    m = cover.shape[0]
    rows = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little")
            for r in cover]
    full = (1 << m) - 1
    coverers = [[c for c in range(m) if rows[c] >> p & 1] for p in range(m)]

    def coverable(covered: int, k: int) -> bool:
        if covered == full:
            return True
        if k == 0:
            return False
        p = (~covered & (covered + 1)).bit_length() - 1  # lowest uncovered point
        return any(coverable(covered | rows[c], k - 1) for c in coverers[p])

    size = next((k for k in range(1, m + 1) if coverable(0, k)), None)
    if size is None:
        raise EntropyError("grid point not coverable (should cover itself)")
    suffix = [0] * (m + 1)  # suffix[c]: union of rows[c:]
    for c in range(m - 1, -1, -1):
        suffix[c] = suffix[c + 1] | rows[c]

    def first(covered: int, start: int, k: int):
        if k == 0:
            return [] if covered == full else None
        for c in range(start, m - k + 1):
            if covered | suffix[c] != full:
                return None
            rest = first(covered | rows[c], c + 1, k - 1)
            if rest is not None:
                return [c] + rest
        return None

    return first(0, 0, size)


def _min_cover(cover: np.ndarray) -> tuple:
    """(centers, method): exact up to EXACT_SMALL_LIMIT points, else greedy; verified."""
    if cover.shape[0] <= EXACT_SMALL_LIMIT:
        chosen, method = _exact_minimum_cover(cover), "exact_small"
    else:
        chosen, method = _greedy_cover(cover), "greedy_cover"
    if not cover[chosen].any(axis=0).all():
        raise EntropyError("cover verification failed")
    return chosen, method


def spanning_cardinality(flow: FlowModel, K_grid, t: float, eps: float,
                         h_sample: float = 0.05) -> SpanningEstimate:
    """(t, eps)-spanning subset of K_grid (points of flow.space), verified by _min_cover."""
    (t,), (eps,) = _ladders([t], [eps], h_sample, min_times=1)
    pts = [flow.space.point(p).vec for p in K_grid]
    if not pts:
        raise EntropyError("empty grid")
    chosen, method = _min_cover(_bowen_covers(flow, pts, [t], [eps], h_sample)[(t, eps)])
    return SpanningEstimate(
        t=t, eps=eps, cardinality=len(chosen),
        spanning_points=tuple(tuple(pts[c]) for c in chosen), method=method)


def _slope(ts, lnr) -> float:
    ts = np.asarray(ts, dtype=float)
    lnr = np.asarray(lnr, dtype=float)
    A = np.stack([ts, np.ones_like(ts)], axis=1)
    coef, *_ = np.linalg.lstsq(A, lnr, rcond=None)
    return float(coef[0])


def entropy_estimate(flow: FlowModel, K_grid, t_ladder, eps_ladder,
                     h_sample: float = 0.05,
                     K_descriptor: Optional[dict] = None) -> EntropyEstimate:
    """Least-squares slopes of ln r(t, eps) over the t ladder, per eps.

    h_estimate is the slope at the smallest eps; greedy covers keep the
    slope honest since ln(approximation factor) / t vanishes. A K_grid point
    outside flow.space raises SpaceError.
    """
    t_ladder, eps_ladder = _ladders(t_ladder, eps_ladder, h_sample)
    pts = [flow.space.point(p).vec for p in K_grid]
    if not pts:
        raise EntropyError("empty grid")
    covers = _bowen_covers(flow, pts, t_ladder, eps_ladder, h_sample)
    r_table = []
    slopes = []
    for eps in eps_ladder:
        rs = []
        for t in t_ladder:
            chosen, _ = _min_cover(covers[(t, eps)])
            rs.append(len(chosen))
            r_table.append((t, eps, len(chosen)))
        slopes.append((eps, _slope(t_ladder, np.log(rs))))
    return EntropyEstimate(
        per_eps_slopes=slopes, h_estimate=slopes[-1][1],
        K_descriptor=K_descriptor or {"n_points": len(pts)}, r_table=r_table)


def x_delta_set(flow: FlowModel, delta: float, grid=None,
                T_escape: float = 50.0, h: float = 0.05) -> list:
    """Grid points whose sampled orbit never enters the open delta-tube of Sing.

    Over-approximates the maximal invariant set outside U_delta(Sing) and
    shrinks as T_escape grows. Membership in U_delta is strict (< delta).
    A grid point outside flow.space raises SpaceError.
    """
    require(EntropyError, "positive", delta=delta, T_escape=T_escape, h=h)
    if grid is None:
        grid = flow.space.grid(16) if hasattr(flow.space, "radii") else flow.space.grid(64)
    pts = [flow.space.point(p).vec for p in grid]
    if flow.singular.distance_fn is None and not flow.singular.points:
        # empty singular set: dist is identically the diameter
        return [p for p in pts if flow.space.diameter >= delta]
    kept = []
    for p in pts:
        if float(flow.singular.distances(p)) < delta:
            continue
        dists = flow.singular.distances(sample_orbit(flow, p, T_escape, h).points)
        if float(dists.min()) >= delta:
            kept.append(p)
    return kept


def h_star_estimate(flow: FlowModel, delta_ladder, t_ladder, eps_ladder,
                    grid=None, T_escape: float = 50.0,
                    h_sample: float = 0.05) -> EntropyEstimate:
    """Bowen entropy of the nonsingular part: max over X_delta grids.

    Builds K = X_delta for each ladder delta and estimates h(phi, K);
    returns 0 with an emptiness flag when every X_delta grid is empty.
    """
    _ladders(t_ladder, eps_ladder, h_sample)
    if not len(delta_ladder):
        raise EntropyError("empty delta ladder")
    best = None
    for delta in delta_ladder:
        K = x_delta_set(flow, float(delta), grid=grid, T_escape=T_escape)
        if not K:
            continue
        est = entropy_estimate(flow, K, t_ladder, eps_ladder, h_sample=h_sample,
                               K_descriptor={"delta": float(delta),
                                             "n_points": len(K)})
        if best is None or est.h_estimate > best.h_estimate:
            best = est
    if best is None:
        return EntropyEstimate(per_eps_slopes=[], h_estimate=0.0,
                               K_descriptor={"empty": True}, all_empty=True)
    return best
