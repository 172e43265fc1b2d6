"""Spanning-set cardinalities, Bowen entropy ladders, and X_delta sets.

One cover rule, _min_cover, sizes every (t, eps) cell: exact up to
EXACT_SMALL_LIMIT points, greedy beyond (set cover is NP-hard), verified
either way. Greedy cardinalities are upper bounds whose approximation factor
washes out of the ln r(t, eps) / t slopes. Limits are replaced by finite
ladders: the reports carry ladder statistics, never a claimed limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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


def _forward_times(t: float, h_sample: float) -> np.ndarray:
    n = int(math.floor(t / h_sample + 1e-9))
    ts = np.arange(n + 1) * h_sample
    if ts[-1] < t - 1e-12:
        ts = np.append(ts, t)
    return ts


def bowen_ball_test(flow: FlowModel, x, y, t: float, eps: float,
                    h_sample: float = 0.05) -> bool:
    """Sampled max of d(phi_s x, phi_s y) over s in [0, t] is <= eps."""
    if t < 0:
        raise EntropyError("t must be nonnegative")
    x, y = as_coords(x), as_coords(y)
    ts = _forward_times(t, h_sample)
    d = flow.space.distance(flow.evaluate(ts, x), flow.evaluate(ts, y))
    return bool(d.max() <= eps)


def _bowen_matrices(flow, pts, t_ladder, h_sample):
    """Pairwise running-max distances at each ladder horizon.

    Returns {t: (m, m) matrix}; one pass over the time grid with the
    running max checkpointed at the ladder values.
    """
    pts = np.array([as_coords(p) for p in pts])
    m = pts.shape[0]
    t_ladder = sorted(t_ladder)
    ts = _forward_times(t_ladder[-1], h_sample)
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


def _greedy_cover(cover: np.ndarray) -> list:
    """Greedy set cover on a boolean centers-by-points matrix; ties go low."""
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


def _exact_minimum_cover(cover: np.ndarray) -> list:
    m = cover.shape[0]
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            if cover[list(combo)].any(axis=0).all():
                return list(combo)
    raise EntropyError("unreachable: full set always covers")


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
    """(t, eps)-spanning subset of K_grid, chosen and verified by _min_cover."""
    pts = [as_coords(p) for p in K_grid]
    if not pts:
        raise EntropyError("empty grid")
    chosen, method = _min_cover(_bowen_matrices(flow, pts, [t], h_sample)[t] <= eps)
    return SpanningEstimate(
        t=float(t), eps=float(eps), cardinality=len(chosen),
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
    slope honest since ln(approximation factor) / t vanishes.
    """
    t_ladder = sorted(float(t) for t in t_ladder)
    eps_ladder = sorted((float(e) for e in eps_ladder), reverse=True)
    if len(t_ladder) < 2:
        raise EntropyError("degenerate t ladder")
    pts = [as_coords(p) for p in K_grid]
    if not pts:
        raise EntropyError("empty grid")
    mats = _bowen_matrices(flow, pts, t_ladder, h_sample)
    r_table = []
    slopes = []
    for eps in eps_ladder:
        rs = []
        for t in t_ladder:
            chosen, _ = _min_cover(mats[t] <= eps)
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
    """
    if delta <= 0:
        raise EntropyError("delta must be positive")
    if grid is None:
        grid = flow.space.grid(16) if hasattr(flow.space, "radii") else flow.space.grid(64)
    pts = [as_coords(p) for p in grid]
    if flow.singular.distance_fn is None and not flow.singular.points:
        # empty singular set: dist is identically the diameter
        return [p for p in pts if flow.space.diameter >= delta]
    kept = []
    for p in pts:
        if float(flow.singular.distances(p)) < delta:
            continue
        dists = sample_orbit(flow, p, T_escape, h).sing_dists
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
