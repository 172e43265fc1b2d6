"""Falsifiers and desk-scale certifiers for the expansivity hierarchy.

A "certified_at_scale" verdict is not a proof: the properties quantify
over all pairs, all increasing homeomorphisms and all of R, and every
truncation (window, step, grid, band) is recorded in the report. Only a
falsification, which exhibits a concrete witness pair, is conclusive.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .alignment import (
    AlignmentResult,
    Reparam,
    _align_batch,
    _find_orbit_time,
    pairs_per_batch,
)
from .config import require
from .flows import FlowModel, field_norm, sample_orbit
from .spaces import CircleUnion, FiniteSet, Interval01, Point, Torus2, as_coords

DEFAULT_T = 20.0
DEFAULT_H = 0.01
DEFAULT_BAND = 2.0
TOL_ORBIT = 1e-7

# weight kind, zero-fixing flag and t0 quantifier mandated by each definition
PROPERTY_RULES = {
    "expansive": ("unit", True, "t0_zero"),
    "kstar": ("unit", True, "t0_free"),
    "rescaling": ("field_norm", False, "t0_zero"),
    "singular_expansive": ("sing_dist", False, "t0_free"),
}


class ExpansivityError(ValueError):
    pass


@dataclass(frozen=True)
class Witness:
    x: Point
    y: Point
    alignment: AlignmentResult


@dataclass
class PropertyReport:
    property: str
    verdict: str  # falsified | certified_at_scale | inconclusive
    eps: float
    delta: float
    scale: dict
    witness: Optional[Witness] = None
    stats: dict = field(default_factory=dict)
    pair_costs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = {
            "property": self.property,
            "verdict": self.verdict,
            "eps": self.eps,
            "delta": self.delta,
            "scale": dict(self.scale),
            "stats": dict(self.stats),
        }
        if self.witness is not None:
            w = self.witness
            rep = w.alignment.reparam.compressed()
            doc["witness"] = {
                "x": list(w.x.coords),
                "y": list(w.y.coords),
                "cost": w.alignment.cost,
                "argmax_t": w.alignment.argmax_t,
                "weight_kind": w.alignment.weight_kind,
                "reparam_knots_t": rep.knots_t.tolist(),
                "reparam_knots_s": rep.knots_s.tolist(),
            }
        return doc


# ------------------------------------------------------------- pair grids

def _interval_bases(delta: float) -> list:
    xs = set(np.linspace(0.0, 1.0, 18)[1:-1])
    for c in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        v = delta * c
        if 0.0 < v < 0.5:
            xs.add(v)
            xs.add(1.0 - v)
    for k in range(2, 14):
        xs.add(2.0 ** -k)
        xs.add(1.0 - 2.0 ** -k)
    return [np.array([x]) for x in sorted(xs)]


def default_pair_grid(flow: FlowModel, delta: float) -> list:
    """Deterministic stratified pair grid for the expansivity falsifiers.

    Stratification is orbit-dense near the singular set, where the
    interesting violations live: adjacent-circle radial pairs (outermost
    first) on circle unions, geometric ladders near the endpoints on the
    interval.
    Each base also gets a same-orbit partner so the conclusion-true branch
    is exercised.
    """
    sp = flow.space
    pairs = []
    if isinstance(sp, CircleUnion):
        angles = [2.0 * math.pi * k / 4 for k in range(4)]
        for i in range(len(sp.radii)):
            for ang in angles:
                x = sp.on_circle(i, ang)
                if i + 1 < len(sp.radii):
                    pairs.append((x, sp.on_circle(i + 1, ang)))
                r = sp.radii[i]
                chord = min(delta, 1.8 * r)
                dtheta = 2.0 * math.asin(chord / (2.0 * r))
                pairs.append((x, sp.on_circle(i, ang + dtheta)))
                if not flow.forward_only:
                    pairs.append((x, flow.evaluate(0.5, x)))
    elif isinstance(sp, Interval01):
        for x in _interval_bases(delta):
            for y in sp.partners(x, delta) + sp.partners(x, 0.5 * delta):
                pairs.append((x, y))
            if not flow.forward_only:
                pairs.append((x, flow.evaluate(0.5, x)))
    elif isinstance(sp, FiniteSet):
        pts = sp.grid()
        pairs = [(a, b) for a in pts for b in pts]
    elif isinstance(sp, Torus2):
        for x in sp.grid(6):
            for y in sp.partners(x, delta):
                pairs.append((x, y))
    else:
        raise ExpansivityError(f"no default pair grid for {sp.kind}")
    return pairs


def _t0_ladder(T: float, step: float) -> np.ndarray:
    """Candidate t0 values ordered outward from 0: 0, step, -step, 2 step, ..."""
    ts = np.arange(1, int(T / step) + 1) * step
    return np.r_[0.0, np.column_stack((ts, -ts)).ravel()]


def _scan_pairs(flow, pairs, cost, batch=1):
    """Yield (x, y, cost of the pair) for each pair, in order.

    cost maps a list of distinct (x, y) pairs of coordinate tuples to a
    list of costs and samples what it needs; this only schedules. Distinct
    pairs are costed `batch` at a time in first-listing order, so pairs
    after the one being yielded may already be costed. This is the only
    batcher: the alignment drivers pass pairs_per_batch(T, h, band_width),
    and _align_batch samples and costs each chunk in one kernel call. A pair
    listed more than once is costed once; its cost is held only until its
    last listing, since a cost may carry a path. A point outside flow.space
    raises SpaceError before any pair is costed.
    """
    pairs = [(flow.space.point(x).vec, flow.space.point(y).vec) for x, y in pairs]
    keys = [(tuple(x), tuple(y)) for x, y in pairs]
    listings = Counter(keys)
    todo = list(listings)  # distinct pairs, in first-listing order
    held = {}
    for (x, y), key in zip(pairs, keys):
        if key not in held:  # its first listing: key is todo's head
            chunk, todo = todo[:batch], todo[batch:]
            held.update(zip(chunk, cost(chunk)))
        listings[key] -= 1
        c = held[key] if listings[key] else held.pop(key)
        yield x, y, c


def _property_scan(flow, property, T, h, band_width, t0_step, strict_t0=False,
                   path_below=math.inf):
    """(scan, holds) for a property: its PROPERTY_RULES row is read only here.

    scan maps pairs to _scan_pairs' (x, y, alignment) triples, costed by
    _align_batch under the property's weight and pin in batches of
    pairs_per_batch; only pairs with cost <= path_below get a path.
    holds(x, y, eps, res) is the conclusion: phi_{s(t0)}(y) in
    phi_[t0-eps,t0+eps](x), up to TOL_ORBIT in closed form (_find_orbit_time),
    for some t0 on _t0_ladder(T, t0_step), or at t0 = 0 alone for a t0_zero
    property or strict_t0.
    """
    if property not in PROPERTY_RULES:
        raise ExpansivityError(f"unknown property: {property!r}")
    require(ExpansivityError, "positive", T=T, h=h, band_width=band_width, t0_step=t0_step)
    weight_kind, fix_zero, t0_mode = PROPERTY_RULES[property]
    ladder = [0.0] if strict_t0 or t0_mode == "t0_zero" else _t0_ladder(T, t0_step)
    batch = pairs_per_batch(T, h, band_width)

    def cost(pairs):
        return _align_batch(flow, pairs, T, h, weight_kind, fix_zero, band_width, path_below)

    def holds(x, y, eps, res):
        for t0 in ladder:
            p = flow.evaluate(res.reparam(float(t0)), as_coords(y))
            if _find_orbit_time(flow, x, p, t0 - eps, t0 + eps, TOL_ORBIT) is not None:
                return True
        return False

    return (lambda pairs: _scan_pairs(flow, pairs, cost, batch)), holds


def _falsify(flow, pairs, max_pairs, scan, fails):
    """The one verdict rule: (verdict, witness, pair_costs) of a scan for a witness.

    scan maps pairs[:max_pairs] to (x, y, result) triples; the first that
    fails is the witness ("falsified"), else a scan cut short by max_pairs
    is "inconclusive" and a full one "certified_at_scale".
    """
    if max_pairs is not None:
        require(ExpansivityError, "count", max_pairs=max_pairs)
    scanned, pair_costs = pairs[:max_pairs], []
    for x, y, res in scan(scanned):
        pair_costs.append((tuple(x), tuple(y), res.cost))
        if fails(x, y, res):
            witness = Witness(flow.space.point(*x), flow.space.point(*y), res)
            return "falsified", witness, pair_costs
    verdict = "inconclusive" if len(scanned) < len(pairs) else "certified_at_scale"
    return verdict, None, pair_costs


def check_property(flow: FlowModel, property: str, eps: float, delta: float,
                   pair_grid=None, *, T: float = DEFAULT_T, h: float = DEFAULT_H,
                   band_width: float = DEFAULT_BAND, strict_t0: bool = False,
                   t0_step: float = 0.5, max_pairs: Optional[int] = None) -> PropertyReport:
    """Falsify or desk-scale-certify one of the four expansivity properties.

    For each sampled pair, minimizes the property's weighted separation over
    reparametrizations; a pair with cost <= delta whose conclusion fails (at
    the mandated t0 quantifier, over the sampled window) is a witness. The
    strict_t0 flag strengthens the free-t0 conclusions to t0 = 0.
    """
    require(ExpansivityError, "positive", eps=eps, delta=delta)
    # only a pair with cost <= delta can be a witness, so only its path is read
    scan, holds = _property_scan(flow, property, T, h, band_width, t0_step, strict_t0, delta)
    pairs = list(pair_grid) if pair_grid is not None else default_pair_grid(flow, delta)
    verdict, witness, pair_costs = _falsify(
        flow, pairs, max_pairs, scan,
        lambda x, y, res: res.cost <= delta and not holds(x, y, eps, res))
    return PropertyReport(
        property=property, verdict=verdict, eps=eps, delta=delta,
        witness=witness,
        scale={"T": T, "h": h, "band_width": band_width, "t0_step": t0_step,
               "t0_window": [-T, T], "strict_t0": strict_t0, "tol_orbit": TOL_ORBIT},
        stats={"pairs_checked": len(pair_costs), "pairs_total": len(pairs),
               "pairs_below_delta": sum(1 for *_, c in pair_costs if c <= delta)},
        pair_costs=pair_costs,
    )


# -------------------------------------------------------- equicontinuity

def _equicontinuity_pairs(flow, delta, singular_variant):
    sp = flow.space
    sing = flow.singular
    pairs = []

    def bound_at(x):
        return delta * float(sing.distances(as_coords(x))) if singular_variant else delta

    if isinstance(sp, Interval01):
        bases = _interval_bases(delta)
    elif isinstance(sp, (CircleUnion, FiniteSet, Torus2)):
        bases = sp.grid(8)
    else:
        raise ExpansivityError(f"no pair generator for {sp.kind}")
    for x in bases:
        b = bound_at(x)
        if b <= 0:
            continue
        # 0.999 keeps boundary partners strictly inside the hypothesis,
        # so fp noise cannot manufacture a violation of sup <= eps = delta
        # on an isometry
        for frac in (0.999, 0.5):
            for y in sp.partners(x, frac * b):
                if sp.distance(as_coords(x), as_coords(y)) <= b:
                    pairs.append((x, y))
    return pairs


def check_equicontinuity(flow: FlowModel, singular_variant: bool, eps: float,
                         delta: float, pair_grid=None, *, T: float = DEFAULT_T,
                         h: float = DEFAULT_H,
                         max_pairs: Optional[int] = None) -> PropertyReport:
    """Check that hypothesis-close pairs stay eps-close over the window.

    Plain variant: d(x, y) <= delta. Singular variant: d(x, y) <=
    delta * dist(x, Sing). The conclusion sup_{|t|<=T} d(phi_t x, phi_t y)
    <= eps is evaluated on the sample grid with no reparametrization.
    """
    require(ExpansivityError, "positive", eps=eps, delta=delta, T=T, h=h)
    pairs = list(pair_grid) if pair_grid is not None \
        else _equicontinuity_pairs(flow, delta, singular_variant)
    name = "singular_equicontinuous" if singular_variant else "equicontinuous"
    identity = Reparam.identity(-T, T)

    def sup_separation(pairs):
        xs, ys = (sample_orbit(flow, p, T, h) for p in pairs[0])
        seps = flow.space.distance(xs.points, ys.points)
        i = int(np.argmax(seps))
        return [AlignmentResult(cost=float(seps[i]), reparam=identity,
                                argmax_t=float(xs.times[i]), weight_kind="unit")]

    verdict, witness, pair_costs = _falsify(
        flow, pairs, max_pairs, lambda some: _scan_pairs(flow, some, sup_separation),
        lambda x, y, res: res.cost > eps)
    return PropertyReport(
        property=name, verdict=verdict, eps=eps, delta=delta, witness=witness,
        scale={"T": T, "h": h},
        stats={"pairs_checked": len(pair_costs), "pairs_total": len(pairs)},
        pair_costs=pair_costs,
    )


# -------------------------------------------------------- ball inclusion

def ball_inclusion_check(flow: FlowModel, eps: float, delta: float,
                         x_grid=None, ball_samples: int = 100) -> PropertyReport:
    """Verify B[x, delta dist(x, Sing)] subset of phi_[-eps,eps](x) on a grid.

    The sufficient condition for singular expansivity and singular
    equicontinuity; supported for one-dimensional flows, where the ball is
    an interval and transit times, one orbit_times call per ball, certify
    membership. A point with dist(x, Sing) = 0 has no ball and is skipped.
    """
    if not isinstance(flow.space, Interval01):
        raise ExpansivityError("ball inclusion check needs a one-dimensional flow")
    require(ExpansivityError, "positive", eps=eps)
    require(ExpansivityError, "count", ball_samples=ball_samples)
    if not 0.0 < delta < 0.5:
        raise ExpansivityError(f"delta must lie in (0, 1/2), got {delta!r}")
    grid = x_grid if x_grid is not None else flow.space.grid(1000)
    xs = np.array([as_coords(p)[0] for p in grid])

    def transits(xs):  # (x, the ball point of longest transit, that transit)
        for x in xs:
            rho = delta * float(flow.singular.distances(np.array([x])))
            if rho == 0.0:
                continue
            ys = np.linspace(x - rho, x + rho, ball_samples)
            ts = np.asarray(flow.orbit_times(np.array([x]), ys[:, None], -math.inf, math.inf))
            j = int(np.argmax(np.abs(ts)))
            yield [float(x)], [float(ys[j])], AlignmentResult(
                cost=float(abs(ts[j])), reparam=Reparam.identity(-eps, eps),
                argmax_t=float(ts[j]), weight_kind="unit")

    verdict, witness, transit = _falsify(flow, xs, None, transits,
                                         lambda x, y, res: res.cost > eps + 1e-9)
    (x,), (y,), top = max(transit, key=lambda row: row[2], default=((0.0,), (0.0,), 0.0))
    return PropertyReport(
        property="ball_inclusion", verdict=verdict, eps=eps, delta=delta,
        witness=witness,
        scale={"grid": len(xs), "ball_samples": ball_samples},
        stats={"max_transit_time": top, "argmax_pair": (x, y) if top > 0.0 else None},
    )


# ------------------------------------------------------------- constants

@dataclass(frozen=True)
class ConstantsReport:
    B: float
    C: float
    argmax_B: tuple
    argmax_C: tuple
    n_grid: int
    degenerate: bool


def _constants_grid(flow: FlowModel) -> list:
    sp = flow.space
    if isinstance(sp, Interval01):
        xs = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 1025)[1:-1],
            np.geomspace(1e-8, 0.4, 64),
            1.0 - np.geomspace(1e-8, 0.4, 64),
        ]))
        return [np.array([x]) for x in xs]
    if isinstance(sp, CircleUnion):
        return sp.grid(8, with_origin=False)
    return sp.grid(16)


def comparability_constants(flow: FlowModel) -> ConstantsReport:
    """Grid maxima of ||V|| / dist(., Sing) and its reciprocal.

    B bounds the field by the singular distance (Lipschitz direction); C
    the reverse, meaningful only when the field's zeros are nondegenerate.
    C is +inf when the grid exposes a vanishing field off the singular set.
    """
    pts = np.array([as_coords(p) for p in _constants_grid(flow)])
    norms = field_norm(flow, pts)
    dists = flow.singular.distances(pts)
    keep = dists > 0.0
    pts, norms, dists = pts[keep], norms[keep], dists[keep]
    if pts.shape[0] == 0:
        raise ExpansivityError("grid contains no nonsingular points")
    ratio_b = norms / dists
    i_b = int(np.argmax(ratio_b))
    degenerate = bool((norms == 0.0).any())
    with np.errstate(divide="ignore"):
        ratio_c = dists / norms
    i_c = int(np.argmax(ratio_c))
    return ConstantsReport(
        B=float(ratio_b[i_b]), C=float(ratio_c[i_c]),
        argmax_B=tuple(float(v) for v in pts[i_b]),
        argmax_C=tuple(float(v) for v in pts[i_c]),
        n_grid=pts.shape[0], degenerate=degenerate,
    )


def local_norm_constant(flow: FlowModel, n_pairs: int = 10_000, seed: int = 0) -> tuple:
    """Radius factor c with ||V(y)|| within [1/2, 2] of ||V(x)|| on c||V(x)||-balls.

    Starts from c = 1/(4 L) with L the flow's Lipschitz constant and halves
    c until the two-sided bound verifies on the sampled pairs. Returns
    (c, report).
    """
    pts = np.array([as_coords(p) for p in _constants_grid(flow)])
    norms = field_norm(flow, pts)
    L = flow.lipschitz_L
    if L <= 0:
        return math.inf, {"L_hat": 0.0, "halvings": 0, "pairs_checked": 0}
    c = 1.0 / (4.0 * L)
    rng = np.random.default_rng(seed)
    nonsing, nonsing_norms = pts[norms > 0], norms[norms > 0]
    halvings = 0
    while True:
        ok = True
        checked = 0
        for _ in range(n_pairs):
            i = rng.integers(len(nonsing))
            x, vx = nonsing[i], float(nonsing_norms[i])
            y = flow.space.sample_near(rng, x, 0.999 * c * vx)
            vy = field_norm(flow, y)
            checked += 1
            if not (0.5 * vx <= vy <= 2.0 * vx):
                ok = False
                break
        if ok or halvings >= 30:
            return c, {"L_hat": L, "halvings": halvings, "pairs_checked": checked}
        c *= 0.5
        halvings += 1


def return_time_bound_check(flow: FlowModel, x_grid=None, delta_grid=None, *,
                            r_hi: float = 3.0) -> dict:
    """Largest r0 such that returns to delta||V(x)||-balls force |t| < 3 delta.

    Bisects 20 times over r; for each r, scans sampled x, delta < r/3 and
    |t| < r (step 0.002) for a return d(phi_t x, x) <= delta ||V(x)|| with |t| >= 3 delta.
    Only the first 64 grid points off Sing are scanned; one outside flow.space raises SpaceError.
    """
    grid = x_grid if x_grid is not None else _constants_grid(flow)
    grid = [x for x in (flow.space.point(p).vec for p in grid)
            if float(flow.singular.distances(x)) > 0][:64]
    deltas = np.asarray(delta_grid if delta_grid is not None
                        else np.geomspace(1e-3, r_hi / 3.0 * 0.99, 10))
    h = 0.002
    ts = np.arange(-int(r_hi / h), int(r_hi / h) + 1) * h
    cache = []
    for x in grid:
        pts = flow.evaluate(ts, x)
        dist_back = flow.space.distance(pts, x[None, :])
        cache.append((x, dist_back, field_norm(flow, x)))

    def violation(r):
        for x, dist_back, vx in cache:
            t_mask = np.abs(ts) < r
            for d in deltas[deltas < r / 3.0]:
                bad = t_mask & (dist_back <= d * vx) & (np.abs(ts) >= 3.0 * d)
                if bad.any():
                    i = int(np.argmax(bad))
                    return (tuple(x), float(d), float(ts[i]))
        return None

    lo, hi = 0.0, r_hi
    worst = violation(r_hi)
    if worst is None:
        return {"r0": r_hi, "violation": None, "n_grid": len(grid),
                "deltas": deltas.tolist(), "h": h}
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if violation(mid) is None:
            lo = mid
        else:
            hi = mid
    return {"r0": lo, "violation": worst, "n_grid": len(grid),
            "deltas": deltas.tolist(), "h": h}


# -------------------------------------------------------------- hierarchy

def hierarchy_check(flow: FlowModel, pairs=None, delta: float = 0.25, *,
                    T: float = 5.0, h: float = 0.05,
                    band_width: float = 1.0) -> dict:
    """Implication cost_sing <= delta/diam(X)  =>  cost_unit <= delta, per pair.

    Both costs are minimized over the same free path class (zero fixing is
    absorbed by shifting y along its orbit), so the pointwise bound
    dist(., Sing) <= diam(X) makes the implication structural; any recorded
    violation would expose an arithmetic bug.
    """
    require(ExpansivityError, "positive", delta=delta, T=T, h=h, band_width=band_width)
    pairs = list(pairs) if pairs is not None else default_pair_grid(flow, delta)
    diam = flow.space.diameter

    def costs(pairs):  # no path is read
        return [(s.cost, u.cost) for s, u in zip(
            _align_batch(flow, pairs, T, h, "sing_dist", False, band_width, -math.inf),
            _align_batch(flow, pairs, T, h, "unit", False, band_width, -math.inf))]

    rows = [(tuple(x), tuple(y), c_sing, c_unit) for x, y, (c_sing, c_unit)
            in _scan_pairs(flow, pairs, costs, pairs_per_batch(T, h, band_width))]
    violations = [row for row in rows if row[2] <= delta / diam and not row[3] <= delta]
    return {
        "delta": delta, "diam": diam, "pairs": rows, "violations": violations,
        "n_pairs": len(rows), "scale": {"T": T, "h": h, "band_width": band_width},
    }


def delta_star(flow: FlowModel, property: str, eps_values, pair_grid=None, *,
               T: float = DEFAULT_T, h: float = DEFAULT_H,
               band_width: float = DEFAULT_BAND, t0_step: float = 0.5) -> list:
    """delta*(eps) curve: infimum of falsifying costs per eps.

    The violation set {delta : some pair has cost <= delta and a failed
    conclusion} is monotone, so the largest violation-free delta is exactly
    the minimum cost among conclusion-failing pairs; no bisection needed at
    a fixed sample set. Each eps scans pair_grid, or by default its own
    default_pair_grid(flow, eps), and a pair on several grids is costed
    once. Returns [(eps, delta_star)] with inf when no pair fails.
    """
    scan, holds = _property_scan(flow, property, T, h, band_width, t0_step)
    if not len(eps_values):
        raise ExpansivityError("eps_values is empty")
    require(ExpansivityError, "positive",
            **{f"eps_values[{i}]": eps for i, eps in enumerate(eps_values)})
    # each eps on its own grid, so its delta* does not depend on the ladder;
    # _scan_pairs costs a pair that several grids share once
    grids = [default_pair_grid(flow, eps) for eps in eps_values] if pair_grid is None \
        else [list(pair_grid)] * len(eps_values)
    scanned = scan([pair for grid in grids for pair in grid])
    curve = []
    for eps, grid in zip(eps_values, grids):
        fail_costs = [res.cost for x, y, res in itertools.islice(scanned, len(grid))
                      if not holds(x, y, eps, res)]
        curve.append((float(eps), min(fail_costs) if fail_costs else math.inf))
    return curve
