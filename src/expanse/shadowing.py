"""Pseudo-orbit generation and eps-shadowing with Rep(eps) reparametrizations.

Finite pseudo-orbits stand in for the two-sided infinite ones; the index
range is symmetric around 0 so the two-sided cumulative clock S(i) keeps
its meaning. The shadow search anchors the candidate orbit at clock 0 and
runs a slope-constrained minimax DP outward in both directions; the slope
set is kept strictly inside [1 - eps, 1 + eps], so every returned
reparametrization is admissible by construction. Each direction is one
call of the alignment band kernel (alignment._minimax_band_dp), pinned at
clock 0, with its tie rule (stated at _minimax_band_dp), which leans
each cell toward the slope-1 path.

Mode "first" only decides whether a candidate's error is <= eps, so it
passes eps to the kernel as its bound, and the kernel prunes at eps: a
cell whose running minimax value exceeds eps is dropped, so each row
sweeps only the offsets next to the cells still within eps, a direction
stops at the first row with none left, and a candidate that fails forward
never evaluates or searches its backward half. A candidate that passes
gets the same result, bit for bit, as a search bound by the cost of an
admissible path. Mode "best" needs every error; it bounds each direction
by the cost of its zero-offset path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .alignment import Reparam, _minimax_band_dp
from .flows import FlowModel
from .spaces import CircleUnion, Point


class ShadowingError(ValueError):
    pass


@dataclass(frozen=True)
class PseudoOrbit:
    """A (delta, T_min)-pseudo-orbit indexed over [i_min, i_min + n - 1]."""

    points: tuple       # coordinate tuples, list position p = i - i_min
    durations: tuple
    i_min: int
    T_min: float
    delta: float

    def __post_init__(self):
        if len(self.points) != len(self.durations) or not self.points:
            raise ShadowingError("points and durations must match and be nonempty")
        if any(t < self.T_min for t in self.durations):
            raise ShadowingError("every duration must be >= T_min")
        if not self.i_min <= 0 <= self.i_max:
            raise ShadowingError("index range must contain 0")

    @property
    def i_max(self) -> int:
        return self.i_min + len(self.points) - 1

    def entry(self, i: int):
        if not self.i_min <= i <= self.i_max:
            raise ShadowingError(f"index {i} outside [{self.i_min}, {self.i_max}]")
        p = i - self.i_min
        return np.asarray(self.points[p], dtype=float), float(self.durations[p])

    def validate(self, flow: FlowModel) -> None:
        for i in range(self.i_min, self.i_max):
            x, t = self.entry(i)
            nxt, _ = self.entry(i + 1)
            jump = flow.space.distance(flow.evaluate(t, x), nxt)
            if jump > self.delta + 1e-12:
                raise ShadowingError(f"jump {jump} at index {i} exceeds delta")

    def save(self, path) -> None:
        lines = [f"# i_min={self.i_min} T_min={self.T_min:.12g} delta={self.delta:.12g}"]
        for p, t in zip(self.points, self.durations):
            coords = ",".join(f"{v:.17g}" for v in p)
            lines.append(f"{coords},{t:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "PseudoOrbit":
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        meta = dict(kv.split("=") for kv in lines[0].lstrip("# ").split())
        pts, durs = [], []
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")]
            pts.append(tuple(vals[:-1]))
            durs.append(vals[-1])
        return cls(points=tuple(pts), durations=tuple(durs),
                   i_min=int(meta["i_min"]), T_min=float(meta["T_min"]),
                   delta=float(meta["delta"]))


def cumulative_clock(po: PseudoOrbit, i: int) -> float:
    """S(i): summed durations before index i, negated partial sums below 0."""
    if not po.i_min <= i <= po.i_max + 1:
        raise ShadowingError(f"index {i} outside [{po.i_min}, {po.i_max + 1}]")
    if i == 0:
        return 0.0
    if i > 0:
        return float(sum(po.entry(k)[1] for k in range(0, i)))
    return -float(sum(po.entry(k)[1] for k in range(i, 0)))


@dataclass(frozen=True)
class ShadowResult:
    shadow_point: Point
    reparam: Reparam
    max_error: float
    per_segment_errors: tuple


def generate_pseudo_orbit(flow: FlowModel, x0, n_segments: int, delta: float,
                          T_min: float = 1.0, seed: int = 0) -> PseudoOrbit:
    """Seeded forward chain x_{i+1} = phi_{t_i}(x_i) + jump, |jump| <= delta.

    Durations are uniform in [T_min, 2 T_min]; jumps are uniform over the
    delta-ball intersected with the space. x0 starts the chain at the
    leftmost index -floor(n/2); deterministic under the seed. An x0 outside
    the space, or a jump ball that misses it, raises SpaceError.
    """
    if delta < 0:
        raise ShadowingError("delta must be nonnegative")
    if T_min < 1.0:
        raise ShadowingError("T_min must be >= 1")
    rng = np.random.default_rng(seed)
    pts = [flow.space.point(x0).vec]
    durs = [float(rng.uniform(T_min, 2.0 * T_min)) for _ in range(n_segments)]
    for k in range(n_segments - 1):
        tip = flow.evaluate(durs[k], pts[-1])
        nxt = tip if delta == 0.0 else flow.space.sample_near(rng, tip, delta)
        pts.append(np.asarray(nxt, dtype=float))
    return PseudoOrbit(points=tuple(tuple(p) for p in pts), durations=tuple(durs),
                       i_min=-(n_segments // 2), T_min=T_min, delta=delta)


def default_candidates(flow: FlowModel, po: PseudoOrbit, eps: float,
                       level: int = 1) -> list:
    """Candidate shadow start points: pulled-back entries plus perturbations.

    Every entry x_i is flowed to clock 0 (z_i = phi_{-S(i)}(x_i)): whichever
    segment carries the visible dynamics, some candidate matches it exactly
    and the slope corrections only absorb the residual seam slips. The
    index-0 entry comes first; a tau ladder around it stands in for the
    free s(0), and on circle unions nearby circles are scanned as well
    since radial position is the invariant a shadow must match.
    """
    z0, _ = po.entry(0)
    out = []

    def push(z):
        z = np.asarray(z, dtype=float)
        if all(flow.space.distance(z, c) > 1e-12 for c in out):
            out.append(z)

    for i in sorted(range(po.i_min, po.i_max + 1), key=abs):
        s_i = cumulative_clock(po, i)
        if flow.forward_only and -s_i < 0:
            continue
        x_i, _ = po.entry(i)
        push(flow.evaluate(-s_i, x_i))
    taus = [k * eps / (2.0 * level) for k in range(-level, level + 1) if k != 0]
    for tau in taus:
        if not flow.forward_only or tau >= 0:
            push(flow.evaluate(float(tau), z0))
    if isinstance(flow.space, CircleUnion):
        sp = flow.space
        rho = math.hypot(z0[0], z0[1])
        span = abs(po.delta) * len(po.points) + 1e-12
        alpha = math.atan2(z0[1], z0[0])
        for r in sp.radii:
            if abs(r - rho) <= span:
                push(np.array([r * math.cos(alpha), r * math.sin(alpha)]))
    return out


def _reference_trajectory(flow, po, ts):
    """phi_{t - S(i)}(x_i) on the grid, segment chosen by S(i) <= t < S(i+1)."""
    s_vals = np.array([cumulative_clock(po, i)
                       for i in range(po.i_min, po.i_max + 2)])
    seg = np.clip(np.searchsorted(s_vals, ts, side="right") - 1, 0,
                  len(po.points) - 1)
    ref = np.empty((len(ts), len(po.points[0])))
    for p in range(len(po.points)):
        m = seg == p
        if m.any():
            x = np.asarray(po.points[p], dtype=float)
            ref[m] = flow.evaluate(ts[m] - s_vals[p], x)
    return ref, seg


def _cone_search(space, orbit, ref, q, threshold):
    """Minimax Rep(eps) path from clock 0 outward: (cost, orbit cell per row).

    Row r pairs ref[r] with orbit cell r*q + o, where o starts at 0 and
    moves by -1, 0 or +1 per row (cell steps q - 1, q, q + 1). This is the
    alignment band DP with W = len(ref) - 1 pinned at row 0, band offset
    k - W = o. orbit holds cells 0..W*(q + 1). A search whose cost exceeds
    threshold stops early and returns None; without a threshold the kernel
    is bound by the zero-offset path, cells r*q.
    """
    W = len(ref) - 1
    width = 2 * W + 1
    # window r starts at cell r*q - W, so its column k is the offset k - W;
    # the edge padding left of cell 0 lies outside every row's cone
    padded = np.pad(orbit, ((W, 0), (0, 0)), mode="edge")
    windows = np.moveaxis(sliding_window_view(padded, width, axis=0)[::q], -1, 1)

    def local_cost(r0, r1, lo, hi):
        return space.distance(windows[r0:r1, lo:hi], ref[r0:r1, None])[None]

    bound = threshold if threshold is not None else space.distance(windows[:, W], ref).max()
    costs, paths = _minimax_band_dp(local_cost, W + 1, W, [bound], fix_row=0)
    if paths[0, 0] < 0:  # abandoned: no path
        return None
    return float(costs[0]), np.arange(W + 1) * q + paths[0] - W


def _orbit_cells(flow, z, c0, c1, h_u):
    """phi_{c h_u}(z) for the cells c = c0..c1, in one elementwise flow call."""
    return flow.evaluate(np.arange(c0, c1 + 1) * h_u, z)


def _try_candidate(flow, po, z, h, q, ts, ref, seg, threshold=None):
    """Slope-constrained minimax alignment of the z-orbit to the reference.

    Returns (max error, reparam, per-segment errors), or None as soon as
    one direction's error exceeds threshold. The backward half of the orbit
    is evaluated only once the forward search passes.
    """
    n_lo = int(round(-ts[0] / h))
    n_hi = int(round(ts[-1] / h))
    h_u = h / q
    m_lo = -n_lo * (q + 1)
    ahead = _orbit_cells(flow, z, 0, n_hi * (q + 1), h_u)
    forward = _cone_search(flow.space, ahead, ref[n_lo:], q, threshold)
    if forward is None:
        return None
    # backward from clock 0 is forward on the reversed orbit and reference
    behind = _orbit_cells(flow, z, m_lo, 0, h_u)
    backward = _cone_search(flow.space, behind[::-1], ref[n_lo::-1], q, threshold)
    if backward is None:
        return None
    (err_f, cells_f), (err_b, cells_b) = forward, backward
    m_path = np.r_[-cells_b[:0:-1], cells_f]
    reparam = Reparam(ts.copy(), m_path * h_u)

    orbit = np.concatenate([behind[:-1], ahead])
    per_cell = flow.space.distance(orbit[m_path - m_lo], ref)
    per_segment = tuple(float(per_cell[seg == p].max()) if (seg == p).any()
                        else 0.0 for p in range(len(po.points)))
    return max(err_f, err_b), reparam, per_segment


def find_shadow(flow: FlowModel, po: PseudoOrbit, eps: float,
                candidate_grid=None, *, h: float = 0.02,
                mode: str = "first") -> Optional[ShadowResult]:
    """Search for a point whose Rep(eps)-reparametrized orbit eps-shadows po.

    Candidates are scanned in grid order; mode "first" returns the first
    one with max_error <= eps (None when none succeeds), mode "best" the
    smallest-error result regardless of success. The shadowing inequality
    is evaluated one-sidedly (left limit) at segment-boundary times. A
    pseudo-orbit point or candidate outside flow.space raises SpaceError
    before any search runs.
    """
    if eps <= 0:
        raise ShadowingError("eps must be positive")
    if mode not in ("first", "best"):
        raise ShadowingError(f"unknown mode: {mode!r}")
    if flow.forward_only and po.i_min < 0:
        raise ShadowingError(f"{flow.name} is a forward semiflow: it cannot shadow "
                             f"a pseudo-orbit with negative indices (i_min={po.i_min})")
    for p in po.points:
        flow.space.point(p)
    q = max(2, int(math.ceil(1.25 / eps)))
    grid = candidate_grid if candidate_grid is not None \
        else default_candidates(flow, po, eps)
    candidates = [flow.space.point(z) for z in grid]
    s_min = cumulative_clock(po, po.i_min)
    s_max = cumulative_clock(po, po.i_max + 1)
    n_lo = int(math.floor(-s_min / h + 1e-9))
    n_hi = int(math.floor(s_max / h + 1e-9))
    ts = np.arange(-n_lo, n_hi + 1) * h
    ref, seg = _reference_trajectory(flow, po, ts)
    # mode "first" needs only err <= eps, so a failing candidate stops early
    threshold = eps if mode == "first" else None
    best = None
    for z in candidates:
        tried = _try_candidate(flow, po, z.vec, h, q, ts, ref, seg, threshold)
        if tried is None:
            continue
        err, reparam, per_seg = tried
        res = ShadowResult(shadow_point=z, reparam=reparam, max_error=err,
                           per_segment_errors=per_seg)
        if mode == "first":
            return res
        if best is None or err < best.max_error:
            best = res
    return best
