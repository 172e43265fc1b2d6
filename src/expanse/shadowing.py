"""Pseudo-orbit generation and eps-shadowing with Rep(eps) reparametrizations.

Finite pseudo-orbits stand in for the two-sided infinite ones; the index
range is symmetric around 0 so the two-sided cumulative clock S(i) keeps
its meaning. The shadow search anchors the candidate orbit at clock 0 and
runs a slope-constrained minimax DP outward in both directions; the slope
set is kept strictly inside [1 - eps, 1 + eps], so every returned
reparametrization is admissible by construction. Each direction is one
call of the alignment band kernel (alignment._minimax_band_dp), pinned at
clock 0, with its tie rule (stated at _minimax_band_dp), which leans
toward the slope-1 path.

Mode "first" only decides whether a candidate's error is <= eps: a
direction whose zero-offset path exceeds it is first decided by the
kernel's path pass (alignment._reach) at eps, which stops at the first row
that keeps no cell, so a failing direction evaluates the orbit only on the
rows it reached and a candidate that fails forward never searches its
backward half. A path depends only on the local costs and the error, so
mode "best" returns the same result for a passing candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .alignment import Reparam, _minimax_band_dp, _reach
from .config import require
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
        require(ShadowingError, "real", T_min=self.T_min, delta=self.delta)
        if not all(self.T_min <= t < math.inf for t in self.durations):
            raise ShadowingError(
                f"every duration must be a finite number >= T_min = {self.T_min!r}")
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
        """SpaceError for a point outside flow.space, ShadowingError for a jump above delta."""
        pts = [flow.space.point(p).vec for p in self.points]
        for i, (x, t, nxt) in enumerate(zip(pts, self.durations, pts[1:]), self.i_min):
            jump = flow.space.distance(flow.evaluate(t, x), nxt)
            if jump > self.delta + 1e-12:
                raise ShadowingError(f"jump {jump} at index {i} exceeds delta {self.delta!r}")

    def save(self, path) -> None:
        lines = [f"# i_min={self.i_min} T_min={self.T_min:.12g} delta={self.delta:.12g}"]
        for p, t in zip(self.points, self.durations):
            coords = ",".join(f"{v:.17g}" for v in p)
            lines.append(f"{coords},{t:.17g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "PseudoOrbit":
        """Read a file written by save; ShadowingError names the file and its bad line."""
        with open(path) as fh:
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
        if len(lines) < 2:
            raise ShadowingError(f"{path}: needs a header line and at least one row")
        (n, head), rows = lines[0], []
        meta = dict(kv.partition("=")[::2] for kv in head.lstrip("# ").split())
        try:
            i_min, T_min, delta = int(meta["i_min"]), float(meta["T_min"]), float(meta["delta"])
        except KeyError as exc:
            raise ShadowingError(f"{path}, line {n}: header {head!r} has no {exc}") from None
        except ValueError:
            raise ShadowingError(f"{path}, line {n}: header {head!r} must read"
                                 " i_min=<integer> T_min=<number> delta=<number>") from None
        for n, ln in lines[1:]:
            try:
                rows.append([float(v) for v in ln.split(",")])
            except ValueError:
                rows.append([])
            if not 2 <= len(rows[-1]) == len(rows[0]):
                want = len(rows[0]) if len(rows) > 1 else "at least 2"
                raise ShadowingError(f"{path}, line {n}: {ln!r} is not {want} comma-separated"
                                     " numbers (coordinates, then a duration)")
        return cls(points=tuple(tuple(r[:-1]) for r in rows),
                   durations=tuple(r[-1] for r in rows), i_min=i_min, T_min=T_min, delta=delta)


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
    require(ShadowingError, "count", n_segments=n_segments)
    require(ShadowingError, "nonnegative", delta=delta)
    require(ShadowingError, "real", T_min=T_min)
    if T_min < 1.0:
        raise ShadowingError(f"T_min must be a finite number >= 1, got {T_min!r}")
    rng = np.random.default_rng(seed)
    pts = [flow.space.point(x0).vec]
    durs = [float(rng.uniform(T_min, 2.0 * T_min)) for _ in range(n_segments)]
    for k in range(n_segments - 1):
        tip = flow.evaluate(durs[k], pts[-1])
        nxt = tip if delta == 0.0 else flow.space.sample_near(rng, tip, delta)
        pts.append(np.asarray(nxt, dtype=float))
    return PseudoOrbit(points=tuple(tuple(p) for p in pts), durations=tuple(durs),
                       i_min=-(n_segments // 2), T_min=T_min, delta=delta)


def default_candidates(flow: FlowModel, po: PseudoOrbit, eps: float) -> list:
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
    for tau in (-eps / 2.0, eps / 2.0):
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


def _cone_search(space, cell, ref, q, threshold):
    """Minimax Rep(eps) path from clock 0 outward: (cost, orbit cell per row).

    Row r pairs ref[r] with orbit cell r*q + o, where o starts at 0 and
    moves by -1, 0 or +1 per row (cell steps q - 1, q, q + 1). This is the
    alignment band DP with W = len(ref) - 1 pinned at row 0, band offset
    k - W = o. cell(c) evaluates the orbit at an array of cells c >= 0: the
    zero-offset path's cells r*q, then, into a window buffer, the cells up
    to the last one each sweep block reads, and the rest at once before the
    kernel runs. With a threshold, a search whose zero-offset path exceeds
    it runs the path pass at the threshold first, None if no path reaches
    the last row; the kernel is bound by the lesser of the two.
    """
    W = len(ref) - 1
    on_zero = cell(np.arange(W + 1) * q)
    bound = space.distance(on_zero, ref).max()  # the zero-offset path's cost
    # window r starts at buffer row r*q, cell r*q - W, so its column k is the
    # offset k - W; the W edge rows left of cell 0 lie outside every row's cone
    buf = np.empty((W * (q + 2) + 1,) + on_zero.shape[1:])
    buf[:W + 1] = on_zero[0]
    filled = W + 1  # buffer rows evaluated so far
    windows = np.moveaxis(sliding_window_view(buf, 2 * W + 1, axis=0)[::q], -1, 1)

    def fill(end):  # evaluate the buffer rows before end
        nonlocal filled
        if end > filled:
            buf[filled:end], filled = cell(np.arange(filled, end) - W), end

    def local_cost(r0, r1, lo, hi):
        fill((r1 - 1) * q + hi)  # one past the last buffer row the block reads
        return space.distance(windows[r0:r1, lo:hi], ref[r0:r1, None])[None]

    if threshold is not None and bound > threshold:
        if _reach(local_cost, W + 1, W, [threshold], fix_row=0) is None:
            return None
        bound = threshold
    fill(len(buf))  # one flow call, not one per kernel block
    costs, paths = _minimax_band_dp(local_cost, W + 1, W, [bound], fix_row=0)
    return float(costs[0]), np.arange(W + 1) * q + paths[0] - W


def _try_candidate(flow, po, z, h, q, ts, ref, seg, threshold=None):
    """Slope-constrained minimax alignment of the z-orbit to the reference.

    Returns (max error, reparam, per-segment errors), or None as soon as
    one direction's error exceeds threshold. Each direction evaluates the
    cells its search reads, the backward one only once the forward one
    passes; the per-segment errors evaluate the cells of the path found.
    """
    n_lo, h_u = int(round(-ts[0] / h)), h / q
    found = []
    # backward from clock 0 is forward on the reversed orbit and reference;
    # its cells are negated as integers, so cell 0 stays at time +0.0
    for sign, side in ((1, ref[n_lo:]), (-1, ref[n_lo::-1])):
        found.append(_cone_search(flow.space, lambda c, s=sign: flow.evaluate(s * c * h_u, z),
                                  side, q, threshold))
        if found[-1] is None:
            return None
    (err_f, cells_f), (err_b, cells_b) = found
    s_path = np.r_[-cells_b[:0:-1], cells_f] * h_u
    reparam = Reparam(ts.copy(), s_path)
    per_cell = flow.space.distance(flow.evaluate(s_path, z), ref)
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
    require(ShadowingError, "positive", eps=eps, h=h)
    if mode not in ("first", "best"):
        raise ShadowingError(f"unknown mode: {mode!r}")
    if flow.forward_only and po.i_min < 0:
        raise ShadowingError(f"{flow.name} is a forward semiflow: it cannot shadow "
                             f"a pseudo-orbit with negative indices (i_min={po.i_min})")
    for p in po.points:
        flow.space.point(p)
    s_min = cumulative_clock(po, po.i_min)
    s_max = cumulative_clock(po, po.i_max + 1)
    n_lo = int(math.floor(-s_min / h + 1e-9))
    n_hi = int(math.floor(s_max / h + 1e-9))
    if n_lo + n_hi < 1:
        raise ShadowingError(f"h = {h!r} leaves one sample time on the clock range"
                             f" [{s_min!r}, {s_max!r}]; a reparametrization needs two")
    q = max(2, int(math.ceil(1.25 / eps)))
    grid = default_candidates(flow, po, eps) if candidate_grid is None else candidate_grid
    candidates = [flow.space.point(z) for z in grid]
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
