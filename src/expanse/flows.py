"""Flow catalog: closed-form flows, an RK4 integrator oracle, orbit sampling.

Closed-form evaluators accept a scalar or an array of times and return the
matching batch of coordinate arrays; field_norm, the one field-norm helper,
likewise takes one point or a batch. All flows are two-sided groups except
the doubling suspension, which is a forward semiflow (its generating map is
not invertible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import check, require
from .spaces import (
    SPACE_KEYS,
    CircleUnion,
    FiniteSet,
    Interval01,
    SingularSet,
    Space,
    Torus2,
    as_coords,
    space_from_config,
)

MAX_RK4_STEPS = 10 ** 8
MAX_ORBIT_SAMPLES = 10 ** 7


class FlowError(ValueError):
    pass


@dataclass(frozen=True)
class FlowModel:
    """A flow phi(t, x) on a space, with its singular set, field and hooks.

    evaluate_fn(t, x): phi_t(x) for a point x of shape (d,); shape (d,) at a
    scalar t, (len(t), d) at a 1-d array of times. It is elementwise in t:
    each time's point does not depend on the other times in the call, so
    shadowing and alignment may evaluate an orbit in any batches, any order.
    vector_field(x): V at a point (d,) or at each row of a batch (n, d).
    lipschitz_L: a finite L >= 0 with |V(x) - V(y)| <= L d(x, y).
    orbit_times(x, target, lo, hi): a 1-d array of the closed-form times at
    which the orbit of x comes closest to target, those in [lo, hi] and the
    nearest outside; () when there are none.
    Construction checks these and raises a FlowError naming the flow and
    the field.
    """

    name: str
    space: Space
    singular: SingularSet
    evaluate_fn: Callable
    vector_field: Callable
    lipschitz_L: float
    orbit_times: Callable
    forward_only: bool = False

    def __post_init__(self):
        for hook in ("evaluate_fn", "vector_field", "orbit_times"):
            if not callable(getattr(self, hook)):
                raise FlowError(f"{self.name}: {hook} must be callable")
        require(FlowError, "nonnegative", **{f"{self.name}: lipschitz_L": self.lipschitz_L})

    def evaluate(self, t, x) -> np.ndarray:
        """phi_t(x); t may be a scalar or a 1-d array of times."""
        if self.forward_only and np.any(np.asarray(t) < 0):
            raise FlowError(f"{self.name} is a forward semiflow")
        return self.evaluate_fn(t, as_coords(x))


@dataclass(frozen=True)
class OrbitSample:
    """Uniform-time discretization of phi_[-T,T](base): its times and points.

    Weights along the orbit (singular distances, field norms) are computed
    from `points` by the code that uses them; align re-samples from base.
    """

    flow: FlowModel
    base: np.ndarray
    window_T: float
    step_h: float
    times: np.ndarray
    points: np.ndarray


def _interval_closed_form(lam):
    def ev(t, x):
        t = np.asarray(t, dtype=float)
        x0 = float(x[0])
        if x0 <= 0.0:
            out = np.zeros(t.shape if t.ndim else ())
        elif x0 >= 1.0:
            out = np.ones(t.shape if t.ndim else ())
        else:
            # x e^{lt} / (1 + x(e^{lt}-1)) rewritten for overflow safety
            with np.errstate(over="ignore", under="ignore"):
                out = x0 / (x0 + (1.0 - x0) * np.exp(-lam * t))
        return np.asarray(out, dtype=float)[..., None]
    return ev


def interval_flow_transit_time(x: float, y: float) -> float:
    """Time t with phi_t(x) = y for the lam=1 interval flow, both interior."""
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise FlowError("transit time needs interior points")
    return float(interval_flow(1.0).orbit_times(np.array([x]), np.array([y]), 0.0, 0.0)[0])


def _logistic_field(lam):
    def v(x):
        x = np.asarray(x, dtype=float)
        return lam * x * (1.0 - x)
    return v


def interval_flow(lam: float = 1.0) -> FlowModel:
    """The interval flow generated by x' = lam x (1 - x) on [0, 1]."""
    sp = Interval01()
    if lam == 0.0:
        return trivial_flow(sp)
    sing = SingularSet(sp, points=((0.0,), (1.0,)))

    def orbit_times(x, target, lo, hi):
        # the transit time per target row, -+inf to an endpoint (the caller
        # clamps it); none from a fixed endpoint x
        if not 0.0 < x[0] < 1.0:
            return ()
        x, y = x[0], target[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.reshape(np.log((y / x) * ((1.0 - x) / (1.0 - y))) / lam, -1)

    return FlowModel(
        name="interval",
        space=sp,
        singular=sing,
        evaluate_fn=_interval_closed_form(lam),
        vector_field=_logistic_field(lam),
        lipschitz_L=abs(lam),
        orbit_times=orbit_times,
    )


def _rotation_eval(t, z) -> np.ndarray:
    """Rigid rotation (x cos t - y sin t, x sin t + y cos t); an isometry."""
    z = as_coords(z)
    t = np.asarray(t, dtype=float)
    c, s = np.cos(t), np.sin(t)
    out = np.stack([z[0] * c - z[1] * s, z[0] * s + z[1] * c], axis=-1)
    return out


def _rotation_orbit_times(x, target, lo, hi):
    """Angle from x to target mod 2 pi, plus 2 pi k: each one in [lo, hi] and
    the nearest either side; none at the fixed origin."""
    if not x.any():
        return ()
    tau = 2.0 * math.pi
    a = (math.atan2(target[1], target[0]) - math.atan2(x[1], x[0])) % tau
    return a + tau * np.arange(math.floor((lo - a) / tau), math.ceil((hi - a) / tau) + 1)


def rotation_flow(space: CircleUnion) -> FlowModel:
    """Rotation generated by V(x, y) = (-y, x), restricted to a circle union."""
    sing = SingularSet(space, points=((0.0, 0.0),)) if space.include_origin \
        else SingularSet(space, points=())

    def v(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

    return FlowModel(
        name="circles",
        space=space,
        singular=sing,
        evaluate_fn=_rotation_eval,
        vector_field=v,
        lipschitz_L=1.0,
        orbit_times=_rotation_orbit_times,
    )


def trivial_flow(space: Space) -> FlowModel:
    """The flow fixing every point; Sing = X."""
    if isinstance(space, FiniteSet):
        sing = SingularSet(space, points=tuple(tuple(p) for p in space.points_arr))
    else:
        sing = SingularSet(space, points=(),
                           distance_fn=lambda b: np.zeros(b.shape[0]))

    def ev(t, x):
        t = np.asarray(t, dtype=float)
        if t.ndim:
            return np.broadcast_to(x, t.shape + x.shape).copy()
        return x.copy()

    return FlowModel(
        name="trivial",
        space=space,
        singular=sing,
        evaluate_fn=ev,
        vector_field=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lipschitz_L=0.0,
        orbit_times=lambda x, target, lo, hi: (),  # every orbit is its point
    )


def _suspension_orbit_times(x, target, lo, hi):
    """The s coordinate moves at unit speed, so the times (s' - s) mod 1 + k,
    k >= 0: each one in [lo, hi] and the nearest either side. Each section
    crossing m - s, m >= 1, in that range adds the time of its point (s
    reads 0) and of the last point before it (s just below 1): a target
    near s = 0 may lie within tol of the orbit on either side of the wrap."""
    s = x[1]
    a = (target[1] - s) % 1.0
    m = np.arange(max(math.floor(lo + s), 1), max(math.ceil(hi + s), 1) + 1, dtype=float)
    first, last = m - s, np.nextafter(m, 0.0) - s
    first = np.where(s + first < m, np.nextafter(first, np.inf), first)
    last = np.where(s + last < m, last, np.nextafter(last, -np.inf))
    return np.concatenate([a + np.arange(max(math.floor(lo - a), 0),
                                         max(math.ceil(hi - a), 0) + 1), first, last])


def suspension_doubling() -> FlowModel:
    """Unit-speed suspension of theta -> 2 theta mod 1, realized on the torus.

    Entropy-estimator control target (ln 2). Forward semiflow only: the
    doubling map is not invertible, so negative times are rejected.
    """
    sp = Torus2()

    def ev(t, x):
        t = np.asarray(t, dtype=float)
        theta, s = x[0], x[1]
        u = s + t
        k = np.floor(u)
        theta_new = np.mod(theta * np.exp2(k), 1.0)
        return np.stack([theta_new, u - k], axis=-1)

    return FlowModel(
        name="suspension_doubling",
        space=sp,
        singular=SingularSet(sp, points=()),
        evaluate_fn=ev,
        vector_field=lambda x: np.broadcast_to(
            np.array([0.0, 1.0]), np.asarray(x, dtype=float).shape).copy(),
        lipschitz_L=0.0,  # the field is constant
        orbit_times=_suspension_orbit_times,
        forward_only=True,
    )


def integrate_flow(vector_field: Callable, t, x, step: float) -> np.ndarray:
    """Classical fixed-step RK4 endpoint of x' = V(x) after time t.

    t is a scalar, or one time per row of a batch x of shape (n, d). All
    rows take n = ceil(max |t| / step) steps of their own dt = t / n, so no
    step exceeds `step`; the per-unit-time error is O(step^4). A scalar t
    also broadcasts over a batch of initial points.
    """
    require(FlowError, "positive", step=step)
    x = np.asarray(x, dtype=float).copy()
    t = np.asarray(t, dtype=float)
    t_max = float(np.max(np.abs(t)))
    if t_max == 0.0:
        return x
    n = int(math.ceil(t_max / step))
    if n > MAX_RK4_STEPS:
        raise FlowError(f"step-count overflow: {n} > {MAX_RK4_STEPS}")
    dt = t / n if t.ndim == 0 else (t / n)[:, None]
    for _ in range(n):
        k1 = np.asarray(vector_field(x), dtype=float)
        k2 = np.asarray(vector_field(x + 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(vector_field(x + 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(vector_field(x + dt * k3), dtype=float)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _grid(T: float, h: float, margin: int = 0) -> np.ndarray:
    """Times k h, |k| <= round(T / h) + margin: [-T, T] by step h, widened margin steps a side."""
    require(FlowError, "positive", T=T, h=h)
    n_half = int(round(T / h))
    if 2 * n_half + 1 > MAX_ORBIT_SAMPLES:
        raise FlowError("orbit sampling budget exceeded")
    return np.arange(-(n_half + margin), n_half + margin + 1, dtype=float) * h


def sample_orbit(flow: FlowModel, x, T: float, h: float) -> OrbitSample:
    """Sample phi_t(x) over the symmetric grid t in [-T, T] with step h."""
    times = _grid(T, h)
    base = as_coords(x)
    points = flow.evaluate(times, base)
    return OrbitSample(flow=flow, base=base, window_T=float(times[-1]), step_h=h,
                       times=times, points=points)


def field_norm(flow: FlowModel, x):
    """Euclidean field norm at one point (a float) or at each row of an (n, d)
    batch (an array, bitwise equal to per-point calls); exactly 0 on Sing members."""
    v = np.asarray(flow.vector_field(as_coords(x)), dtype=float)
    norms = np.sqrt((v ** 2).sum(axis=-1))
    return float(norms) if norms.ndim == 0 else norms


def min_orbit_diameter(flow: FlowModel, grid, T: float, h: float) -> float:
    """Min over grid points of the sampled orbit-segment diameter.

    Desk-scale lower-bound probe for a uniform orbit-diameter constant.
    """
    grid = list(grid)
    if not grid:
        raise FlowError("empty grid")
    best = math.inf
    for x in grid:
        pts = sample_orbit(flow, x, T, h).points
        diam = 0.0
        for i in range(0, len(pts), 512):
            chunk = pts[i:i + 512]
            d = flow.space.distance(chunk[:, None, :], pts[None, :, :])
            diam = max(diam, float(d.max()))
        best = min(best, diam)
    return best


# flow name -> {config key besides "name": its kind (expanse.config)}; the
# circles keys are the circle_union space keys, which space_from_config checks
FLOW_KEYS = {"interval": {"lambda": "real"},
             "circles": dict.fromkeys(SPACE_KEYS["circle_union"]),
             "trivial": {"space": "object"}, "suspension_doubling": {}}


def flow_from_config(cfg: dict) -> FlowModel:
    """Build a catalog flow from a declarative key-value tree.

    Names and their keys (FLOW_KEYS): interval (lambda, a finite number),
    circles (family exp|harmonic with depth, or a radii list; see
    space_from_config), trivial (space subtree), suspension_doubling. An
    unknown name or key, or a value of the wrong kind, is a FlowError
    naming it; a bad circles or space value is a SpaceError.
    """
    name = cfg.get("name")
    if not isinstance(name, str) or name not in FLOW_KEYS:
        raise FlowError(f"unknown flow: {name!r}")
    check(cfg, {"name": None, **FLOW_KEYS[name]}, FlowError)
    if name == "interval":
        return interval_flow(float(cfg.get("lambda", 1.0)))
    if name == "circles":
        sp_cfg = {"kind": "circle_union", **{k: v for k, v in cfg.items() if k != "name"}}
        return rotation_flow(space_from_config(sp_cfg))
    if name == "trivial":
        return trivial_flow(space_from_config(cfg.get("space", {"kind": "interval01"})))
    return suspension_doubling()
