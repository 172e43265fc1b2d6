"""Flow catalog: closed-form flows, an RK4 integrator oracle, orbit sampling.

Closed-form evaluators accept a scalar or an array of times and return the
matching batch of coordinate arrays; field_norm, the one field-norm helper,
likewise takes one point or a batch. All flows are two-sided groups except
the doubling suspension, which is a forward semiflow (its generating map is
not invertible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spaces import (
    SPACE_KEYS,
    CircleUnion,
    FiniteSet,
    Interval01,
    SingularSet,
    Space,
    Torus2,
    as_coords,
    is_finite_number,
    space_from_config,
)

MAX_RK4_STEPS = 10 ** 8
MAX_ORBIT_SAMPLES = 10 ** 7


class FlowError(ValueError):
    pass


@dataclass(frozen=True)
class FlowModel:
    """A flow phi(t, x) on a space, with its singular set and optional field."""

    name: str
    space: Space
    singular: SingularSet
    evaluate_fn: Callable
    vector_field: Optional[Callable] = None
    lipschitz_L: Optional[float] = None
    transit_time_fn: Optional[Callable] = None
    forward_only: bool = False
    params: dict = field(default_factory=dict)

    def evaluate(self, t, x) -> np.ndarray:
        """phi_t(x); t may be a scalar or a 1-d array of times."""
        if self.forward_only and np.any(np.asarray(t) < 0):
            raise FlowError(f"{self.name} is a forward semiflow")
        return self.evaluate_fn(t, as_coords(x))


@dataclass(frozen=True)
class OrbitSample:
    """Uniform-time discretization of phi_[-T,T](base) with cached weights."""

    flow: FlowModel
    base: np.ndarray
    window_T: float
    step_h: float
    times: np.ndarray
    points: np.ndarray
    sing_dists: np.ndarray
    field_norms: Optional[np.ndarray] = None


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


def interval_flow_eval(lam: float, t: float, x: float) -> float:
    """phi_t(x) = x e^{lam t} / (1 + x (e^{lam t} - 1)) on [0, 1].

    Fixes 0 and 1, is monotone in x, and saturates to the correct endpoint
    when |lam * t| overflows exp.
    """
    if not 0.0 <= x <= 1.0:
        raise FlowError("x outside [0, 1]")
    return float(_interval_closed_form(lam)(float(t), np.array([x]))[0])


def interval_flow_transit_time(x: float, y: float) -> float:
    """Time t with phi_t(x) = y for the lam=1 interval flow, both interior."""
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise FlowError("transit time needs interior points")
    return math.log((y / x) * ((1.0 - x) / (1.0 - y)))


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

    def transit(x_arr, y_arr):
        x_arr = np.asarray(x_arr, dtype=float)
        y_arr = np.asarray(y_arr, dtype=float)
        return np.log((y_arr / x_arr) * ((1.0 - x_arr) / (1.0 - y_arr))) / lam

    return FlowModel(
        name="interval",
        space=sp,
        singular=sing,
        evaluate_fn=_interval_closed_form(lam),
        vector_field=_logistic_field(lam),
        lipschitz_L=abs(lam),
        transit_time_fn=transit,
        params={"lambda": lam},
    )


def rotation_flow_eval(t, z) -> np.ndarray:
    """Rigid rotation (x cos t - y sin t, x sin t + y cos t); an isometry."""
    z = as_coords(z)
    t = np.asarray(t, dtype=float)
    c, s = np.cos(t), np.sin(t)
    out = np.stack([z[0] * c - z[1] * s, z[0] * s + z[1] * c], axis=-1)
    return out


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
        evaluate_fn=rotation_flow_eval,
        vector_field=v,
        lipschitz_L=1.0,
        params={"radii": list(space.radii)},
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
        params={"space": space.space_id},
    )


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
        forward_only=True,
    )


def integrate_flow(vector_field: Callable, t: float, x, step: float) -> np.ndarray:
    """Classical fixed-step RK4 endpoint of x' = V(x) after time t.

    The step count is ceil(|t| / step); the per-unit-time error is O(step^4).
    Broadcasts over a batch of initial points (n, d).
    """
    x = np.asarray(x, dtype=float).copy()
    if t == 0.0:
        return x
    n = int(math.ceil(abs(t) / step))
    if n > MAX_RK4_STEPS:
        raise FlowError(f"step-count overflow: {n} > {MAX_RK4_STEPS}")
    dt = t / n
    for _ in range(n):
        k1 = np.asarray(vector_field(x), dtype=float)
        k2 = np.asarray(vector_field(x + 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(vector_field(x + 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(vector_field(x + dt * k3), dtype=float)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def sample_orbit(flow: FlowModel, x, T: float, h: float) -> OrbitSample:
    """Sample phi_t(x) over the symmetric grid t in [-T, T] with step h."""
    if T <= 0 or h <= 0:
        raise FlowError("T and h must be positive")
    n_half = int(round(T / h))
    if 2 * n_half + 1 > MAX_ORBIT_SAMPLES:
        raise FlowError("orbit sampling budget exceeded")
    base = as_coords(x)
    times = np.arange(-n_half, n_half + 1, dtype=float) * h
    points = flow.evaluate(times, base)
    return OrbitSample(
        flow=flow, base=base, window_T=n_half * h, step_h=h, times=times,
        points=points, sing_dists=flow.singular.distances(points),
        field_norms=None if flow.vector_field is None else field_norm(flow, points),
    )


def field_norm(flow: FlowModel, x):
    """Euclidean field norm at one point (a float) or at each row of an (n, d)
    batch (an array, bitwise equal to per-point calls); exactly 0 on Sing members."""
    if flow.vector_field is None:
        raise FlowError(f"{flow.name} has no vector field")
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


# flow name -> the config keys it reads besides "name"
FLOW_KEYS = {"interval": ("lambda",), "circles": SPACE_KEYS["circle_union"],
             "trivial": ("space",), "suspension_doubling": ()}


def flow_from_config(cfg: dict) -> FlowModel:
    """Build a catalog flow from a declarative key-value tree.

    Names and their keys (FLOW_KEYS): interval (lambda, a finite number),
    circles (family exp|harmonic with depth, or a radii list; see
    space_from_config), trivial (space subtree), suspension_doubling. Any
    other key is a FlowError naming it.
    """
    name = cfg.get("name")
    if not isinstance(name, str) or name not in FLOW_KEYS:
        raise FlowError(f"unknown flow: {name!r}")
    unknown = [k for k in cfg if k != "name" and k not in FLOW_KEYS[name]]
    if unknown:
        raise FlowError(f"unknown key(s) for flow {name!r}: {', '.join(map(repr, unknown))}")
    if name == "interval":
        lam = cfg.get("lambda", 1.0)
        if not is_finite_number(lam):
            raise FlowError(f"interval lambda must be a finite number, got {lam!r}")
        return interval_flow(float(lam))
    if name == "circles":
        sp_cfg = {"kind": "circle_union", **{k: v for k, v in cfg.items() if k != "name"}}
        return rotation_flow(space_from_config(sp_cfg))
    if name == "trivial":
        return trivial_flow(space_from_config(cfg.get("space", {"kind": "interval01"})))
    return suspension_doubling()
