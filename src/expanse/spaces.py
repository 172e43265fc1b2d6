"""Compact metric-space domains: points, metrics, singular sets.

Every space works on raw coordinate arrays (shape ``(d,)`` or batched
``(n, d)``); :class:`Point` is the validated boundary representation used
in reports and witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import check, require

CONTAIN_TOL = 1e-12


class SpaceError(ValueError):
    pass


def as_coords(x) -> np.ndarray:
    """Coerce a Point, scalar or sequence to a float coordinate array."""
    if isinstance(x, Point):
        return np.asarray(x.coords, dtype=float)
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


@dataclass(frozen=True)
class Point:
    """A validated point of a space (1- or 2-dimensional coordinates)."""

    coords: tuple
    space_id: str

    @property
    def vec(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


class Space:
    """Base class: a compact metric space with a closed-form diameter."""

    kind = "abstract"
    dim = 0

    @property
    def space_id(self) -> str:
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    def distance(self, a, b):
        """Metric. Broadcasts over leading axes of coordinate arrays."""
        raise NotImplementedError

    def contains(self, coords) -> bool:
        raise NotImplementedError

    def point(self, *coords) -> Point:
        c = as_coords(coords if len(coords) > 1 else coords[0])
        if not self.contains(c):
            raise SpaceError(f"{tuple(map(float, c))} not in {self.space_id}")
        return Point(tuple(float(v) for v in c), self.space_id)

    def grid(self, n: int) -> list:
        """Deterministic sampling grid of roughly n points."""
        raise NotImplementedError

    def partners(self, center, dist: float) -> list:
        """A few space points at distance <= dist from center (for pair grids)."""
        raise NotImplementedError

    def sample_near(self, rng, center, radius: float) -> np.ndarray:
        """Uniform sample from the closed radius-ball around center, inside the space."""
        raise NotImplementedError

    def random_point(self, rng) -> np.ndarray:
        raise NotImplementedError


class Interval01(Space):
    """The unit interval [0, 1] with the Euclidean metric."""

    kind = "interval01"
    dim = 1

    @property
    def space_id(self):
        return "interval01"

    @property
    def diameter(self):
        return 1.0

    def distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return np.abs(a[..., 0] - b[..., 0])

    def contains(self, coords):
        c = as_coords(coords)
        return c.shape == (1,) and -CONTAIN_TOL <= c[0] <= 1.0 + CONTAIN_TOL

    def grid(self, n):
        return [np.array([x]) for x in np.linspace(0.0, 1.0, n + 2)[1:-1]]

    def partners(self, center, dist):
        x = as_coords(center)[0]
        out = []
        for y in (x + dist, x - dist):
            if 0.0 <= y <= 1.0:
                out.append(np.array([y]))
        return out

    def sample_near(self, rng, center, radius):
        x = as_coords(center)[0]
        lo, hi = max(0.0, x - radius), min(1.0, x + radius)
        return np.array([rng.uniform(lo, hi)])

    def random_point(self, rng):
        return np.array([rng.uniform(0.0, 1.0)])


class CircleUnion(Space):
    """Union of concentric circles in R^2 (plus the origin) with the chord metric.

    The metric is the ambient Euclidean distance, not arc length; circles
    are listed by radius in decreasing order.
    """

    kind = "circle_union"
    dim = 2

    def __init__(self, radii: Sequence[float], include_origin: bool = True):
        radii = list(radii)
        require(SpaceError, "positives", radii=radii)
        self.radii = tuple(sorted((float(r) for r in radii), reverse=True))
        self.include_origin = include_origin

    @property
    def space_id(self):
        return f"circle_union[{len(self.radii)}:{self.radii[0]:.6g}..{self.radii[-1]:.6g}]"

    @property
    def diameter(self):
        return 2.0 * self.radii[0]

    def distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d0, d1 = a[..., 0] - b[..., 0], a[..., 1] - b[..., 1]
        return np.hypot(d0, d1, out=d0 if d0.ndim else None)

    def contains(self, coords):
        c = as_coords(coords)
        if c.shape != (2,):
            return False
        r = math.hypot(c[0], c[1])
        if self.include_origin and r <= CONTAIN_TOL:
            return True
        return any(abs(r - rad) <= CONTAIN_TOL for rad in self.radii)

    def on_circle(self, n: int, angle: float) -> np.ndarray:
        r = self.radii[n]
        return np.array([r * math.cos(angle), r * math.sin(angle)])

    def grid(self, n_angles=16, with_origin=True):
        pts = []
        if with_origin and self.include_origin:
            pts.append(np.zeros(2))
        for i in range(len(self.radii)):
            for k in range(n_angles):
                pts.append(self.on_circle(i, 2.0 * math.pi * k / n_angles))
        return pts

    def partners(self, center, dist):
        c = as_coords(center)
        rho = math.hypot(c[0], c[1])
        out = []
        if rho == 0.0:
            for r in self.radii:
                if r <= dist:
                    out.append(np.array([r, 0.0]))
            return out
        alpha = math.atan2(c[1], c[0])
        # same-circle partner rotated by chord length dist
        if dist < 2.0 * rho:
            dtheta = 2.0 * math.asin(dist / (2.0 * rho))
            out.append(np.array([rho * math.cos(alpha + dtheta), rho * math.sin(alpha + dtheta)]))
        # radial hops to other circles within dist, nearest first
        others = sorted((r for r in self.radii if r != rho), key=lambda r: abs(r - rho))
        for r in others:
            if abs(r - rho) <= dist:
                out.append(np.array([r * math.cos(alpha), r * math.sin(alpha)]))
        if self.include_origin and rho <= dist:
            out.append(np.zeros(2))
        return out

    def sample_near(self, rng, center, radius):
        # exact uniform sample over the union of arcs cut out by the ball
        c = as_coords(center)
        rho = math.hypot(c[0], c[1])
        alpha = math.atan2(c[1], c[0])
        arcs = []  # (circle radius, half-width of angular window)
        for r in self.radii:
            q = (r * r + rho * rho - radius * radius) / (2.0 * r * rho) if rho > 0 else (
                1.0 if r > radius else -1.0)
            if q > 1.0:
                continue
            half = math.pi if q <= -1.0 else math.acos(q)
            arcs.append((r, half))
        if not arcs:
            raise SpaceError("ball does not meet the space")
        lengths = np.array([2.0 * r * half for r, half in arcs])
        i = rng.choice(len(arcs), p=lengths / lengths.sum())
        r, half = arcs[i]
        theta = alpha + rng.uniform(-half, half)
        return np.array([r * math.cos(theta), r * math.sin(theta)])

    def random_point(self, rng):
        i = rng.integers(len(self.radii))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return self.on_circle(int(i), theta)


class Torus2(Space):
    """Flat 2-torus [0,1)^2 with the quotient Euclidean metric (plumbing).

    Each coordinate difference u wraps to |u - rint(u)|, its distance to the
    nearest integer, in place on the difference arrays. u - rint(u) is exact,
    and its absolute value equals min(|u| mod 1, 1 - |u| mod 1) bit for bit;
    rint is odd, so d(a, b) == d(b, a) bitwise.
    """

    kind = "torus2"
    dim = 2

    @property
    def space_id(self):
        return "torus2"

    @property
    def diameter(self):
        return math.sqrt(0.5)

    @staticmethod
    def _wrap(u):
        if not u.ndim:  # a numpy scalar: u -= ... would rebind, not write
            return abs(u - np.rint(u))
        u -= np.rint(u)
        return np.abs(u, out=u)

    def distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d0 = self._wrap(a[..., 0] - b[..., 0])
        d1 = self._wrap(a[..., 1] - b[..., 1])
        return np.hypot(d0, d1, out=d0 if d0.ndim else None)

    def contains(self, coords):
        c = as_coords(coords)
        return (c.shape == (2,) and -CONTAIN_TOL <= c[0] < 1.0 + CONTAIN_TOL
                and -CONTAIN_TOL <= c[1] < 1.0 + CONTAIN_TOL)

    def grid(self, n=8):
        us = np.arange(n) / n
        return [np.array([u, v]) for u in us for v in us]

    def partners(self, center, dist):
        c = as_coords(center)
        d = dist / math.sqrt(2.0)
        return [np.mod(c + off, 1.0) for off in
                (np.array([dist, 0.0]), np.array([0.0, dist]), np.array([d, d]))]

    def sample_near(self, rng, center, radius):
        c = as_coords(center)
        while True:
            off = rng.uniform(-radius, radius, size=2)
            if math.hypot(off[0], off[1]) <= radius:
                return np.mod(c + off, 1.0)

    def random_point(self, rng):
        return rng.uniform(0.0, 1.0, size=2)


class FiniteSet(Space):
    """A finite point set with the Euclidean metric (trivial-flow base cases)."""

    kind = "finite_set"

    def __init__(self, points: Sequence[Sequence[float]]):
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        if arr.size == 0:
            raise SpaceError("a finite set needs points")
        self.points_arr = arr
        self.dim = arr.shape[1]

    @property
    def space_id(self):
        return f"finite_set[{self.points_arr.shape[0]}]"

    @property
    def diameter(self):
        return float(self.distance(self.points_arr[:, None, :], self.points_arr[None, :, :]).max())

    def distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return np.sqrt(((a - b) ** 2).sum(-1))

    def contains(self, coords):
        c = as_coords(coords)
        if c.shape != (self.points_arr.shape[1],):
            return False
        return bool((self.distance(self.points_arr, c[None, :]) <= CONTAIN_TOL).any())

    def grid(self, n=None):
        return [p.copy() for p in self.points_arr]

    def partners(self, center, dist):
        c = as_coords(center)
        d = self.distance(self.points_arr, c[None, :])
        return [p.copy() for p, di in zip(self.points_arr, d) if 0.0 < di <= dist]

    def sample_near(self, rng, center, radius):
        c = as_coords(center)
        d = self.distance(self.points_arr, c[None, :])
        cand = self.points_arr[d <= radius]
        if cand.shape[0] == 0:
            raise SpaceError("ball does not meet the space")
        return cand[rng.integers(cand.shape[0])].copy()

    def random_point(self, rng):
        return self.points_arr[rng.integers(self.points_arr.shape[0])].copy()


@dataclass(frozen=True)
class SingularSet:
    """Fixed points of a flow, with an optional closed-form distance override."""

    space: Space
    points: tuple = ()
    distance_fn: Optional[Callable] = None

    def distances(self, coords) -> np.ndarray:
        """dist(z, S) for one coordinate array or a batch; diameter if S empty."""
        c = np.asarray(coords, dtype=float)
        single = c.ndim == 1
        batch = c[None, :] if single else c
        if self.distance_fn is not None:
            out = np.asarray(self.distance_fn(batch), dtype=float)
        elif not self.points:
            out = np.full(batch.shape[0], self.space.diameter)
        else:
            members = np.array([as_coords(p) for p in self.points], dtype=float)
            out = self.space.distance(batch[:, None, :], members[None, :, :]).min(axis=1)
        return out[0] if single else out


def exp_radii(depth: int) -> tuple:
    """Radii e^0, e^-1, ..., e^-(depth-1)."""
    return tuple(math.exp(-n) for n in range(depth))


def harmonic_radii(depth: int) -> tuple:
    """Radii 1/1, 1/2, ..., 1/depth."""
    return tuple(1.0 / n for n in range(1, depth + 1))


# space kind -> {config key besides "kind": its kind (expanse.config)}
SPACE_KEYS = {"interval01": {}, "torus2": {}, "finite_set": {"points": "points"},
              "circle_union": {"radii": "reals", "family": ("exp", "harmonic"),
                               "depth": "count", "include_origin": "boolean"}}


def space_from_config(cfg: dict) -> Space:
    """Build a space from a declarative key-value tree.

    Recognized kinds and their keys (SPACE_KEYS): interval01, circle_union
    (a radii list, or family exp|harmonic with an integer depth >= 1;
    include_origin a boolean), torus2, finite_set (points, a list of
    equal-length coordinate lists). An unknown kind or key, or a value of
    the wrong kind, is a SpaceError naming it.
    """
    if not isinstance(cfg, dict):
        raise SpaceError(f"a space config must be an object, got {cfg!r}")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in SPACE_KEYS:
        raise SpaceError(f"unknown space kind: {kind!r}")
    check(cfg, {"kind": None, **SPACE_KEYS[kind]}, SpaceError)
    if kind == "interval01":
        return Interval01()
    if kind == "circle_union":
        depth = cfg.get("depth", 32)
        radii = cfg.get("radii") or (
            harmonic_radii(depth) if cfg.get("family") == "harmonic" else exp_radii(depth))
        return CircleUnion(radii, include_origin=cfg.get("include_origin", True))
    if kind == "torus2":
        return Torus2()
    return FiniteSet(cfg.get("points", []))
