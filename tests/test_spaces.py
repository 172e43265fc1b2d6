import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanse.spaces import (
    CircleUnion,
    FiniteSet,
    Interval01,
    SingularSet,
    SpaceError,
    Torus2,
    exp_radii,
    harmonic_radii,
    space_from_config,
)


def dense_circle_samples(radii, n=720):
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = [np.zeros(2)]
    for r in radii:
        pts.extend(np.stack([r * np.cos(thetas), r * np.sin(thetas)], axis=-1))
    return np.array(pts)


def diameter_oracle(pts):
    # brute-force max pairwise Euclidean distance
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())


def test_interval_diameter():
    assert Interval01().diameter == 1.0


def test_circle_union_diameter_matches_dense_oracle():
    radii = exp_radii(6)[1:]  # e^-1, e^-2, ...
    sp = CircleUnion(radii)
    oracle = diameter_oracle(dense_circle_samples(radii))
    assert sp.diameter == pytest.approx(2.0 * math.exp(-1), abs=1e-12)
    assert sp.diameter == pytest.approx(oracle, rel=1e-4)


def test_finite_singleton_diameter():
    assert FiniteSet([[0.3, 0.7]]).diameter == 0.0


def test_dist_point_set_interval_endpoints():
    sp = Interval01()
    sing = SingularSet(sp, points=((0.0,), (1.0,)))
    assert sing.distances(np.array([0.3])) == pytest.approx(0.3, abs=1e-15)


def test_dist_point_set_member_is_zero():
    sp = Interval01()
    sing = SingularSet(sp, points=((0.0,), (1.0,)))
    assert sing.distances(np.array([1.0])) == 0.0


def test_dist_point_set_gabi_origin():
    sp = CircleUnion(harmonic_radii(16))
    sing = SingularSet(sp, points=((0.0, 0.0),))
    z = np.array([1.0 / 9.0, 0.0])
    assert sing.distances(z) == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_empty_set_convention_is_diameter():
    for sp in (Interval01(), CircleUnion(exp_radii(4)), Torus2()):
        sing = SingularSet(sp)
        z = sp.grid(4)[0] if not isinstance(sp, Interval01) else np.array([0.25])
        assert sing.distances(z) == sp.diameter


def test_distance_override_wins():
    sp = Interval01()
    sing = SingularSet(sp, points=(), distance_fn=lambda b: np.zeros(b.shape[0]))
    assert sing.distances(np.array([0.4])) == 0.0


SPACES = [
    Interval01(),
    CircleUnion(exp_radii(8)),
    CircleUnion(harmonic_radii(8)),
    Torus2(),
    FiniteSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
]


@pytest.mark.parametrize("sp", SPACES, ids=lambda s: s.space_id)
def test_triangle_inequality_sampled(sp):
    rng = np.random.default_rng(0)
    pts = np.array([sp.random_point(rng) for _ in range(60)])
    i, j, k = rng.integers(0, 60, size=(3, 10_000))
    dij = sp.distance(pts[i], pts[j])
    djk = sp.distance(pts[j], pts[k])
    dik = sp.distance(pts[i], pts[k])
    assert (dik <= dij + djk + 1e-12).all()
    assert (dij >= 0).all()
    assert sp.distance(pts[i], pts[i]).max() == 0.0
    # symmetry
    assert np.allclose(dij, sp.distance(pts[j], pts[i]), atol=1e-15)


@pytest.mark.parametrize("sp", SPACES, ids=lambda s: s.space_id)
def test_diameter_is_sup_of_sampled_distances(sp):
    rng = np.random.default_rng(1)
    pts = np.array([sp.random_point(rng) for _ in range(400)])
    if isinstance(sp, CircleUnion):
        pts = np.concatenate([pts, dense_circle_samples(sp.radii, 256)])
    if isinstance(sp, Torus2):
        pts = np.concatenate([pts, np.array([[0.0, 0.0], [0.5, 0.5]])])
    i, j = np.meshgrid(np.arange(len(pts)), np.arange(len(pts)), indexing="ij")
    sampled = sp.distance(pts[i.ravel()], pts[j.ravel()]).max()
    assert sampled <= sp.diameter * (1 + 1e-9)
    assert sampled >= sp.diameter * 0.99


@pytest.mark.parametrize("sp", SPACES[:4], ids=lambda s: s.space_id)
def test_dist_point_set_is_1_lipschitz(sp):
    rng = np.random.default_rng(2)
    pts = [sp.random_point(rng) for _ in range(50)]
    sing = SingularSet(sp, points=(tuple(pts[0]), tuple(pts[1])))
    for _ in range(500):
        a, b = rng.integers(0, 50, size=2)
        lhs = abs(sing.distances(pts[a]) - sing.distances(pts[b]))
        assert lhs <= sp.distance(pts[a], pts[b]) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_interval_triangle_inequality_property(x, y, z):
    sp = Interval01()
    ax, ay, az = (np.array([v]) for v in (x, y, z))
    assert sp.distance(ax, az) <= sp.distance(ax, ay) + sp.distance(ay, az) + 1e-15


def test_point_validation():
    sp = Interval01()
    p = sp.point(0.5)
    assert p.coords == (0.5,) and p.space_id == "interval01"
    with pytest.raises(SpaceError):
        sp.point(1.5)
    cu = CircleUnion(harmonic_radii(4))
    q = cu.point(0.5, 0.0)
    assert q.coords == (0.5, 0.0)
    with pytest.raises(SpaceError):
        cu.point(0.41, 0.0)


def test_sample_near_stays_in_space_and_ball():
    rng = np.random.default_rng(3)
    for sp in SPACES:
        base = sp.random_point(rng)
        for _ in range(50):
            z = sp.sample_near(rng, base, 0.3)
            assert sp.contains(z, tol=1e-9)
            assert sp.distance(z, base) <= 0.3 + 1e-12


def test_space_from_config():
    assert space_from_config({"kind": "interval01"}).kind == "interval01"
    cu = space_from_config({"kind": "circle_union", "family": "harmonic", "depth": 16})
    assert len(cu.radii) == 16 and cu.radii[0] == 1.0
    cu2 = space_from_config({"kind": "circle_union", "radii": [0.5, 0.25]})
    assert cu2.radii == (0.5, 0.25)
    fs = space_from_config({"kind": "finite_set", "points": [[0.0], [1.0]]})
    assert fs.diameter == 1.0
    with pytest.raises(SpaceError):
        space_from_config({"kind": "moebius"})


@pytest.mark.parametrize("cfg, named", [
    ({"kind": "circle_union", "famliy": "harmonic"}, "'famliy'"),
    ({"kind": "interval01", "lambda": 3, "depth": 2}, "'lambda', 'depth'"),
    ({"kind": "circle_union", "family": "harmonc"}, "'harmonc'"),
    ({"kind": "circle_union", "radii": "harmonic"}, "'harmonic'"),
    ({"kind": "circle_union", "radii": [0.5, math.nan]}, "nan"),
    ({"kind": "circle_union", "depth": 0}, "depth"),
    ({"kind": "circle_union", "depth": 16.0}, "depth"),
    ({"kind": "circle_union", "include_origin": "no"}, "include_origin"),
    ({"kind": "finite_set", "points": "abc"}, "points"),
    ({"kind": "finite_set", "points": [[0.0], [1.0, 2.0]]}, "points"),
    ("interval01", "object"),
])
def test_space_from_config_rejects_bad_keys(cfg, named):
    with pytest.raises(SpaceError, match=named):
        space_from_config(cfg)
