"""Benchmark workloads: seeded inputs, one timed call, and its correctness check.

Each workload builds its inputs from the seed (seed 0 gives the canonical
acceptance inputs), makes one timed call into expanse, and checks the
output afterwards. A check returns a list of problems; an empty list means
the run is correct. The checks are plain functions of the report so that
``test_checks.py`` can feed them deliberately wrong answers.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from expanse import cli, expansivity, shadowing
from expanse.alignment import Reparam, recompute_cost
from expanse.flows import flow_from_config, rotation_flow
from expanse.reports import dumps_report
from expanse.spaces import CircleUnion, exp_radii

AUDIT_TOL = 1e-9
H_RANGE = (0.55, 0.85)
DRIFT_RADII = [0.8 + 0.02 * k for k in range(11)]
FALSIFY_CONFIG = {"flow": {"name": "circles", "family": "harmonic", "depth": 16},
                  "property": "singular_expansive", "eps": 1.0, "delta": 0.1,
                  "scale": {"T": 20.0, "h": 0.01, "band_width": 2.0}}


def phase(seed: int) -> float:
    """Phase shift in [0, 1): 0 for seed 0, otherwise a dyadic j/64.

    A dyadic shift keeps the 1024-point doubling section exact in binary,
    so a shifted section has the same Bowen matrices, ties included, and
    the entropy workloads do the same work on different points.
    """
    if seed == 0:
        return 0.0
    return int(np.random.default_rng(seed).integers(1, 64)) / 64.0


@dataclass
class Job:
    """One workload instance: the timed call and what to do with its result."""

    call: Callable[[], object]
    # (result of call) -> (report bytes to hash, problems found)
    finish: Callable[[object], tuple]


# ------------------------------------------------------------------ checks

def check_falsify(doc: dict) -> list:
    """Acceptance criterion 1, plus a re-audit of the witness from fresh flows."""
    rep = doc.get("report", {})
    problems = []
    if rep.get("verdict") != "falsified":
        problems.append(f"verdict {rep.get('verdict')!r}, expected 'falsified'")
    w = rep.get("witness")
    if not w:
        return problems + ["no witness"]
    rx, ry = math.hypot(*w["x"]), math.hypot(*w["y"])
    n = round(1.0 / rx) if rx > 0 else 0
    if n < 9 or abs(rx - 1.0 / n) > AUDIT_TOL or abs(ry - 1.0 / (n + 1)) > AUDIT_TOL:
        problems.append(f"witness radii {rx!r}, {ry!r} are not 1/n, 1/(n+1) with n >= 9")
    if not w["cost"] <= rep["delta"]:
        problems.append(f"witness cost {w['cost']} exceeds delta {rep['delta']}")
    scale = rep["scale"]
    n_half = int(round(scale["T"] / scale["h"]))
    times = np.arange(-n_half, n_half + 1, dtype=float) * scale["h"]
    flow = flow_from_config(doc["config"]["flow"])
    reparam = Reparam(np.array(w["reparam_knots_t"]), np.array(w["reparam_knots_s"]))
    audit, _ = recompute_cost(flow, w["x"], w["y"], times, reparam, w["weight_kind"])
    if not abs(audit - w["cost"]) <= AUDIT_TOL:
        problems.append(f"re-audited cost {audit!r} differs from reported {w['cost']!r}")
    return problems


def check_hierarchy(doc: dict, n_pairs: int) -> list:
    problems = []
    if doc.get("n_pairs") != n_pairs or len(doc.get("pairs", ())) != n_pairs:
        problems.append(f"{doc.get('n_pairs')} pairs reported, expected {n_pairs}")
    if doc.get("violations") != []:
        problems.append(f"{len(doc.get('violations') or ())} hierarchy violations")
    return problems


def check_entropy_range(doc: dict) -> list:
    h = doc.get("report", {}).get("h_estimate")
    if not (isinstance(h, float) and H_RANGE[0] <= h <= H_RANGE[1]):
        return [f"h_estimate {h!r} outside {list(H_RANGE)}"]
    return []


def check_shadow(doc: dict) -> list:
    if doc.get("report", {}).get("shadowed") is not False:
        return ["the drift pseudo-orbit was reported as shadowed"]
    return []


def _wrap(u):
    u = np.abs(u) % 1.0
    return np.minimum(u, 1.0 - u)


def doubling_bowen_matrix(points: np.ndarray, t: float, h_sample: float) -> np.ndarray:
    """Sampled running max of torus distances along the doubling suspension.

    An oracle written from the definition, independent of expanse.entropy.
    """
    n = int(math.floor(t / h_sample + 1e-9))
    ts = np.arange(n + 1) * h_sample
    if ts[-1] < t - 1e-12:
        ts = np.append(ts, t)
    u = points[:, 1:2] + ts[None, :]
    k = np.floor(u)
    theta = np.mod(points[:, 0:1] * np.exp2(k), 1.0)
    s = u - k
    d = np.hypot(_wrap(theta[:, None, :] - theta[None, :, :]),
                 _wrap(s[:, None, :] - s[None, :, :]))
    return d.max(axis=-1)


def greedy_cover_size(cover: np.ndarray) -> int:
    uncovered = np.ones(cover.shape[0], dtype=bool)
    size = 0
    while uncovered.any():
        uncovered &= ~cover[int(np.argmax((cover & uncovered).sum(axis=1)))]
        size += 1
    return size


def covers_with(cover: np.ndarray, size: int) -> bool:
    """True iff at most `size` centers cover every point (bitmask enumeration)."""
    m = cover.shape[0]
    if size <= 0:
        return False
    size = min(size, m)
    masks = (cover.astype(np.int64) << np.arange(m, dtype=np.int64)).sum(axis=1)
    combos = np.array(list(itertools.combinations(range(m), size)), dtype=np.intp)
    return bool((np.bitwise_or.reduce(masks[combos], axis=1) == (1 << m) - 1).any())


def check_exact_cover(doc: dict, rows: list) -> list:
    """Each reported r is the exact minimum cover size, hence <= the greedy size.

    The report carries cardinalities, not the chosen centers, so the
    cover of size r is found here on an independently built cover matrix.
    """
    cfg = doc["config"]
    pts = np.asarray(cfg["K_grid"], dtype=float)
    h_sample = float(cfg.get("h_sample", 0.05))
    expected = {(float(t), float(e)) for t in cfg["t_ladder"] for e in cfg["eps_ladder"]}
    got = {(float(t), float(e)): int(r) for t, e, r in rows}
    problems = []
    if set(got) != expected:
        problems.append(f"(t, eps) cells {sorted(got)} != {sorted(expected)}")
    for (t, eps), r in sorted(got.items()):
        cover = doubling_bowen_matrix(pts, t, h_sample) <= eps
        greedy = greedy_cover_size(cover)
        if r > greedy:
            problems.append(f"r({t}, {eps}) = {r} exceeds the greedy size {greedy}")
        if not covers_with(cover, r):
            problems.append(f"no {r} centers cover the grid at ({t}, {eps})")
        if covers_with(cover, r - 1):
            problems.append(f"r({t}, {eps}) = {r} is not minimal")
    return problems


# ---------------------------------------------------------------- workloads

def _cli_job(task: str, cfg: dict, out: Path, exit_code: int,
             check: Callable[[dict, Path], list]) -> Job:
    """A `cli.run` call whose report.json is checked by `check(doc, out)`."""
    def finish(code):
        report = out / "report.json"
        data = report.read_bytes() if report.is_file() else b""
        problems = [] if code == exit_code else [f"exit code {code}, expected {exit_code}"]
        problems += check(json.loads(data), out) if data else ["no report.json written"]
        return data, problems
    return Job(call=lambda: cli.run(task, cfg, out), finish=finish)


def falsify_harmonic16(seed: int, out: Path) -> Job:
    # the CLI builds its own pair grid, so there is nothing for the seed to move
    return _cli_job("falsify", FALSIFY_CONFIG, out, 2, lambda doc, _: check_falsify(doc))


def hierarchy_pairs(flow, phi: float) -> list:
    """Acceptance criterion 9's circle pairs on a 36-angle lattice rotated by phi."""
    sp = flow.space
    out = []
    for i in range(len(sp.radii)):
        for k in range(36):
            ang = 2.0 * math.pi * (k + phi) / 36
            x = sp.on_circle(i, ang)
            out.append((x, sp.on_circle(i, ang + 0.05)))
            if i + 1 < len(sp.radii):
                out.append((x, sp.on_circle(i + 1, ang)))
            out.append((x, flow.evaluate(0.5, x)))
            out.append((x, sp.on_circle(i, ang + math.pi)))
    return out


def hierarchy_exp8(seed: int, out: Path) -> Job:
    flow = rotation_flow(CircleUnion(exp_radii(8)))
    pairs = hierarchy_pairs(flow, phase(seed))

    def finish(result):
        text = dumps_report(result)
        return text.encode(), check_hierarchy(json.loads(text), len(pairs))

    return Job(call=lambda: expansivity.hierarchy_check(
        flow, pairs, delta=0.25, T=4.0, h=0.05, band_width=0.5), finish=finish)


def doubling_section(m: int, seed: int) -> list:
    phi = phase(seed)
    return [[(k + phi) / m, 0.5] for k in range(m)]


def entropy_doubling(seed: int, out: Path) -> Job:
    cfg = {"flow": {"name": "suspension_doubling"},
           "K_grid": doubling_section(1024, seed),
           "t_ladder": [2.0, 3.0, 4.0, 5.0, 6.0], "eps_ladder": [0.25, 0.2]}
    return _cli_job("entropy", cfg, out, 0, lambda doc, _: check_entropy_range(doc))


def read_triples(path: Path) -> list:
    with open(path, newline="") as fh:
        return [(float(r["t"]), float(r["eps"]), int(r["r"])) for r in csv.DictReader(fh)]


def entropy_exact18(seed: int, out: Path) -> Job:
    cfg = {"flow": {"name": "suspension_doubling"},
           "K_grid": doubling_section(18, seed),
           "t_ladder": [2.0, 3.0, 4.0], "eps_ladder": [0.25]}
    return _cli_job("entropy", cfg, out, 0, lambda doc, d: check_exact_cover(
        doc, read_triples(d / "triples.csv")))


def drift_pseudo_orbit(seed: int) -> shadowing.PseudoOrbit:
    """Acceptance criterion 8's drift control, started at a seeded angle."""
    alpha = 2.0 * math.pi * phase(seed)
    return shadowing.PseudoOrbit(
        points=tuple((r * math.cos(alpha), r * math.sin(alpha)) for r in DRIFT_RADII),
        durations=(2.0 * math.pi,) * len(DRIFT_RADII), i_min=-5, T_min=1.0,
        delta=0.0201)


def shadow_drift(seed: int, out: Path) -> Job:
    # the report records the config, so the input path is relative and the
    # same for every run of a seed: report bytes stay comparable across runs
    po_file = Path(".bench_out") / f"drift-{seed}.txt"
    po_file.parent.mkdir(parents=True, exist_ok=True)
    drift_pseudo_orbit(seed).save(po_file)
    cfg = {"flow": {"name": "circles", "radii": DRIFT_RADII}, "eps": 0.05,
           "pseudo_orbit_file": str(po_file), "seed": 0}
    return _cli_job("shadow", cfg, out, 0, lambda doc, _: check_shadow(doc))


WORKLOADS = {
    "falsify-harmonic16": falsify_harmonic16,
    "hierarchy-exp8": hierarchy_exp8,
    "entropy-doubling": entropy_doubling,
    "shadow-drift": shadow_drift,
    "entropy-exact18": entropy_exact18,
}
