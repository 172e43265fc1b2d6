"""The benchmark's correctness checks accept right answers and reject wrong ones.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
Reports come from small-scale runs of the real program; each wrong answer
is made by editing one field of a right one.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from expanse import cli, expansivity  # noqa: E402
from expanse.flows import rotation_flow  # noqa: E402
from expanse.reports import dumps_report  # noqa: E402
from expanse.spaces import CircleUnion, exp_radii  # noqa: E402


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def falsified(tmp_path_factory):
    out = tmp_path_factory.mktemp("falsify")
    job = workloads.falsify_harmonic16(0, out)
    # the workload's config at a coarse scale, so the test runs in seconds
    cfg = {**workloads.FALSIFY_CONFIG, "scale": {"T": 6.0, "h": 0.05, "band_width": 1.0}}
    code = cli.run("falsify", cfg, out)
    return job, out, code, json.loads((out / "report.json").read_text())


def test_falsify_accepts_the_real_witness(falsified):
    job, out, code, doc = falsified
    _, problems = job.finish(code)
    assert problems == []


@pytest.mark.parametrize("edit", ["flip_verdict", "cost_off_1e-6", "exit_code"])
def test_falsify_rejects(falsified, edit):
    job, out, code, doc = falsified
    bad = copy.deepcopy(doc)
    if edit == "flip_verdict":
        bad["report"]["verdict"] = "certified_at_scale"
    elif edit == "cost_off_1e-6":
        bad["report"]["witness"]["cost"] -= 1e-6
    else:
        code = 0
    _write(out / "report.json", bad)
    try:
        _, problems = job.finish(code)
    finally:
        _write(out / "report.json", doc)
    assert problems


def test_hierarchy_rejects_an_injected_violation():
    flow = rotation_flow(CircleUnion(exp_radii(3)))
    pairs = workloads.hierarchy_pairs(flow, 0.25)[:12]
    rep = expansivity.hierarchy_check(flow, pairs, delta=0.25, T=1.0, h=0.05,
                                      band_width=0.5)
    doc = json.loads(dumps_report(rep))
    assert workloads.check_hierarchy(doc, len(pairs)) == []
    doc["violations"] = [doc["pairs"][0]]
    assert workloads.check_hierarchy(doc, len(pairs))
    assert workloads.check_hierarchy({**doc, "violations": []}, len(pairs) + 1)


@pytest.mark.parametrize("h, ok", [(0.69, True), (0.55, True), (0.5499, False),
                                   (0.86, False), ("nan", False)])
def test_entropy_range(h, ok):
    assert (workloads.check_entropy_range({"report": {"h_estimate": h}}) == []) == ok


def test_shadow_rejects_a_claimed_shadow():
    assert workloads.check_shadow({"report": {"shadowed": False}}) == []
    assert workloads.check_shadow({"report": {"shadowed": True}})


def test_exact_cover_rejects_wrong_cardinalities(tmp_path):
    cfg = {"flow": {"name": "suspension_doubling"},
           "K_grid": workloads.doubling_section(10, 5),
           "t_ladder": [2.0, 3.0], "eps_ladder": [0.25]}
    assert cli.run("entropy", cfg, tmp_path) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    rows = workloads.read_triples(tmp_path / "triples.csv")
    assert workloads.check_exact_cover(doc, rows) == []
    for delta in (-1, 1):
        wrong = [(t, e, r + delta if i == 0 else r) for i, (t, e, r) in enumerate(rows)]
        assert workloads.check_exact_cover(doc, wrong)
    assert workloads.check_exact_cover(doc, rows[1:])
