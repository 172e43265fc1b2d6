import hashlib
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from expanse.alignment import Reparam, recompute_cost, rep_epsilon_check
from expanse.cli import (
    COMMON_KEYS,
    KEY_KINDS,
    SCALE_KINDS,
    TASKS,
    ConfigError,
    arguments,
    main,
    run,
)
from expanse.config import KINDS
from expanse.expansivity import check_property
from expanse.flows import FLOW_KEYS, flow_from_config, interval_flow
from expanse.reports import dumps_report, write_report
from expanse.shadowing import PseudoOrbit, cumulative_clock, find_shadow
from expanse.spaces import SPACE_KEYS


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


GABI_FALSIFY = {
    "flow": {"name": "circles", "family": "harmonic", "depth": 16},
    "property": "singular_expansive",
    "eps": 1.0,
    "delta": 0.1,
    "scale": {"T": 6.0, "h": 0.05, "band_width": 1.0},
}


def test_falsify_exit_code_2_and_witness(tmp_path):
    cfg = write_cfg(tmp_path, GABI_FALSIFY)
    out = tmp_path / "out"
    code = main(["falsify", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    rep = json.loads((out / "report.json").read_text())["report"]
    assert rep["verdict"] == "falsified"
    rx = math.hypot(*rep["witness"]["x"])
    assert round(1 / rx) >= 9
    assert (out / "pairs.csv").exists()


def test_ball_inclusion_exit_zero(tmp_path):
    cfg = write_cfg(tmp_path, {
        "flow": {"name": "interval", "lambda": 1.0},
        "eps": 0.85, "delta": 0.4, "x_grid": 100, "ball_samples": 20,
    })
    out = tmp_path / "out"
    assert main(["ball-inclusion", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["report"]
    assert rep["verdict"] == "certified_at_scale"


def test_entropy_trivial_exit_zero(tmp_path):
    cfg = write_cfg(tmp_path, {
        "flow": {"name": "trivial",
                 "space": {"kind": "finite_set", "points": [[0.0], [1.0]]}},
        "t_ladder": [1.0, 2.0], "eps_ladder": [0.5],
    })
    out = tmp_path / "out"
    assert main(["entropy", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["report"]
    assert rep["h_estimate"] == pytest.approx(0.0, abs=1e-12)
    assert (out / "triples.csv").exists()


def test_unknown_flow_exit_one(tmp_path):
    cfg = write_cfg(tmp_path, {"flow": {"name": "lorenz"}, "eps": 1, "delta": 1,
                               "property": "kstar"})
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_missing_key_exit_one(tmp_path):
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval"}})
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_missing_needed_key_refused_before_flow_is_built(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"flow": {"name": "lorenz"}, "eps": 0.1})
    out = tmp_path / "out"
    assert main(["equicontinuity", "--config", str(cfg), "--out", str(out)]) == 1
    assert "task 'equicontinuity' needs config key 'delta'" in capsys.readouterr().err
    assert not out.exists()


_TASK_READING = {"t0_step": "check", "x_grid": "ball-inclusion", "h_shadow": "shadow",
                 "strict_t0": "check", "return_time": "constants", "x0": "shadow",
                 "t_ladder": "entropy", "eps_ladder": "entropy", "K_grid": "entropy",
                 "delta_ladder": "hstar", "property": "check", "pseudo_orbit_file": "shadow",
                 "T_escape": "xdelta", "scale.band_width": "check", "scale.grid": "entropy",
                 "seed": "constants"}
_WANT = {"x_grid": "integer >= 1", "seed": "an integer", "strict_t0": "a boolean",
         "singular": "a boolean", "return_time": "a boolean",
         "K_grid": "equal-length lists", "property": "one of 'expansive', 'kstar'",
         "pseudo_orbit_file": "a nonempty string", "out": "a nonempty string",
         "scale.grid": "integer >= 1"}  # any other key path: "finite number"


@pytest.mark.parametrize("bad, path", [({"eps": "abc"}, "'eps'"),
                                       ({"delta": math.nan}, "'delta'"),
                                       ({"scale": {"T": "20"}}, "'scale.T'"),
                                       ({"scale": {"h": math.inf}}, "'scale.h'"),
                                       ({"scale": {"band_width": True}}, "'scale.band_width'"),
                                       ({"t0_step": "abc"}, "'t0_step'"),
                                       ({"x_grid": -5}, "'x_grid'"),
                                       ({"h_shadow": 0.0}, "'h_shadow'"),
                                       ({"seed": True}, "'seed'"),
                                       ({"seed": 2.7}, "'seed'"),
                                       ({"strict_t0": "no"}, "'strict_t0'"),  # --override strict_t0=no
                                       ({"singular": 1}, "'singular'"),
                                       ({"return_time": "yes"}, "'return_time'"),
                                       ({"t_ladder": []}, "'t_ladder'"),
                                       ({"eps_ladder": [0.1, math.inf]}, "'eps_ladder'"),
                                       ({"delta_ladder": 0.1}, "'delta_ladder'"),
                                       ({"x0": ["abc"]}, "'x0'"),
                                       ({"K_grid": [[0.1, 0.5], [0.2]]}, "'K_grid'"),
                                       ({"property": []}, "'property'"),
                                       ({"pseudo_orbit_file": 5}, "'pseudo_orbit_file'"),
                                       ({"out": 5}, "'out'"),
                                       ({"scale": {"grid": 2.5}}, "'scale.grid'"),
                                       ({"scale": {"grid": -5}}, "'scale.grid'"),
                                       ({"t_ladder": [-1, 2]}, "'t_ladder'"),
                                       ({"eps_ladder": [-0.5]}, "'eps_ladder'"),
                                       ({"delta_ladder": [0.0]}, "'delta_ladder'"),
                                       ({"T_escape": -5}, "'T_escape'"),
                                       ({"scale": {"band_width": 0}}, "'scale.band_width'")])
def test_bad_config_value_exit_one(tmp_path, capsys, bad, path):
    # each key path goes to a task that reads it
    task = _TASK_READING.get(path.strip("'"), "equicontinuity")
    _, needs, reads, _ = TASKS[task]
    base = {k: v for k, v in (("eps", 0.1), ("delta", 1e-3)) if k in (*needs, *reads)}
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0}, **base, **bad})
    out = tmp_path / "out"
    assert main([task, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert path in err and _WANT.get(path.strip("'"), "finite number") in err
    assert not (out / "report.json").exists()


# a value of the right kind for each key a task needs
_NEEDED = {"property": "kstar", "eps": 0.1, "delta": 0.01, "eps_ladder": [0.5],
           "t_ladder": [1.0, 2.0], "delta_ladder": [0.1], "seed": 0}
_UNREAD = [(task, key) for task, (_, needs, reads, scale_reads) in TASKS.items()
           for key in (*(f"scale.{k}" for k in SCALE_KINDS), "seed")
           if key not in (*needs, *reads, *(f"scale.{k}" for k in scale_reads))]


@pytest.mark.parametrize("task, key", _UNREAD, ids=[f"{t}-{k}" for t, k in _UNREAD])
def test_unread_key_exit_one(tmp_path, capsys, task, key):
    # the unknown flow shows that the key is refused before a flow is built
    value = {"scale.grid": 8, "seed": 5}.get(key, 2.0)
    cfg = {"flow": {"name": "lorenz"}, **{k: _NEEDED[k] for k in TASKS[task][1]}}
    if key == "seed":
        cfg["seed"] = value
    else:
        cfg["scale"] = {key.removeprefix("scale."): value}
    out = tmp_path / "out"
    assert main([task, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 1
    assert f"unknown config key(s) '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_entropy_grid_beside_k_grid_exit_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0},
                               "K_grid": [[0.2], [0.4]], "t_ladder": [1.0, 2.0],
                               "eps_ladder": [0.5], "scale": {"grid": 8}})
    out = tmp_path / "out"
    assert main(["entropy", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'scale.grid'" in capsys.readouterr().err
    assert not out.exists()


def test_int_scale_values_write_the_same_report(tmp_path):
    # the config subtree records the config as written
    cfg = {"flow": _INTERVAL, "property": "kstar", "eps": 1.0, "delta": 0.01,
           "scale": {"T": 2.0, "h": 0.25, "band_width": 1.0}}
    as_int = {**cfg, "scale": {"T": 2, "h": 0.25, "band_width": 1}}
    written = []
    for name, c in (("float", cfg), ("int", as_int)):
        assert run("check", c, tmp_path / name) == 0
        doc = json.loads((tmp_path / name / "report.json").read_text())
        written.append((dumps_report({k: v for k, v in doc.items() if k != "config"}),
                        (tmp_path / name / "pairs.csv").read_bytes()))
    assert written[0] == written[1]


@pytest.mark.parametrize("flow, named", [({"name": "circles", "famliy": "harmonic"}, "'famliy'"),
                                         ({"name": "circles", "family": "harmonc"}, "'harmonc'"),
                                         ({"name": "interval", "lamda": 3}, "'lamda'"),
                                         ({"name": "trivial", "space": "interval01"}, "object"),
                                         ("interval", "'flow'")])
def test_bad_flow_exit_one(tmp_path, capsys, flow, named):
    cfg = write_cfg(tmp_path, {"flow": flow, "eps": 0.1, "delta": 1e-3})
    out = tmp_path / "out"
    assert main(["equicontinuity", "--config", str(cfg), "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("typo, path", [({"scael": {"T": 1.0}}, "'scael'"),
                                         ({"scale": {"t": 1.0}}, "'scale.t'")])
def test_unknown_config_key_exit_one(tmp_path, capsys, typo, path):
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0},
                               "eps": 0.1, "delta": 1e-3, **typo})
    out = tmp_path / "out"
    assert main(["equicontinuity", "--config", str(cfg), "--out", str(out)]) == 1
    assert path in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("override, path", [("eps.x=1", "'eps'"),
                                            ("flow.name.kind=1", "'flow.name'")])
def test_override_through_non_object_exit_one(tmp_path, capsys, override, path):
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0},
                               "eps": 0.1, "delta": 1e-3})
    out = tmp_path / "out"
    assert main(["equicontinuity", "--config", str(cfg), "--out", str(out),
                 "--override", override]) == 1
    err = capsys.readouterr().err
    assert path in err and "not an object" in err
    assert not (out / "report.json").exists()


def test_shadow_requires_seed(tmp_path):
    cfg = {"flow": {"name": "interval"}, "eps": 0.05, "x0": [0.3],
           "n_segments": 4, "delta": 1e-3}
    with pytest.raises(ConfigError, match="'seed'"):
        arguments("shadow", cfg)
    cfg["seed"] = 7
    arguments("shadow", cfg)


@pytest.mark.parametrize("x0", [[1.7], [0.3, 0.4]])
def test_shadow_x0_off_space_exit_one(tmp_path, capsys, x0):
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0}, "eps": 0.05,
                               "x0": x0, "n_segments": 4, "delta": 1e-3, "seed": 3})
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == 1
    assert "not in interval01" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_shadow_step_with_one_sample_time_exit_one(tmp_path, capsys):
    # h_shadow 5 leaves only clock 0 on a one-segment pseudo-orbit; it used to
    # fail in Reparam, after both cone searches, with a message naming no key
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval"}, "eps": 0.05, "seed": 0,
                               "x0": [0.3], "n_segments": 1, "delta": 0.001,
                               "h_shadow": 5.0})
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == 1
    assert "h = 5.0 leaves one sample time" in capsys.readouterr().err
    assert not out.exists()


def test_shadow_non_finite_pseudo_orbit_file_exit_one(tmp_path, capsys):
    # a NaN header used to run to a report.json
    po_file = tmp_path / "po.txt"
    po_file.write_text("# i_min=0 T_min=nan delta=nan\n0.3,1.5\n")
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0}, "eps": 0.05,
                               "pseudo_orbit_file": str(po_file), "seed": 3})
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == 1
    assert "T_min must be a finite number, got nan" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_shadow_file_with_generator_keys_exit_one(tmp_path, capsys):
    # the generator keys used to be ignored silently next to a file
    po_file = tmp_path / "po.txt"
    po_file.write_text("# i_min=0 T_min=5 delta=0.1\n0.9,5.5\n")
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0}, "eps": 0.05,
                               "pseudo_orbit_file": str(po_file), "x0": [0.9],
                               "n_segments": 3, "delta": 0.1, "T_min": 5, "seed": 3})
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'x0', 'n_segments', 'delta', 'T_min'" in err
    assert not out.exists()


def test_shadow_off_space_pseudo_orbit_file_writes_nothing(tmp_path, capsys):
    # pseudo_orbit.txt used to be written before the search refused the point
    po_file = tmp_path / "po.txt"
    po_file.write_text("# i_min=0 T_min=1 delta=0.001\n0.3,1.5\n1.7,1.5\n")
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0}, "eps": 0.05,
                               "pseudo_orbit_file": str(po_file), "seed": 0})
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == 1
    assert "(1.7,) not in interval01" in capsys.readouterr().err
    assert not out.exists()


def test_shadow_pseudo_orbit_file_jumping_past_delta_exit_one(tmp_path, capsys):
    # a file whose jump exceeds its own delta used to be searched as given
    po_file = tmp_path / "po.txt"
    po_file.write_text("# i_min=0 T_min=1 delta=0.001\n0.3,1.5\n0.9,1.5\n")
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0}, "eps": 0.05,
                               "pseudo_orbit_file": str(po_file), "seed": 0})
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == 1
    assert re.search(r"error: jump \S+ at index 0 exceeds delta 0\.001$",
                     capsys.readouterr().err.strip())
    assert not out.exists()


def test_shadow_task_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, {
        "flow": {"name": "interval", "lambda": 1.0},
        "eps": 0.05, "x0": [0.3], "n_segments": 6, "delta": 1e-3, "seed": 3,
    })
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["report"]
    assert rep["shadowed"] is True
    assert rep["rep_eps_ok"] is True
    assert (out / "pseudo_orbit.txt").exists()


def test_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, GABI_FALSIFY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["falsify", "--config", str(cfg), "--out", str(out1)])
    main(["falsify", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "pairs.csv").read_bytes() == (out2 / "pairs.csv").read_bytes()


def test_override_and_seed_flags(tmp_path):
    cfg = write_cfg(tmp_path, {
        "flow": {"name": "interval", "lambda": 1.0},
        "eps": 0.05, "x0": [0.3], "n_segments": 4, "delta": 1e-3, "seed": 1,
    })
    out = tmp_path / "out"
    code = main(["shadow", "--config", str(cfg), "--out", str(out),
                 "--seed", "9", "--override", "n_segments=5",
                 "--override", "flow.lambda=1.0"])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["seed"] == 9
    assert doc["config"]["n_segments"] == 5


_INTERVAL = {"name": "interval", "lambda": 1.0}
_TWO_CIRCLES = {"name": "circles", "radii": [0.5, 1.0]}

# (task, config, exit code, {output file: first 16 hex digits of its sha256});
# each task once with every key it reads, int values given for real keys,
# and small configs that omit every optional key (library defaults apply)
_PINNED = [
    ("check", {"flow": _INTERVAL, "property": "kstar", "eps": 1, "delta": 0.01,
               "scale": {"T": 2.0, "h": 0.05, "band_width": 0.5}}, 0,
     {"pairs.csv": "fabdc92b978bfdc4", "report.json": "1ebd723844d1f090"}),
    ("falsify", {"flow": {"name": "circles", "family": "harmonic", "depth": 16},
                 "property": "singular_expansive", "eps": 1.0, "delta": 0.1,
                 "strict_t0": True, "t0_step": 1.0, "max_pairs": 200,
                 "scale": {"T": 6.0, "h": 0.05, "band_width": 1.0}}, 2,
     {"pairs.csv": "3c4e4451c9202878", "report.json": "e279c15c5273354e"}),
    ("equicontinuity", {"flow": _INTERVAL, "eps": 0.5, "delta": 0.01, "singular": True,
                        "max_pairs": 5, "scale": {"T": 2.0, "h": 0.05}}, 0,
     {"pairs.csv": "aae3cdedc9d7c91e", "report.json": "7f6b0b2cee32fe44"}),
    ("ball-inclusion", {"flow": _INTERVAL, "eps": 1, "delta": 0.4}, 0,
     {"report.json": "dfe259fe56257a53"}),
    ("constants", {"flow": _INTERVAL, "return_time": True, "seed": 3}, 0,
     {"report.json": "ec9563bd18b88f5a"}),
    ("constants", {"flow": _INTERVAL}, 0, {"report.json": "e01a583bdfdfe418"}),
    ("shadow", {"flow": _INTERVAL, "eps": 0.05, "x0": [0.3], "n_segments": 4,
                "delta": 1e-3, "seed": 3, "T_min": 2, "h_shadow": 0.05}, 0,
     {"pseudo_orbit.txt": "9333ba82b5a7fa0c", "report.json": "e51a72dece02ac18"}),
    ("shadow", {"flow": _INTERVAL, "eps": 1, "x0": [0.3], "n_segments": 3, "delta": 0,
                "seed": 0}, 0,
     {"pseudo_orbit.txt": "889fed0b31c973d4", "report.json": "53eb8d679ee17f73"}),
    ("entropy", {"flow": {"name": "trivial",
                          "space": {"kind": "finite_set", "points": [[0.0], [1.0]]}},
                 "t_ladder": [1, 2], "eps_ladder": [0.5], "h_sample": 0.1,
                 "scale": {"grid": 8}}, 0,
     {"report.json": "f05e3b54e6af1647", "triples.csv": "9864afc96669e8a1"}),
    ("entropy", {"flow": {"name": "suspension_doubling"},
                 "K_grid": [[0.1, 0.5], [0.35, 0.5], [0.8, 0.5]],
                 "t_ladder": [1.0, 2.0], "eps_ladder": [0.3, 0.2]}, 0,
     {"report.json": "1248ee1d15909c6d", "triples.csv": "0ac01855a26b575b"}),
    ("hstar", {"flow": _TWO_CIRCLES, "delta_ladder": [0.1], "t_ladder": [1.0, 2.0],
               "eps_ladder": [0.5], "T_escape": 5, "h_sample": 0.1}, 0,
     {"report.json": "7493fed28771c89e", "triples.csv": "3e1dbc8cae86f13e"}),
    ("hstar", {"flow": {"name": "interval"}, "delta_ladder": [0.1],
               "t_ladder": [1.0, 2.0], "eps_ladder": [0.5]}, 0,
     {"report.json": "e5530cc705fc6302", "triples.csv": "d79a8996e033a1a8"}),
    ("xdelta", {"flow": _INTERVAL, "delta": 0.1, "T_escape": 5, "h_escape": 0.1}, 0,
     {"points.csv": "67645d09427281ee", "report.json": "e4f2e43e781d4090"}),
    ("xdelta", {"flow": _TWO_CIRCLES, "delta": 1}, 0,
     {"points.csv": "1a61ef48692d26c1", "report.json": "d013d3183f0d415a"}),
    # the harmonic pairs (1/n, 1/(n+1)) for n = 3 and 9 are adjacent circles here
    ("delta-star", {"flow": {"name": "circles", "radii": [1 / 3, 1 / 4, 1 / 9, 1 / 10]},
                    "property": "singular_expansive", "eps_ladder": [1, 4], "t0_step": 1,
                    "scale": {"T": 2, "h": 0.05, "band_width": 0.5}}, 0,
     {"report.json": "335281620a7e206a"}),
]


@pytest.mark.parametrize("task, cfg, code, digests", _PINNED,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(_PINNED)])
def test_task_output_bytes_pinned(tmp_path, task, cfg, code, digests):
    assert run(task, json.loads(json.dumps(cfg)), tmp_path) == code
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in sorted(tmp_path.iterdir())}
    assert written == digests


def test_delta_star_task_curve(tmp_path):
    # the smallest falsifying cost at eps 1 is the ratio 1/(n+1) at n = 9
    task, cfg, code, _ = _PINNED[-1]
    assert run(task, json.loads(json.dumps(cfg)), tmp_path) == code
    curve = json.loads((tmp_path / "report.json").read_text())["report"]["curve"]
    assert curve[0][0] == 1.0 and curve[0][1] == pytest.approx(0.1, abs=1e-9)


def test_emit_report_roundtrip(tmp_path):
    doc = {"witness": {"x": [1.0 / 9.0, 0.0], "y": [0.1, 0.0]},
           "cost": 0.09999999999999996}
    path = tmp_path / "r.json"
    write_report(doc, path)
    back = json.loads(path.read_text())
    assert back["witness"]["x"][0] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert back["cost"] == pytest.approx(doc["cost"], abs=1e-12)
    # byte stability
    write_report(doc, tmp_path / "r2.json")
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_empty_ladder_report_valid(tmp_path):
    doc = {"per_eps_slopes": [], "r_table": [], "h_estimate": 0.0}
    s = dumps_report(doc)
    assert json.loads(s) == {"per_eps_slopes": [], "r_table": [], "h_estimate": 0.0}


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown task"):
        arguments("explode", {"flow": {}})
    with pytest.raises(ConfigError, match="'flow'"):
        arguments("check", {})
    with pytest.raises(ConfigError, match="'scale.h'"):
        arguments("check", {"flow": {}, "scale": {"h": -1}})


def test_every_key_has_a_kind():
    for task, (runner, needs, reads, scale_reads) in TASKS.items():
        for key in (*COMMON_KEYS, *needs, *reads):
            assert key in KEY_KINDS, (task, key)
        for key in scale_reads:
            assert key in SCALE_KINDS and key not in KEY_KINDS, (task, key)
        assert not set(needs) & set(reads), task
        params = inspect.signature(runner).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for key in needs:
            assert key in params and params[key].default is params[key].empty, (task, key)
        for key in (*reads, *scale_reads):
            assert key in params or takes_any, (task, key)
    tables = [KEY_KINDS, SCALE_KINDS, *FLOW_KEYS.values(), *SPACE_KEYS.values()]
    for table in tables:
        for kind in table.values():
            assert kind is None or isinstance(kind, tuple) or kind in KINDS, kind


def test_readme_cli_example_is_a_valid_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    _, kwargs = arguments("falsify", example)  # by the falsify row's keys and kinds
    assert set(kwargs) == set(example) - set(COMMON_KEYS) | set(example["scale"])
    flow = flow_from_config(example["flow"])
    assert flow.name == "circles" and len(flow.space.radii) == 16


# criterion 10's shadow config; its falsify config is GABI_FALSIFY
_C10_SHADOW = {"flow": _INTERVAL, "eps": 0.05, "x0": [0.3], "n_segments": 6, "delta": 1e-3,
               "seed": 7}


def _audit_witness(flow, rep):
    """recompute_cost along a falsified report's witness knots, from fresh flow evaluations."""
    w, scale = rep["witness"], rep["scale"]
    n_half = int(round(scale["T"] / scale["h"]))
    times = np.arange(-n_half, n_half + 1) * scale["h"]
    reparam = Reparam(np.array(w["reparam_knots_t"]), np.array(w["reparam_knots_s"]))
    cost, _ = recompute_cost(flow, w["x"], w["y"], times, reparam, w["weight_kind"])
    assert abs(cost - w["cost"]) <= 1e-9


@pytest.mark.parametrize("task, cfg", [("falsify", GABI_FALSIFY), ("shadow", _C10_SHADOW)]
                         + [row[:2] for row in _PINNED if row[0] in ("falsify", "shadow")],
                         ids=["c10-falsify", "c10-shadow", "pinned-falsify", "pinned-shadow-0",
                              "pinned-shadow-1"])
def test_pinned_reports_reaudit(tmp_path, task, cfg):
    # every falsified or shadowed report among the pinned configs holds up
    # against fresh flow evaluations: a witness's cost along its knots, and
    # a shadow's per-segment errors along its reparametrization
    run(task, json.loads(json.dumps(cfg)), tmp_path)
    rep = json.loads((tmp_path / "report.json").read_text())["report"]
    flow = flow_from_config(cfg["flow"])
    if task == "falsify":
        assert rep["verdict"] == "falsified"
        _audit_witness(flow, rep)
        return
    assert rep["shadowed"] and rep["rep_eps_ok"]
    # the report has no knots, so the search runs again for its reparametrization
    po = PseudoOrbit.load(tmp_path / "pseudo_orbit.txt")
    res = find_shadow(flow, po, rep["eps"], h=cfg.get("h_shadow", 0.02))
    assert list(res.shadow_point.coords) == pytest.approx(rep["shadow_point"], abs=1e-9)
    assert rep_epsilon_check(res.reparam, rep["eps"])
    clock = [cumulative_clock(po, i) for i in range(po.i_min, po.i_max + 2)]
    errors = [0.0] * len(po.points)
    z = np.array(res.shadow_point.coords)
    for t in res.reparam.knots_t:  # each sample time, in the segment whose clock it is on
        p = min(max(sum(s <= t for s in clock) - 1, 0), len(po.points) - 1)
        x, _ = po.entry(po.i_min + p)
        gap = flow.space.distance(flow.evaluate(res.reparam(t), z), flow.evaluate(t - clock[p], x))
        errors[p] = max(errors[p], float(gap))
    assert errors == pytest.approx(rep["per_segment_errors"], abs=1e-9)
    assert max(errors) == pytest.approx(rep["max_error"], abs=1e-9) and max(errors) <= rep["eps"]


def test_interval_expansive_witness_reaudits():
    # the interval's expansive witness at the default scale, whose knots
    # depend on the kernel's tie rule
    flow = interval_flow(1.0)
    rep = check_property(flow, "expansive", eps=1.0, delta=0.1).to_dict()
    assert rep["verdict"] == "falsified"
    _audit_witness(flow, rep)
