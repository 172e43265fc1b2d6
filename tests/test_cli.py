import json
import math

import pytest

from expanse.cli import TASKS, ConfigError, ExperimentConfig, main, run
from expanse.reports import dumps_report, load_report, write_report


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
    rep = load_report(out / "report.json")["report"]
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
    rep = load_report(out / "report.json")["report"]
    assert rep["verdict"] == "certified_at_scale"


def test_entropy_trivial_exit_zero(tmp_path):
    cfg = write_cfg(tmp_path, {
        "flow": {"name": "trivial",
                 "space": {"kind": "finite_set", "points": [[0.0], [1.0]]}},
        "t_ladder": [1.0, 2.0], "eps_ladder": [0.5],
    })
    out = tmp_path / "out"
    assert main(["entropy", "--config", str(cfg), "--out", str(out)]) == 0
    rep = load_report(out / "report.json")["report"]
    assert rep["h_estimate"] == pytest.approx(0.0, abs=1e-12)
    assert (out / "triples.csv").exists()


def test_unknown_flow_exit_one(tmp_path):
    cfg = write_cfg(tmp_path, {"flow": {"name": "lorenz"}, "eps": 1, "delta": 1,
                               "property": "kstar"})
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_missing_key_exit_one(tmp_path):
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval"}})
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1


_TASK_READING = {"t0_step": "check", "x_grid": "ball-inclusion", "h_shadow": "shadow",
                 "strict_t0": "check", "return_time": "constants", "x0": "shadow",
                 "t_ladder": "entropy", "eps_ladder": "entropy", "K_grid": "entropy",
                 "delta_ladder": "hstar"}
_WANT = {"x_grid": "integer >= 1", "seed": "an integer", "strict_t0": "a boolean",
         "singular": "a boolean", "return_time": "a boolean",
         "K_grid": "equal-length lists"}  # any other key: "finite number"


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
                                       ({"K_grid": [[0.1, 0.5], [0.2]]}, "'K_grid'")])
def test_bad_config_value_exit_one(tmp_path, capsys, bad, path):
    task = _TASK_READING.get(next(iter(bad)), "equicontinuity")
    base = {k: v for k, v in (("eps", 0.1), ("delta", 1e-3)) if k in TASKS[task][1]}
    cfg = write_cfg(tmp_path, {"flow": {"name": "interval", "lambda": 1.0}, **base, **bad})
    out = tmp_path / "out"
    assert main([task, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert path in err and _WANT.get(next(iter(bad)), "finite number") in err
    assert not (out / "report.json").exists()


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


def test_shadow_requires_seed(tmp_path):
    cfg = {"flow": {"name": "interval"}, "eps": 0.05, "x0": [0.3],
           "n_segments": 4, "delta": 1e-3}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict("shadow", cfg)
    cfg["seed"] = 7
    ExperimentConfig.from_dict("shadow", cfg)


def test_shadow_task_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, {
        "flow": {"name": "interval", "lambda": 1.0},
        "eps": 0.05, "x0": [0.3], "n_segments": 6, "delta": 1e-3, "seed": 3,
    })
    out = tmp_path / "out"
    assert main(["shadow", "--config", str(cfg), "--out", str(out)]) == 0
    rep = load_report(out / "report.json")["report"]
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
    doc = load_report(out / "report.json")
    assert doc["config"]["seed"] == 9
    assert doc["config"]["n_segments"] == 5


def test_emit_report_roundtrip(tmp_path):
    doc = {"witness": {"x": [1.0 / 9.0, 0.0], "y": [0.1, 0.0]},
           "cost": 0.09999999999999996}
    path = tmp_path / "r.json"
    write_report(doc, path)
    back = load_report(path)
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
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict("explode", {"flow": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict("check", {})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict("check", {"flow": {}, "scale": {"h": -1}})
