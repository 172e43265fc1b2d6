"""Batch experiment runner: `expanse <task> --config <path>`.

Tasks: check | falsify | equicontinuity | ball-inclusion | constants |
shadow | entropy | hstar | xdelta. `TASKS` maps each task to its runner
and the config keys it reads besides flow, scale, seed and out. KEY_KINDS
gives each key its kind and SCALE_KINDS each scale key its kind, in the
vocabulary of expanse.config; config.check rejects any other key, or a
value of the wrong kind, by its key path before a flow is built.
Reports are deterministic JSON trees plus flat CSV tables; exit code 0 on
completion, 2 on a falsified property (so CI can assert expected
falsifications), 1 on error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import entropy as entropy_mod
from . import expansivity as expa
from . import shadowing as shad
from .alignment import rep_epsilon_check
from .config import check
from .flows import flow_from_config
from .reports import write_csv, write_report

COMMON_KEYS = ("flow", "scale", "seed", "out")
RANDOMIZED_TASKS = ("shadow",)

SCALE_DEFAULTS = {"T": expa.DEFAULT_T, "h": expa.DEFAULT_H,
                  "band_width": expa.DEFAULT_BAND, "grid": expa.DEFAULT_GRID}


class ConfigError(ValueError):
    pass


# config key -> its value kind (expanse.config); scale is its own level
KEY_KINDS = {
    "flow": "object", "scale": "object", "seed": "integer", "out": "text",
    "property": tuple(expa.PROPERTY_RULES), "pseudo_orbit_file": "text",
    **dict.fromkeys(("eps", "delta", "T_min"), "real"),
    **dict.fromkeys(("t0_step", "h_shadow", "h_sample", "h_escape", "T_escape"), "positive"),
    **dict.fromkeys(("x_grid", "ball_samples", "n_segments", "max_pairs"), "count"),
    **dict.fromkeys(("strict_t0", "singular", "return_time"), "boolean"),
    **dict.fromkeys(("t_ladder", "eps_ladder", "delta_ladder"), "positives"),
    "x0": "reals", "K_grid": "points",
}
SCALE_KINDS = {"T": "positive", "h": "positive", "band_width": "nonnegative", "grid": "count"}


@dataclass
class ExperimentConfig:
    task: str
    flow: dict
    scale: dict
    seed: int | None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, task: str, cfg: dict) -> "ExperimentConfig":
        if task not in TASKS:
            raise ConfigError(f"unknown task: {task!r}")
        check(cfg, {k: KEY_KINDS[k] for k in (*COMMON_KEYS, *TASKS[task][1])}, ConfigError)
        if "flow" not in cfg:
            raise ConfigError("config needs a 'flow' subtree")
        scale = {**SCALE_DEFAULTS, **cfg.get("scale", {})}
        check(scale, SCALE_KINDS, ConfigError, "scale.")
        seed = cfg.get("seed")
        if task in RANDOMIZED_TASKS and seed is None:
            raise ConfigError(f"task {task!r} is randomized: a seed is mandatory")
        return cls(task=task, flow=cfg["flow"], scale=scale, seed=seed, raw=dict(cfg))

    def require(self, *keys):
        for k in keys:
            if k not in self.raw:
                raise ConfigError(f"task {self.task!r} needs config key {k!r}")
        return [self.raw[k] for k in keys]


def _apply_override(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override must look like key=value: {assignment!r}")
    dotted, raw_val = assignment.split("=", 1)
    try:
        value = json.loads(raw_val)
    except json.JSONDecodeError:
        value = raw_val
    node = cfg
    keys = dotted.split(".")
    for i, k in enumerate(keys[:-1]):
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted!r}: {'.'.join(keys[:i + 1])!r} is"
                              f" {node!r}, not an object")
    node[keys[-1]] = value


def _pair_table(pair_costs) -> dict:
    rows = [list(x) + list(y) + [c] for x, y, c in pair_costs]
    width = (len(rows[0]) - 1) // 2 if rows else 1
    header = [f"x{i}" for i in range(width)] + [f"y{i}" for i in range(width)] + ["cost"]
    return {"pairs.csv": (header, rows)}


# Each runner returns (report subtree, {csv file name: (header, rows)}).

def _run_property(conf: ExperimentConfig, flow, out_dir: Path):
    prop, eps, delta = conf.require("property", "eps", "delta")
    rep = expa.check_property(
        flow, prop, float(eps), float(delta),
        T=conf.scale["T"], h=conf.scale["h"], band_width=conf.scale["band_width"],
        strict_t0=conf.raw.get("strict_t0", False),
        t0_step=float(conf.raw.get("t0_step", 0.5)),
        max_pairs=conf.raw.get("max_pairs"))
    return rep.to_dict(), _pair_table(rep.pair_costs)


def _run_equicontinuity(conf: ExperimentConfig, flow, out_dir: Path):
    eps, delta = conf.require("eps", "delta")
    rep = expa.check_equicontinuity(
        flow, conf.raw.get("singular", False), float(eps), float(delta),
        T=conf.scale["T"], h=conf.scale["h"],
        max_pairs=conf.raw.get("max_pairs"))
    return rep.to_dict(), _pair_table(rep.pair_costs)


def _run_ball_inclusion(conf: ExperimentConfig, flow, out_dir: Path):
    eps, delta = conf.require("eps", "delta")
    grid = flow.space.grid(int(conf.raw.get("x_grid", 1000)))
    rep = expa.ball_inclusion_check(
        flow, float(eps), float(delta), x_grid=grid,
        ball_samples=int(conf.raw.get("ball_samples", 100)))
    return rep.to_dict(), {}


def _run_constants(conf: ExperimentConfig, flow, out_dir: Path):
    consts = expa.comparability_constants(flow)
    c, c_info = expa.local_norm_constant(flow, seed=conf.seed or 0)
    report = {
        "B": consts.B, "C": consts.C,
        "argmax_B": list(consts.argmax_B), "argmax_C": list(consts.argmax_C),
        "n_grid": consts.n_grid, "degenerate": consts.degenerate,
        "local_norm_c": c, "local_norm_info": c_info,
    }
    if conf.raw.get("return_time", False):
        report["return_time"] = expa.return_time_bound_check(flow)
    return report, {}


def _run_shadow(conf: ExperimentConfig, flow, out_dir: Path):
    eps = float(conf.require("eps")[0])
    if "pseudo_orbit_file" in conf.raw:
        po = shad.PseudoOrbit.load(conf.raw["pseudo_orbit_file"])
    else:
        x0, n_seg, delta = conf.require("x0", "n_segments", "delta")
        po = shad.generate_pseudo_orbit(
            flow, x0, int(n_seg), float(delta),
            T_min=float(conf.raw.get("T_min", 1.0)), seed=conf.seed)
    po.save(out_dir / "pseudo_orbit.txt")
    result = shad.find_shadow(flow, po, eps, h=float(conf.raw.get("h_shadow", 0.02)))
    if result is None:
        return {"shadowed": False, "eps": eps}, {}
    return {
        "shadowed": True, "eps": eps,
        "shadow_point": list(result.shadow_point.coords),
        "max_error": result.max_error,
        "per_segment_errors": list(result.per_segment_errors),
        "rep_eps_ok": rep_epsilon_check(result.reparam, eps),
    }, {}


def _entropy_grid(conf: ExperimentConfig, flow):
    n = conf.scale["grid"]
    if hasattr(flow.space, "radii"):
        return flow.space.grid(n_angles=max(4, n // max(1, len(flow.space.radii))))
    return flow.space.grid(n)


def _entropy_report(est, estimate_key: str, **extra):
    report = {
        estimate_key: est.h_estimate,
        "per_eps_slopes": [[e, s] for e, s in est.per_eps_slopes],
        "K_descriptor": est.K_descriptor,
        **extra,
    }
    return report, {"triples.csv": (["t", "eps", "r"], est.r_table)}


def _run_entropy(conf: ExperimentConfig, flow, out_dir: Path):
    t_ladder, eps_ladder = conf.require("t_ladder", "eps_ladder")
    grid = conf.raw.get("K_grid") or _entropy_grid(conf, flow)
    est = entropy_mod.entropy_estimate(
        flow, grid, t_ladder, eps_ladder, h_sample=float(conf.raw.get("h_sample", 0.05)))
    return _entropy_report(est, "h_estimate")


def _run_hstar(conf: ExperimentConfig, flow, out_dir: Path):
    delta_ladder, t_ladder, eps_ladder = conf.require(
        "delta_ladder", "t_ladder", "eps_ladder")
    est = entropy_mod.h_star_estimate(
        flow, delta_ladder, t_ladder, eps_ladder,
        T_escape=float(conf.raw.get("T_escape", 50.0)),
        h_sample=float(conf.raw.get("h_sample", 0.05)))
    return _entropy_report(est, "h_star_estimate", all_empty=est.all_empty)


def _run_xdelta(conf: ExperimentConfig, flow, out_dir: Path):
    delta = float(conf.require("delta")[0])
    kept = entropy_mod.x_delta_set(
        flow, delta, T_escape=float(conf.raw.get("T_escape", 50.0)),
        h=float(conf.raw.get("h_escape", 0.05)))
    width = len(kept[0]) if kept else flow.space.dim
    table = ([f"x{i}" for i in range(width)], kept)
    return {"delta": delta, "n_kept": len(kept)}, {"points.csv": table}


_PROPERTY_KEYS = ("property", "eps", "delta", "strict_t0", "t0_step", "max_pairs")

# task -> (runner, the config keys it reads besides COMMON_KEYS)
TASKS = {
    "check": (_run_property, _PROPERTY_KEYS),
    "falsify": (_run_property, _PROPERTY_KEYS),
    "equicontinuity": (_run_equicontinuity, ("eps", "delta", "singular", "max_pairs")),
    "ball-inclusion": (_run_ball_inclusion, ("eps", "delta", "x_grid", "ball_samples")),
    "constants": (_run_constants, ("return_time",)),
    "shadow": (_run_shadow, ("eps", "pseudo_orbit_file", "x0", "n_segments", "delta",
                             "T_min", "h_shadow")),
    "entropy": (_run_entropy, ("t_ladder", "eps_ladder", "K_grid", "h_sample")),
    "hstar": (_run_hstar, ("delta_ladder", "t_ladder", "eps_ladder", "T_escape",
                           "h_sample")),
    "xdelta": (_run_xdelta, ("delta", "T_escape", "h_escape")),
}


def run(task: str, cfg: dict, out_dir) -> int:
    """Execute one experiment; writes report files and returns the exit code."""
    conf = ExperimentConfig.from_dict(task, cfg)
    flow = flow_from_config(conf.flow)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report, tables = TASKS[task][0](conf, flow, out)
    write_report({"task": conf.task, "config": conf.raw, "scale": conf.scale,
                  "report": report}, out / "report.json")
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    return 2 if report.get("verdict") == "falsified" else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expanse",
        description="Expansivity, shadowing and entropy experiments on catalog flows.")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted config override")
    args = parser.parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
        for ov in args.override:
            _apply_override(cfg, ov)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = args.out or cfg.get("out", ".")
        return run(args.task, cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
