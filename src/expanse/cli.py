"""Batch experiment runner: `expanse <task> --config <path>`.

Tasks: check | falsify | delta-star | equicontinuity | ball-inclusion |
constants | shadow | entropy | hstar | xdelta. A TASKS row is the one
statement of a task: its runner, the config keys it needs, those it may
read and the `scale` keys it may read. Every task also accepts COMMON_KEYS
(flow, scale, out). KEY_KINDS gives each key its kind and SCALE_KINDS each
scale key its kind, in the vocabulary of expanse.config. `arguments`
refuses any other key, a value of the wrong kind or a missing needed key,
naming its key path, before a flow is built. It casts real values to float
and passes the runner, by name, only the keys the config holds (scale keys
included), so an omitted key takes the default of the library function
that reads it. Reports are deterministic JSON trees plus flat CSV tables;
exit code 0 on completion, 2 on a falsified property (so CI can assert
expected falsifications), 1 on error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import entropy as entropy_mod
from . import expansivity as expa
from . import shadowing as shad
from .alignment import rep_epsilon_check
from .config import check
from .flows import flow_from_config
from .reports import write_csv, write_report

COMMON_KEYS = ("flow", "scale", "out")


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
SCALE_KINDS = {"T": "positive", "h": "positive", "band_width": "positive", "grid": "count"}


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


def _require(task: str, cfg: dict, keys) -> None:
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"task {task!r} needs config key {key!r}")


def _csv(header, rows):
    return functools.partial(write_csv, header=header, rows=rows)


def _pair_table(pair_costs) -> dict:
    rows = [list(x) + list(y) + [c] for x, y, c in pair_costs]
    width = (len(rows[0]) - 1) // 2 if rows else 1
    header = [f"x{i}" for i in range(width)] + [f"y{i}" for i in range(width)] + ["cost"]
    return {"pairs.csv": _csv(header, rows)}


# Each runner takes (flow, **the task and scale keys the config holds) and returns
# (report subtree, {output file name: a function that writes it to a path}).

def _run_property(flow, property, eps, delta, **opts):
    rep = expa.check_property(flow, property, eps, delta, **opts)
    return rep.to_dict(), _pair_table(rep.pair_costs)


def _run_delta_star(flow, property, eps_ladder, **opts):
    return {"property": property,
            "curve": expa.delta_star(flow, property, eps_ladder, **opts)}, {}


def _run_equicontinuity(flow, eps, delta, singular=False, **opts):
    rep = expa.check_equicontinuity(flow, singular, eps, delta, **opts)
    return rep.to_dict(), _pair_table(rep.pair_costs)


def _run_ball_inclusion(flow, eps, delta, x_grid=None, **opts):
    grid = None if x_grid is None else flow.space.grid(x_grid)
    return expa.ball_inclusion_check(flow, eps, delta, x_grid=grid, **opts).to_dict(), {}


def _run_constants(flow, return_time=False, **opts):
    consts = dataclasses.asdict(expa.comparability_constants(flow))
    c, c_info = expa.local_norm_constant(flow, **opts)
    report = {**consts, "local_norm_c": c, "local_norm_info": c_info}
    if return_time:
        report["return_time"] = expa.return_time_bound_check(flow)
    return report, {}


def _run_shadow(flow, eps, seed, pseudo_orbit_file=None, **opts):
    search = {"h": opts.pop("h_shadow")} if "h_shadow" in opts else {}
    if pseudo_orbit_file is None:  # opts holds the generator's keys
        _require("shadow", opts, ("x0", "n_segments", "delta"))
        po = shad.generate_pseudo_orbit(flow, seed=seed, **opts)
    elif opts:
        raise ConfigError(f"task 'shadow' reads pseudo_orbit_file, so it would ignore"
                          f" config key(s) {', '.join(map(repr, opts))}")
    else:
        po = shad.PseudoOrbit.load(pseudo_orbit_file)
        po.validate(flow)
    result = shad.find_shadow(flow, po, eps, **search)
    files = {"pseudo_orbit.txt": po.save}
    if result is None:
        return {"shadowed": False, "eps": eps}, files
    return {
        "shadowed": True, "eps": eps,
        "shadow_point": list(result.shadow_point.coords),
        "max_error": result.max_error,
        "per_segment_errors": list(result.per_segment_errors),
        "rep_eps_ok": rep_epsilon_check(result.reparam, eps),
    }, files


def _entropy_grid(flow, n: int):
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
    return report, {"triples.csv": _csv(["t", "eps", "r"], est.r_table)}


def _run_entropy(flow, t_ladder, eps_ladder, K_grid=None, grid=None, **opts):
    if K_grid is None:
        K_grid = _entropy_grid(flow, 64 if grid is None else grid)
    elif grid is not None:
        raise ConfigError("task 'entropy' reads K_grid, so it would ignore"
                          " config key 'scale.grid'")
    est = entropy_mod.entropy_estimate(flow, K_grid, t_ladder, eps_ladder, **opts)
    return _entropy_report(est, "h_estimate")


def _run_hstar(flow, delta_ladder, t_ladder, eps_ladder, **opts):
    est = entropy_mod.h_star_estimate(flow, delta_ladder, t_ladder, eps_ladder, **opts)
    return _entropy_report(est, "h_star_estimate", all_empty=est.all_empty)


def _run_xdelta(flow, delta, **opts):
    if "h_escape" in opts:
        opts["h"] = opts.pop("h_escape")
    kept = entropy_mod.x_delta_set(flow, delta, **opts)
    width = len(kept[0]) if kept else flow.space.dim
    table = _csv([f"x{i}" for i in range(width)], kept)
    return {"delta": delta, "n_kept": len(kept)}, {"points.csv": table}


_ALIGN_SCALE = ("T", "h", "band_width")
_PROPERTY = (_run_property, ("property", "eps", "delta"),
             ("strict_t0", "t0_step", "max_pairs"), _ALIGN_SCALE)

# task -> (runner, config keys it needs, config keys it may read, scale keys it
# may read); the runner gets by name each of these keys that the config holds
TASKS = {
    "check": _PROPERTY,
    "falsify": _PROPERTY,
    "delta-star": (_run_delta_star, ("property", "eps_ladder"), ("t0_step",), _ALIGN_SCALE),
    "equicontinuity": (_run_equicontinuity, ("eps", "delta"), ("singular", "max_pairs"),
                       ("T", "h")),
    "ball-inclusion": (_run_ball_inclusion, ("eps", "delta"), ("x_grid", "ball_samples"), ()),
    "constants": (_run_constants, (), ("seed", "return_time"), ()),
    "shadow": (_run_shadow, ("eps", "seed"), ("pseudo_orbit_file", "x0", "n_segments",
                                              "delta", "T_min", "h_shadow"), ()),
    "entropy": (_run_entropy, ("t_ladder", "eps_ladder"), ("K_grid", "h_sample"), ("grid",)),
    "hstar": (_run_hstar, ("delta_ladder", "t_ladder", "eps_ladder"),
              ("T_escape", "h_sample"), ()),
    "xdelta": (_run_xdelta, ("delta",), ("T_escape", "h_escape"), ()),
}


def arguments(task: str, cfg: dict) -> tuple:
    """(runner, keyword arguments) for task on cfg; ConfigError names a bad key."""
    if task not in TASKS:
        raise ConfigError(f"unknown task: {task!r}")
    runner, needs, reads, scale_reads = TASKS[task]
    check(cfg, {k: KEY_KINDS[k] for k in (*COMMON_KEYS, *needs, *reads)}, ConfigError)
    scale = cfg.get("scale", {})
    check(scale, {k: SCALE_KINDS[k] for k in scale_reads}, ConfigError, "scale.")
    _require(task, cfg, ("flow", *needs))
    given = {**{k: cfg[k] for k in (*needs, *reads) if k in cfg}, **scale}
    kinds = {**KEY_KINDS, **SCALE_KINDS}
    return runner, {k: float(v) if kinds[k] in ("real", "positive", "nonnegative") else v
                    for k, v in given.items()}


def run(task: str, cfg: dict, out_dir) -> int:
    """Execute one experiment; writes its files once it completes, returns the exit code."""
    runner, kwargs = arguments(task, cfg)
    report, files = runner(flow_from_config(cfg["flow"]), **kwargs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report({"task": task, "config": cfg, "report": report}, out / "report.json")
    for name, write in files.items():
        write(out / name)
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
