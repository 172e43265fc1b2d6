"""Layer spans for expanse, recorded from outside the package.

A layer is an expanse module (``reports`` belongs to ``cli``). A span opens
when code calls a function that one expanse module imports from another,
or a public function through its module, and on every call of
``Space.distance`` (each subclass), ``SingularSet.distances`` and
``FlowModel.evaluate``. A call made while the innermost open span belongs
to the callee's own layer opens no span. Classes are not wrapped, because
replacing them would break ``isinstance`` checks; other methods open no
span, so their time counts to the layer that called them.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and
written out when the run ends. Counts are taken at the same boundaries,
from call arguments and return values.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter

import numpy as np

LAYERS = ("spaces", "flows", "alignment", "expansivity", "shadowing", "entropy", "cli")
MODULES = ("spaces", "flows", "alignment", "expansivity", "shadowing", "entropy",
           "reports", "cli")


def layer_of(module_name: str):
    """The layer of an expanse module name, or None outside the package."""
    head, _, mod = module_name.partition(".")
    if head != "expanse" or mod not in MODULES:
        return None
    return "cli" if mod == "reports" else mod


# ------------------------------------------------------ counts at boundaries

def _values(tracer, args, kwargs, out):
    tracer.counts["spaces.values"] += int(np.size(out))


def _points(out) -> int:
    shape = np.shape(out)
    return math.prod(shape[:-1]) if shape else 1


def _evaluate(tracer, args, kwargs, out):
    tracer.counts["flows.points"] += _points(out)


def _sample_orbit(tracer, args, kwargs, out):
    tracer.counts["flows.points"] += len(out.times)


def _align(tracer, args, kwargs, out):
    call = tracer.signature["alignment.align"].bind(*args, **kwargs)
    call.apply_defaults()
    xs = call.arguments["xs"]
    band = math.floor(call.arguments["band_width"] / xs.step_h + 1e-9)
    tracer.counts["alignment.dp_cells"] += len(xs.times) * (2 * band + 1)


def _check_property(tracer, args, kwargs, out):
    tracer.counts["expansivity.pairs_scanned"] += out.stats["pairs_checked"]
    tracer.counts["expansivity.pairs_below_delta"] += out.stats["pairs_below_delta"]


def _hierarchy_check(tracer, args, kwargs, out):
    bound = out["delta"] / out["diam"]
    tracer.counts["expansivity.pairs_scanned"] += out["n_pairs"]
    tracer.counts["expansivity.pairs_below_delta"] += sum(
        1 for row in out["pairs"] if row[2] <= bound)


def _entropy_estimate(tracer, args, kwargs, out):
    call = tracer.signature["entropy.entropy_estimate"].bind(*args, **kwargs)
    call.apply_defaults()
    t_max, h = max(call.arguments["t_ladder"]), call.arguments["h_sample"]
    n = int(math.floor(t_max / h + 1e-9))
    steps = n + 1 + (n * h < t_max - 1e-12)
    tracer.counts["entropy.bowen_cells"] += len(call.arguments["K_grid"]) ** 2 * steps
    tracer.counts["entropy.cover_cells"] += len(out.r_table)
    tracer.counts["entropy.cover_size_sum"] += sum(r for _, _, r in out.r_table)


def _find_shadow(tracer, args, kwargs, out):
    # the candidate list is rebuilt after the run, outside the timed region
    call = tracer.signature["shadowing.find_shadow"].bind(*args, **kwargs)
    call.apply_defaults()
    tracer.deferred.append((call.arguments, out))


def candidates_tried(shadowing, deferred) -> int:
    """Shadow candidates tried, from find_shadow's arguments and result."""
    tried = 0
    for a, out in deferred:
        flow = a["flow"]
        cands = list(a["candidate_grid"]) if a["candidate_grid"] is not None \
            else shadowing.default_candidates(flow, a["po"], a["eps"])
        if out is None or a["mode"] != "first":
            tried += len(cands)
        else:
            hit = np.asarray(out.shadow_point.coords)
            tried += 1 + next(i for i, z in enumerate(cands)
                              if flow.space.distance(np.asarray(z), hit) <= 1e-12)
    return tried


HOOKS = {
    "spaces.distance": _values,
    "spaces.distances": _values,
    "flows.evaluate": _evaluate,
    "flows.sample_orbit": _sample_orbit,
    "alignment.align": _align,
    "expansivity.check_property": _check_property,
    "expansivity.hierarchy_check": _hierarchy_check,
    "entropy.entropy_estimate": _entropy_estimate,
    "shadowing.find_shadow": _find_shadow,
}


class Tracer:
    """Span recorder; wrappers record only while ``active`` is true."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans = []
        self.counts = Counter()
        self.deferred = []
        self.signature = {}
        self._open = []         # indices of open spans, innermost last
        self._open_layer = []   # their layers
        self._wrapped = {}      # original function -> wrapper

    def wrap(self, layer: str, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        full = f"{layer}.{fn.__name__}"
        self.signature[full] = inspect.signature(fn)
        hook = HOOKS.get(full)
        spans, open_, open_layer = self.spans, self._open, self._open_layer
        clock = time.perf_counter
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (open_layer and open_layer[-1] == layer):
                return fn(*args, **kwargs)
            rec = [full, clock(), 0.0, open_[-1] if open_ else -1, run_id]
            open_.append(len(spans))
            open_layer.append(layer)
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
                open_layer.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        self._wrapped[fn] = traced
        return traced

    def install(self, package) -> None:
        """Wrap the layer boundaries of the imported expanse package in place."""
        modules = [getattr(package, m) for m in MODULES]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj in self._wrapped.values():
                    continue
                home = layer_of(obj.__module__)
                if home is None:
                    continue
                if obj.__module__ != mod.__name__ or not name.startswith("_"):
                    setattr(mod, name, self.wrap(home, obj))
        spaces, flows = package.spaces, package.flows
        todo = [spaces.Space]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls is not spaces.Space and "distance" in vars(cls):
                cls.distance = self.wrap("spaces", vars(cls)["distance"])
        spaces.SingularSet.distances = self.wrap(
            "spaces", vars(spaces.SingularSet)["distances"])
        flows.FlowModel.evaluate = self.wrap("flows", vars(flows.FlowModel)["evaluate"])

    def summary(self, package, wall: float) -> dict:
        """Self seconds per layer and per span name, span counts and counters.

        Call it with ``active`` false: it may call into the package.

        A span's self time is its duration minus its children's durations;
        ``top`` is the part of the timed call that no span covers, so the
        layer self times plus ``top`` add up to ``wall``.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer = dict.fromkeys(LAYERS, 0.0)
        by_name = Counter()
        calls = Counter()
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            by_layer[name.partition(".")[0]] += own
            by_name[name] += own
            calls[name] += 1
            if parent < 0:
                covered += end - start
        counts = dict(self.counts)
        counts["shadowing.candidates_tried"] = candidates_tried(package.shadowing,
                                                                self.deferred)
        return {"wall": wall, "top": wall - covered, "self_by_layer": by_layer,
                "self_by_name": dict(by_name), "calls": dict(calls), "counts": counts}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": ["name", "start", "end",
                                                          "parent", "run_id"],
                       "spans": self.spans}, fh)
