"""Spans around the calls into each layer of invarcert, recorded from outside.

``Tracer.install`` replaces each boundary function by a wrapper at the module
attribute its caller resolves (``invarcert.tight.log_bessel_i0``,
``invarcert.orbit.linear_sum_assignment``, ...), and ``uninstall`` puts the
originals back.  Spans (name, start, end, parent, items) stay in memory until
the run writes them; a span's self time is its duration minus the time its
child spans cover.  A boundary whose target a later version deleted is
reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np


def _rows(arr) -> int:
    return int(np.atleast_2d(np.asarray(arr)).shape[0])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _vacuous_lower(out) -> bool:
    return getattr(out, "kappa_log", 0.0) is None


def _vacuous_bound(out) -> bool:
    return float(out) >= 1.0


def _feasible(grid) -> int:
    return int(np.count_nonzero(~np.asarray(grid.infeasible)))


# (layer, module, attribute, items(args, kwargs), items from the result, flag on the result)
BOUNDARIES = [
    ("tight.statistic", "invarcert.tight", "LikelihoodStatistic.__call__",
     lambda a, k: _rows(_arg(a, k, 1, "samples")), None, None),
    ("numerics.log_bessel_i0", "invarcert.tight", "log_bessel_i0",
     lambda a, k: int(np.size(_arg(a, k, 0, "x"))), None, None),
    ("numerics.sample_gaussian", "invarcert.mc", "sample_gaussian_with",
     lambda a, k: int(_arg(a, k, 1, "count")), None, None),
    # the same layer under the name it keeps once the two samplers are merged
    ("numerics.sample_gaussian", "invarcert.mc", "sample_gaussian",
     lambda a, k: int(_arg(a, k, 1, "count")), None, None),
    ("numerics.binomial_log_cdf_all", "invarcert.mc", "binomial_log_cdf_all", None, None, None),
    ("numerics.clopper_pearson", "invarcert.mc", "clopper_pearson_lower", None, None, None),
    ("numerics.clopper_pearson", "invarcert.mc", "clopper_pearson_upper", None, None, None),
    ("mc.reduced", "invarcert.mc", "prob_certify_reduced", None, None, _vacuous_lower),
    ("mc.reduced", "invarcert.mc", "prob_certify_upper_reduced", None, None, _vacuous_bound),
    ("mc.reduced", "invarcert.mc", "inverse_certify_reduced", None, None, _vacuous_bound),
    ("mc.quantile_index", "invarcert.mc", "lower_quantile_index", None, None, None),
    ("mc.quantile_index", "invarcert.mc", "upper_quantile_index", None, None, None),
    ("mc.smooth_predict", "invarcert.cli", "smooth_predict", None, None,
     lambda out: out[0] == -1),
    ("oracles.predict_batch", "invarcert.oracles", "SyntheticClassifier.predict_batch",
     lambda a, k: _rows(_arg(a, k, 1, "batch")), None, None),
    ("tight.problem", "invarcert.tight", "build_so2_problem", None, None, None),
    ("tight.problem", "invarcert.tight", "build_so3_problem", None, None, None),
    ("tight.problem", "invarcert.tight", "so2_problem_from_params", None, None, None),
    ("tight.pmin_grid", "invarcert.cli", "pmin_grid", None, _feasible, None),
    ("orbit.assignment", "invarcert.orbit", "linear_sum_assignment", None, None, None),
    ("orbit.project_permutation", "invarcert.orbit", "project_permutation", None, None, None),
    ("orbit.registration", "invarcert.orbit", "project_registration_upper", None, None, None),
    ("orbit.procrustes", "invarcert.orbit", "project_rotation", None, None, None),
    ("orbit.procrustes", "invarcert.orbit", "project_orthogonal", None, None, None),
    ("orbit.procrustes", "invarcert.orbit", "project_roto_translation", None, None, None),
    ("geometry.load_points_csv", "invarcert.cli", "load_points_csv", None, None, None),
]
ROOT_LAYER = "cli.main"
LAYERS = [ROOT_LAYER] + list(dict.fromkeys(b[0] for b in BOUNDARIES))


class Tracer:
    def __init__(self):
        # one span: [layer, start, end, parent index or -1, items, flag]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.present: set[str] = {ROOT_LAYER}

    def call(self, layer, fn, args=(), kwargs=None, items=None, result_items=None, flag=None):
        kwargs = kwargs or {}
        span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if items is not None:
            span[4] = items(args, kwargs)
        if result_items is not None:
            span[4] = result_items(out)
        if flag is not None:
            span[5] = bool(flag(out))
        return out

    def _wrapper(self, layer, fn, items, result_items, flag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, items, result_items, flag)
        return wrapper

    def install(self) -> None:
        """Wrap every boundary present in the loaded program."""
        wrapped: dict[tuple[str, int], object] = {}
        for layer, module_name, attr, items, result_items, flag in BOUNDARIES:
            module = importlib.import_module(module_name)
            *owner_path, name = attr.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                continue
            key = (module_name, id(original))
            if key not in wrapped:
                wrapped[key] = self._wrapper(layer, original, items, result_items, flag)
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapped[key])
            self.present.add(layer)
        # orbit.project dispatches through _PROJECTORS and an identity check
        # against project_registration_upper: the dict must hold the very
        # wrappers the module attributes now name.
        orbit = importlib.import_module("invarcert.orbit")
        table = getattr(orbit, "_PROJECTORS", None)
        if isinstance(table, dict):
            for kind, fn in list(table.items()):
                replacement = wrapped.get(("invarcert.orbit", id(fn)))
                if replacement is not None:
                    self._patches.append((table, kind, fn))
                    table[kind] = replacement

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def absent(self) -> list[str]:
        return [layer for layer in LAYERS if layer not in self.present]

    def aggregate(self) -> dict[str, dict]:
        """Per layer: calls, items, self seconds, and flags set / flags seen."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg = {layer: {"calls": 0, "items": 0, "self_s": 0.0, "flagged": 0, "flags": 0}
               for layer in LAYERS}
        for i, (layer, start, end, _, items, flag) in enumerate(self.spans):
            a = agg[layer]
            a["calls"] += 1
            a["items"] += items
            a["self_s"] += (end - start) - child_time[i]
            if flag is not None:
                a["flags"] += 1
                a["flagged"] += int(flag)
        return agg

    def child_count(self, parent_layer: str, child_layer: str) -> int:
        return sum(
            1 for layer, _, _, parent, _, _ in self.spans
            if layer == child_layer and parent >= 0 and self.spans[parent][0] == parent_layer
        )

    def write(self, path: str) -> None:
        names = {layer: i for i, layer in enumerate(LAYERS)}
        doc = {
            "layers": LAYERS,
            "fields": ["layer", "start_s", "end_s", "parent", "items", "flag"],
            "spans": [[names[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, per cycle of the call schedule."""
    agg = tracer.aggregate()

    def per_cycle(layer, field):
        return agg[layer][field] / cycles

    def ratio(layer):
        a = agg[layer]
        return a["flagged"] / a["flags"] if a["flags"] else 0.0

    out: dict[str, tuple[float, str]] = {}

    def common(layer, items_name=None):
        out[f"{layer}.calls"] = (per_cycle(layer, "calls"), "count")
        if items_name:
            out[f"{layer}.{items_name}"] = (per_cycle(layer, "items"), "count")
        out[f"{layer}.self_s"] = (per_cycle(layer, "self_s"), "s")

    common("tight.statistic", "samples")
    samples = agg["tight.statistic"]["items"]
    out["tight.statistic.us_per_sample"] = (
        1e6 * agg["tight.statistic"]["self_s"] / samples if samples else 0.0, "us")
    common("numerics.log_bessel_i0", "args")
    common("numerics.sample_gaussian", "rows")
    common("numerics.binomial_log_cdf_all")
    common("numerics.clopper_pearson")
    common("mc.reduced")
    out["mc.reduced.vacuous_ratio"] = (ratio("mc.reduced"), "ratio")
    common("mc.quantile_index")
    common("mc.smooth_predict")
    out["mc.smooth_predict.abstain_ratio"] = (ratio("mc.smooth_predict"), "ratio")
    common("oracles.predict_batch", "rows")
    common("tight.problem")
    common("tight.pmin_grid", "cells_feasible")
    common("orbit.assignment")
    common("orbit.project_permutation")
    common("orbit.registration")
    reg_calls = agg["orbit.registration"]["calls"]
    iters = tracer.child_count("orbit.registration", "orbit.project_permutation")
    out["orbit.registration.iters_per_call"] = (iters / reg_calls if reg_calls else 0.0, "count")
    common("orbit.procrustes")
    common(ROOT_LAYER)
    common("geometry.load_points_csv")
    return out
