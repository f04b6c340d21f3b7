"""Spans around the public functions of each touropt layer, for traced runs.

The benchmark records spans from its own files: it replaces each
attribute listed in :data:`WRAPS` -- at the name a caller looks up, such
as ``touropt.cli.simulate`` -- by a wrapper that times the call, and puts
the original objects back afterwards.  Spans stay in memory, each as
(name, start, end, parent, operation id, counts), and are written out
when the run ends.  A span's self time is its duration minus that of its
direct children; the self times of one operation add up to its root
``cli.main`` span.

Per-pair and per-year helpers (``dominates``, the ``step_*`` functions,
the staircase insert) are not wrapped: a wrapper costs about a
microsecond, which would swamp work that small.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

LAYERS = ("sd_core", "moea", "gsa", "scenario", "flow", "dataio", "cli")


def _pool(args, kwargs, result) -> dict:
    return {"pool": len(args[0])}


def _evolve(args, kwargs, result) -> dict:
    config = args[3]
    return {"generations": result.generations_run,
            "front_n": len(result.front.individuals),
            "evals": config.population_size * len(result.hypervolume_log),
            "front_hv": result.hypervolume_log[-1]}


def _morris_points(args, kwargs, result) -> dict:
    return {"points": result.shape[0] * result.shape[1]}


def _saltelli_points(args, kwargs, result) -> dict:
    return {"points": result.n * (2 * len(result.space) + 2)}


def _site_years(args, kwargs, result) -> dict:
    return {"site_years": result.visitors.shape[0] * max(0, result.visitors.shape[1] - 1)}


# (owner, attribute, span name, counter): every layer function the
# workloads reach, at the name its caller looks up.  The span name's first
# part is the layer its self time is charged to.
WRAPS = (
    ("touropt.cli", "main", "cli.main", None),
    ("touropt.cli", "simulate", "sd_core.simulate", None),
    ("touropt.gsa", "simulate", "sd_core.simulate", None),
    ("touropt.cli", "evolve", "moea.evolve", _evolve),
    ("touropt.moea", "fast_nondominated_sort", "moea.sort", _pool),
    ("touropt.moea", "crowding_distance", "moea.crowding", None),
    ("touropt.moea", "tournament_select", "moea.variation", None),
    ("touropt.moea", "sbx_crossover", "moea.variation", None),
    ("touropt.moea", "polynomial_mutation", "moea.variation", None),
    ("touropt.moea", "hypervolume_3d", "moea.hv", None),
    ("touropt.moea:_Archive", "add", "moea.archive", None),
    ("touropt.moea:ParetoFront", "check_nondominated", "moea.verify", None),
    ("touropt.cli", "analyze_model", "gsa.analyze", None),
    ("touropt.cli", "full_space", "gsa.space", None),
    ("touropt.gsa", "morris_sample", "gsa.sample", _morris_points),
    ("touropt.gsa", "saltelli_sample", "gsa.sample", _saltelli_points),
    ("touropt.gsa", "morris_indices", "gsa.estimate", None),
    ("touropt.gsa", "sobol_indices", "gsa.estimate", None),
    ("touropt.cli", "compare_scenarios", "scenario.compare", None),
    ("touropt.scenario", "run_scenario", "scenario.run", None),
    ("touropt.cli", "redistribute", "flow.redistribute", _site_years),
    ("touropt.cli", "iceland_sites", "flow.sites", None),
    ("touropt.cli", "iceland_redistribution_schedule", "flow.schedule", None),
    ("touropt.cli", "get_preset", "dataio.preset", None),
    ("touropt.cli", "synth_dataset", "dataio.synth", None),
    ("touropt.cli", "initial_state", "dataio.initial_state", None),
    ("touropt.cli", "validate_ranges", "dataio.validate", None),
    ("touropt.cli", "write_series", "dataio.write", None),
)


def resolve_owner(owner: str):
    """The module or class an entry of :data:`WRAPS` patches."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs the wrappers and keeps the spans of the traced operations.

    ``with tracer(op_id):`` patches every attribute in :data:`WRAPS` and
    records the block's spans under ``op_id``; leaving the block restores
    the original objects.  Spans accumulate across blocks.
    """

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id, counts]
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return traced

    def __call__(self, op_id):
        """Trace the next ``with`` block as operation ``op_id``."""
        self.op = op_id
        return self

    def __enter__(self):
        try:
            for owner, attr, name, counter in WRAPS:
                target = resolve_owner(owner)
                original = vars(target)[attr]
                self._saved.append((target, attr, original))
                setattr(target, attr, self._wrap(original, name, counter))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        self.op = None
        return False

    def restore(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "counts": counts}) + "\n")


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive and self seconds, and summed counts.

    Also the busy seconds of each layer -- the time at least one of its
    spans was open -- and the self seconds charged to each layer.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_busy = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        agg = by_name.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                        "counts": {}})
        agg["calls"] += 1
        agg["incl_s"] += dur
        agg["self_s"] += dur - child[i]
        layer_self[layer] += dur - child[i]
        for key, val in (counts or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
        p = parent
        while p >= 0 and spans[p][0].split(".", 1)[0] != layer:
            p = spans[p][3]
        if p < 0:
            layer_busy[layer] += dur
    return {"by_name": by_name, "layer_self_s": layer_self, "layer_busy_s": layer_busy}
