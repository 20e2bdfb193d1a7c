"""Span tracing of failsim's layers from outside the package.

`Tracer.install` replaces the public functions and distribution methods of
every ``failsim`` module with timing wrappers, as module and class
attributes, and `Tracer.uninstall` puts the originals back.  The package
itself is not edited: a name another module imported with ``from x import
f`` is patched in that module too, because every failsim module is scanned
for attributes that are the original function.  Such a copy keeps the
defining layer's span name, unless `_targets` lists it under a name of the
importing layer: the restart helpers that checkpoint and rwalk call are
their work, not restart's.

Each wrapped call opens a span (name, start, end, parent, request id),
except a call made (a) from a span of the same name, (b) from a span of
the same leaf layer, or (c) inside ``scipy.integrate.quad``.  A span's
self time is its duration minus the time covered by its child spans, so
the self times of all spans add up to the time spent inside root spans.
Counters are updated on every call outside ``quad``: an integrand's calls
belong to the layer that integrates, and tracing each one would cost more
than the call.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import jsonschema
import numpy as np
import scipy.integrate

from failsim import (analytic, checkpoint, cli, dist, procgen, restart, rng, rwalk, scenario,
                     universal)

# Spans kept for writing out; self times and counters cover every span.
MAX_KEPT_SPANS = 100_000
# Layers whose functions call each other so often (a mixture quantile's
# root search evaluates tails dozens of times) that only the outermost call
# gets a span.
LEAF_LAYERS = ("dist", "rng")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.request_id = None
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []  # (id, name, start, end, parent id, request id)
        self.n_spans = 0
        self.quad_depth = 0
        self._stack = []  # open spans: [id, name, layer, start, child seconds]
        self._patches = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def wrap(self, fn, name, count=None):
        stack = self._stack
        tracer = self
        layer = _layer(name)
        leaf = layer in LEAF_LAYERS

        def traced(*args, **kwargs):
            if tracer.quad_depth:
                return fn(*args, **kwargs)
            top = stack[-1] if stack else None
            if top is not None and (
                    top[1] == name or leaf and top[2] == layer):
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer, args, kwargs, result, None)
                return result
            span_id = tracer.n_spans
            tracer.n_spans += 1
            frame = [span_id, name, layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[3]
                tracer.self_s[name] += duration - frame[4]
                if top is not None:
                    top[4] += duration
                if len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append((span_id, name, frame[3], end,
                                         top[0] if top is not None else None,
                                         tracer.request_id))
            if count is not None:
                count(tracer, args, kwargs, result, top[1] if top is not None else None)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every traced failsim function; `uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "failsim" or n.startswith("failsim.")]
        by_original = {}
        for owner, attr, name, count in _targets():
            original = vars(owner)[attr]
            wrapper = self.wrap(original, name, count)
            if original.__module__ == getattr(owner, "__module__", owner.__name__):
                by_original[id(original)] = wrapper
            self._patch(owner, attr, wrapper)
        patched = {(id(owner), attr) for owner, attr, _ in self._patches}
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = by_original.get(id(value))
                if wrapper is not None and (id(module), attr) not in patched:
                    self._patch(module, attr, wrapper)
        self._patch(jsonschema, "validate",
                    self.wrap(jsonschema.validate, "cli.schema_validate"))
        self._patch(scipy.integrate, "quad", self._count_quad(scipy.integrate.quad))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _count_quad(self, quad):
        tracer = self

        def counted_quad(*args, **kwargs):
            module = sys._getframe(1).f_globals.get("__name__", "")
            owner = module.split(".")[1] if module.startswith("failsim.") else "other"
            tracer.counts[f"{owner}.quad.calls"] += 1
            tracer.quad_depth += 1
            try:
                return quad(*args, **kwargs)
            finally:
                tracer.quad_depth -= 1

        counted_quad.__wrapped__ = quad
        return counted_quad

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


# ---------------------------------------------------------------------------
# What is wrapped, and what each wrapper counts.  A counter gets
# (tracer, args, kwargs, result, caller); caller is the span that made the
# call, or None when the call opened no span of its own.


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_keyed(t, args, kwargs, result, caller):
    t.counts["rng.keyed_uniform.calls"] += 1
    t.counts["rng.keyed_uniform.draws"] += np.size(result)
    # keyed_uniform(seed, replication, domain, ...); called from inside rng
    # (lane_uniforms, which counts its own marks) it has no caller here
    if caller is not None and len(args) > 2 and args[2] == rng.DOMAIN_MARK:
        t.counts[f"{_layer(caller)}.marks_drawn"] += np.size(result)


def _count_lane(t, args, kwargs, result, caller):
    t.counts["rng.lane_uniforms.calls"] += 1
    if caller is not None and _arg(args, kwargs, 2, "domain") == rng.DOMAIN_MARK:
        t.counts[f"{_layer(caller)}.marks_drawn"] += np.size(result)


def _count_quantile(t, args, kwargs, result, caller):
    t.counts["dist.quantile.values"] += np.size(result)


def _count_generate(t, args, kwargs, result, caller):
    t.counts["procgen.points"] += result.n_points
    if caller != "procgen.extended":
        t.counts["procgen.new_points"] += result.n_points


def _count_extended(t, args, kwargs, result, caller):
    window = args[0]
    t.counts["procgen.extended.calls"] += 1
    t.counts["procgen.new_points"] += max(result.n_points - window.n_points, 0)


def _count_simulate(t, args, kwargs, result, caller):
    failures, _, approximated = result
    exact = ~np.asarray(approximated, dtype=bool)
    t.counts["restart.tasks"] += len(failures)
    t.counts["restart.approximated"] += int(np.count_nonzero(approximated))
    t.counts["restart.attempts"] += float(np.sum(np.asarray(failures)[exact] + 1.0))


def _count_checkpointing(t, args, kwargs, result, caller):
    records, _ = result
    t.counts["checkpoint.hops"] += len(records)
    t.counts["checkpoint.attempts"] += sum(r.attempts for r in records)


def _count_kappas(t, args, kwargs, result, caller):
    t.counts["universal.points"] += _arg(args, kwargs, 1, "n_points")


def _count_kernel(t, args, kwargs, result, caller):
    t.counts["universal.kernel.calls"] += 1


def _count_walk(t, args, kwargs, result, caller):
    t.counts["rwalk.visits"] += len(result.task_index)
    t.counts["rwalk.levels"] += len(result.records)


def _count_expected_time(t, args, kwargs, result, caller):
    t.counts["analytic.expected_time.calls"] += 1


_DIST_METHODS = {
    "quantile": "dist.quantile",
    "tail": "dist.tail", "log_tail": "dist.tail", "cdf": "dist.tail", "isf": "dist.tail",
    "mean": "dist.moments", "truncated_mean": "dist.moments",
    "truncated_second_moment": "dist.moments",
}


def _targets():
    """(owner, attribute, span name, counter) for every traced callable."""
    out = [
        (rng, "keyed_uniform", "rng.keyed_uniform", _count_keyed),
        (rng, "lane_uniforms", "rng.lane_uniforms", _count_lane),
        (dist, "parse_distribution", "dist.parse", None),
        (dist, "compare_tails", "dist.compare_tails", None),
        (dist, "classify_tail", "dist.compare_tails", None),
        (procgen, "generate_renewal", "procgen.generate", _count_generate),
        (procgen, "generate_mixture", "procgen.generate", _count_generate),
        (procgen, "generate_markov_renewal", "procgen.generate", _count_generate),
        (procgen.MarkedWindow, "extended", "procgen.extended", _count_extended),
        (restart, "simulate_restart_at_points", "restart.simulate", _count_simulate),
        (restart, "run_restart", "restart.run", None),
        (restart, "efficiency", "restart.efficiency", None),
        (restart, "efficiency_from_sums", "restart.efficiency", None),
        (restart, "mrp_efficiency", "analytic.mrp_efficiency", None),
        (checkpoint, "run_checkpointing", "checkpoint.run", _count_checkpointing),
        (checkpoint, "checkpoint_efficiency", "checkpoint.efficiency", None),
        (checkpoint, "efficiency_from_sums", "checkpoint.efficiency", None),
        (universal, "compute_all_kappas", "universal.kappas", _count_kappas),
        (universal, "compute_n_process", "universal.n_process", None),
        (universal, "analytic_n_kernel", "universal.kernel", _count_kernel),
        (universal, "kernel_row", "universal.kernel", None),
        (universal, "stationary_n_distribution", "universal.stationary", None),
        (rwalk, "simulate_walk_restart", "rwalk.walk_restart", _count_walk),
        (rwalk, "find_regenerations", "rwalk.regenerations", None),
        (rwalk, "walk_efficiency", "rwalk.efficiency", None),
        (rwalk, "efficiency_from_sums", "rwalk.efficiency", None),
        (rwalk, "simulate_restart_at_points", "rwalk.simulate", None),
        (rwalk, "estimate_walk_constants", "rwalk.constants", None),
        (analytic, "expected_restart_time", "analytic.expected_time", _count_expected_time),
        (analytic, "expected_checkpoint_time", "analytic.expected_time", _count_expected_time),
        (scenario, "load_scenario", "scenario.load", None),
        (cli, "run_scenario", "cli.run_scenario", None),
        (cli, "compare_report", "cli.compare", None),
    ]
    for cls in vars(dist).values():
        if isinstance(cls, type) and issubclass(cls, dist.Distribution):
            for attr, name in _DIST_METHODS.items():
                if attr in cls.__dict__:
                    count = _count_quantile if attr == "quantile" else None
                    out.append((cls, attr, name, count))
    return out
