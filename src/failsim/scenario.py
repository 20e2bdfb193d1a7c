"""Scenario documents: YAML with sections model / process / marks / run / output.

Validation is eager and field-addressed: every error names the offending
field path, so `failsim validate` can be wired into CI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import yaml

from .dist import Distribution, DistributionError, Exponential, parse_distribution
from .procgen import MarkovRenewalSpec, ProcessError

MODELS = ("restart", "checkpoint", "universal", "rwalk", "analytic")
PROCESS_KINDS = ("renewal", "markov", "mixture")


class ScenarioError(ValueError):
    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


@dataclass
class Scenario:
    model: str
    process_kind: str
    size_law: Distribution | None
    mark_law: Distribution | None
    mrp_spec: MarkovRenewalSpec | None
    mixture: dict | None  # {"p0": float, "marks0": Dist, "marks1": Dist}
    iterations: int
    replications: int
    seed: int
    attempt_cap: int | None
    tolerance: float
    lookback: int
    burn_in: int
    walk_p: float
    scan_cap: int
    write_traces: bool
    curve_points: int
    raw: dict = field(repr=False, default_factory=dict)

    def hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _dist(doc, path, required=True):
    txt = _get(doc, path, required=required)
    if txt is None:
        return None
    try:
        return parse_distribution(str(txt))
    except DistributionError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _get(doc, path, required=False, default=None):
    cur = doc
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ScenarioError(path, "missing required field")
            return default
        cur = cur[part]
    return cur


def _float_array(raw, path):
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, f"expected numbers, got {raw!r}") from exc


def _num(doc, path, cast, default=None, required=False, check=None, what=""):
    raw = _get(doc, path, required=required)
    if raw is None:
        return default
    try:
        val = cast(raw)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, f"expected {cast.__name__}, got {raw!r}") from exc
    if check is not None and not check(val):
        raise ScenarioError(path, what or f"invalid value {val!r}")
    return val


def _build_mrp(proc: dict) -> MarkovRenewalSpec:
    states = _get(proc, "states", required=True)
    if not isinstance(states, list) or len(states) < 1:
        raise ScenarioError("process.states", "expected a nonempty list")
    p = _float_array(_get(proc, "transition", required=True), "process.transition")
    idx = {s: i for i, s in enumerate(states)}

    def law_table(key):
        raw = _get(proc, key, required=True)
        if not isinstance(raw, dict):
            raise ScenarioError(f"process.{key}", "expected a mapping like 'a->b: exp(2)'")
        out = {}
        for pair, txt in raw.items():
            try:
                a, b = str(pair).split("->")
            except ValueError:
                raise ScenarioError(f"process.{key}.{pair}", "key must look like 'a->b'")
            if a not in idx or b not in idx:
                raise ScenarioError(f"process.{key}.{pair}", "unknown state name")
            try:
                out[(idx[a], idx[b])] = parse_distribution(str(txt))
            except DistributionError as exc:
                raise ScenarioError(f"process.{key}.{pair}", str(exc)) from exc
        return out

    initial_raw = _get(proc, "initial", default="stationary")
    initial = (None if initial_raw == "stationary"
               else _float_array(initial_raw, "process.initial"))
    try:
        return MarkovRenewalSpec(
            states=tuple(states), transition=p,
            size_laws=law_table("size_laws"), mark_laws=law_table("mark_laws"),
            initial=initial,
        )
    except (ProcessError, DistributionError) as exc:
        raise ScenarioError("process", str(exc)) from exc


def load_scenario(doc: dict) -> Scenario:
    """Validate a scenario document (a parsed YAML mapping) into a `Scenario`."""
    if not isinstance(doc, dict):
        raise ScenarioError("<document>", "scenario must be a mapping")

    model = _get(doc, "model", required=True)
    if model not in MODELS:
        raise ScenarioError("model", f"must be one of {MODELS}, got {model!r}")

    proc = _get(doc, "process", default={})
    kind = _get({"process": proc}, "process.kind", default="renewal")
    if kind not in PROCESS_KINDS:
        raise ScenarioError("process.kind", f"must be one of {PROCESS_KINDS}")

    size_law = mark_law = mrp = mixture = None
    if kind == "renewal":
        size_law = _dist(doc, "process.size", required=True)
        mark_law = _dist(doc, "marks", required=True)
    elif kind == "mixture":
        size_law = _dist(doc, "process.size", required=True)
        p0 = _num(doc, "process.p0", float, required=True,
                  check=lambda v: 0 < v < 1, what="p0 must lie in (0, 1)")
        mixture = {
            "p0": p0,
            "marks0": _dist(doc, "process.marks0", required=True),
            "marks1": _dist(doc, "process.marks1", required=True),
        }
    else:
        mrp = _build_mrp(proc)

    scenario = Scenario(
        model=model,
        process_kind=kind,
        size_law=size_law,
        mark_law=mark_law,
        mrp_spec=mrp,
        mixture=mixture,
        iterations=_num(doc, "run.iterations", int, required=True,
                        check=lambda v: v >= 1, what="must be >= 1"),
        replications=_num(doc, "run.replications", int, default=1,
                          check=lambda v: v >= 1, what="must be >= 1"),
        seed=_num(doc, "run.seed", int, default=0),
        attempt_cap=(_num(doc, "run.attempt_cap", int, default=1_000_000_000,
                          check=lambda v: v >= 0, what="must be >= 0 (0 = unlimited)")
                     or None),
        tolerance=_num(doc, "run.tolerance", float, default=0.01,
                       check=lambda v: v > 0, what="must be positive"),
        lookback=_num(doc, "run.lookback", int, default=200,
                      check=lambda v: v >= 1, what="must be >= 1"),
        burn_in=_num(doc, "run.burn_in", int, default=100,
                     check=lambda v: v >= 0, what="must be >= 0"),
        walk_p=_num(doc, "run.p", float, default=0.25,
                    check=lambda v: 0 <= v < 0.5, what="must lie in [0, 1/2)"),
        scan_cap=_num(doc, "run.scan_cap", int, default=1_000_000,
                      check=lambda v: v > 0, what="must be positive"),
        write_traces=bool(_get(doc, "output.traces", default=True)),
        curve_points=_num(doc, "output.curve_points", int, default=50,
                          check=lambda v: v >= 2, what="must be >= 2"),
        raw=doc,
    )
    _validate_model(scenario)
    return scenario


def _validate_model(sc: Scenario) -> None:
    if sc.model != "restart" and sc.process_kind != "renewal":
        raise ScenarioError("process.kind", f"model {sc.model!r} requires a renewal process")
    if sc.model == "universal":
        if not isinstance(sc.mark_law, Exponential):
            raise ScenarioError(
                "marks", "model 'universal' requires exponential marks (memorylessness)"
            )
        if sc.lookback >= sc.iterations:
            raise ScenarioError("run.lookback", "must be smaller than run.iterations")
    elif sc.process_kind == "renewal":
        for pathname, law in (("process.size", sc.size_law), ("marks", sc.mark_law)):
            if not law.unbounded:
                raise ScenarioError(pathname, "law must have right-unbounded support")
            try:
                law.mean()
            except DistributionError as exc:
                raise ScenarioError(pathname, str(exc)) from exc


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply `k=v` override strings to a scenario document (dotted paths;
    N, R and seed are shorthands for the run section)."""
    aliases = {"N": "run.iterations", "R": "run.replications", "seed": "run.seed",
               "p": "run.p"}
    out = json.loads(json.dumps(doc))  # deep copy, plain types only
    for item in overrides:
        if "=" not in item:
            raise ScenarioError("<override>", f"expected k=v, got {item!r}")
        key, val = item.split("=", 1)
        key = aliases.get(key, key)
        parts = key.split(".")
        cur = out
        for part in parts[:-1]:
            cur = cur.setdefault(part, {})
            if not isinstance(cur, dict):
                raise ScenarioError(key, "path collides with a scalar field")
        cur[parts[-1]] = yaml.safe_load(val)
    return out
