"""Request streams of the benchmark workloads.

A workload is an endless, seeded stream of requests.  Request ``i`` of a
workload is a pure function of ``(workload, seed, i)`` and, for
``scenario_requests``, of the repository's example scenarios: the scenario
document it carries and whether it goes through ``cli.run_scenario`` or
``cli.compare_report``.  The program only ever sees the documents.

Why each workload exists is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

# Held out from every figure used to write or tune the benchmark; a later
# claim of a gain must also hold on it.
HELD_OUT_SEED = 90210


@dataclass(frozen=True)
class Request:
    index: int
    kind: str  # slot name in the workload's cycle
    op: str  # "run" or "compare"
    doc: dict

    @property
    def iterations(self) -> int:
        """Simulated iterations the request asks for (iterations x replications)."""
        run = self.doc["run"]
        return int(run["iterations"]) * int(run.get("replications", 1))


def _rng(workload: str, seed: int, *key) -> random.Random:
    # str seeding hashes with sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random("/".join(str(k) for k in (workload, seed, *key)))


def _doc(model, process, run, marks):
    return {"model": model, "process": process, "run": run,
            "output": {"traces": False, "curve_points": 40}, "marks": marks}


def _seed(r: random.Random) -> int:
    return r.randrange(1, 2**31)


# ---------------------------------------------------------------------------
# restart_heavy: one request shape, fresh seed each time.


def _restart_heavy(r):
    return _doc(
        "restart", {"kind": "renewal", "size": "pareto(1,2)"},
        {"iterations": 10_000, "replications": 1, "seed": _seed(r), "attempt_cap": 0},
        marks="exp(1)",
    )


# ---------------------------------------------------------------------------
# scenario_requests: the repository's example scenarios, which its README
# calls the worked examples of every model, in equal shares.  A request
# keeps the example's laws and options; only run.seed is drawn afresh and
# run.iterations is a fixed share of the example's own.

SCENARIO_FILES = ("analytic_pairs", "checkpoint_exp", "mixture_regimes", "mrp_alternating",
                  "restart_exp", "rwalk_exp", "universal_exp")

# Share of the example's run.iterations that a run request simulates: the
# examples are sized for a one-off study (up to 400 000 tasks), a service
# request is some 30 times smaller.  A fixed share keeps each example's
# latencies in a tight cluster, so the median sits steadily inside one.
RUN_SHARE = 1 / 32

# Examples that are also sent to compare_report, by (model, process kind),
# with their share of run.iterations.  The agreement rules of the others do
# not hold on correct code at a request's size: a restart comparison on a
# renewal process is a plain 3-sigma test (a false alarm in 0.27% of
# requests at any size), a two-regime mixture has no analytic counterpart,
# and at 1/50-1/25 of their length the Markov comparison disagreed in 135
# of 400 requests, the checkpoint one in 30 of 400 and the random-walk one
# in 1 of 600.  The universal comparison's fixed 0.02 bound on P[N = 0]
# needs about 20 000 points (the error's rms is 0.019 at 2000 points and
# 0.003 at 20 000), so it runs at a larger share.
COMPARE_SHARE = {
    ("analytic", "renewal"): RUN_SHARE,
    ("universal", "renewal"): 1 / 2,
}


def load_documents(root: Path) -> dict:
    """The example scenarios under ``root/scenarios``, by file stem."""
    return {stem: yaml.safe_load((root / "scenarios" / f"{stem}.yaml").read_text())
            for stem in SCENARIO_FILES}


def _resized(doc, share):
    def make(r):
        out = copy.deepcopy(doc)
        run = out["run"]
        run["seed"] = _seed(r)
        run["iterations"] = max(1, round(run["iterations"] * share))
        return out
    return make


def _scenario_slots(documents):
    slots = []
    for stem in SCENARIO_FILES:
        doc = documents[stem]
        slots.append((f"{stem}.run", "run", _resized(doc, RUN_SHARE)))
        share = COMPARE_SHARE.get((doc["model"], doc["process"]["kind"]))
        if share is not None:
            slots.append((f"{stem}.compare", "compare", _resized(doc, share)))
    return slots


# Each workload's request cycle, as (kind, op, make document) slots.
WORKLOADS = {
    "restart_heavy": lambda documents: [("restart_heavy", "run", _restart_heavy)],
    "scenario_requests": _scenario_slots,
}


class Stream:
    """The request stream of one workload and seed.  Every cycle serves
    each slot once, in an order shuffled per cycle."""

    def __init__(self, workload: str, seed: int, documents: dict):
        self.workload = workload
        self.seed = seed
        self.slots = WORKLOADS[workload](documents)
        self.cycle = len(self.slots)

    def request(self, index: int) -> Request:
        """Request ``index`` of the stream."""
        cycle, pos = divmod(index, self.cycle)
        order = list(range(self.cycle))
        _rng(self.workload, self.seed, "order", cycle).shuffle(order)
        kind, op, make = self.slots[order[pos]]
        return Request(index=index, kind=kind, op=op,
                       doc=make(_rng(self.workload, self.seed, index)))
