"""Output checks.  They run outside every timed region.

Each check returns a list of problems; an empty list means the output is
correct.  Per-request checks look at one request's output; the workload
checks recompute sampled parts of a run through failsim's scalar reference
engines.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np
from jsonschema import ValidationError, validate  # bound here, so tracing never sees it

from failsim import checkpoint, procgen, restart, rng
from failsim.scenario import load_scenario

# Vectorized and scalar engines add the same marks in different orders.
REL_TOL = 1e-12
REPLAYED_REQUESTS = 2
REPLAYED_TASKS = 48


def check_summary(summary: dict, out_dir: Path, schema: dict) -> list[str]:
    """The returned summary is schema-valid and is what summary.json holds."""
    try:
        validate(summary, schema)
    except ValidationError as exc:
        return [f"summary fails the schema: {exc.message}"]
    try:
        on_disk = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    if json.dumps(on_disk, sort_keys=True) != json.dumps(summary, sort_keys=True):
        return ["summary.json differs from the returned summary"]
    return []


def check_compare(rows) -> list[str]:
    """Every row of a compare report agrees (analytic vs simulated)."""
    if not rows:
        return ["compare report has no rows"]
    return [f"compare row disagrees: {row[:4]}" for row in rows if not bool(row[4])]


def _sample(items, k, key):
    items = list(items)
    return random.Random(key).sample(items, min(k, len(items)))


def _renewal_window(sc):
    # the window cli.run_scenario starts a renewal replication from
    return procgen.generate_renewal(sc.size_law, 1, sc.seed, 0, mark_law=sc.mark_law)


def _close(a, b, scale=0.0):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def check_restart_replay(done, seed) -> list[str]:
    """Replay sampled exact tasks through `restart.run_restart_iteration`.

    The first replication's records are rebuilt with `restart.run_restart`
    and tied to the returned summary by its efficiency; each sampled exact task is replayed
    draw by draw over the same keyed mark lane, and must fail as often and
    take the same time to ``REL_TOL``.
    """
    problems = []
    for req, summary in _sample(done, REPLAYED_REQUESTS, f"restart-replay/{seed}"):
        sc = load_scenario(req.doc)
        records = restart.run_restart(_renewal_window(sc), sc.iterations,
                                      attempt_cap=sc.attempt_cap)
        est = restart.efficiency(records, sc.tolerance)
        if est.ratio != summary["per_replication"][0]["ratio"]:
            problems.append(f"request {req.index}: rebuilt efficiency {est.ratio!r} "
                            f"!= summary {summary['per_replication'][0]['ratio']!r}")
            continue
        exact = [r for r in records if not r.approximated]
        for rec in _sample(exact, REPLAYED_TASKS, f"restart-tasks/{seed}/{req.index}"):
            stream = rng.CounterStream(sc.seed, 0, rng.DOMAIN_MARK, point=rec.n)
            ref = restart.run_restart_iteration(
                rec.ideal, restart.mark_iter(sc.mark_law, stream),
                attempt_cap=sc.attempt_cap, n=rec.n)
            if ref.failures != rec.failures or not _close(ref.actual, rec.actual):
                problems.append(f"request {req.index} task {rec.n}: engine "
                                f"({rec.failures}, {rec.actual!r}) != scalar "
                                f"({ref.failures}, {ref.actual!r})")
    return problems


def check_checkpoint_replay(done, seed) -> list[str]:
    """Replay sampled hops through `checkpoint.run_checkpoint_iteration`,
    and apply compare_report's burn-in agreement rule to the whole run,
    with each request's mean over its replications as one replication.

    The first replication of a sampled request is rebuilt and tied to the
    summary by its efficiency and burn-in companion.

    End index, attempts, time and overshoot must be equal, as in the
    package's own chain-versus-scalar test.
    """
    problems = []
    for req, summary in _sample(done, REPLAYED_REQUESTS, f"checkpoint-replay/{seed}"):
        sc = load_scenario(req.doc)
        records, window = checkpoint.run_checkpointing(
            _renewal_window(sc), sc.iterations, attempt_cap=sc.attempt_cap,
            scan_cap=sc.scan_cap)
        est, companion = checkpoint.checkpoint_efficiency(records, sc.tolerance,
                                                          burn_in=sc.burn_in)
        estimates = summary["estimates"]
        if (est.ratio, companion) != (estimates["efficiency"]["per_rep"][0],
                                      estimates["burn_in_companion"]["per_rep"][0]):
            problems.append(f"request {req.index}: rebuilt efficiency differs from summary")
            continue
        points = window.points
        for rec in _sample(records, REPLAYED_TASKS, f"checkpoint-hops/{seed}/{req.index}"):
            ref, _ = checkpoint.run_checkpoint_iteration(
                window, rec.start_index, n=rec.n, attempt_cap=sc.attempt_cap,
                scan_cap=sc.scan_cap)
            same = (ref.end_index, ref.attempts, ref.actual, ref.overshoot) == \
                (rec.end_index, rec.attempts, rec.actual, rec.overshoot)
            # the chain's ideal is a difference of checkpoint positions, so it
            # is exact to REL_TOL of the landed position, not of itself
            if not same or not _close(ref.ideal, rec.ideal, points[rec.end_index]):
                problems.append(f"request {req.index} hop {rec.n}: chain {rec} != scalar {ref}")
    sims = np.array([s["estimates"]["efficiency"]["mean"] for _, s in done])
    comps = np.array([s["estimates"]["burn_in_companion"]["mean"] for _, s in done])
    se = float(np.std(sims) / math.sqrt(len(sims))) if len(sims) > 1 else 0.0
    if abs(sims.mean() - comps.mean()) > max(0.01, 3 * se):
        problems.append(f"running efficiency {sims.mean():.6g} disagrees with the "
                        f"burn-in companion {comps.mean():.6g} (se {se:.3g})")
    return problems


# Checks that recompute parts of a whole run, by request kind: they are
# given every correct run request of that kind.
REPLAY_CHECKS = {
    "restart_heavy": check_restart_replay,
    "restart_exp.run": check_restart_replay,
    "checkpoint_exp.run": check_checkpoint_replay,
}
