"""Restart with task repetition driven by a transient nearest-neighbor walk.

The walk visits task indices (two-sided: negative offsets draw from the
same renewal law); every visit reruns the task at the current offset as a
full restart iteration with fresh marks.  Level n is complete at the
walk's first passage to n; regeneration epochs are first passages the walk
never falls below again, and blocks between them are i.i.d., which is what
the Wald-style efficiency formula and the gamma/rho bound rest on.

The walk constants have closed forms (gambler's ruin; Feller, vol. 1,
ch. XIV): a walk that steps down with probability p < 1/2 ever reaches -1
with probability p/(1 - p), so gamma = (1 - 2p)/(1 - p), and returns to 0
with probability 2p, so rho = 1/(1 - 2p).  `walk_constants` returns them;
`estimate_walk_constants` is their Monte Carlo check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .dist import Distribution
from .procgen import MarkedWindow, keyed_sizes
from .restart import (
    DEFAULT_ATTEMPT_CAP,
    EfficiencyEstimate,
    efficiency_from_sums,
    simulate_restart_at_points,
)

# visit ordinals address disjoint attempt ranges of a task's mark lane
VISIT_STRIDE = 2**32
# `estimate_walk_constants` draws this many steps of every walk at a time
WALK_CHUNK = 512


@dataclass(frozen=True)
class WalkTrace:
    p: float
    steps: np.ndarray  # xi_1..xi_K in {-1, +1}
    positions: np.ndarray  # zeta_0..zeta_K, zeta_0 = 0
    ladder_epochs: np.ndarray  # first-passage step index per level 1, 2, ...

    def __post_init__(self):
        if not (0.0 <= self.p < 0.5):
            raise ValueError("down-probability must lie in [0, 1/2)")


@dataclass(frozen=True)
class WalkRun:
    trace: WalkTrace
    task_index: np.ndarray  # task worked at each step
    visit_times: np.ndarray  # actual time of each visit
    records: np.recarray  # per completed level: level, ideal, actual, n_visits


def simulate_walk(p: float, n_steps: int, seed: int, replication: int = 0,
                  start_step: int = 1) -> np.ndarray:
    """Steps xi_k for k = start_step..start_step+n_steps-1."""
    if not (0.0 <= p < 0.5):
        raise ValueError("down-probability must lie in [0, 1/2)")
    u = rng.keyed_uniform(seed, replication, rng.DOMAIN_WALK,
                          np.arange(start_step, start_step + n_steps))
    return np.where(u < p, -1, 1).astype(np.int64)


def _walk_to_level(p: float, n_levels: int, seed: int, replication: int) -> WalkTrace:
    """Extend the walk until it first reaches ``n_levels``."""
    chunks = []
    pos = 0
    top = 0
    k = 1
    limit = int(200 * n_levels / max(1.0 - 2.0 * p, 1e-9))
    while top < n_levels:
        n = min(max(n_levels, 4096), limit - (k - 1))
        if n <= 0:
            raise RuntimeError(f"walk did not reach level {n_levels} within {limit} steps")
        xi = simulate_walk(p, n, seed, replication, start_step=k)
        chunks.append(xi)
        pos_chunk = pos + np.cumsum(xi)
        top = max(top, int(pos_chunk.max()))
        pos = int(pos_chunk[-1])
        k += n
    steps = np.concatenate(chunks)
    positions = np.concatenate(([0], np.cumsum(steps)))
    cummax = np.maximum.accumulate(positions)
    # first passage to each level 1..n_levels
    ladder = np.searchsorted(cummax, np.arange(1, n_levels + 1), side="left")
    steps = steps[: ladder[-1]]
    positions = positions[: ladder[-1] + 1]
    return WalkTrace(p=p, steps=steps, positions=positions, ladder_epochs=ladder)


def simulate_walk_restart(
    window: MarkedWindow,
    p: float,
    n_tasks: int,
    attempt_cap=DEFAULT_ATTEMPT_CAP,
) -> WalkRun:
    """Walk until ``n_tasks`` levels are complete, restarting the task at the
    current offset on every visit.

    Visit r to task t draws marks from attempts r*2^32 + 1, ... of lane t:
    fresh i.i.d. marks per visit from one keyed stream per task, and the
    first visit uses exactly the lane `restart.run_restart` would, so p = 0
    reproduces the plain restart run bit for bit.  ``records`` of the
    returned run is a record array, one row per level with the columns
    ``level``, ``ideal`` (its size), ``actual`` (the time of the steps
    from the first passage to that level to the next) and ``n_visits``.
    """
    if window.mrp_spec is not None:
        raise ValueError("walk restart needs a renewal-type (two-sided) window")
    d, seed, rep = window.size_law, window.seed, window.replication
    trace = _walk_to_level(p, n_tasks, seed, rep)
    tasks = trace.positions[:-1]  # task worked at step k is zeta_{k-1}
    law = window.mark_laws[0]

    # per-step visit ordinal within its task
    order = np.argsort(tasks, kind="stable")
    sorted_tasks = tasks[order]
    first = np.concatenate(([True], sorted_tasks[1:] != sorted_tasks[:-1]))
    group_start = np.maximum.accumulate(np.where(first, np.arange(len(tasks)), 0))
    ordinal = np.empty(len(tasks), dtype=np.int64)
    ordinal[order] = np.arange(len(tasks)) - group_start

    _, actual, _ = simulate_restart_at_points(
        keyed_sizes(d, seed, rep, tasks), tasks, law, seed, rep,
        attempt_cap=attempt_cap, attempt_offsets=ordinal * VISIT_STRIDE,
    )

    # block n: steps between first passage to n and first passage to n+1
    bounds = np.concatenate(([0], trace.ladder_epochs))
    levels = np.arange(n_tasks)
    records = np.rec.fromarrays(
        [levels, keyed_sizes(d, seed, rep, levels), np.add.reduceat(actual, bounds[:-1]),
         np.diff(bounds)],
        names="level,ideal,actual,n_visits",
    )
    return WalkRun(trace=trace, task_index=tasks, visit_times=actual, records=records)


# ---------------------------------------------------------------------------
# Regeneration structure


def find_regenerations(trace: WalkTrace):
    """First-passage epochs the walk never falls below again.

    Returns (confirmed_epochs, n_censored): a ladder epoch is confirmed
    when the whole remaining trace stays at or above its level; trailing
    candidates that merely ran out of horizon are counted as censored, and
    the last confirmed epoch should still be treated as provisional by
    block statistics (blocks need a successor epoch anyway).
    """
    suffix_min = np.minimum.accumulate(trace.positions[::-1])[::-1]
    ladder = np.asarray(trace.ladder_epochs, dtype=np.int64)
    confirmed = suffix_min[ladder] >= np.arange(1, len(ladder) + 1)
    censored = int(np.count_nonzero(~confirmed & (ladder == ladder[-1:])))
    # epoch 0 (level 0) regenerates iff the walk never goes negative
    head = [0] if suffix_min[0] >= 0 else []
    return np.concatenate((np.array(head, dtype=np.int64), ladder[confirmed])), censored


@dataclass(frozen=True)
class WalkEfficiencyReport:
    direct: EfficiencyEstimate
    formula_ratio: float
    mean_block_time: float
    wald_block_time: float  # E[visit time] * E[epoch spacing]
    wald_se: float
    lag1_autocorr: float
    lag1_se: float
    mean_epoch_spacing: float
    mean_level_gain: float
    n_blocks: int


def walk_efficiency(run: WalkRun, epochs: np.ndarray, min_blocks: int = 100,
                    tolerance: float = 0.01) -> WalkEfficiencyReport:
    """Direct ratio plus the regeneration-block formula estimate.

    Formula: e_p = E[D] * E[levels per block] / (E[visit time] * E[steps
    per block]); the Wald identity check compares mean block time against
    E[visit time] * E[steps per block].
    """
    epochs = np.asarray(epochs, dtype=np.int64)
    if len(epochs) - 1 < min_blocks:
        raise ValueError(f"need at least {min_blocks} complete regeneration blocks")
    ideal = run.records.ideal
    direct = efficiency_from_sums(ideal, run.records.actual, tolerance)

    cum = np.concatenate(([0.0], np.cumsum(run.visit_times)))
    block_times = cum[epochs[1:]] - cum[epochs[:-1]]
    spacing = np.diff(epochs).astype(float)
    gains = np.diff(run.trace.positions[epochs]).astype(float)

    mean_visit = float(np.mean(run.visit_times[: epochs[-1]]))
    mean_spacing = float(spacing.mean())
    mean_gain = float(gains.mean())
    mean_size = float(ideal.mean())
    denom = mean_visit * mean_spacing
    formula = mean_size * mean_gain / denom if math.isfinite(denom) and denom > 0 else 0.0

    mbt = float(block_times.mean())
    wald_se = float(np.std(block_times) / math.sqrt(len(block_times)))
    bt = block_times - mbt
    lag1 = float(np.sum(bt[:-1] * bt[1:]) / np.sum(bt * bt)) if np.sum(bt * bt) > 0 else 0.0
    lag1_se = 1.0 / math.sqrt(len(block_times))

    return WalkEfficiencyReport(
        direct=direct, formula_ratio=min(formula, 1.0),
        mean_block_time=mbt, wald_block_time=denom, wald_se=wald_se,
        lag1_autocorr=lag1, lag1_se=lag1_se,
        mean_epoch_spacing=mean_spacing, mean_level_gain=mean_gain,
        n_blocks=len(block_times),
    )


def walk_constants(p: float):
    """Exact gamma (never below 0) and rho (expected visits to 0), each as
    (value, se) with se 0, in the shape `estimate_walk_constants` returns."""
    if not (0.0 <= p < 0.5):
        raise ValueError("down-probability must lie in [0, 1/2)")
    return {"gamma": ((1.0 - 2.0 * p) / (1.0 - p), 0.0), "rho": (1.0 / (1.0 - 2.0 * p), 0.0)}


def estimate_walk_constants(p: float, seed: int, n_walks: int = 2000,
                            horizon: int = 10_000):
    """Monte Carlo gamma (never below 0) and rho (expected visits to 0).

    Long-horizon frequencies; the horizon truncation biases gamma up and
    rho down by exponentially small terms for p < 1/2.  The check of
    `walk_constants`, in the tests and in ``failsim compare``.
    """
    if not (0.0 <= p < 0.5):
        raise ValueError("down-probability must lie in [0, 1/2)")
    reps = np.arange(n_walks, dtype=np.int64)
    pos = np.zeros(n_walks, dtype=np.int64)
    low = np.zeros(n_walks, dtype=bool)
    visits = np.ones(n_walks, dtype=np.int64)  # the walk starts at 0
    k = 1
    while k <= horizon:
        n = min(WALK_CHUNK, horizon - k + 1)
        u = rng.keyed_uniform(seed, reps[:, None], rng.DOMAIN_WALK,
                              np.arange(k, k + n)[None, :])
        xi = np.where(u < p, -1, 1)
        traj = pos[:, None] + np.cumsum(xi, axis=1)
        low |= traj.min(axis=1) < 0
        visits += (traj == 0).sum(axis=1)
        pos = traj[:, -1]
        k += n
    gamma = float(1.0 - low.mean())
    gamma_se = float(math.sqrt(gamma * (1.0 - gamma) / n_walks))
    rho = float(visits.mean())
    rho_se = float(np.std(visits) / math.sqrt(n_walks))
    return {"gamma": (gamma, gamma_se), "rho": (rho, rho_se)}
