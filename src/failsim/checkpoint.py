"""Sequential checkpointing engine over a renewal window.

One iteration ("hop") repeats the task at the current checkpoint until an
attempt strictly exceeds the current inter-arrival; the winning attempt's
duration is walked forward along the axis and every checkpoint it covers is
secured.  The first hop secures a checkpoint hit exactly on the boundary
(inclusive rule); later hops require strict coverage — the two tie rules
differ only on null sets for continuous laws.

Every engine takes its hops from `hop_scan`, one hop from each of many
points at once: `restart.first_exceedance` finds the winning attempts and
`covered_checkpoints` walks them forward, both over the row tiles of
`restart.scan_rounds`, so neither holds more than ``SCAN_TILE`` draws at
once.  `run_checkpoint_iteration` is its draw-by-draw scalar reference;
`run_checkpointing` chases one chain through hop maps computed for blocks
of points and returns a record array, one row per hop; `simulate_hops`
runs many replications hop by hop, for the limit-law and
inspection-paradox diagnostics; and `universal.compute_all_kappas` takes
one hop from every point.  They run on renewal windows, mixture windows
included, and refuse Markov ones.  The limit-law oracles draw fresh
renewal sequences through one cover walk, `sample_beta_n`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .dist import Distribution, Exponential
from .procgen import MarkedWindow, keyed_sizes
from .restart import (
    DEFAULT_ATTEMPT_CAP,
    PathologicalIterationError,
    efficiency_from_sums,
    first_exceedance,
    mark_iter,
    scan_rounds,
)

DEFAULT_SCAN_CAP = 1_000_000
# `run_checkpointing` computes the hops of up to MAX_BLOCK points ahead of
# its chain, each held to SPECULATION_CAP attempts and covered checkpoints.
MAX_BLOCK = 1 << 16
SPECULATION_CAP = 1 << 14


class ScanCapError(RuntimeError):
    """A single winning attempt covered more checkpoints than the cap allows."""

    def __init__(self, index: int, cap: int):
        super().__init__(f"hop from {index} exceeded scan cap {cap}")
        self.index = index
        self.cap = cap


@dataclass(frozen=True)
class CheckpointIterationRecord:
    """One hop of the scalar reference `run_checkpoint_iteration`."""

    n: int
    start_index: int
    end_index: int
    attempts: int
    ideal: float  # X_end - X_start
    actual: float  # sum of every drawn mark, winner included
    overshoot: float  # winning mark - first inter-arrival

    def __post_init__(self):
        if self.end_index < self.start_index + 1:
            raise ValueError("a hop must advance at least one checkpoint")
        if self.overshoot <= 0:
            raise ValueError("overshoot must be positive")


def covered_checkpoints(d: Distribution, seed, replication, start, d_start, win,
                        inclusive, scan_cap: int = DEFAULT_SCAN_CAP):
    """Walk each task's winning mark forward from its checkpoint.

    Task k has covered ``d_start[k]`` on reaching checkpoint start[k] + 1;
    the sizes after it are added one at a time, in chunks of 4 and then of
    the sizes `scan_rounds` sets, over its row tiles, while the running sum
    stays below ``win[k]`` (or at most ``win[k]`` where ``inclusive[k]``).
    ``replication`` and ``inclusive`` are one value or one per task.
    Starts that are one replication's run of points lo, ..., hi - 1 carry
    the sizes of that block in ``d_start``, so only sizes from hi on are
    hashed (`keyed_sizes`); other starts hash every size.  Returns per task
    the landed checkpoint, X_end - X_start as that running sum, and a flag
    for a task that covered more than ``scan_cap`` checkpoints, which stops
    scanning there.  A NaN winning mark covers nothing.
    """
    start = np.asarray(start, dtype=np.int64)
    n = len(start)
    reps = np.asarray(replication, dtype=np.int64)
    inclusive = np.broadcast_to(inclusive, n)
    block = np.asarray(d_start, dtype=float)
    run = n > 0 and reps.ndim == 0 and bool(np.all(np.diff(start) == 1))
    lo, hi = (start[0], start[0] + n) if run else (0, 0)
    end = start + 1
    ideal = block.copy()
    capped = np.zeros(n, dtype=bool)

    def step(tasks, pts, u, flags):
        chunk = u.shape[1]
        np.add(end[tasks][:, None], np.arange(chunk), out=pts)
        if run and end[tasks].min() < hi:
            sizes = np.take(block, pts - lo, mode="clip", out=u)
            past = pts >= hi
            if past.any():
                sizes[past] = keyed_sizes(d, seed, reps, pts[past])
        else:
            sizes = keyed_sizes(d, seed, reps if reps.ndim == 0 else reps[tasks][:, None], pts,
                                out=u)
        sizes[:, 0] += ideal[tasks]  # fold the running sum in, as the kernel does
        csum = np.cumsum(sizes, axis=1, out=sizes)
        w = win[tasks][:, None]
        fits = np.logical_or(csum < w, inclusive[tasks][:, None] & (csum == w), out=flags)
        add = fits.sum(axis=1)  # fits is prefix-true since csum never decreases
        rows = np.arange(len(tasks))
        ideal[tasks] = np.where(add > 0, csum[rows, add - 1], ideal[tasks])
        end[tasks] += add
        capped[tasks] = end[tasks] - start[tasks] > scan_cap
        return (add == chunk) & ~capped[tasks]

    scan_rounds(n, 4, max(scan_cap, 1), step)
    return end, ideal, capped


def hop_scan(d: Distribution, law: Distribution, seed, replication, start, inclusive,
             attempt_cap=DEFAULT_ATTEMPT_CAP, scan_cap: int = DEFAULT_SCAN_CAP,
             winners_only: bool = False):
    """One checkpoint hop from each point of ``start``.

    Hashes each start's size D_start once, finds the winning attempt with
    `restart.first_exceedance` (``winners_only`` is its mode) and walks it
    forward with `covered_checkpoints`; ``replication`` and ``inclusive``
    are one value or one per point.  Returns the hop columns ``end``,
    ``attempts``, ``ideal``, ``actual`` (None with ``winners_only``) and
    ``overshoot``, as in `CheckpointIterationRecord`, and the attempt-cap
    and scan-cap flags, which no hop raises for.
    """
    d_start = keyed_sizes(d, seed, replication, start)
    failures, wasted, win, capped = first_exceedance(
        law, seed, replication, start, d_start, 0, attempt_cap, winners_only)
    end, ideal, scan_capped = covered_checkpoints(
        d, seed, replication, start, d_start, win, inclusive, scan_cap)
    actual = None if wasted is None else wasted + win
    return [end, failures + 1, ideal, actual, win - d_start], capped, scan_capped


def raise_first_capped(points, capped, scan_capped, attempt_cap, scan_cap):
    """Raise what the scalar walk raises at the first flagged point, if any."""
    bad = np.flatnonzero(capped | scan_capped)
    if len(bad):
        i = bad[0]
        if capped[i]:
            raise PathologicalIterationError(int(points[i]), attempt_cap)
        raise ScanCapError(int(points[i]), scan_cap)


def run_checkpoint_iteration(
    window: MarkedWindow,
    start_index: int,
    n: int = 0,
    inclusive: bool | None = None,
    attempt_cap=DEFAULT_ATTEMPT_CAP,
    scan_cap: int = DEFAULT_SCAN_CAP,
):
    """One hop from checkpoint ``start_index``; returns (record, window).

    The scalar reference of every checkpoint engine: marks are drawn one at
    a time from the point's keyed lane, like `restart.run_restart_iteration`,
    and covered checkpoints are then secured one at a time, each size read
    alone through `keyed_sizes`.  The returned window is the input extended
    past the landed checkpoint.  A Markov window is refused.
    """
    if window.mrp_spec is not None:
        raise ValueError("checkpointing runs on renewal windows")
    if inclusive is None:
        inclusive = start_index == 0
    d, seed, rep = window.size_law, window.seed, window.replication
    d_start = float(keyed_sizes(d, seed, rep, [start_index])[0])
    stream = rng.CounterStream(seed, rep, rng.DOMAIN_MARK, point=start_index)
    total = 0.0
    attempts = 0
    for win_mark in mark_iter(window.mark_laws[0], stream):
        total += win_mark
        attempts += 1
        if win_mark > d_start:
            break
        if attempt_cap is not None and attempts >= attempt_cap:
            raise PathologicalIterationError(start_index, attempt_cap)

    end = start_index + 1
    covered = d_start
    while True:
        nxt = covered + float(keyed_sizes(d, seed, rep, [end])[0])
        ok = nxt <= win_mark if inclusive else nxt < win_mark
        if not ok:
            break
        covered = nxt
        end += 1
        if end - start_index > scan_cap:
            raise ScanCapError(start_index, scan_cap)

    record = CheckpointIterationRecord(
        n=n, start_index=start_index, end_index=end, attempts=attempts,
        ideal=covered, actual=total, overshoot=win_mark - d_start,
    )
    return record, window.extended(end + 1)


def run_checkpointing(
    window: MarkedWindow,
    n_iterations: int,
    attempt_cap=DEFAULT_ATTEMPT_CAP,
    scan_cap: int = DEFAULT_SCAN_CAP,
):
    """Chain hops: iteration k starts where iteration k-1 landed.

    Same draws, sums and tie rules as `run_checkpoint_iteration`, hop for
    hop.  The hops of a block of points ahead of the chain are computed at
    once, and the chain then follows the landed checkpoints through the
    block; each new block is sized from the mean hop length so far.  A
    point the chain skips costs at most ``SPECULATION_CAP`` attempts and
    covered checkpoints, and never raises; a visited point over that is
    redone alone under the real caps.  Returns a record array, one row per
    hop with the columns ``n``, ``start_index``, ``end_index``,
    ``attempts``, ``ideal``, ``actual`` and ``overshoot`` of
    `CheckpointIterationRecord`, and the window extended past the last
    landed checkpoint, which costs nothing: a renewal window holds no sizes.
    """
    if window.mrp_spec is not None:
        raise ValueError("checkpointing runs on renewal windows")
    d, law = window.size_law, window.mark_laws[0]
    seed, rep = window.seed, window.replication

    def hops(pts, attempt_cap, scan_cap):
        return hop_scan(d, law, seed, rep, pts, pts == 0, attempt_cap, scan_cap)

    spec_cap = SPECULATION_CAP if attempt_cap is None else min(attempt_cap, SPECULATION_CAP)
    chain, parts = [], []  # the visited points; their columns, block by block
    start = 0
    while len(chain) < n_iterations:
        span = start / len(chain) if chain else 1.0
        left = n_iterations - len(chain)
        lo, hi = start, start + min(max(64, math.ceil(1.25 * span * left)), MAX_BLOCK)
        cols, capped, scan_capped = hops(np.arange(lo, hi), spec_cap,
                                         min(scan_cap, SPECULATION_CAP))
        first = len(chain)
        while start < hi and len(chain) < n_iterations:
            i = start - lo
            if capped[i] or scan_capped[i]:
                redo, *flags = hops(np.array([start]), attempt_cap, scan_cap)
                raise_first_capped([start], *flags, attempt_cap, scan_cap)
                for col, value in zip(cols, redo):
                    col[i] = value[0]
            chain.append(start)
            start = int(cols[0][i])
        parts.append([col[np.array(chain[first:]) - lo] for col in cols])
    start_index = np.array(chain, dtype=np.int64)
    end, attempts, ideal, actual, overshoot = (np.concatenate(c) for c in zip(*parts))
    if np.any(end < start_index + 1) or np.any(overshoot <= 0):
        raise ValueError("a hop must advance at least one checkpoint, by a positive overshoot")
    records = np.rec.fromarrays(
        [np.arange(n_iterations), start_index, end, attempts, ideal, actual, overshoot],
        names="n,start_index,end_index,attempts,ideal,actual,overshoot",
    )
    return records, window.extended(start + 1)


# ---------------------------------------------------------------------------
# Vectorized multi-replication hop engine


def simulate_hops(
    d: Distribution,
    l: Distribution,
    n_hops: int,
    seed: int,
    n_reps: int,
    attempt_cap=DEFAULT_ATTEMPT_CAP,
    scan_cap: int = DEFAULT_SCAN_CAP,
):
    """Run ``n_hops`` chained checkpoint hops in each of ``n_reps`` fresh
    replications; sizes and marks come from the same keyed lanes as
    windowed engines, so results agree with `run_checkpointing` per rep.

    Returns a dict of arrays for the final hop: ``end_index``, ``d_end``
    (inter-arrival at the landed checkpoint), ``overshoot``, ``ideal``,
    ``actual``, ``attempts``.
    """
    if n_hops < 1:
        raise ValueError("simulate_hops needs at least one hop")
    reps = np.arange(n_reps, dtype=np.int64)
    start = np.zeros(n_reps, dtype=np.int64)
    for hop in range(n_hops):
        cols, *flags = hop_scan(d, l, seed, reps, start, hop == 0, attempt_cap, scan_cap)
        raise_first_capped(start, *flags, attempt_cap, scan_cap)
        start = cols[0]
    end, attempts, ideal, actual, overshoot = cols
    return dict(end_index=end, d_end=keyed_sizes(d, seed, reps, end), overshoot=overshoot,
                ideal=ideal, actual=actual, attempts=attempts)


# ---------------------------------------------------------------------------
# Total-lifetime oracle and the landed-interval law


def sample_beta_n(d: Distribution, ts, stream):
    """For each cover time t > 0, a fresh renewal sequence from ``stream``:
    the inter-arrival that covers t (the first whose partial sum reaches
    it) and how many inter-arrivals came before it.

    Each round draws one inter-arrival for every sequence still short of
    its time, in the order of ``ts``.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts > 0):
        raise ValueError("t must be positive")
    out = np.zeros(len(ts))
    before = np.zeros(len(ts), dtype=np.int64)
    partial = np.zeros(len(ts))
    active = np.arange(len(ts))
    while len(active):
        draws = np.asarray(d.quantile(stream.uniforms(len(active))), dtype=float)
        covers = partial[active] + draws >= ts[active]
        out[active[covers]] = draws[covers]
        partial[active] += draws
        active = active[~covers]
        before[active] += 1
    return out, before


def checkpoint_efficiency(records, tolerance: float = 0.01, burn_in: int | None = None):
    """Efficiency estimate; with ``burn_in`` also the post-burn-in ratio of
    separately averaged ideal and actual (the limit-law companion)."""
    est = efficiency_from_sums(records.ideal, records.actual, tolerance)
    if burn_in is None:
        return est
    tail = records[burn_in:]
    if not len(tail):
        raise ValueError("burn-in leaves no records")
    companion = float(np.mean(tail.ideal) / np.mean(tail.actual))
    return est, companion


def estimate_limit_moments(d: Distribution, l: Distribution, n_samples: int, stream):
    """Monte Carlo moments of the landed-interval limit law.

    Exponential marks only: hop-1 already samples the limit (the landed
    interval is total lifetime at an exp overshoot, independent of history).
    Returns means with standard errors for D_inf, tau_inf, nu_inf.
    """
    if not isinstance(l, Exponential):
        raise ValueError("limit-law shortcuts require exponential marks")
    z = np.asarray(Exponential(l.rate).quantile(stream.uniforms(n_samples)), dtype=float)
    d_inf, _ = sample_beta_n(d, z, stream)

    # tau_inf: geometric attempt count against an independent D_inf draw
    tail = np.asarray(l.tail(d_inf), dtype=float)
    u = stream.uniforms(n_samples)
    tau = np.floor(np.log(u) / np.log1p(-tail)) + 1.0

    # nu_inf: checkpoints covered by the winning overshoot past D_inf, one
    # more than the inter-arrivals a fresh sequence fits below it
    z2 = np.asarray(Exponential(l.rate).quantile(stream.uniforms(n_samples)), dtype=float)
    nu = 1.0 + sample_beta_n(d, z2, stream)[1]

    def mse(x):
        return float(np.mean(x)), float(np.std(x) / math.sqrt(len(x)))

    return {
        "E_D_infinity": mse(d_inf),
        "E_tau_infinity": mse(tau),
        "E_nu_infinity": mse(nu),
    }
