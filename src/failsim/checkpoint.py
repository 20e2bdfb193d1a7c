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
`run_chains` chases the chains of many windows in lockstep through hop
maps computed for blocks of points ahead of each, and returns a record
array per chain, one row per hop; `run_checkpointing` is its one-window
case; `simulate_hops`
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
    running_sums,
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
    A run of tasks of one replication at consecutive points lo, ..., hi - 1
    carries the sizes of that block in ``d_start``, so only sizes from hi
    on are hashed (`keyed_sizes`): the starts of one chain's block, of many
    chains' blocks one after another, or of every point.  A task alone in
    its run hashes every size.  Returns per task the landed checkpoint,
    X_end - X_start as that running sum, and a flag for a task that covered
    more than ``scan_cap`` checkpoints, which stops scanning there.  A NaN
    winning mark covers nothing.
    """
    start = np.asarray(start, dtype=np.int64)
    n = len(start)
    reps = np.asarray(replication, dtype=np.int64)
    inclusive = np.asarray(inclusive)
    block = np.asarray(d_start, dtype=float)
    # task k reads the size of point p at d_start[p + skip[k]] while that
    # index is below stop[k], the end of its run
    first = np.ones(n, dtype=bool)
    np.not_equal(np.diff(start), 1, out=first[1:])
    if reps.ndim:
        first[1:] |= reps[1:] != reps[:-1]
    heads = np.flatnonzero(first)
    lengths = np.diff(heads, append=n)
    end = start + 1
    ideal = block.copy()
    state = {"end": end, "ideal": ideal, "skip": np.arange(n) - start,
             "stop": np.repeat(heads + lengths, lengths), "last": start + scan_cap,
             "win": np.broadcast_to(np.asarray(win, dtype=float), n)}
    if reps.ndim:
        state["rep"] = reps
    if inclusive.ndim:
        state["inclusive"] = inclusive

    def step(tasks, keys, u, flags):
        chunk = u.shape[1]
        reached = state["end"][tasks]
        rep = reps if reps.ndim == 0 else state["rep"][tasks][:, None]
        offset, inside = state["skip"][tasks], state["stop"][tasks]
        index = reached + offset
        if np.any(index < inside):
            # keys are indices into d_start; they have the layout of u, so
            # their flat views in memory order match element for element
            np.add(index[:, None], np.arange(chunk), out=keys)
            np.take(block, keys.ravel(order="K"), mode="clip", out=u.ravel(order="K"))
            past = keys >= inside[:, None]
            if past.any():
                keys -= offset[:, None]
                u[past] = keyed_sizes(d, seed, rep if reps.ndim == 0 else
                                      np.broadcast_to(rep, keys.shape)[past], keys[past])
            sizes = u
        else:
            np.add(reached[:, None], np.arange(chunk), out=keys)
            sizes = keyed_sizes(d, seed, rep, keys, out=u)
        covered = state["ideal"][tasks]
        sizes[:, 0] += covered  # fold the running sum in, as the kernel does
        csum = running_sums(sizes)
        w = state["win"][tasks][:, None]
        if inclusive.ndim == 0:
            fits = (np.less_equal if inclusive else np.less)(csum, w, out=flags)
        else:
            fits = np.logical_or(csum < w, state["inclusive"][tasks][:, None] & (csum == w),
                                 out=flags)
        add = fits.sum(axis=1)  # fits is prefix-true since csum never decreases
        covered[...] = np.where(add > 0, csum[np.arange(len(u)), add - 1], covered)
        reached += add
        return (add == chunk) & (reached <= state["last"][tasks])

    scan_rounds(n, 4, max(scan_cap, 1), step, state, ("end", "ideal"))
    # a task stops at the first step that takes it past scan_cap checkpoints
    return end, ideal, end - start > scan_cap


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


def run_chains(windows, n_iterations: int, attempt_cap=DEFAULT_ATTEMPT_CAP,
               scan_cap: int = DEFAULT_SCAN_CAP) -> list:
    """Chain hops in each of many renewal windows of one seed and laws, in
    lockstep: one record array per window, each what `run_checkpointing`
    returns for it alone.

    Each step computes, in one `hop_scan`, the hops of a block of points
    ahead of every live chain (each block sized from its chain's mean hop
    length so far, the blocks together at most ``MAX_BLOCK`` points), and
    each chain then follows its landed checkpoints through its block.  A
    point a chain skips costs at most ``SPECULATION_CAP`` attempts and
    covered checkpoints, and never raises; a visited point over that is
    redone alone under the real caps.  A chain whose redone hop reaches a
    cap ends, and so does every later chain: the error raised is the one
    that a loop over the windows in turn raises first.
    """
    if any(w.mrp_spec is not None for w in windows):
        raise ValueError("checkpointing runs on renewal windows")
    d, law, seed = windows[0].size_law, windows[0].mark_laws[0], windows[0].seed
    if any((w.size_law, w.mark_laws[0], w.seed) != (d, law, seed) for w in windows):
        raise ValueError("the chains of one checkpointing run share their seed and laws")
    reps = np.array([w.replication for w in windows], dtype=np.int64)
    spec_cap = SPECULATION_CAP if attempt_cap is None else min(attempt_cap, SPECULATION_CAP)
    chains = [[] for _ in windows]  # the visited points
    parts = [[] for _ in windows]  # their hop columns, block by block
    start = [0] * len(windows)
    live = list(range(len(windows)))
    error = None  # (chain, the error its redone hop raised)
    while live:
        share = max(MAX_BLOCK // len(live), 1)
        moving = live[:MAX_BLOCK]
        blocks = []
        for r in moving:
            span = start[r] / len(chains[r]) if chains[r] else 1.0
            left = n_iterations - len(chains[r])
            blocks.append((start[r], start[r] + min(max(64, math.ceil(1.25 * span * left)),
                                                   share)))
        pts = np.concatenate([np.arange(lo, hi) for lo, hi in blocks])
        rep_of = reps[0] if len(windows) == 1 else np.repeat(reps[moving],
                                                             [hi - lo for lo, hi in blocks])
        cols, capped, scan_capped = hop_scan(d, law, seed, rep_of, pts, pts == 0, spec_cap,
                                             min(scan_cap, SPECULATION_CAP))
        ends, flagged = cols[0].tolist(), (capped | scan_capped).tolist()
        base = 0
        for r, (lo, hi) in zip(moving, blocks):
            chain, first, at = chains[r], len(chains[r]), start[r]
            while at < hi and len(chain) < n_iterations and (error is None or r < error[0]):
                i = base + at - lo
                if flagged[i]:
                    point = np.array([at])
                    redo, *flags = hop_scan(d, law, seed, reps[r], point, point == 0,
                                            attempt_cap, scan_cap)
                    try:
                        raise_first_capped(point, *flags, attempt_cap, scan_cap)
                    except (PathologicalIterationError, ScanCapError) as exc:
                        error = (r, exc)
                        break
                    for col, value in zip(cols, redo):
                        col[i] = value[0]
                    ends[i] = int(redo[0][0])
                chain.append(at)
                at = ends[i]
            start[r] = at
            parts[r].append([col[base - lo + np.array(chain[first:], dtype=np.int64)]
                             for col in cols])
            base += hi - lo
        live = [r for r in live if len(chains[r]) < n_iterations
                and (error is None or r < error[0])]

    runs = []
    for r, chain in enumerate(chains):
        if error is not None and r == error[0]:
            raise error[1]
        start_index = np.array(chain, dtype=np.int64)
        end, attempts, ideal, actual, overshoot = (np.concatenate(c) for c in zip(*parts[r]))
        if np.any(end < start_index + 1) or np.any(overshoot <= 0):
            raise ValueError("a hop must advance at least one checkpoint, by a positive overshoot")
        runs.append(np.rec.fromarrays(
            [np.arange(n_iterations), start_index, end, attempts, ideal, actual, overshoot],
            names="n,start_index,end_index,attempts,ideal,actual,overshoot",
        ))
    return runs


def run_checkpointing(
    window: MarkedWindow,
    n_iterations: int,
    attempt_cap=DEFAULT_ATTEMPT_CAP,
    scan_cap: int = DEFAULT_SCAN_CAP,
):
    """Chain hops: iteration k starts where iteration k-1 landed.

    Same draws, sums and tie rules as `run_checkpoint_iteration`, hop for
    hop, computed as the one-window case of `run_chains`.  Returns a record
    array, one row per hop with the columns ``n``, ``start_index``,
    ``end_index``, ``attempts``, ``ideal``, ``actual`` and ``overshoot`` of
    `CheckpointIterationRecord`, and the window extended past the last
    landed checkpoint, which costs nothing: a renewal window holds no sizes.
    """
    records = run_chains([window], n_iterations, attempt_cap, scan_cap)[0]
    return records, window.extended(int(records.end_index[-1]) + 1)


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
