"""Sequential restart engine and asymptotic-efficiency estimation.

A task of size D is attempted until the first failure mark strictly exceeds
it; failed attempts cost their full mark.  `first_exceedance` is that
search, vectorized over tasks; the restart, checkpoint and hop-map engines
all run on it.  It runs in rounds of batches, each twice the last up to
the active tasks' share of one tile, and `scan_rounds` cuts each round's
tasks into row tiles of at most SCAN_TILE draws over work buffers made
once per scan, so the scan's memory is bounded by the tile and its arrays
stay in cache; the checkpoint coverage scan runs on the same tiles.  A
scan keeps its per-task arrays compacted to the active tasks, so every
tile reads its tasks as a slice.  Each task's mark lane prefix (seed,
replication, MARK, point) is hashed once per scan, and each tile is drawn
in place by `rng.lane_draws`, as exponential marks in the same pass where
the mark law is `Exponential`.
Tasks whose expected attempt count is enormous (APPROX_ATTEMPTS_THRESHOLD)
take a distributionally equivalent shortcut (geometric attempt count plus a
Gaussian total for the failed attempts) so heavy-tailed sizes stay
tractable.  `run_replications` restarts the tasks of many windows in
shared scans and returns a numpy record array per window, one row per
task; `run_restart` is its one-window case, and `efficiency` reads the
``ideal`` and ``actual`` columns;
`run_restart_iteration`, the draw-by-draw scalar reference, returns one
`RestartIterationRecord`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import rng
from .analytic import ExpectedTime, TimeClass, expected_restart_time
from .dist import Distribution, Exponential, compare_tails
from .procgen import SCAN_TILE, MarkedWindow, MarkovRenewalSpec

DEFAULT_ATTEMPT_CAP = 1_000_000_000
# Expected attempts above this use the geometric/Gaussian shortcut.
APPROX_ATTEMPTS_THRESHOLD = 1e5


class PathologicalIterationError(RuntimeError):
    """Attempt cap exceeded; the iteration is diagnosed, not truncated.

    ``task`` is the capped task's place among the tasks of the vectorized
    call that raised, where there is one."""

    def __init__(self, index: int, cap: float, task: int | None = None):
        super().__init__(f"pathological iteration at index {index}: attempt cap {cap:g} exceeded")
        self.index = index
        self.cap = cap
        self.task = task


@dataclass(frozen=True)
class RestartIterationRecord:
    """One task of the scalar reference `run_restart_iteration`."""

    n: int
    ideal: float
    failures: float
    actual: float

    def __post_init__(self):
        if self.actual < self.ideal and not math.isnan(self.actual):
            raise ValueError("actual time cannot be below ideal time")


@dataclass(frozen=True)
class EfficiencyEstimate:
    ratio: float
    n_iterations: int
    window_ratios: tuple
    converged: bool
    trend: str  # Stable | Decreasing | Increasing

    def __post_init__(self):
        if not (0.0 <= self.ratio <= 1.0):
            raise ValueError("efficiency ratio must lie in [0, 1]")


def run_restart_iteration(size, marks, attempt_cap=DEFAULT_ATTEMPT_CAP, n: int = 0):
    """One task: draw marks until the first strictly exceeds ``size``.

    ``marks`` is an iterator of mark values (e.g. ``mark_iter(law, stream)``).
    """
    if size <= 0:
        raise ValueError("size must be positive")
    wasted = 0.0
    failures = 0
    for mark in marks:
        if mark > size:
            return RestartIterationRecord(n=n, ideal=float(size), failures=failures,
                                          actual=wasted + float(size))
        wasted += float(mark)
        failures += 1
        if attempt_cap is not None and failures >= attempt_cap:
            raise PathologicalIterationError(n, attempt_cap)
    raise PathologicalIterationError(n, failures)


def mark_iter(law: Distribution, stream):
    while True:
        yield law.sample(stream)


def _reaches_cap(failures, attempt_cap):
    """`run_restart_iteration`'s rule: a task fails once its failures reach the cap."""
    if attempt_cap is None:
        return np.zeros(np.shape(failures), dtype=bool)
    return np.asarray(failures) >= max(attempt_cap, 1)


def scan_rounds(n, first_batch, cap, step, state, results):
    """Run the rounds of a scan over ``n`` tasks, in row tiles.

    The first round gives every task ``first_batch`` draws; each later
    round doubles the batch, up to the active tasks' share of one tile
    (``first_batch`` at least), so that stragglers draw whole tiles.  Every
    active task has drawn the same number of values, and a batch is cut to
    what is left of ``cap`` (None for no cap), by which ``step`` has
    stopped every task.  Its tasks are cut into tiles of at most SCAN_TILE
    values (one task at least), and ``step(tasks, keys, u, flags)`` handles
    one tile: ``tasks`` is a slice of the round's active tasks, and
    ``keys`` (int64), ``u`` (float64) and ``flags`` (bool) are (tasks,
    batch) work arrays, views of buffers made once per scan and reused by
    every tile.  ``step`` returns which of its tasks stay active.

    ``state`` maps names to the per-task arrays the steps read, each over
    the ``n`` tasks, and a step reads its tasks' entries as views,
    ``state[name][tasks]``: after a round in which tasks stopped, each
    array is replaced by the entries of the tasks still active, in order.
    A step writes only the arrays named in ``results``.  The entries of a
    task that stops are written back to the array ``state`` first held
    under that name, so when the scan ends those arrays hold every task's
    last entries, in the tasks' order.

    A narrow tile, one with at least as many rows as columns, is laid out
    column by column (its work arrays are transposes of C-ordered blocks),
    so that a column is contiguous: numpy's row-wise running sums, first
    searches and counts pay a call per row, and on such a tile
    `running_sums` and `first_true` go one column at a time, vectorized
    over the rows.  A wider tile, such as a straggler's, keeps rows.
    """
    buffers = [np.empty(SCAN_TILE, dtype=t) for t in (np.int64, float, bool)]
    full = {name: state[name] for name in results}
    index = None  # once compacted, the task at each place of the arrays
    active, batch, drawn = n, first_batch, 0
    while active:
        if cap is not None:
            batch = min(batch, cap - drawn)
        drawn += batch
        rows = max(SCAN_TILE // batch, 1)
        keep = np.empty(active, dtype=bool)
        for lo in range(0, active, rows):
            width = min(rows, active - lo)
            if width >= batch:
                views = (buf[:width * batch].reshape(batch, width).T for buf in buffers)
            else:
                views = (buf[:width * batch].reshape(width, batch) for buf in buffers)
            keep[lo:lo + width] = step(slice(lo, lo + width), *views)
        kept = np.flatnonzero(keep)
        if len(kept) < active:
            if index is None:  # the first round wrote to the arrays in place
                index = kept
            else:
                gone = np.flatnonzero(~keep)
                for name in results:
                    full[name][index[gone]] = state[name][gone]
                index = index[kept]
            for name, a in state.items():
                state[name] = a[kept]
        active = len(kept)
        batch = min(2 * batch, max(first_batch, SCAN_TILE // max(active, 1)))


def running_sums(tile):
    """Running sums along each row of a tile, in place, each added to the
    last one value at a time, as a scalar loop adds them."""
    if len(tile) < tile.shape[1]:
        return np.cumsum(tile, axis=1, out=tile)
    for c in range(1, tile.shape[1]):
        np.add(tile[:, c - 1], tile[:, c], out=tile[:, c])
    return tile


def first_true(flags):
    """Per row of a bool tile: the column of its first True, or the tile's
    width where it has none.  A narrow tile's flags are or-accumulated in
    place, column by column, and counted."""
    rows, cols = flags.shape
    if rows < cols:
        first = np.argmax(flags, axis=1)
        return np.where(flags[np.arange(rows), first], first, cols)
    for c in range(1, cols):
        np.logical_or(flags[:, c - 1], flags[:, c], out=flags[:, c])
    return cols - flags.sum(axis=1)


def first_exceedance(law, seed, replication, points, thresholds, offsets=0,
                     attempt_cap=DEFAULT_ATTEMPT_CAP, winners_only=False):
    """First mark strictly above each task's threshold, over many tasks at once.

    Task k reads attempts offsets[k] + 1, offsets[k] + 2, ... of the mark
    lane (seed, replication[k], MARK, points[k]) in batches over the row
    tiles of `scan_rounds`, starting at 8 marks; ``replication`` and
    ``offsets`` are one value or one per task, so that the tasks of many
    replications share one scan, and each task's results are those it gets
    alone.  Each lane's leading words are hashed once per scan
    (`rng.lane_prefix`) and every tile is drawn by `rng.lane_draws` in
    place in the scan's buffers, as exponential marks where the law is
    `Exponential`; other laws take ``law.quantile`` of the uniforms.
    Returns per task the failure count, the wasted time (the failed marks,
    summed draw by draw as `run_restart_iteration` sums them), the winning
    mark, and a flag for a task whose failures reach ``attempt_cap``.  A
    flagged task stops scanning and its winning mark is NaN; this never
    raises, so each caller raises for the flagged tasks it uses.

    With ``winners_only`` the wasted time is not summed and comes back as
    None, and the marks must be `Exponential`.  The scan then works on the
    uniforms: Q(u) = -log1p(-u) / rate beats D only above 1 - tail(D), so
    no uniform at or below that bound, lowered by a relative 2**-20 that
    dwarfs the rounding of tail, log1p and the division, can win.  A
    row's first uniform above the bound is its candidate; its mark is
    taken and judged with the strict ``>``, and a row whose candidate does
    not win is decided by the marks of the whole row.  Failures, winning
    marks and flags are those of the default mode, bit for bit.
    """
    points = np.asarray(points, dtype=np.int64)
    n = len(points)
    failures = np.zeros(n, dtype=np.int64)
    wasted = None if winners_only else np.zeros(n)
    win = np.full(n, np.nan)
    rate = law.rate if isinstance(law, Exponential) else None
    state = {"prefix": rng.lane_prefix(seed, replication, rng.DOMAIN_MARK, points),
             "limit": np.broadcast_to(np.asarray(thresholds, dtype=float), n),
             "offset": np.broadcast_to(np.asarray(offsets, dtype=np.int64), n),
             "failures": failures, "win": win}
    if winners_only:
        if rate is None:
            raise ValueError("a winners-only scan needs exponential marks")
        state["bound"] = np.nextafter(1.0 - law.tail(state["limit"]) * (1.0 + 2.0**-20), 0.0)
    else:
        state["wasted"] = wasted

    def first_above(marks, limit, flags):
        """Per row of ``marks``: the column of its first mark above
        ``limit`` (the row length where none is) and that mark."""
        first = first_true(np.greater(marks, limit[:, None], out=flags))
        return first, marks[np.arange(len(marks)), np.minimum(first, marks.shape[1] - 1)]

    def winners(u, flags, limit, bound):
        first = first_true(np.greater(u, bound[:, None], out=flags))
        cand = np.flatnonzero(first < u.shape[1])
        won = np.full(len(u), np.nan)
        won[cand] = law.quantile(u[cand, first[cand]])
        unsure = cand[~(won[cand] > limit[cand])]  # a tie, or a candidate inside the margin
        if len(unsure):
            first[unsure], won[unsure] = first_above(law.quantile(u[unsure]), limit[unsure],
                                                     flags[:len(unsure)])
        return first, won

    def step(tasks, keys, u, flags):
        batch = u.shape[1]
        done, limit = state["failures"][tasks], state["limit"][tasks]
        rng.lane_draws(state["prefix"][tasks], done + state["offset"][tasks], u,
                       keys.view(np.uint64), None if winners_only else rate)
        if winners_only:
            j, won = winners(u, flags, limit, state["bound"][tasks])
        else:
            marks = u if rate is not None else np.asarray(law.quantile(u), dtype=float)
            j, won = first_above(marks, limit, flags)  # j: failures in this batch
            # fold the running total into the first column: the running sums
            # then add one mark at a time, as the scalar loop does
            total = state["wasted"][tasks]
            marks[:, 0] += total
            sums = running_sums(marks)
            total[...] = np.where(j > 0, sums[np.arange(len(u)), j - 1], total)
        hit = j < batch
        done += j
        stop = _reaches_cap(done, attempt_cap)
        state["win"][tasks] = np.where(hit & ~stop, won, np.nan)
        return ~hit & ~stop

    scan_rounds(n, 8, None if attempt_cap is None else max(attempt_cap, 1), step, state,
                ("failures", "win") if winners_only else ("failures", "win", "wasted"))
    # a task that wins has fewer failures than the cap, which its last batch cuts
    return failures, wasted, win, _reaches_cap(failures, attempt_cap)


def _approx_tasks(sizes, points, law, seed, replication, offsets=0):
    """Geometric attempt count + Gaussian failed-attempt total per task.

    Distributionally faithful for large attempt counts; flagged in records.
    Returns (failures, actual) aligned with ``sizes``.
    """
    z = np.asarray(sizes, dtype=float)
    q = np.asarray(law.tail(z), dtype=float)
    u1 = rng.keyed_uniform(seed, replication, rng.DOMAIN_APPROX, points, offsets + 1)
    u2 = rng.keyed_uniform(seed, replication, rng.DOMAIN_APPROX, points, offsets + 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # tau geometric(q): P[tau > k] = (1-q)^k
        tau = np.floor(np.log(u1) / np.log1p(-q)) + 1.0
    tau = np.where(q <= 0.0, np.inf, tau)
    nfail = tau - 1.0
    mu = np.asarray(law.truncated_mean(z), dtype=float)
    m2 = np.asarray(law.truncated_second_moment(z), dtype=float)
    cdf = 1.0 - q
    with np.errstate(divide="ignore", invalid="ignore"):
        cm = mu / np.maximum(cdf, 1e-300)  # conditional mean of a failed attempt
        cvar = np.maximum(m2 / np.maximum(cdf, 1e-300) - cm * cm, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        total = nfail * cm + np.sqrt(nfail * cvar) * special.ndtri(u2)
        total = np.clip(total, 0.0, nfail * z)
    total = np.where(np.isinf(nfail), np.inf, total)
    return nfail, total + z


def simulate_restart_at_points(
    sizes,
    points,
    law: Distribution,
    seed: int,
    replication=0,
    attempt_cap=DEFAULT_ATTEMPT_CAP,
    attempt_offsets=None,
):
    """Vectorized restart for tasks at explicit point indices.

    Mark i of the task at point n is keyed by (seed, replication, MARK, n, i),
    so every exact iteration is auditable draw by draw: `first_exceedance`
    gives the same failures and times as `run_restart_iteration` over that
    lane.  ``replication`` is one value or one per task.
    ``attempt_offsets`` shifts each task's attempt indices (task
    repetition draws fresh marks from a disjoint range of the same lane).
    Raises `PathologicalIterationError` for the first task whose failures
    reach ``attempt_cap``, with its place among the tasks as ``task``.
    Returns (failures, actual, approximated) arrays aligned with ``sizes``.
    """
    sizes = np.asarray(sizes, dtype=float)
    points = np.asarray(points, dtype=np.int64)
    reps = np.asarray(replication, dtype=np.int64)
    offsets = np.asarray(0 if attempt_offsets is None else attempt_offsets, dtype=np.int64)
    failures = np.zeros(len(sizes))
    actual = np.zeros(len(sizes))

    with np.errstate(divide="ignore", over="ignore"):
        approximated = 1.0 / np.asarray(law.tail(sizes), dtype=float) > APPROX_ATTEMPTS_THRESHOLD
    heavy = np.nonzero(approximated)[0]
    if len(heavy):
        failures[heavy], actual[heavy] = _approx_tasks(
            sizes[heavy], points[heavy], law, seed, reps if reps.ndim == 0 else reps[heavy],
            offsets if offsets.ndim == 0 else offsets[heavy]
        )
    exact = np.nonzero(~approximated)[0]
    nfail, wasted, _, _ = first_exceedance(
        law, seed, reps if reps.ndim == 0 else reps[exact], points[exact], sizes[exact],
        offsets if offsets.ndim == 0 else offsets[exact], attempt_cap
    )
    failures[exact] = nfail
    actual[exact] = wasted + sizes[exact]

    capped = _reaches_cap(failures, attempt_cap)
    if np.any(capped):
        task = int(np.argmax(capped))
        raise PathologicalIterationError(int(points[task]), attempt_cap, task)
    return failures, actual, approximated


def _chunks(segments, size):
    """Cut (window, law index, points) segments, in order, into chunks of at
    most ``size`` tasks, each a list of such segments."""
    chunk, room = [], size
    for r, t, pts in segments:
        while len(pts):
            chunk.append((r, t, pts[:room]))
            room -= len(chunk[-1][2])
            pts = pts[len(chunk[-1][2]):]
            if not room:
                yield chunk
                chunk, room = [], size
    if chunk:
        yield chunk


def run_replications(windows, n_iterations: int, attempt_cap=DEFAULT_ATTEMPT_CAP) -> list:
    """`run_restart` on each of many windows of one seed, their tasks
    sharing scans: one record array per window, each what `run_restart`
    returns for it alone.

    Every task with the same mark law, from every window, goes to the same
    `simulate_restart_at_points` calls (equal laws are one law), in chunks
    of at most max(n_iterations, SCAN_TILE) tasks, so that a scan holds no
    more tasks than one replication's or one tile's.  The tasks run in the
    order of the loop over windows that `run_restart` makes (replication,
    then law index, then point), and the error raised is the one that loop
    raises first: that of its first task whose failures reach
    ``attempt_cap``.
    """
    windows = [w.extended(n_iterations) for w in windows]
    seed = windows[0].seed
    if any(w.seed != seed for w in windows):
        raise ValueError("the windows of one restart run share their seed")
    n = n_iterations
    records = [np.rec.fromarrays([np.arange(n), w.sizes[:n], np.zeros(n), np.zeros(n),
                                  np.zeros(n, dtype=bool)],
                                 names="n,ideal,failures,actual,approximated")
               for w in windows]
    segments = []  # (window, law index, mark law, points), in the loop's order
    for r, w in enumerate(windows):
        if w.law_index is None:
            segments.append((r, 0, w.mark_laws[0], np.arange(n)))
        else:
            index = w.law_index[:n]
            segments += [(r, t, w.mark_laws[t], np.flatnonzero(index == t))
                         for t in np.unique(index)]
    laws = []
    for _, _, law, _ in segments:
        if law not in laws:
            laws.append(law)
    reps = [w.replication for w in windows]

    first_error = None  # ((window, law index, point), error)
    for law in laws:
        mine = [(r, t, pts) for r, t, other, pts in segments if other == law]
        for chunk in _chunks(mine, max(n, SCAN_TILE)):
            r, t, pts = chunk[0]
            if first_error is not None and (r, t, int(pts[0])) > first_error[0]:
                break
            points = np.concatenate([p for _, _, p in chunk])
            reps_of = (reps[0] if len(windows) == 1 else
                       np.concatenate([np.full(len(p), reps[r]) for r, _, p in chunk]))
            sizes = np.concatenate([records[r].ideal[p] for r, _, p in chunk])
            try:
                cols = simulate_restart_at_points(sizes, points, law, seed, reps_of,
                                                  attempt_cap=attempt_cap)
            except PathologicalIterationError as exc:
                i = exc.task
                for r, t, p in chunk:
                    if i < len(p):
                        break
                    i -= len(p)
                key = (r, t, int(p[i]))
                if first_error is None or key < first_error[0]:
                    first_error = (key, exc)
                break
            lo = 0
            for r, _, p in chunk:
                for name, col in zip(("failures", "actual", "approximated"), cols):
                    records[r][name][p] = col[lo:lo + len(p)]
                lo += len(p)
    if first_error is not None:
        raise first_error[1]
    for rec in records:
        if np.any(rec.actual < rec.ideal):
            raise ValueError("actual time cannot be below ideal time")
    return records


def run_restart(
    window: MarkedWindow,
    n_iterations: int,
    attempt_cap=DEFAULT_ATTEMPT_CAP,
) -> np.recarray:
    """Restart every inter-arrival of the window in sequence.

    Returns one row per task as a record array with the columns ``n``,
    ``ideal`` (the size), ``failures``, ``actual`` and ``approximated``
    (the task took the geometric/Gaussian shortcut); read a column as
    ``records.actual`` or a task as ``records[n].actual``.  It is the
    one-window case of `run_replications`.
    """
    return run_replications([window], n_iterations, attempt_cap)[0]


# ---------------------------------------------------------------------------
# Efficiency estimation


def running_ratio(ideal, actual, ks) -> list:
    """Sum of ``ideal`` over sum of ``actual`` across the first k tasks, for
    each k in ``ks``; 0 unless that sum of ``actual`` is finite and positive."""
    idx = np.asarray(ks) - 1
    num = np.cumsum(ideal, dtype=float)[idx]
    den = np.cumsum(actual, dtype=float)[idx]
    return [i / a if math.isfinite(a) and a > 0 else 0.0 for i, a in zip(num.tolist(), den.tolist())]


def efficiency_from_sums(ideal, actual, tolerance: float = 0.01) -> EfficiencyEstimate:
    """Running-ratio estimate with dyadic-window convergence diagnostics."""
    n = len(ideal)
    if n == 0:
        raise ValueError("no records")
    window_ratios = tuple(running_ratio(ideal, actual, (max(n // 4, 1), max(n // 2, 1), n)))
    r1, r2, r3 = window_ratios
    converged = r3 > 0 and abs(r3 - r2) / r3 < tolerance
    if r1 - r2 > tolerance * max(r1, 1e-300) and r2 - r3 > tolerance * max(r2, 1e-300):
        trend = "Decreasing"
    elif r2 - r1 > tolerance * max(r1, 1e-300) and r3 - r2 > tolerance * max(r2, 1e-300):
        trend = "Increasing"
    else:
        trend = "Stable"
    return EfficiencyEstimate(
        ratio=min(r3, 1.0), n_iterations=n,
        window_ratios=window_ratios, converged=bool(converged), trend=trend,
    )


def efficiency(records, tolerance: float = 0.01) -> EfficiencyEstimate:
    """`efficiency_from_sums` over the ``ideal`` and ``actual`` columns."""
    return efficiency_from_sums(records.ideal, records.actual, tolerance)


# ---------------------------------------------------------------------------
# Markov renewal analytics


@dataclass(frozen=True)
class MrpEfficiency:
    numerator: ExpectedTime  # stationary mean ideal time per transition
    denominator: ExpectedTime  # stationary mean actual time per transition
    ratio: float
    slow_pairs: tuple = ()


def mrp_efficiency(spec: MarkovRenewalSpec) -> MrpEfficiency:
    """Stationary ideal/actual ratio of a Markov renewal restart system.

    A slow pair (size tail dominating mark tail on some positive-probability
    transition) forces an infinite stationary actual time, hence ratio 0.
    The numerator, a weighted mean of the size laws' closed-form means, is
    `FiniteProved` with bound 0.  A finite denominator is `FiniteProved`
    with bound 0 when every pair's expected time is, and otherwise
    `FiniteNumeric` with the weighted sum of the pairs' bounds.
    """
    pi = spec.stationary()
    slow = tuple(
        (i, j)
        for (i, j) in spec.transition_pairs()
        if compare_tails(spec.size_laws[(i, j)], spec.mark_laws[(i, j)]).first_heavier
    )
    num = 0.0
    for (i, j) in spec.transition_pairs():
        num += pi[i] * spec.transition[i, j] * spec.size_laws[(i, j)].mean()
    numerator = ExpectedTime(num, TimeClass.FINITE_PROVED, 0.0)
    if slow:
        return MrpEfficiency(
            numerator, ExpectedTime(math.inf, TimeClass.INFINITE_PROVED), 0.0, slow
        )
    den = 0.0
    den_err = 0.0
    proved = True
    for (i, j) in spec.transition_pairs():
        w = pi[i] * spec.transition[i, j]
        et = expected_restart_time(spec.size_laws[(i, j)], spec.mark_laws[(i, j)])
        if not et.finite:
            return MrpEfficiency(
                numerator, ExpectedTime(math.inf, et.classification), 0.0, slow
            )
        den += w * et.value
        den_err += w * (et.abs_error_bound or 0.0)
        proved = proved and et.classification is TimeClass.FINITE_PROVED
    denominator = (ExpectedTime(den, TimeClass.FINITE_PROVED, 0.0) if proved
                   else ExpectedTime(den, TimeClass.FINITE_NUMERIC, den_err))
    return MrpEfficiency(numerator, denominator, num / den, slow)
