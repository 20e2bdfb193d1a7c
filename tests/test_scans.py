"""The shared mark scan and coverage scan against their scalar references.

Every vectorized engine must give, task by task, what the draw-by-draw
walks give: equal failures, attempts, landed checkpoints and times, or the
same exception naming the same point.
"""

import math
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from failsim import checkpoint, restart, rng
from failsim.checkpoint import (
    DEFAULT_SCAN_CAP,
    ScanCapError,
    covered_checkpoints,
    run_chains,
    run_checkpoint_iteration,
    run_checkpointing,
    simulate_hops,
)
from failsim.dist import Exponential, Pareto, Weibull, parse_distribution
from failsim.procgen import (
    MarkovRenewalSpec,
    generate_markov_renewal,
    generate_mixture,
    generate_renewal,
    keyed_sizes,
)
from failsim.restart import (
    PathologicalIterationError,
    first_exceedance,
    mark_iter,
    run_replications,
    run_restart,
    run_restart_iteration,
    simulate_restart_at_points,
)
from failsim.universal import compute_all_kappas


def outcome(fn):
    """The value of ``fn()``, or the kind and point of the error it raises."""
    try:
        return fn()
    except (PathologicalIterationError, ScanCapError) as exc:
        return type(exc).__name__, exc.index


def size_laws():
    return st.one_of(
        st.builds(Exponential, st.floats(1.0, 4.0)),
        st.builds(Pareto, st.floats(0.05, 0.3), st.floats(2.5, 4.0)),
        st.builds(Weibull, st.floats(0.1, 0.5), st.floats(1.0, 2.0)),
    )


def mark_laws():
    return st.one_of(
        st.builds(Exponential, st.floats(0.5, 2.0)),
        st.builds(Pareto, st.floats(0.05, 0.5), st.floats(1.5, 3.0)),
        st.builds(Weibull, st.floats(0.5, 2.0), st.floats(0.5, 1.0)),
    )


caps = st.one_of(st.none(), st.integers(1, 20))
scan_caps = st.one_of(st.just(DEFAULT_SCAN_CAP), st.integers(1, 4))
seeds = st.integers(0, 2**31)
# the scans' own tile, or one so small that tasks span several tiles at
# every batch size (a tile holds one task's batch at least)
tiles = st.sampled_from([restart.SCAN_TILE, 64])


def tractable(law, sizes, limit=1e4):
    """Sizes whose expected attempt count keeps the scalar loop short."""
    return np.asarray(law.tail(sizes), dtype=float) * limit > 1.0


def restart_reference(sizes, points, law, seed, cap):
    failures, actual = [], []
    for size, n in zip(sizes, points):
        stream = rng.CounterStream(seed, 0, rng.DOMAIN_MARK, point=int(n))
        rec = run_restart_iteration(size, mark_iter(law, stream), attempt_cap=cap, n=int(n))
        failures.append(rec.failures)
        actual.append(rec.actual)
    return failures, actual


def chain_reference(window, n_hops, cap, scan_cap):
    records, start = [], 0
    for k in range(n_hops):
        rec, window = run_checkpoint_iteration(window, start, n=k, attempt_cap=cap,
                                               scan_cap=scan_cap)
        records.append(rec)
        start = rec.end_index
    return records


def rows(records):
    """Hops as tuples of every field, so that chains compare exactly, from
    a record array or a list of scalar records; an error tuple passes."""
    if isinstance(records, np.ndarray):
        return records.tolist()
    if isinstance(records, list):
        return [astuple(r) for r in records]
    return records


# -- one cap rule --------------------------------------------------------------


def test_restart_cap_holds_inside_a_batch():
    # the task fails 18 times; the cap is reached inside the second batch
    with pytest.raises(PathologicalIterationError) as exc:
        simulate_restart_at_points([3.0], [2], Exponential(1.0), 5, attempt_cap=10)
    assert exc.value.index == 2
    failures, _, _ = simulate_restart_at_points([3.0], [2], Exponential(1.0), 5,
                                                attempt_cap=19)
    assert failures[0] == 18


def test_kernel_flags_instead_of_raising():
    failures, wasted, win, capped = first_exceedance(
        Exponential(1.0), 5, 0, [2, 2], [3.0, 3.0], 0, attempt_cap=None)
    assert failures.tolist() == [18, 18] and not capped.any()
    failures, wasted, win, capped = first_exceedance(
        Exponential(1.0), 5, 0, [2, 3], [3.0, 0.01], 0, attempt_cap=10)
    assert capped.tolist() == [True, False]
    assert np.isnan(win[0]) and win[1] > 0.01


def test_checkpoint_cap_counts_failures():
    w = generate_renewal(Exponential(1.0), 1, seed=8, mark_law=Exponential(1.0))
    free, _ = run_checkpointing(w, 200, attempt_cap=None)
    cap = 3
    first = next(r for r in free if r.attempts - 1 >= cap)
    assert first.attempts < 16  # the winner lies inside the first batch
    with pytest.raises(PathologicalIterationError) as exc:
        run_checkpointing(w, 200, attempt_cap=cap)
    assert exc.value.index == first.start_index
    with pytest.raises(PathologicalIterationError) as exc:
        run_checkpoint_iteration(w, first.start_index, attempt_cap=cap)
    assert exc.value.index == first.start_index


def test_simulate_hops_cap_names_the_point():
    d, l = Exponential(1.0), Exponential(1.0)
    cap = 4
    start = np.zeros(30, dtype=np.int64)
    expected = None
    for hop in range(3):
        for rep in range(30):
            w = generate_renewal(d, 1, seed=12, replication=rep, mark_law=l)
            rec, _ = run_checkpoint_iteration(w, int(start[rep]), inclusive=hop == 0,
                                              attempt_cap=None)
            if expected is None and rec.attempts - 1 >= cap:
                expected = int(start[rep])
            start[rep] = rec.end_index
        if expected is not None:
            break
    assert expected is not None
    with pytest.raises(PathologicalIterationError) as exc:
        simulate_hops(d, l, 3, seed=12, n_reps=30, attempt_cap=cap)
    assert exc.value.index == expected


def test_skipped_capped_point_does_not_raise():
    # seed 11: the chain jumps over point 5, whose task fails 50 times,
    # while no visited point fails 12 times
    w = generate_renewal(Exponential(1.0), 64, seed=11, mark_law=Exponential(1.0))
    free, _ = run_checkpointing(w, 20, attempt_cap=None)
    assert 5 not in free.start_index
    with pytest.raises(PathologicalIterationError):
        run_checkpoint_iteration(w, 5, attempt_cap=12)
    capped, _ = run_checkpointing(w, 20, attempt_cap=12)
    assert rows(capped) == rows(free)


def test_speculative_points_are_bounded():
    # weibull(1, 0.7) sizes, seed 3: point 7 takes 137,047 attempts, more
    # than a speculative point may, and point 25 (size 24.7, about 5.5e10
    # expected attempts) lies in the first block but past the chain's end
    w = generate_renewal(Weibull(1.0, 0.7), 64, seed=3, mark_law=Exponential(1.0))
    assert 1.0 / Exponential(1.0).tail(w.sizes[25]) > 1e10
    records, _ = run_checkpointing(w, 15, attempt_cap=None)
    assert records[6].attempts == 137_047 and records[-1].end_index == 25
    assert rows(records) == rows(chain_reference(w, 15, None, DEFAULT_SCAN_CAP))


# -- differential: every engine against its scalar reference --------------------


@settings(max_examples=100, deadline=None)
@given(size_laws(), mark_laws(), caps, seeds, tiles)
def test_restart_engine_matches_scalar(d, law, cap, seed, tile):
    sizes = np.asarray(generate_renewal(d, 40, seed, mark_law=law).sizes)
    points = np.arange(40)
    if cap is None:
        keep = tractable(law, sizes)
        sizes, points = sizes[keep], points[keep]
    with mock.patch.object(restart, "SCAN_TILE", tile), \
            mock.patch.object(restart, "APPROX_ATTEMPTS_THRESHOLD", np.inf):
        got = outcome(lambda: simulate_restart_at_points(
            sizes, points, law, seed, attempt_cap=cap)[:2])
    ref = outcome(lambda: restart_reference(sizes, points, law, seed, cap))
    if isinstance(got, tuple) and isinstance(got[0], str):
        assert got == ref
    else:
        assert got[0].tolist() == ref[0]
        assert got[1].tolist() == ref[1]


@settings(max_examples=100, deadline=None)
@given(size_laws(), mark_laws(), caps, scan_caps, seeds, tiles)
def test_checkpoint_chain_matches_scalar(d, law, cap, scan_cap, seed, tile):
    w = generate_renewal(d, 1, seed, mark_law=law)
    with mock.patch.object(restart, "SCAN_TILE", tile):
        got = outcome(lambda: run_checkpointing(w, 15, attempt_cap=cap, scan_cap=scan_cap)[0])
    if cap is None and isinstance(got, np.ndarray):
        sizes = w.extended(got.start_index[-1] + 1).sizes[got.start_index]
        if not tractable(law, sizes).all():
            return
    ref = outcome(lambda: chain_reference(w, 15, cap, scan_cap))
    assert rows(got) == rows(ref)


@settings(max_examples=100, deadline=None)
@given(size_laws(), st.floats(0.5, 2.0), caps, scan_caps, seeds, tiles)
def test_kappas_match_scalar(d, rate, cap, scan_cap, seed, tile):
    law = Exponential(rate)
    w = generate_renewal(d, 41, seed, mark_law=law)
    if cap is None and not tractable(law, w.sizes[:40]).all():
        return
    with mock.patch.object(restart, "SCAN_TILE", tile):
        got = outcome(lambda: compute_all_kappas(w, 40, attempt_cap=cap,
                                                 scan_cap=scan_cap).tolist())
    ref = outcome(lambda: [
        run_checkpoint_iteration(w, n, inclusive=True, attempt_cap=cap,
                                 scan_cap=scan_cap)[0].end_index
        for n in range(40)
    ])
    assert got == ref


# -- long hops: every hop covers tens of points, across the block's end ---------


def short_sizes():
    """Sizes far below exp(1)-like marks, so that each hop covers tens of
    points and the hops near a block's end walk past it."""
    return st.builds(Exponential, st.floats(10.0, 40.0))


near_exp1 = st.floats(0.8, 1.25)
long_scan_caps = st.one_of(st.just(DEFAULT_SCAN_CAP), st.integers(20, 60))


@settings(max_examples=30, deadline=None)
@given(short_sizes(), near_exp1, long_scan_caps, seeds, tiles,
       st.sampled_from([checkpoint.MAX_BLOCK, 200]))
def test_long_hop_chain_matches_scalar(d, rate, scan_cap, seed, tile, block):
    # 120 hops of ~25 points: the chain crosses the first block's 64 points,
    # and, with blocks cut to 200 points, a dozen more block ends
    w = generate_renewal(d, 1, seed, mark_law=Exponential(rate))
    with mock.patch.object(restart, "SCAN_TILE", tile), \
            mock.patch.object(checkpoint, "MAX_BLOCK", block):
        got = outcome(lambda: run_checkpointing(w, 120, attempt_cap=None,
                                                scan_cap=scan_cap)[0])
    assert rows(got) == rows(outcome(lambda: chain_reference(w, 120, None, scan_cap)))


@settings(max_examples=30, deadline=None)
@given(short_sizes(), near_exp1, seeds, tiles)
def test_long_hop_kappas_match_scalar(d, rate, seed, tile):
    # the hops of the last few dozen points walk past the block's end
    w = generate_renewal(d, 1, seed, mark_law=Exponential(rate))
    with mock.patch.object(restart, "SCAN_TILE", tile):
        got = compute_all_kappas(w, 150, attempt_cap=None).tolist()
    assert got == [run_checkpoint_iteration(w, n, inclusive=True, attempt_cap=None)[0].end_index
                   for n in range(150)]


@settings(max_examples=30, deadline=None)
@given(short_sizes(), near_exp1, seeds, tiles)
def test_long_hop_simulate_hops_matches_scalar(d, rate, seed, tile):
    law = Exponential(rate)
    with mock.patch.object(restart, "SCAN_TILE", tile):
        got = simulate_hops(d, law, 4, seed, n_reps=8, attempt_cap=None)
    for rep in range(8):
        w = generate_renewal(d, 1, seed, rep, law)
        last = chain_reference(w, 4, None, DEFAULT_SCAN_CAP)[-1]
        assert (got["end_index"][rep], got["attempts"][rep], got["ideal"][rep],
                got["actual"][rep], got["overshoot"][rep]) == astuple(last)[2:]
        assert got["d_end"][rep] == w.extended(last.end_index + 1).sizes[last.end_index]


# -- each size is hashed once -----------------------------------------------------


@pytest.mark.parametrize("engine", [
    lambda w: compute_all_kappas(w, 25_000),
    lambda w: run_checkpointing(w, 625),
], ids=["compute_all_kappas", "run_checkpointing"])
def test_each_size_is_hashed_once(monkeypatch, engine):
    # a hop's cover walk gathers the sizes its hop map hashed for the block
    # and hashes only the points past the block's end
    keys = []  # the (replication, point) of every size uniform drawn

    def recording(*words, out=None):
        if words[2] == rng.DOMAIN_SIZE:
            rep, point = np.broadcast_arrays(words[1], words[3])
            keys.extend(zip(rep.ravel().tolist(), point.ravel().tolist()))
        return keyed_uniform(*words, out=out)

    w = generate_renewal(Exponential(1.0), 1, 301, mark_law=Exponential(1.0))
    keyed_uniform = rng.keyed_uniform
    monkeypatch.setattr(rng, "keyed_uniform", recording)
    engine(w)
    assert len(keys) <= 1.25 * len(set(keys))


# -- the winners-only mode against the default mode -----------------------------


def lane_mark(law, seed, rep, point, attempt):
    """The mark that attempt ``attempt`` of a lane draws, as the scans take it."""
    u = rng.keyed_uniform(seed, rep, rng.DOMAIN_MARK, point, attempt)
    return float(law.quantile(np.array([u]))[0])


def both_modes(*args, **kwargs):
    default = first_exceedance(*args, **kwargs)
    fast = first_exceedance(*args, **kwargs, winners_only=True)
    assert fast[1] is None
    assert fast[0].tolist() == default[0].tolist()
    assert np.array_equal(fast[2], default[2], equal_nan=True)
    assert fast[3].tolist() == default[3].tolist()
    return default


@settings(max_examples=100, deadline=None)
@given(st.floats(0.5, 2.0), size_laws(), caps, seeds, tiles, st.data())
def test_winners_only_matches_default_mode(rate, d, cap, seed, tile, data):
    law = Exponential(rate)
    n = 30
    points = np.arange(n) * 3
    sizes = keyed_sizes(d, seed, 0, points)
    ints = st.lists(st.integers(0, 40), min_size=n, max_size=n)
    offsets, reps = np.array(data.draw(ints)), np.array(data.draw(ints))
    # some thresholds at one of the first marks a lane draws, or just below
    # it: ties and candidates inside the bound's margin
    for k, (attempt, below) in enumerate(data.draw(st.lists(
            st.tuples(st.integers(0, 12), st.booleans()), min_size=n, max_size=n))):
        if attempt:
            mark = lane_mark(law, seed, reps[k], points[k], offsets[k] + attempt)
            sizes[k] = np.nextafter(mark, 0.0) if below else mark
    if cap is None:
        sizes = np.where(tractable(law, sizes), sizes, 1.0)
    with mock.patch.object(restart, "SCAN_TILE", tile):
        both_modes(law, seed, reps, points, sizes, offsets, cap)


def test_winners_only_tie_rules():
    law = Exponential(1.3)
    first = [lane_mark(law, 9, 0, p, 1) for p in range(20)]
    # a threshold equal to the first mark is not beaten by it
    failures, _, win, _ = both_modes(law, 9, 0, np.arange(20), first, 0, None)
    assert (failures >= 1).all() and (win > first).all()
    # one just below it is
    below = np.nextafter(first, 0.0)
    failures, _, win, _ = both_modes(law, 9, 0, np.arange(20), below, 0, None)
    assert (failures == 0).all() and win.tolist() == first


def test_winners_only_caps_where_the_tail_underflows():
    law = Exponential(2.0)
    sizes = np.array([373.0, 1e6, np.inf])  # 2 * 373 > 745: tail(D) is 0
    assert not law.tail(sizes).any()
    failures, _, win, capped = both_modes(law, 4, 0, np.arange(3), sizes, 0, 5)
    assert capped.all() and np.isnan(win).all() and (failures >= 5).all()


def test_winners_only_needs_exponential_marks():
    for law in (Pareto(0.5, 2.0), Weibull(1.0, 0.7)):
        with pytest.raises(ValueError):
            first_exceedance(law, 1, 0, [0], [1.0], 0, None, winners_only=True)


# -- the mark lanes against the scalar draws -----------------------------------

int64s = st.integers(-2**63, 2**63 - 1)
# the exponential marks' rates that `rng.lane_draws` converts in place
lane_rates = [1.0, 0.5, 0.3, 7.0, 1e-3]


@settings(max_examples=60, deadline=None)
@given(int64s, st.lists(st.tuples(int64s, int64s, st.integers(-2**63, 2**63 - 1 - 2**15)),
                        min_size=1, max_size=6),
       st.sampled_from(["one", "some", "tile"]), st.integers(2, 40), st.booleans(),
       st.sampled_from([None, *lane_rates]))
def test_lane_draws_are_keyed_uniforms(seed, lanes, batch, some, column_major, rate):
    # any int64 words: a lane's replication, point and last attempt drawn,
    # batches of one draw, of a few, and of a whole scan tile, in either
    # tile layout; with a rate, the exponential marks of those uniforms
    reps, points, base = (np.array(c, dtype=np.int64) for c in zip(*lanes))
    m = {"one": 1, "some": some, "tile": restart.SCAN_TILE // len(lanes)}[batch]
    out = np.empty((m, len(lanes))).T if column_major else np.empty((len(lanes), m))
    prefix = rng.lane_prefix(seed, reps, rng.DOMAIN_MARK, points)
    assert rng.lane_draws(prefix, base, out, rate=rate) is out
    want = rng.keyed_uniform(seed, reps[:, None], rng.DOMAIN_MARK, points[:, None],
                             base[:, None] + np.arange(1, m + 1))
    for k in range(len(lanes)):
        for j in {1, m}:
            assert want[k, j - 1] == keyed_uniform_reference(
                seed, int(reps[k]), rng.DOMAIN_MARK, int(points[k]), int(base[k]) + j)
    if rate is not None:
        want = Exponential(rate).quantile(want)
    assert out.tolist() == want.tolist()


def lane_reference(law, seed, rep, point, offset, size, cap):
    """`run_restart_iteration` over attempts offset + 1, offset + 2, ... of
    a mark lane: (failures, wasted, winning mark, capped)."""
    stream = rng.CounterStream(seed, rep, rng.DOMAIN_MARK, point=point, _counter=offset)
    marks = []

    def lane():
        for mark in mark_iter(law, stream):
            marks.append(mark)
            yield mark

    try:
        rec = run_restart_iteration(size, lane(), attempt_cap=cap)
    except PathologicalIterationError:
        return len(marks), None, math.nan, True
    wasted = 0.0
    for mark in marks[:-1]:
        wasted += mark
    assert wasted + size == rec.actual
    return rec.failures, wasted, marks[-1], False


scan_laws = st.one_of(
    st.sampled_from(lane_rates).map(Exponential),
    st.builds(Pareto, st.floats(0.05, 0.5), st.floats(1.5, 3.0)),
    st.builds(Weibull, st.floats(0.5, 2.0), st.floats(0.5, 1.0)),
    st.just(parse_distribution("mix(0.3*exp(2),0.7*pareto(0.5,2.5))")),
)


@settings(max_examples=60, deadline=None)
@given(scan_laws, st.sampled_from([None, 1, 3]), int64s, tiles, st.data())
def test_mark_scan_matches_scalar(law, cap, seed, tile, data):
    # per-task replications and attempt offsets; thresholds at a quantile
    # of the marks (at most 100 attempts expected, so that tasks stop over
    # several rounds), some at one of the first marks a lane draws or just
    # below it
    n = 30
    points = np.array(data.draw(st.lists(int64s, min_size=n, max_size=n)))
    reps = np.array(data.draw(st.lists(int64s, min_size=n, max_size=n)))
    offsets = np.array(data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)))
    sizes = np.array([float(law.quantile(np.array([q]))[0]) for q in data.draw(
        st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))])
    for k, attempt in enumerate(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))):
        if attempt:
            u = rng.keyed_uniform(seed, reps[k], rng.DOMAIN_MARK, points[k], offsets[k] + attempt)
            mark = float(law.quantile(np.array([u]))[0])
            sizes[k] = np.nextafter(mark, 0.0) if attempt % 2 else mark
    with mock.patch.object(restart, "SCAN_TILE", tile):
        failures, wasted, win, capped = first_exceedance(law, seed, reps, points, sizes, offsets,
                                                         cap)
        if isinstance(law, Exponential):
            both_modes(law, seed, reps, points, sizes, offsets, cap)
    for k in range(n):
        ref = lane_reference(law, seed, int(reps[k]), int(points[k]), int(offsets[k]), sizes[k],
                             cap)
        assert (failures[k], capped[k]) == (ref[0], ref[3])
        if capped[k]:
            assert np.isnan(win[k])
        else:
            assert (wasted[k], win[k]) == ref[1:3]


# -- memory: the scans hold one tile of draws at a time -------------------------


def keyed_uniform_reference(*words):
    """`rng.keyed_uniform` of integer words, in Python integers."""
    mask = 2**64 - 1

    def mix(x):
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & mask
        x = (x ^ x >> 27) * 0x94D049BB133111EB & mask
        return x ^ x >> 31

    h, phi = 0x8C5FDB8E3A1D4E27, 0x9E3779B97F4A7C15
    for w in words:
        h = mix((h + phi & mask) ^ ((w & mask) * 0xBF58476D1CE4E5B9 + phi & mask))
    return ((h >> 11) + 0.5) * 2.0**-53


def word_forms(w):
    """One key word as each type a caller may pass it as."""
    return [w, np.int64(w), np.array(w), np.array([w])]


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(-5, 5), st.integers(1, 30), st.integers(1, 40),
       st.integers(-2**40, 2**40), st.integers(0, 3), st.integers(0, 3))
def test_keyed_uniform_into_a_buffer_is_the_same_draw(seed, rep, rows, cols, base, seed_form,
                                                      rep_form):
    points = np.arange(rows)[:, None] * 7 - 3
    attempts = base + np.arange(rows * cols).reshape(rows, cols)
    want = [[keyed_uniform_reference(seed, rep, rng.DOMAIN_MARK, int(p[0]), int(a))
             for a in row] for p, row in zip(points, attempts)]
    out = np.empty((rows, cols))
    # the leading words as Python ints, numpy scalars, 0-d or one-element
    # arrays: each is hashed in Python integers, to the same bits
    lead = word_forms(seed)[seed_form], word_forms(rep)[rep_form]
    got = rng.keyed_uniform(*lead, rng.DOMAIN_MARK, points, attempts, out=out)
    assert got is out and got.tolist() == want
    assert rng.keyed_uniform(seed, rep, rng.DOMAIN_MARK, points, attempts).tolist() == want
    # a column-major buffer takes the same draws
    out_f = np.empty((cols, rows)).T
    got = rng.keyed_uniform(*lead, rng.DOMAIN_MARK, points, attempts, out=out_f)
    assert got is out_f and got.tolist() == want
    scalar = rng.keyed_uniform(seed, rep, rng.DOMAIN_MARK, int(points[0, 0]), base)
    assert np.ndim(scalar) == 0 and scalar == want[0][0]
    assert rng.keyed_uniform(1, 2, 3, 4, 5) == 0.29599997020201946  # the hash is pinned


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=5), st.data())
def test_keyed_uniform_of_every_word_type(words, data):
    # negative words included; a word after an array word is hashed in numpy
    want = keyed_uniform_reference(*words)
    forms = [data.draw(st.sampled_from(word_forms(w))) for w in words]
    assert float(np.ravel(rng.keyed_uniform(*forms))[0]) == want
    if len(words) > 1:
        arrays = [np.array([w, w]) if k == 0 else f for k, (w, f) in enumerate(zip(words, forms))]
        assert rng.keyed_uniform(*arrays).tolist() == [want, want]


@pytest.mark.parametrize("word", [2**63, -2**63 - 1, 2**64])
@pytest.mark.parametrize("place", [0, 1, 2])
def test_keyed_uniform_refuses_words_outside_int64(word, place):
    words = [1, 2, 3]
    words[place] = word
    with pytest.raises(OverflowError):
        rng.keyed_uniform(*words)
    with pytest.raises(OverflowError):  # after an array word
        rng.keyed_uniform(np.arange(3), *words)


def record_draws(monkeypatch, record):
    """Call ``record(u)`` on the buffer of every batch of draws the scans
    make: mark lanes through `rng.lane_draws`, sizes through
    `rng.keyed_uniform`."""
    keyed_uniform, lane_draws = rng.keyed_uniform, rng.lane_draws

    def keyed(*words, out=None):
        u = keyed_uniform(*words, out=out)
        record(u)
        return u

    def lanes(*args, **kwargs):
        u = lane_draws(*args, **kwargs)
        record(u)
        return u

    monkeypatch.setattr(rng, "keyed_uniform", keyed)
    monkeypatch.setattr(rng, "lane_draws", lanes)


def test_scans_draw_at_most_one_tile_per_call(monkeypatch):
    n = 10**5
    d, law = Exponential(2.0), Exponential(1.0)
    points = np.arange(n)
    sizes = keyed_sizes(d, 7, 0, points)
    drawn = []
    record_draws(monkeypatch, lambda u: drawn.append(u.size))
    failures, _, win, _ = first_exceedance(law, 7, 0, points, sizes, 0, None)
    marks = len(drawn)
    covered_checkpoints(d, 7, 0, points, sizes, win, True)
    assert marks and len(drawn) > marks
    assert sum(drawn[:marks]) >= np.sum(failures + 1)
    assert max(drawn) <= restart.SCAN_TILE


def test_lone_straggler_draws_whole_tiles(monkeypatch):
    # a lone task's batch keeps doubling, up to one tile
    drawn = []
    record_draws(monkeypatch, lambda out: drawn.append(np.size(out)))
    failures, _, _, capped = first_exceedance(Exponential(1.0), 5, 0, [3], [50.0], 0, 10**5)
    assert capped[0] and failures[0] == sum(drawn)
    assert drawn[:4] == [8, 16, 32, 64] and max(drawn) == restart.SCAN_TILE


def test_crowded_scan_keeps_its_first_batch(monkeypatch):
    # 10**4 tasks that never win share a tile at 3 draws each, so the batch
    # never grows past the first 8 before the cap of 64 stops them all
    widths = []
    record_draws(monkeypatch, lambda out: widths.append(out.shape[1]))
    n = 10**4
    failures, _, _, capped = first_exceedance(Exponential(1.0), 5, 0, np.arange(n),
                                              np.full(n, np.inf), 0, 64)
    assert capped.all() and (failures == 64).all()
    assert set(widths) == {8}


@pytest.mark.parametrize("winners_only", [False, True])
def test_capped_scans_stop_at_the_cap(monkeypatch, winners_only):
    # every active task of a scan has drawn as many values as the others, so
    # its last batch is cut to what is left of the cap: a lone exp(1) task
    # that cannot beat 50 draws exactly 10**6 marks, and a winning mark of
    # inf covers exactly scan_cap checkpoints before it is flagged
    drawn = []
    record_draws(monkeypatch, lambda out: drawn.append(np.size(out)))
    failures, _, win, capped = first_exceedance(Exponential(1.0), 5, 0, [3], [50.0], 0,
                                                10**6, winners_only=winners_only)
    assert capped[0] and np.isnan(win[0])
    assert failures[0] == 10**6 and sum(drawn) == 10**6
    drawn.clear()
    end, _, capped = covered_checkpoints(Exponential(1.0), 5, 0, [3], [1.0], np.array([np.inf]),
                                         False, 1000)
    assert capped[0] and end[0] == 3 + 1 + 1000 and sum(drawn) == 1000


# -- replications share one scan ------------------------------------------------


def raised(fn):
    """The value of ``fn()``, or the kind and message of the engine error it raises."""
    try:
        return fn()
    except (PathologicalIterationError, ScanCapError) as exc:
        return type(exc).__name__, str(exc)


def same_runs(batched, alone):
    """Record arrays equal row for row, or the same error."""
    if isinstance(alone, tuple):
        assert batched == alone
    else:
        assert [rows(r) for r in batched] == [rows(r) for r in alone]


def restart_windows(kind, d, law, seed, n_reps):
    """``n_reps`` windows of one kind: renewal, a mixture whose regimes
    differ between replications, or Markov with the pair mark laws one
    object, equal objects, or different laws."""
    if kind == "renewal":
        return [generate_renewal(d, 1, seed, rep, law) for rep in range(n_reps)]
    if kind == "mixture":
        return [generate_mixture(d, law, Exponential(0.5), 0.5, seed, rep)
                for rep in range(n_reps)]
    other = {"markov-shared": law, "markov-equal": replace(law),
             "markov-distinct": Exponential(2.0)}[kind]
    spec = MarkovRenewalSpec(
        states=("a", "b"), transition=np.array([[0.3, 0.7], [0.6, 0.4]]),
        size_laws={(i, j): d for i in range(2) for j in range(2)},
        mark_laws={(0, 0): law, (0, 1): other, (1, 0): law, (1, 1): other},
    )
    return [generate_markov_renewal(spec, 40, seed, rep) for rep in range(n_reps)]


window_kinds = st.sampled_from(["renewal", "mixture", "markov-shared", "markov-equal",
                                "markov-distinct"])


@settings(max_examples=60, deadline=None)
@given(window_kinds, size_laws(), mark_laws(), st.sampled_from([None, 3, 8, 20]), seeds,
       st.integers(1, 5), tiles)
def test_replications_share_a_restart_scan(kind, d, law, cap, seed, n_reps, tile):
    windows = restart_windows(kind, d, law, seed, n_reps)
    assume(kind != "mixture" or {w.regime for w in windows} == {0, 1})
    if cap is None and not all(tractable(l, w.extended(40).sizes[:40]).all()
                               for w in windows for l in w.mark_laws):
        return
    with mock.patch.object(restart, "SCAN_TILE", tile):
        batched = raised(lambda: run_replications(windows, 40, attempt_cap=cap))
        alone = raised(lambda: [run_restart(w, 40, attempt_cap=cap) for w in windows])
    same_runs(batched, alone)


@settings(max_examples=60, deadline=None)
@given(size_laws(), mark_laws(), caps, scan_caps, seeds, st.integers(1, 4), tiles,
       st.sampled_from([checkpoint.MAX_BLOCK, 200, 3]))
def test_chains_move_in_lockstep(d, law, cap, scan_cap, seed, n_reps, tile, block):
    windows = [generate_renewal(d, 1, seed, rep, law) for rep in range(n_reps)]
    with mock.patch.object(restart, "SCAN_TILE", tile), \
            mock.patch.object(checkpoint, "MAX_BLOCK", block):
        alone = raised(lambda: [run_checkpointing(w, 15, attempt_cap=cap,
                                                  scan_cap=scan_cap)[0] for w in windows])
        if cap is None and not isinstance(alone, tuple):
            sizes = [w.extended(r.start_index[-1] + 1).sizes[r.start_index]
                     for w, r in zip(windows, alone)]
            if not all(tractable(law, s).all() for s in sizes):
                return
        batched = raised(lambda: run_chains(windows, 15, attempt_cap=cap, scan_cap=scan_cap))
    same_runs(batched, alone)


def test_mixture_raises_the_first_replications_error():
    # seed 1, regimes 1, 0, 0, 1, 1, 1: the first law's scan (exp(0.5), the
    # regime of replication 0) first caps replication 3 at point 44, the
    # second's caps replication 1 at point 8, and replication 1 comes first
    windows = restart_windows("mixture", Exponential(1.0), Exponential(1.0), 1, 6)
    assert [w.regime for w in windows] == [1, 0, 0, 1, 1, 1]
    errors = [raised(lambda: run_restart(w, 60, attempt_cap=15)) for w in windows]
    assert [e[1] for e in errors if isinstance(e, tuple)] == [
        "pathological iteration at index 8: attempt cap 15 exceeded",
        "pathological iteration at index 6: attempt cap 15 exceeded",
        "pathological iteration at index 44: attempt cap 15 exceeded",
    ]
    with pytest.raises(PathologicalIterationError, match="index 8:"):
        run_replications(windows, 60, attempt_cap=15)


@pytest.mark.parametrize("caps, first", [
    ((8, DEFAULT_SCAN_CAP), "pathological iteration at index 9: attempt cap 8 exceeded"),
    ((None, 2), None),
])
def test_lockstep_chains_raise_the_first_chains_error(caps, first):
    # seed 3: chains 0, 1 and 2 reach an attempt cap of 8 at points 9, 1
    # and 20; chain 1 gets there in fewer hops than chain 0
    windows = [generate_renewal(Exponential(1.0), 1, 3, rep, Exponential(1.0))
               for rep in range(3)]
    alone = [raised(lambda: run_checkpointing(w, 300, *caps)[0]) for w in windows]
    errors = [a for a in alone if isinstance(a, tuple)]
    assert len(errors) >= 2
    assert first is None or errors[0][1] == first
    assert raised(lambda: run_chains(windows, 300, *caps)) == errors[0]


# -- both tile layouts against the scalar references ----------------------------


def scan_tiles(monkeypatch):
    """Record, scan by scan, the (rows, columns) of every tile the scans
    hand their steps."""
    scans = []
    scan_rounds = restart.scan_rounds

    def recording(n, first_batch, cap, step, state, results):
        tiles = []
        scans.append(tiles)

        def recorded(tasks, keys, u, flags):
            tiles.append(u.shape)
            return step(tasks, keys, u, flags)
        return scan_rounds(n, first_batch, cap, recorded, state, results)

    monkeypatch.setattr(restart, "scan_rounds", recording)
    monkeypatch.setattr(checkpoint, "scan_rounds", recording)
    return scans


def both_layouts(tiles):
    """Whether some tiles were narrow (rows >= columns, walked column by
    column) and some wide."""
    return {rows >= cols for rows, cols in tiles} == {True, False}


@pytest.mark.parametrize("tile", [64, 512, restart.SCAN_TILE])
@pytest.mark.parametrize("seed", [5, 6])
def test_narrow_and_wide_tiles_match_scalar(monkeypatch, tile, seed):
    # weibull(0.3, 0.6) sizes against exp(1) marks: most tasks win in their
    # first batch and a few draw hundreds of marks; exp(8) sizes make hops
    # of about eight points, a few of dozens
    monkeypatch.setattr(restart, "SCAN_TILE", tile)
    scans = scan_tiles(monkeypatch)
    law = Exponential(1.0)
    sizes = generate_renewal(Weibull(0.3, 0.6), 300, seed, mark_law=law).sizes
    points = np.flatnonzero(tractable(law, sizes))
    sizes = sizes[points]
    failures, actual, _ = simulate_restart_at_points(sizes, points, law, seed,
                                                     attempt_cap=None)
    assert both_layouts(scans[-1])
    assert (failures.tolist(), actual.tolist()) == restart_reference(sizes, points, law, seed,
                                                                     None)
    both_modes(law, seed, 0, points, sizes, 0, None)
    assert both_layouts(scans[-1])  # the winners-only scan
    w = generate_renewal(Exponential(8.0), 1, seed, mark_law=law)
    kappa = compute_all_kappas(w, 300, attempt_cap=None)
    assert both_layouts(scans[-1])  # the cover walk
    assert kappa.tolist() == [run_checkpoint_iteration(w, n, inclusive=True,
                                                       attempt_cap=None)[0].end_index
                              for n in range(300)]
