from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failsim import procgen, rng
from failsim.checkpoint import run_checkpoint_iteration, run_checkpointing
from failsim.dist import (
    BoundedSupportError,
    Deterministic,
    Exponential,
    NonIntegrableError,
    Pareto,
    Weibull,
)
from failsim.procgen import (
    MarkovRenewalSpec,
    ProcessError,
    cumulative_law,
    generate_markov_renewal,
    generate_mixture,
    generate_renewal,
    keyed_sizes,
    markov_states,
)
from failsim.restart import run_restart
from failsim.rwalk import simulate_walk_restart
from failsim.universal import compute_all_kappas


def test_renewal_window_basic():
    w = generate_renewal(Exponential(2.0), 1000, seed=3, mark_law=Exponential(1.0))
    assert w.n_points == 1000
    sizes = np.asarray(w.sizes)
    assert np.all(sizes > 0)
    # points start at the origin and increase by the sizes
    pts = np.asarray(w.points)
    assert pts[0] == 0.0
    assert np.allclose(np.diff(pts), sizes[: len(pts) - 1])


def test_renewal_reproducible():
    a = generate_renewal(Exponential(1.0), 500, seed=9)
    b = generate_renewal(Exponential(1.0), 500, seed=9)
    assert np.array_equal(np.asarray(a.sizes), np.asarray(b.sizes))
    c = generate_renewal(Exponential(1.0), 500, seed=10)
    assert not np.array_equal(np.asarray(a.sizes), np.asarray(c.sizes))


def test_renewal_replications_differ():
    a = generate_renewal(Exponential(1.0), 500, seed=9, replication=0)
    b = generate_renewal(Exponential(1.0), 500, seed=9, replication=1)
    assert not np.array_equal(np.asarray(a.sizes), np.asarray(b.sizes))


def test_extended_is_prefix_stable():
    w = generate_renewal(Weibull(1.0, 2.0), 100, seed=4)
    big = w.extended(400)
    assert big.n_points >= 400
    assert np.array_equal(np.asarray(big.sizes)[:100], np.asarray(w.sizes))


def test_renewal_windows_draw_no_size(monkeypatch):
    # a renewal window is its keys: generating or extending one hashes
    # nothing, and its sizes are hashed when they are read
    drawn = []

    def recording(*words, out=None):
        drawn.append(words[2])
        return keyed_uniform(*words, out=out)

    keyed_uniform = rng.keyed_uniform
    monkeypatch.setattr(rng, "keyed_uniform", recording)
    d, law = Exponential(1.0), Exponential(1.0)
    w = generate_renewal(d, 10**6, 301, mark_law=law)
    big = w.extended(2 * 10**6)
    mix = generate_mixture(d, law, Exponential(0.5), 0.5, 301).extended(10**6)
    assert rng.DOMAIN_SIZE not in drawn
    assert "sizes" not in {f.name for f in fields(procgen.MarkedWindow)}
    assert big.n_points == 2 * 10**6 and mix.n_points == 10**6
    assert big.sizes[:10**6].tolist() == w.sizes.tolist()
    assert drawn.count(rng.DOMAIN_SIZE) == 2


def test_keyed_sizes_one_at_a_time_match_bulk():
    # two-sided sizes of a Pareto law, one index at a time and all at once
    d = Pareto(1.0, 2.0)
    idx = np.arange(-2000, 0)
    bulk = keyed_sizes(d, 3, 0, idx)
    assert [float(keyed_sizes(d, 3, 0, [i])[0]) for i in idx] == bulk.tolist()


def test_renewal_empirical_mean():
    d = Exponential(0.5)
    w = generate_renewal(d, 200_000, seed=11)
    sizes = np.asarray(w.sizes)
    se = sizes.std() / np.sqrt(len(sizes))
    assert abs(sizes.mean() - d.mean()) < 4 * se


def test_mixture_regime_frequency():
    regimes = [
        generate_mixture(
            Exponential(1.0), Exponential(1.0), Exponential(0.5), 0.3,
            seed=21, replication=r,
        ).regime
        for r in range(2000)
    ]
    freq0 = np.mean(np.asarray(regimes) == 0)
    assert abs(freq0 - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 2000)


def test_mixture_mark_law_follows_regime():
    l0, l1 = Exponential(1.0), Exponential(0.5)
    for r in range(6):
        w = generate_mixture(Exponential(1.0), l0, l1, 0.5, seed=2, replication=r)
        assert w.mark_laws[0] is (l0 if w.regime == 0 else l1)


def test_mixture_window_is_its_regimes_renewal_window():
    d, l0, l1 = Exponential(1.0), Exponential(1.0), Exponential(0.5)
    regimes = set()
    for rep in range(6):
        mix = generate_mixture(d, l0, l1, 0.5, seed=19, replication=rep)
        law = l0 if mix.regime == 0 else l1
        plain = generate_renewal(d, 1, 19, rep, law)
        regimes.add(mix.regime)
        assert mix.sizes.tolist() == plain.sizes.tolist()
        assert mix.mark_laws == (law,) and mix.law_index is None and mix.mrp_spec is None
        big = mix.extended(500)
        assert big.sizes.tolist() == plain.extended(500).sizes.tolist()
        assert big.mark_laws == (law,) and big.regime == mix.regime
        assert run_restart(mix, 500).tolist() == run_restart(plain, 500).tolist()
        assert (run_checkpointing(mix, 100)[0].tolist()
                == run_checkpointing(plain, 100)[0].tolist())
        assert compute_all_kappas(mix, 200).tolist() == compute_all_kappas(plain, 200).tolist()
    assert regimes == {0, 1}


@pytest.mark.parametrize("engine", [
    lambda w: run_checkpointing(w, 10),
    lambda w: simulate_walk_restart(w, 0.25, 10),
    lambda w: compute_all_kappas(w, 10),
    lambda w: run_checkpoint_iteration(w, 0),
], ids=["run_checkpointing", "simulate_walk_restart", "compute_all_kappas",
        "run_checkpoint_iteration"])
def test_engines_refuse_a_markov_window(engine):
    w = generate_markov_renewal(alternating_spec(), 20, seed=3)
    with pytest.raises(ValueError, match="renewal"):
        engine(w)


def alternating_spec():
    return MarkovRenewalSpec(
        states=("a", "b"),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        size_laws={(0, 1): Exponential(2.0), (1, 0): Exponential(3.0)},
        mark_laws={(0, 1): Exponential(1.0), (1, 0): Exponential(1.0)},
    )


def test_mrp_stationary_alternating():
    pi = alternating_spec().stationary()
    assert pi.tolist() == [0.5, 0.5]


def test_mrp_stationary_periodic_chain():
    # period 2: pi P^n never settles, so only a direct solve finds pi
    p = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    laws = {(i, j): Exponential(2.0) for i in range(3) for j in range(3) if p[i, j] > 0}
    spec = MarkovRenewalSpec(
        states=("x", "y", "z"), transition=p, size_laws=laws,
        mark_laws={k: Exponential(1.0) for k in laws},
    )
    assert np.allclose(spec.stationary(), [0.25, 0.5, 0.25], rtol=0, atol=1e-15)


def test_mrp_stationary_fixed_point():
    p = np.array([[0.1, 0.9, 0.0], [0.3, 0.2, 0.5], [0.5, 0.0, 0.5]])
    laws = {(i, j): Exponential(2.0) for i in range(3) for j in range(3) if p[i, j] > 0}
    marks = {k: Exponential(1.0) for k in laws}
    spec = MarkovRenewalSpec(
        states=("x", "y", "z"), transition=p, size_laws=laws, mark_laws=marks
    )
    pi = spec.stationary()
    assert np.allclose(pi @ p, pi, atol=1e-10)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_mrp_rejects_bad_rows():
    with pytest.raises(ProcessError):
        MarkovRenewalSpec(
            states=("a", "b"),
            transition=np.array([[0.5, 0.4], [1.0, 0.0]]),
            size_laws={(0, 0): Exponential(1.0)},
            mark_laws={(0, 0): Exponential(1.0)},
        )


def test_mrp_rejects_reducible_chain():
    with pytest.raises(ProcessError):
        MarkovRenewalSpec(
            states=("a", "b"),
            transition=np.eye(2),
            size_laws={(0, 0): Exponential(1.0), (1, 1): Exponential(1.0)},
            mark_laws={(0, 0): Exponential(1.0), (1, 1): Exponential(1.0)},
        )


def test_mrp_rejects_bounded_law():
    with pytest.raises(BoundedSupportError):
        MarkovRenewalSpec(
            states=("a", "b"),
            transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
            size_laws={(0, 1): Deterministic(1.0), (1, 0): Exponential(1.0)},
            mark_laws={(0, 1): Exponential(1.0), (1, 0): Exponential(1.0)},
        )


def test_mrp_rejects_nonintegrable_law():
    with pytest.raises(NonIntegrableError):
        MarkovRenewalSpec(
            states=("a", "b"),
            transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
            size_laws={(0, 1): Pareto(1.0, 0.8), (1, 0): Exponential(1.0)},
            mark_laws={(0, 1): Exponential(1.0), (1, 0): Exponential(1.0)},
        )


def test_markov_window_alternates_states():
    w = generate_markov_renewal(alternating_spec(), 1000, seed=6)
    states = np.asarray(w.state_labels)
    assert set(states.tolist()) <= {0, 1}
    # deterministic alternation for this chain
    assert np.all(states[:-1] != states[1:])


def test_markov_law_index_matches_transition():
    spec = alternating_spec()
    w = generate_markov_renewal(spec, 500, seed=6)
    pairs = spec.transition_pairs()
    for n in range(20):
        i, j = pairs[w.law_index[n]]
        assert i == w.state_labels[n]  # source state at point n


def test_markov_empirical_occupancy():
    p = np.array([[0.2, 0.8], [0.6, 0.4]])
    laws = {(i, j): Exponential(1.0) for i in range(2) for j in range(2)}
    spec = MarkovRenewalSpec(
        states=("a", "b"), transition=p,
        size_laws=laws, mark_laws={k: Exponential(0.5) for k in laws},
    )
    pi = spec.stationary()
    w = generate_markov_renewal(spec, 50_000, seed=8)
    freq0 = np.mean(np.asarray(w.state_labels) == 0)
    assert abs(freq0 - pi[0]) < 0.01


# -- the Markov state walk against the per-point loop it replaced --------------


def reference_walk(spec, n_points, seed, replication=0):
    """States and law indices of a Markov renewal window, one point at a time."""
    init = spec.initial if spec.initial is not None else spec.stationary()
    cum_init = np.cumsum(init)
    cum_rows = np.cumsum(spec.transition, axis=1)
    us = rng.keyed_uniform(seed, replication, rng.DOMAIN_STATE, np.arange(0, n_points + 1))
    states = np.empty(n_points + 1, dtype=np.intp)
    states[0] = int(np.searchsorted(cum_init, us[0], side="right"))
    for n in range(1, n_points + 1):
        states[n] = int(np.searchsorted(cum_rows[states[n - 1]], us[n], side="right"))
    pair_id = {pr: t for t, pr in enumerate(spec.transition_pairs())}
    law_index = [pair_id[(int(states[n]), int(states[n + 1]))] for n in range(n_points)]
    return states.tolist(), law_index


def chain_spec(weights, initial=None):
    """A spec on integer transition weights, exp laws on every reachable pair."""
    w = np.asarray(weights, dtype=float)
    p = w / w.sum(axis=1, keepdims=True)
    laws = {(int(i), int(j)): Exponential(1.0 + i + j) for i, j in zip(*np.nonzero(p))}
    if initial is not None:
        initial = np.asarray(initial, dtype=float) / sum(initial)
    return MarkovRenewalSpec(
        states=tuple(f"s{i}" for i in range(len(p))), transition=p,
        size_laws=laws, mark_laws={pr: Exponential(0.5) for pr in laws}, initial=initial,
    )


@st.composite
def chains(draw):
    """Irreducible chains on 1-4 states: a cycle through every state (alone
    it is periodic) plus random extra weights, many of them zero."""
    k = draw(st.integers(1, 4))
    w = np.zeros((k, k), dtype=int)
    for i in range(k):
        w[i, (i + 1) % k] = draw(st.integers(1, 3))
    if not draw(st.booleans()):
        w += np.array(draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=k * k,
                                    max_size=k * k))).reshape(k, k)
    initial = draw(st.none() | st.lists(st.integers(0, 3), min_size=k, max_size=k)
                   .filter(lambda ws: sum(ws) > 0))
    return chain_spec(w, initial)


@settings(max_examples=150, deadline=None)
@given(chains(), st.integers(1, 120), st.integers(0, 2**32 - 1), st.integers(0, 3),
       st.sampled_from([procgen.SCAN_TILE, 16, 5, 1]))
def test_markov_walk_matches_per_point_loop(spec, n, seed, replication, tile):
    # small tiles put many tile boundaries inside the window
    with mock.patch.object(procgen, "SCAN_TILE", tile):
        w = generate_markov_renewal(spec, n, seed, replication)
    states, law_index = reference_walk(spec, n, seed, replication)
    assert w.state_labels.tolist() == states[:-1]
    assert w.law_index.tolist() == law_index
    pairs = spec.transition_pairs()
    assert [pairs[t] for t in w.law_index] == list(zip(states[:-1], states[1:]))


@pytest.mark.parametrize("weights", [
    [[0, 1], [1, 0]],
    [[1, 2, 0], [1, 0, 1], [3, 1, 1]],
    [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
], ids=["alternating", "dense", "periodic"])
def test_markov_walk_crosses_full_tiles(weights):
    # 40,000 points span three or four tiles of SCAN_TILE table entries
    spec = chain_spec(weights)
    w = generate_markov_renewal(spec, 40_000, seed=5, replication=1)
    states, law_index = reference_walk(spec, 40_000, seed=5, replication=1)
    assert w.state_labels.tolist() == states[:-1]
    assert w.law_index.tolist() == law_index


def test_cumulative_law_is_cumsum_below_the_last_positive_state():
    p = np.array([[0.3, 0.7, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5 - 1e-13, 0.0]])
    cum = cumulative_law(p)
    assert cum[:, 0].tolist() == [0.3, 0.0, 0.5]
    assert cum[1, 1] == 0.0
    assert np.isinf(cum[[0, 0, 1, 2, 2], [1, 2, 2, 1, 2]]).all()
    assert cumulative_law(np.array([0.25, 0.75])).tolist() == [0.25, np.inf]


def test_markov_walk_is_total_at_the_top_of_a_row():
    # rows and laws are accepted up to 1e-12 off 1; a uniform at or above a
    # row's last cumulative sum selects its last state of positive
    # probability, never a zero-probability state or index k
    spec = chain_spec([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    p = spec.transition.copy()
    p[0] = [0.5, 0.5 - 1e-13, 0.0]
    p[2] = [0.0, 0.25, 0.75 - 1e-13]
    spec = MarkovRenewalSpec(spec.states, p, spec.size_laws, spec.mark_laws,
                             initial=np.array([0.6, 0.4 - 1e-13, 0.0]))
    top = 1.0 - 1e-14
    cum_init, cum_rows = cumulative_law(spec.initial), cumulative_law(spec.transition)
    states = markov_states(cum_init, cum_rows, np.array([top, top, top, 0.1, top, top]))
    assert states.tolist() == [1, 2, 2, 1, 2, 2]
    states = markov_states(cum_init, cum_rows, np.array([0.1, 0.5 - 1e-15, top, 0.0]))
    assert states.tolist() == [0, 0, 1, 0]
    # the same uniforms, read from the keyed stream, through the generator
    chosen = np.array([top, top, top, 0.1, top, top])
    with mock.patch.object(rng, "keyed_uniform", side_effect=[chosen, np.full(5, 0.5)]):
        w = generate_markov_renewal(spec, 5, seed=1)
    assert w.state_labels.tolist() == [1, 2, 2, 1, 2]
    assert [spec.transition_pairs()[t] for t in w.law_index] == [
        (1, 2), (2, 2), (2, 1), (1, 2), (2, 2)]


def test_n_points_must_be_positive():
    with pytest.raises(ProcessError):
        generate_renewal(Exponential(1.0), 0, seed=1)
