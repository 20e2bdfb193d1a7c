import numpy as np
import pytest

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
    generate_markov_renewal,
    generate_mixture,
    generate_renewal,
    keyed_sizes,
)


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


def test_size_at_matches_keyed_sizes_in_bulk():
    # two-sided sizes of a Pareto window, one at a time and all at once
    w = generate_renewal(Pareto(1.0, 2.0), 1, seed=3)
    idx = np.arange(-2000, 0)
    bulk = keyed_sizes(w.size_law, 3, 0, idx)
    assert [w.size_at(int(i)) for i in idx] == bulk.tolist()


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
        assert w.mark_law_for(0) is (l0 if w.regime == 0 else l1)


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


def test_n_points_must_be_positive():
    with pytest.raises(ProcessError):
        generate_renewal(Exponential(1.0), 0, seed=1)
