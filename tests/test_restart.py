import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failsim import restart
from failsim.analytic import TimeClass, expected_restart_time
from failsim.dist import Exponential, Weibull
from failsim.procgen import MarkovRenewalSpec, generate_renewal
from failsim.restart import (
    PathologicalIterationError,
    efficiency,
    efficiency_from_sums,
    mrp_efficiency,
    run_restart,
    run_restart_iteration,
    simulate_restart_at_points,
)


def test_single_iteration_counts_failures():
    rec = run_restart_iteration(2.0, iter([1.0, 0.5, 3.0]))
    assert rec.failures == 2
    assert rec.ideal == 2.0
    assert rec.actual == pytest.approx(1.0 + 0.5 + 2.0)


def test_single_iteration_tie_is_failure():
    # a mark equal to the size does not complete the task
    rec = run_restart_iteration(2.0, iter([2.0, 2.5]))
    assert rec.failures == 1
    assert rec.actual == pytest.approx(2.0 + 2.0)


def test_single_iteration_attempt_cap():
    with pytest.raises(PathologicalIterationError):
        run_restart_iteration(2.0, iter([1.0] * 100), attempt_cap=10)


def test_records_actual_dominates_ideal():
    w = generate_renewal(Exponential(2.0), 2000, seed=1, mark_law=Exponential(1.0))
    recs = run_restart(w, 2000)
    assert len(recs) == 2000
    assert recs.n.tolist() == list(range(2000))
    assert np.all(recs.actual >= recs.ideal) and np.all(recs.ideal > 0)
    assert np.all(recs.failures >= 0)


def test_run_restart_checks_actual_against_ideal(monkeypatch):
    def too_fast(sizes, points, law, seed, replication, **kw):
        n = len(sizes)
        return np.zeros(n), 0.5 * np.asarray(sizes), np.zeros(n, dtype=bool)

    monkeypatch.setattr(restart, "simulate_restart_at_points", too_fast)
    w = generate_renewal(Exponential(2.0), 10, seed=1, mark_law=Exponential(1.0))
    with pytest.raises(ValueError, match="below ideal"):
        run_restart(w, 10)


def test_run_restart_reproducible():
    w = generate_renewal(Exponential(2.0), 500, seed=3, mark_law=Exponential(1.0))
    a = run_restart(w, 500)
    b = run_restart(w, 500)
    assert a.tolist() == b.tolist()


def test_approximation_path_matches_exact_in_mean(monkeypatch):
    # same tasks through the exact scan and the heavy-task shortcut
    sizes = np.full(20_000, 6.0)
    law = Exponential(1.0)
    points = np.arange(len(sizes))
    monkeypatch.setattr(restart, "APPROX_ATTEMPTS_THRESHOLD", np.inf)
    _, act_exact, flag_exact = simulate_restart_at_points(sizes, points, law, seed=12)
    monkeypatch.setattr(restart, "APPROX_ATTEMPTS_THRESHOLD", 1.0)
    _, act_approx, flag_approx = simulate_restart_at_points(sizes, points, law, seed=12)
    se = act_exact.std() / math.sqrt(len(sizes))
    assert abs(act_exact.mean() - act_approx.mean()) < 4 * se
    assert flag_approx.all()
    assert not flag_exact.any()


def test_monte_carlo_mean_matches_analytic():
    w = generate_renewal(Exponential(2.0), 100_000, seed=7, mark_law=Exponential(1.0))
    actual = run_restart(w, 100_000).actual
    se = actual.std() / math.sqrt(len(actual))
    assert abs(actual.mean() - 1.0) < 3 * se  # E[T] = 1/(2-1)


def test_efficiency_all_ideal():
    est = efficiency_from_sums(np.ones(100), np.ones(100))
    assert est.ratio == 1.0
    assert est.trend == "Stable"
    assert est.converged


def test_efficiency_trend_classification():
    n = 1000
    ideal = np.ones(n)
    est = efficiency_from_sums(ideal, np.arange(1, n + 1, dtype=float) ** 0.5)
    assert est.trend == "Decreasing"
    est = efficiency_from_sums(np.arange(1, n + 1, dtype=float) ** 0.5, np.ones(n) * 5)
    assert est.trend == "Increasing"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=50),
       st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=50, max_size=50))
def test_efficiency_in_unit_interval(ideal, extra):
    ideal = np.asarray(ideal)
    actual = ideal + np.asarray(extra)[: len(ideal)]
    est = efficiency_from_sums(ideal, actual)
    assert 0.0 <= est.ratio <= 1.0
    assert all(0.0 <= r <= 1.0 + 1e-12 for r in est.window_ratios)


def test_efficiency_converges_to_half():
    w = generate_renewal(Exponential(2.0), 200_000, seed=7, mark_law=Exponential(1.0))
    est = efficiency(run_restart(w, 200_000))
    assert abs(est.ratio - 0.5) < 0.02


def alternating_spec():
    return MarkovRenewalSpec(
        states=("a", "b"),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        size_laws={(0, 1): Exponential(2.0), (1, 0): Exponential(3.0)},
        mark_laws={(0, 1): Exponential(1.0), (1, 0): Exponential(1.0)},
    )


def test_mrp_single_state_reduces_to_renewal():
    spec = MarkovRenewalSpec(
        states=("only",),
        transition=np.array([[1.0]]),
        size_laws={(0, 0): Exponential(2.0)},
        mark_laws={(0, 0): Exponential(1.0)},
    )
    res = mrp_efficiency(spec)
    assert res.ratio == pytest.approx(0.5, abs=1e-6)


def test_mrp_alternating_example():
    res = mrp_efficiency(alternating_spec())
    assert res.ratio == pytest.approx(5.0 / 9.0, abs=1e-6)
    assert not res.slow_pairs


def test_mrp_closed_form_pairs_are_proved():
    res = mrp_efficiency(alternating_spec())
    # (1/2 + 1/3) / 2 ideal and (1 + 1/2) / 2 actual time per transition
    assert res.numerator.value == pytest.approx(5.0 / 12.0, rel=1e-15)
    assert res.denominator.value == pytest.approx(0.75, rel=1e-15)
    for part in (res.numerator, res.denominator):
        assert part.classification is TimeClass.FINITE_PROVED
        assert part.abs_error_bound == 0.0


def test_mrp_quadrature_pair_is_numeric():
    spec = MarkovRenewalSpec(
        states=("a", "b"),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        size_laws={(0, 1): Weibull(0.5, 2.0), (1, 0): Exponential(3.0)},
        mark_laws={(0, 1): Exponential(1.0), (1, 0): Exponential(1.0)},
    )
    res = mrp_efficiency(spec)
    numeric = expected_restart_time(Weibull(0.5, 2.0), Exponential(1.0))
    assert numeric.classification is TimeClass.FINITE_NUMERIC
    assert res.numerator.classification is TimeClass.FINITE_PROVED
    assert res.denominator.classification is TimeClass.FINITE_NUMERIC
    assert res.denominator.abs_error_bound == pytest.approx(
        0.5 * numeric.abs_error_bound, rel=1e-15)


def test_mrp_slow_pair_forces_zero():
    spec = MarkovRenewalSpec(
        states=("a", "b"),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        size_laws={(0, 1): Exponential(1.0), (1, 0): Exponential(3.0)},
        mark_laws={(0, 1): Exponential(1.0), (1, 0): Exponential(1.0)},
    )
    res = mrp_efficiency(spec)
    assert res.ratio == 0.0
    assert res.slow_pairs
    assert math.isinf(res.denominator.value)


def test_mrp_matches_simulation():
    from failsim.procgen import generate_markov_renewal

    spec = alternating_spec()
    w = generate_markov_renewal(spec, 100_000, seed=3)
    est = efficiency(run_restart(w, 100_000))
    assert abs(est.ratio - 5.0 / 9.0) < 0.01
