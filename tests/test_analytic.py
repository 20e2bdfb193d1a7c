import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failsim.analytic import (
    ExpectedTime,
    TimeClass,
    _windowed_quantile_integral,
    expected_checkpoint_time,
    expected_restart_time,
    m_checkpoint,
    m_restart,
)
from failsim.dist import (
    BoundedSupportError,
    Deterministic,
    Exponential,
    Pareto,
    Weibull,
)
from failsim.rng import CounterStream


def mc_restart_time(l, z, n, stream):
    """One-task restart recursion oracle: draw attempts until one covers z."""
    totals = np.zeros(n)
    pending = np.arange(n)
    while pending.size:
        draws = l.sample_n(stream, pending.size)
        done = draws > z
        totals[pending[~done]] += draws[~done]
        totals[pending[done]] += z
        pending = pending[~done]
    return totals


def test_m_restart_at_zero():
    assert m_restart(Exponential(1.0), 0.0) == 0.0


def test_m_restart_exponential_closed_form():
    # (e^{a z} - 1)/a for exponential attempt laws
    for a, z in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
        assert m_restart(Exponential(a), z) == pytest.approx(
            (math.exp(a * z) - 1.0) / a, rel=1e-12
        )


def test_m_restart_monte_carlo_oracle():
    stream = CounterStream(seed=5)
    vals = mc_restart_time(Exponential(1.0), 1.0, 200_000, stream)
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - (math.e - 1.0)) < 3 * se


def test_m_restart_deterministic_always_succeeds():
    assert m_restart(Deterministic(5.0), 2.0) == 2.0


def test_m_restart_dead_tail_is_infinite():
    assert m_restart(Deterministic(5.0), 6.0) == math.inf
    assert m_checkpoint(Deterministic(5.0), 6.0) == math.inf


def test_m_checkpoint_exponential():
    # E[L]/P[L>z] = e^{a z}/a
    for a, z in ((1.0, 1.0), (2.0, 1.5)):
        assert m_checkpoint(Exponential(a), z) == pytest.approx(
            math.exp(a * z) / a, rel=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [Exponential(0.5), Exponential(2.0), Weibull(1.0, 2.0), Pareto(1.0, 3.0)]
    ),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_m_restart_fixed_point_identity(l, z):
    # m_R(z) * P[L>z] = z * P[L>z] + E[L 1{L<=z}]
    q = float(l.tail(z))
    if q <= 0:
        return
    lhs = m_restart(l, z) * q
    rhs = z * q + float(l.truncated_mean(z))
    assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


def restart_quadrature(d, l):
    """E[T^R] and its bound from the windowed quadrature alone."""
    value, err = _windowed_quantile_integral(
        lambda z: float(l.truncated_mean(z)) / float(l.tail(z)), d)
    return d.mean() + value, err


def checkpoint_quadrature(d, l):
    """E[T^C] and its bound from the windowed quadrature alone."""
    return _windowed_quantile_integral(lambda z: l.mean() / float(l.tail(z)), d)


def test_exponential_pair_sweep():
    # the quadrature, which serves every non-exponential pair, against the
    # closed form E[T^R] = 1/(b - a)
    for b in (1.5, 2.0, 4.0):
        for a in (0.5, 1.0):
            value, err = restart_quadrature(Exponential(b), Exponential(a))
            assert err is not None
            assert abs(value - 1.0 / (b - a)) < 1e-6
            assert abs(value - 1.0 / (b - a)) <= max(err, 1e-9)


def test_checkpoint_exponential_closed_form():
    # E[L] * E[e^{a D}] = (1/a) * b/(b-a) for exp(b) sizes, exp(a) attempts
    for b, a in ((2.0, 1.0), (4.0, 0.5), (1.5, 1.0)):
        value, err = checkpoint_quadrature(Exponential(b), Exponential(a))
        assert err is not None
        assert value == pytest.approx(b / (a * (b - a)), abs=1e-6)
        assert abs(value - b / (a * (b - a))) <= max(err, 1e-9)


def test_exponential_pairs_are_proved_finite():
    for b, a in ((1.5, 0.5), (2.0, 1.0), (4.0, 0.5), (1.0, 0.875)):
        tr = expected_restart_time(Exponential(b), Exponential(a))
        tc = expected_checkpoint_time(Exponential(b), Exponential(a))
        assert tr == ExpectedTime(1.0 / (b - a), TimeClass.FINITE_PROVED, 0.0)
        assert tc == ExpectedTime(b / (a * (b - a)), TimeClass.FINITE_PROVED, 0.0)
        assert tr.finite and tc.finite


def test_infinite_cases_proved():
    cases = [
        (Exponential(1.0), Exponential(1.0)),
        (Exponential(1.0), Exponential(1.2)),
        (Pareto(1.0, 2.0), Exponential(1.0)),
        (Weibull(1.0, 0.5), Exponential(1.0)),
    ]
    for d, l in cases:
        assert expected_restart_time(d, l).classification is TimeClass.INFINITE_PROVED
        assert expected_checkpoint_time(d, l).classification is TimeClass.INFINITE_PROVED


def test_slowly_convergent_pair_still_finite():
    # window contributions shrink only by a factor 2^(-1/8) per window
    # here: the decay rule must still call the integral finite
    value, err = restart_quadrature(Exponential(1.0), Exponential(0.875))
    assert math.isfinite(value) and err is not None
    assert value == pytest.approx(8.0, abs=1e-6)
    assert abs(value - 8.0) <= max(err, 1e-9)


@pytest.mark.parametrize("d, l, restart_time, checkpoint_time", [
    (Exponential(1.0), Pareto(1.0, 2.5), 5.0902, 6.3700),
    (Exponential(1.0), Pareto(2.0, 3.0), 2.3195, 4.5225),
])
def test_pareto_marks_below_the_size_median(d, l, restart_time, checkpoint_time):
    # the restart integrand is exactly 0 below the mark scale, which holds
    # the size median, so the first dyadic window contributes nothing and
    # must not end the sum (it returned E[D] = 1.0 with bound 0.0); the
    # values are those of a direct quad of each integral
    etr, etc = expected_restart_time(d, l), expected_checkpoint_time(d, l)
    assert etr.classification is etc.classification is TimeClass.FINITE_NUMERIC
    assert etr.value == pytest.approx(restart_time, abs=5e-5)
    assert etc.value == pytest.approx(checkpoint_time, abs=5e-5)
    assert 0 < etr.abs_error_bound < 1e-6


def test_an_all_zero_integrand_sums_every_window():
    value, err = _windowed_quantile_integral(lambda z: 0.0, Exponential(1.0))
    assert value == 0.0 and err == 0.0


def test_checkpoint_dominates_restart():
    cases = [
        (Exponential(2.0), Exponential(1.0)),
        (Exponential(4.0), Exponential(0.5)),
        (Weibull(1.0, 2.0), Exponential(1.0)),
        (Pareto(1.0, 3.0), Pareto(1.0, 1.5)),
    ]
    for d, l in cases:
        tr = expected_restart_time(d, l)
        tc = expected_checkpoint_time(d, l)
        if not (tr.finite and tc.finite):
            continue
        assert tc.value >= tr.value - 1e-9
        assert tr.value >= d.mean() - 1e-9


def test_restart_quadrature_vs_monte_carlo():
    stream = CounterStream(seed=17)
    matrix = [
        (Exponential(2.0), Exponential(1.0)),
        (Weibull(1.0, 2.0), Exponential(1.0)),
        (Exponential(3.0), Weibull(2.0, 0.8)),
    ]
    n = 100_000
    for d, l in matrix:
        et = expected_restart_time(d, l)
        assert et.finite
        zs = d.sample_n(stream, n)
        totals = np.zeros(n)
        pending = np.arange(n)
        while pending.size:
            draws = l.sample_n(stream, pending.size)
            done = draws > zs[pending]
            totals[pending[~done]] += draws[~done]
            totals[pending[done]] += zs[pending[done]]
            pending = pending[~done]
        se = totals.std() / math.sqrt(n)
        assert abs(totals.mean() - et.value) < 3 * se


def test_bounded_support_rejected():
    with pytest.raises(BoundedSupportError):
        expected_restart_time(Deterministic(1.0), Exponential(1.0))
    with pytest.raises(BoundedSupportError):
        expected_checkpoint_time(Exponential(1.0), Deterministic(1.0))


def test_expected_time_invariants():
    with pytest.raises(ValueError):
        ExpectedTime(1.0, TimeClass.INFINITE_PROVED)
    with pytest.raises(ValueError):
        ExpectedTime(1.0, TimeClass.FINITE_NUMERIC, None)
    assert ExpectedTime(math.inf, TimeClass.DIVERGENT_NUMERIC).finite is False
