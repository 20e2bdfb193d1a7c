import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from failsim.dist import (
    Deterministic,
    Distribution,
    DistributionError,
    Exponential,
    FiniteMixture,
    NonIntegrableError,
    Pareto,
    TailClass,
    TailVerdict,
    Weibull,
    classify_tail,
    compare_tails,
    format_distribution,
    parse_distribution,
)
from failsim.rng import CounterStream


def family_strategy(bounded=True):
    pos = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    shape_ok = st.floats(min_value=1.2, max_value=6.0, allow_nan=False)
    options = [
        st.builds(Exponential, pos),
        st.builds(Pareto, pos, shape_ok),
        st.builds(Weibull, pos, st.floats(min_value=0.4, max_value=4.0)),
    ]
    if bounded:
        options.append(st.builds(Deterministic, pos))
    return st.one_of(*options)


@settings(max_examples=60, deadline=None)
@given(family_strategy(), st.floats(min_value=0.0, max_value=50.0))
def test_tail_basic_invariants(d, z):
    t = float(d.tail(z))
    assert 0.0 <= t <= 1.0
    assert float(d.tail(0.0)) == pytest.approx(1.0) or isinstance(d, Deterministic)
    # non-increasing
    assert float(d.tail(z + 1.0)) <= t + 1e-12


@settings(max_examples=40, deadline=None)
@given(family_strategy())
@example(Pareto(0.9921875, 2.0))
def test_mean_matches_tail_quadrature(d):
    if isinstance(d, Deterministic):
        assert d.mean() == pytest.approx(d.value)
        return
    # a Pareto tail has a kink at its scale, which quad over [0, inf) can miss
    split = d.scale if isinstance(d, Pareto) else 0.0
    head, _ = integrate.quad(lambda z: float(d.tail(z)), 0, split, limit=400)
    rest, _ = integrate.quad(lambda z: float(d.tail(z)), split, np.inf, limit=400)
    assert head + rest == pytest.approx(d.mean(), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(family_strategy(), st.floats(min_value=0.01, max_value=30.0))
def test_truncated_mean_monotone_and_bounded(d, z):
    tm = float(d.truncated_mean(z))
    assert 0.0 <= tm <= d.mean() + 1e-12
    assert float(d.truncated_mean(z + 1.0)) >= tm - 1e-12


def test_truncated_mean_converges_to_mean():
    for d in (Exponential(2.0), Pareto(1.0, 3.0), Weibull(1.5, 0.8)):
        assert float(d.truncated_mean(1e4)) == pytest.approx(d.mean(), rel=1e-6)


@pytest.mark.parametrize(
    "d,z,expect",
    [
        (Exponential(2.0), 1.0, math.exp(-2.0)),
        (Pareto(1.0, 2.0), 2.0, 0.25),
        (Deterministic(3.0), 2.0, 1.0),
        (Deterministic(3.0), 3.0, 0.0),
    ],
)
def test_tail_closed_forms(d, z, expect):
    assert float(d.tail(z)) == pytest.approx(expect, abs=1e-12)


def test_truncated_mean_tail_identity():
    # E[X 1{X<=z}] = mean - E[X 1{X>z}], the latter by quadrature
    for d in (Exponential(1.5), Pareto(2.0, 2.5), Weibull(1.0, 2.0)):
        for z in (0.5, 2.0, 7.0):
            upper, _ = integrate.quad(
                lambda s: float(d.tail(s)), z, np.inf, limit=400
            )
            expect = d.mean() - (z * float(d.tail(z)) + upper)
            assert float(d.truncated_mean(z)) == pytest.approx(expect, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(family_strategy(), st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_quantile_isf_consistency(d, w):
    q = float(d.quantile(w))
    assert float(d.isf(1.0 - w)) == pytest.approx(q, rel=1e-9, abs=1e-9)
    if not isinstance(d, Deterministic):
        assert float(d.cdf(q)) == pytest.approx(w, abs=1e-9)


def test_sampling_matches_mean_or_median():
    stream = CounterStream(seed=99)
    n = 10**6
    for d in (Exponential(0.7), Weibull(2.0, 1.5), Pareto(1.0, 4.0)):
        xs = d.sample_n(stream, n)
        se = xs.std() / math.sqrt(n)
        assert abs(xs.mean() - d.mean()) < 4 * se
    # infinite-variance case: compare median against quantile(1/2)
    d = Pareto(1.0, 2.0)
    xs = d.sample_n(stream, n)
    assert np.median(xs) == pytest.approx(float(d.quantile(0.5)), rel=0.01)


def test_mixture_weights_and_tail():
    m = FiniteMixture((0.25, 0.75), (Exponential(1.0), Exponential(3.0)))
    assert sum(m.weights) == pytest.approx(1.0, abs=1e-12)
    z = 1.3
    expect = 0.25 * math.exp(-z) + 0.75 * math.exp(-3 * z)
    assert float(m.tail(z)) == pytest.approx(expect, rel=1e-12)
    assert m.mean() == pytest.approx(0.25 * 1.0 + 0.75 / 3.0, rel=1e-12)


def test_mixture_isf_with_coinciding_components():
    # no sign change is left in the root bracket when every component is
    # the same law; the mixture is then that law
    mix = parse_distribution("mix(0.56*exp(2.711),0.44*exp(2.711))")
    s = np.concatenate((np.linspace(1e-6, 0.999, 2000), np.geomspace(1e-6, 0.999, 2000)))
    assert mix.isf(s).tolist() == np.asarray(Exponential(2.711).isf(s)).tolist()


def second_moment_quadrature(d, z):
    """E[X^2 1{X <= z}] = integral over (0, z) of 2x (tail(x) - tail(z)),
    split at the kinks of Pareto and point-mass tails.  The integrand is at
    most 2z, so an absolute error of 1e-15 z^2 is asked for as well: at tiny
    z the rounding of tail(x) - tail(z) stops a purely relative request."""
    def kinks(law):
        if isinstance(law, FiniteMixture):
            return [k for c in law.components for k in kinks(c)]
        return [law.scale] if isinstance(law, Pareto) else (
            [law.value] if isinstance(law, Deterministic) else [])

    tz = float(d.tail(z))
    cuts = sorted({0.0, z, *(k for k in kinks(d) if 0.0 < k < z)})
    return sum(integrate.quad(lambda x: 2.0 * x * (float(d.tail(x)) - tz), lo, hi,
                              limit=400, epsabs=1e-15 * z * z, epsrel=1e-12)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


SECOND_MOMENT_LAWS = [
    Exponential(0.7),
    Pareto(1.5, 3.0),
    Pareto(0.7, 1.5),
    Pareto(1.0, 2.0),
    Weibull(1.0, 2.0),
    Weibull(2.0, 0.7),
    Weibull(0.5, 4.0),
    Deterministic(1.5),
    parse_distribution("mix(0.5*exp(1), 0.5*exp(1))"),
    parse_distribution("mix(0.3*pareto(1,2), 0.7*pareto(1,2))"),
    parse_distribution("mix(0.4*mix(0.5*weibull(1,2), 0.5*exp(3)), 0.6*pareto(1,3))"),
    parse_distribution("mix(0.2*det(0.5), 0.8*weibull(1,0.7))"),
]


@pytest.mark.parametrize("d", SECOND_MOMENT_LAWS, ids=format_distribution)
def test_truncated_second_moment_matches_quadrature(d):
    zs = np.array([0.0, 1e-5, 1e-3, 0.3, 1.0, 2.5, 8.0, 40.0])
    m2 = np.asarray(d.truncated_second_moment(zs), dtype=float)
    assert m2.shape == zs.shape
    for z, m in zip(zs, m2):
        # array-wise, and the same value as one scalar at a time
        assert m == float(d.truncated_second_moment(z))
        # the moment is at most z^2, so the absolute slack shrinks with it
        assert m == pytest.approx(second_moment_quadrature(d, z), rel=1e-9,
                                  abs=1e-12 * min(z * z, 1.0))


def full_moments(d):
    """E[X] and E[X^2] of a law, from its parameters."""
    if isinstance(d, FiniteMixture):
        parts = [full_moments(c) for c in d.components]
        return tuple(sum(w * p[i] for w, p in zip(d.weights, parts)) for i in (0, 1))
    if isinstance(d, Exponential):
        return 1.0 / d.rate, 2.0 / d.rate**2
    if isinstance(d, Pareto):
        m2 = d.shape * d.scale**2 / (d.shape - 2.0) if d.shape > 2.0 else math.inf
        return d.shape * d.scale / (d.shape - 1.0), m2
    if isinstance(d, Weibull):
        return d.mean(), d.scale**2 * math.gamma(1.0 + 2.0 / d.shape)
    return d.value, d.value**2


@pytest.mark.parametrize("d", SECOND_MOMENT_LAWS + [
    parse_distribution("mix(0.5*exp(1),0.5*exp(3))"), Exponential(1e-3)],
    ids=format_distribution)
def test_truncated_moments_at_infinity_are_the_full_moments(d):
    mean, m2 = full_moments(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (np.inf, np.array([np.inf, np.inf])):
            assert np.asarray(d.truncated_mean(z)) == pytest.approx(mean, rel=1e-12)
            assert np.asarray(d.truncated_second_moment(z)) == pytest.approx(m2, rel=1e-12)


def test_pareto_second_moment_is_continuous_at_shape_two():
    at_two = float(Pareto(1.0, 2.0).truncated_second_moment(50.0))
    assert at_two == pytest.approx(2.0 * math.log(50.0), rel=1e-15)
    for eps in (1e-12, -1e-12, 1e-7):
        near = float(Pareto(1.0, 2.0 + eps).truncated_second_moment(50.0))
        assert near == pytest.approx(at_two, rel=10 * abs(eps) * math.log(50.0) ** 2)
    # the full second moment where it is finite
    assert float(Pareto(1.0, 3.0).truncated_second_moment(np.inf)) == pytest.approx(3.0)


def test_mixture_bad_weights_rejected():
    with pytest.raises(DistributionError):
        FiniteMixture((0.5, 0.6), (Exponential(1.0), Exponential(2.0)))


def test_pareto_nonintegrable_mean():
    with pytest.raises(NonIntegrableError):
        Pareto(1.0, 1.0).mean()
    with pytest.raises(NonIntegrableError):
        Pareto(1.0, 0.5).mean()


def test_classify_tail():
    assert classify_tail(Exponential(0.2)) is TailClass.LIGHT
    assert classify_tail(Weibull(1.0, 2.0)) is TailClass.LIGHT
    assert classify_tail(Pareto(1.0, 3.0)) is TailClass.HEAVY
    assert classify_tail(Weibull(1.0, 0.5)) is TailClass.HEAVY


@pytest.mark.parametrize("text, cls", [
    ("mix(0.5*exp(1), 0.5*pareto(1,2))", TailClass.HEAVY),
    ("mix(0.9*exp(1), 0.1*pareto(1,5))", TailClass.HEAVY),
    ("mix(0.5*det(1), 0.5*weibull(1,0.7))", TailClass.HEAVY),
    ("mix(0.5*exp(1), 0.5*mix(0.5*weibull(1,2), 0.5*weibull(1,0.5)))", TailClass.HEAVY),
    ("mix(0.5*exp(1), 0.5*exp(3))", TailClass.LIGHT),
    ("mix(0.3*det(2), 0.7*weibull(1,1.5))", TailClass.LIGHT),
    ("mix(0.5*exp(1), 0.5*mix(0.5*det(1), 0.5*exp(2)))", TailClass.LIGHT),
])
def test_classify_tail_of_mixtures(text, cls):
    # a mixture's tail is the weighted sum of its components' tails
    assert classify_tail(parse_distribution(text)) is cls


def test_classify_tail_refuses_what_it_cannot_decide():
    with pytest.raises(DistributionError):
        classify_tail(parse_distribution("mix(0.5*det(1), 0.5*det(2))"))

    with pytest.raises(DistributionError):
        classify_tail(Distribution())  # a family with no tail rule


@settings(max_examples=40, deadline=None)
@given(family_strategy(bounded=False), family_strategy(bounded=False))
def test_compare_tails_mirror(v, w):
    mirror = {
        TailVerdict.FIRST_HEAVIER: TailVerdict.SECOND_HEAVIER,
        TailVerdict.FIRST_STRICT_HEAVIER: TailVerdict.SECOND_STRICT_HEAVIER,
        TailVerdict.SECOND_HEAVIER: TailVerdict.FIRST_HEAVIER,
        TailVerdict.SECOND_STRICT_HEAVIER: TailVerdict.FIRST_STRICT_HEAVIER,
        TailVerdict.EQUAL: TailVerdict.EQUAL,
        TailVerdict.INCONCLUSIVE: TailVerdict.INCONCLUSIVE,
    }
    assert compare_tails(w, v).verdict is mirror[compare_tails(v, w).verdict]


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_compare_exponentials_strict(a, frac):
    b = a * frac  # b < a, so Exponential(b) has the heavier tail
    cmp = compare_tails(Exponential(a), Exponential(b))
    assert cmp.verdict is TailVerdict.SECOND_STRICT_HEAVIER
    assert cmp.witness_epsilon <= b / a + 1e-9


def test_compare_equal_laws():
    cmp = compare_tails(Exponential(1.0), Exponential(1.0))
    assert cmp.verdict is TailVerdict.EQUAL
    assert cmp.first_heavier  # equality counts as heavier-or-equal


def test_pareto_heavier_than_exponential():
    cmp = compare_tails(Pareto(1.0, 2.0), Exponential(1.0))
    assert cmp.verdict is TailVerdict.FIRST_STRICT_HEAVIER
    assert cmp.first_heavier


@settings(max_examples=80, deadline=None)
@given(family_strategy())
def test_parse_format_roundtrip(d):
    again = parse_distribution(format_distribution(d))
    assert format_distribution(again) == format_distribution(d)
    for z in (0.3, 1.7, 9.0):
        assert float(again.tail(z)) == pytest.approx(float(d.tail(z)), rel=1e-12)


@pytest.mark.parametrize(
    "text",
    ["exp(2)", "pareto(1,2)", "weibull(2,0.5)", "det(4)",
     "mix(0.5*exp(1),0.5*det(2))"],
)
def test_parse_known_syntax(text):
    parse_distribution(text)


@pytest.mark.parametrize("text", ["exp()", "exp(-1)", "gauss(0,1)", "mix()", "exp(2"])
def test_parse_rejects_garbage(text):
    with pytest.raises(DistributionError):
        parse_distribution(text)
