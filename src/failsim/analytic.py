"""Expected actual time of a single task under restart and checkpointing.

The two expectations are integrals of per-task conditional means against
the task-size law.  An exp(beta) size with exp(alpha) marks, beta > alpha,
has them in closed form, E[T^R] = 1/(beta - alpha) and E[T^C] =
beta/(alpha (beta - alpha)), returned as ``FiniteProved`` with error bound
0.  Every other pair is integrated numerically.  Both integrands can blow
up in the right tail, so the integral is evaluated over the quantile
transform w = F_D(z) (domain (0, 1)) in dyadic windows (1 - 2^-k,
1 - 2^-(k+1)); geometric decay of the window contributions certifies
numeric convergence (``FiniteNumeric`` with the quadrature's error bound),
and failure to decay is reported as divergence rather than silently
truncated.  The tests hold the quadrature to the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from scipy import integrate

from .dist import BoundedSupportError, Distribution, Exponential, compare_tails


class TimeClass(Enum):
    FINITE_PROVED = "FiniteProved"
    INFINITE_PROVED = "InfiniteProved"
    FINITE_NUMERIC = "FiniteNumeric"
    DIVERGENT_NUMERIC = "DivergentNumeric"


@dataclass(frozen=True)
class ExpectedTime:
    value: float
    classification: TimeClass
    abs_error_bound: float | None = None

    def __post_init__(self):
        if self.classification is TimeClass.INFINITE_PROVED and not math.isinf(self.value):
            raise ValueError("InfiniteProved requires value = +inf")
        if self.classification is TimeClass.FINITE_NUMERIC and (
            self.abs_error_bound is None or math.isinf(self.value)
        ):
            raise ValueError("FiniteNumeric requires a finite value and an error bound")

    @property
    def finite(self) -> bool:
        return self.classification in (TimeClass.FINITE_PROVED, TimeClass.FINITE_NUMERIC)


def m_restart(l: Distribution, z: float) -> float:
    """Expected actual restart time of a task of fixed size z."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    q = float(l.tail(z))
    if q <= 0.0:
        return math.inf
    return z + float(l.truncated_mean(z)) / q


def m_checkpoint(l: Distribution, z: float) -> float:
    """Expected time to get past one checkpoint interval of fixed size z."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    q = float(l.tail(z))
    if q <= 0.0:
        return math.inf
    return l.mean() / q


# Divergence rule: window contributions failing to decay below this ratio
# over this many consecutive dyadic windows are treated as divergent.  Any
# ratio bounded away from 1 gives a geometrically convergent window sum, so
# the threshold sits just under 1; slowly-converging integrals (ratio in
# (0.995, 1)) are conservatively reported as divergent.
_DECAY_RATIO = 0.995
_DECAY_WINDOWS = 8
_MAX_WINDOWS = 26
_NEGLIGIBLE = 1e-14


def _windowed_quantile_integral(integrand, d: Distribution):
    """Integrate integrand(z) f_D(dz) via w = F_D(z) in dyadic windows.

    Windows (1 - 2^-k, 1 - 2^-(k+1)) drive the geometric-decay divergence
    test.  A window ends the sum as negligible only after some earlier
    window has contributed: an integrand can be exactly 0 over the first
    windows (restart with Pareto marks, below the mark scale).  The
    remaining upper tail is integrated in s = 1 - w space through
    the upper quantile, which keeps endpoint singularities resolvable.
    Returns (value, error_bound) or (inf, None) on failed decay.
    """

    def g(w):
        val = float(integrand(float(d.quantile(w))))
        return val if math.isfinite(val) else 0.0

    total = 0.0
    err = 0.0
    contributions = []
    stale = 0
    positive = False  # whether an earlier window contributed
    for k in range(_MAX_WINDOWS):
        lo = 1.0 - 2.0**-k
        hi = 1.0 - 2.0 ** -(k + 1)
        val, e = integrate.quad(g, lo, hi, limit=200)
        total += val
        err += e
        contributions.append(val)
        if k >= 1 and contributions[-2] > 0:
            ratio = val / contributions[-2]
            stale = stale + 1 if ratio >= _DECAY_RATIO else 0
            if stale >= _DECAY_WINDOWS:
                return math.inf, None
        if positive and val <= _NEGLIGIBLE * max(total, 1.0):
            return total, err + val
        positive = positive or val > 0

    def h(s):
        val = float(integrand(float(d.isf(s))))
        return val if math.isfinite(val) else 0.0

    tail_val, tail_err = integrate.quad(h, 0.0, 2.0**-_MAX_WINDOWS, limit=200)
    return total + tail_val, err + tail_err


def _check_assumption(d: Distribution, l: Distribution):
    if not d.unbounded or not l.unbounded:
        raise BoundedSupportError("both laws must have right-unbounded support")
    d.mean()
    l.mean()


def expected_restart_time(d: Distribution, l: Distribution) -> ExpectedTime:
    """E[T^R] = E[D] + integral of E[L 1{L<=z}]/P[L>z] against f_D."""
    _check_assumption(d, l)
    cmp = compare_tails(d, l)
    if cmp.first_heavier:
        return ExpectedTime(math.inf, TimeClass.INFINITE_PROVED)
    if isinstance(d, Exponential) and isinstance(l, Exponential):
        return ExpectedTime(1.0 / (d.rate - l.rate), TimeClass.FINITE_PROVED, 0.0)
    value, err = _windowed_quantile_integral(
        lambda z: float(l.truncated_mean(z)) / float(l.tail(z)), d
    )
    if math.isinf(value):
        return ExpectedTime(math.inf, TimeClass.DIVERGENT_NUMERIC)
    return ExpectedTime(d.mean() + value, TimeClass.FINITE_NUMERIC, err)


def expected_checkpoint_time(d: Distribution, l: Distribution) -> ExpectedTime:
    """E[T^C] = E[L] * integral of 1/P[L>z] against f_D."""
    _check_assumption(d, l)
    cmp = compare_tails(d, l)
    if cmp.first_heavier:
        return ExpectedTime(math.inf, TimeClass.INFINITE_PROVED)
    if isinstance(d, Exponential) and isinstance(l, Exponential):
        return ExpectedTime(d.rate / (l.rate * (d.rate - l.rate)), TimeClass.FINITE_PROVED, 0.0)
    el = l.mean()
    value, err = _windowed_quantile_integral(lambda z: el / float(l.tail(z)), d)
    if math.isinf(value):
        return ExpectedTime(math.inf, TimeClass.DIVERGENT_NUMERIC)
    return ExpectedTime(value, TimeClass.FINITE_NUMERIC, err)
