"""Task-size / failure-time laws with tail classification and comparison.

All laws are immutable values.  Sampling is inverse-CDF everywhere so that
one uniform draw maps to exactly one variate; this is what makes the lazy
keyed mark streams reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import optimize, special


class DistributionError(ValueError):
    pass


class NonIntegrableError(DistributionError):
    """The law has no finite mean."""


class BoundedSupportError(DistributionError):
    """Operation requires right-unbounded support (integrability assumption)."""


class Distribution:
    """Base class; subclasses implement the closed forms."""

    def tail(self, z):
        raise NotImplementedError

    def log_tail(self, z):
        with np.errstate(divide="ignore"):
            return np.log(self.tail(z))

    def cdf(self, z):
        return 1.0 - self.tail(z)

    def mean(self) -> float:
        raise NotImplementedError

    def truncated_mean(self, z):
        """E[X 1{X <= z}]."""
        raise NotImplementedError

    def truncated_second_moment(self, z):
        """E[X^2 1{X <= z}]."""
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def isf(self, s):
        """Upper quantile: z with tail(z) = s, accurate for tiny s."""
        return self.quantile(1.0 - np.asarray(s, dtype=float))

    def sample(self, stream) -> float:
        """One inverse-CDF variate from a CounterStream.

        The quantile is taken of a one-element array: numpy's vectorized
        loops for ``**`` and ``log1p`` can round differently from libm,
        which its scalar path calls, and the vectorized engines use those
        loops.  So a draw equals the same draw taken in bulk, bit for bit.
        """
        return float(self.quantile(np.array([stream.next_uniform()]))[0])

    def sample_n(self, stream, n: int) -> np.ndarray:
        return np.asarray(self.quantile(stream.uniforms(n)), dtype=float)

    @property
    def unbounded(self) -> bool:
        return True


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise DistributionError("rate must be positive")

    def tail(self, z):
        return np.exp(-self.rate * np.asarray(z, dtype=float))

    def log_tail(self, z):
        return -self.rate * np.asarray(z, dtype=float)

    def mean(self):
        return 1.0 / self.rate

    def truncated_mean(self, z):
        z = np.asarray(z, dtype=float)
        a = self.rate
        tail = np.exp(-a * z)
        # z e^{-az} is 0 wherever the tail is, z = inf included (not 0 * inf)
        return (1.0 - tail) / a - np.where(tail > 0.0, z, 0.0) * tail

    def truncated_second_moment(self, z):
        # (2/a^2) P(3, az); the elementary form cancels below az = 1, and
        # above it is kept, so that the restart shortcut's values stay put
        a = self.rate
        az = a * np.asarray(z, dtype=float)
        tail = np.exp(-az)
        poly_at = np.where(tail > 0.0, az, 0.0)  # as in truncated_mean
        return np.where(
            az < 1.0,
            2.0 * special.gammainc(3.0, az),
            2.0 - tail * (poly_at * poly_at + 2.0 * poly_at + 2.0),
        ) / (a * a)

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def isf(self, s):
        return -np.log(np.asarray(s, dtype=float)) / self.rate


@dataclass(frozen=True)
class Pareto(Distribution):
    scale: float
    shape: float

    def __post_init__(self):
        if self.scale <= 0 or self.shape <= 0:
            raise DistributionError("scale and shape must be positive")

    def tail(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z < self.scale, 1.0, (self.scale / np.maximum(z, self.scale)) ** self.shape)

    def log_tail(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(
            z < self.scale,
            0.0,
            self.shape * (np.log(self.scale) - np.log(np.maximum(z, self.scale))),
        )

    def _check_integrable(self):
        if self.shape <= 1.0:
            raise NonIntegrableError(f"Pareto shape {self.shape} <= 1 has no finite mean")

    def mean(self):
        self._check_integrable()
        return self.shape * self.scale / (self.shape - 1.0)

    def truncated_mean(self, z):
        self._check_integrable()
        z = np.asarray(z, dtype=float)
        full = self.mean()
        zc = np.maximum(z, self.scale)
        return np.where(z < self.scale, 0.0, full * (1.0 - (self.scale / zc) ** (self.shape - 1.0)))

    def truncated_second_moment(self, z):
        # alpha s^alpha (z^(2 - alpha) - s^(2 - alpha)) / (2 - alpha), written
        # with expm1 so that it stays accurate near alpha = 2, where it tends
        # to 2 s^2 log(z / s)
        z = np.asarray(z, dtype=float)
        t = np.log(np.maximum(z, self.scale) / self.scale)
        c = 2.0 - self.shape
        growth = np.expm1(c * t) / c if c != 0.0 else t
        return self.shape * self.scale**2 * growth

    def quantile(self, u):
        return self.scale * (1.0 - np.asarray(u, dtype=float)) ** (-1.0 / self.shape)

    def isf(self, s):
        return self.scale * np.asarray(s, dtype=float) ** (-1.0 / self.shape)


@dataclass(frozen=True)
class Weibull(Distribution):
    scale: float
    shape: float

    def __post_init__(self):
        if self.scale <= 0 or self.shape <= 0:
            raise DistributionError("scale and shape must be positive")

    def tail(self, z):
        return np.exp(self.log_tail(z))

    def log_tail(self, z):
        z = np.asarray(z, dtype=float)
        return -((np.maximum(z, 0.0) / self.scale) ** self.shape)

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def truncated_mean(self, z):
        z = np.asarray(z, dtype=float)
        t = (np.maximum(z, 0.0) / self.scale) ** self.shape
        return self.mean() * special.gammainc(1.0 + 1.0 / self.shape, t)

    def truncated_second_moment(self, z):
        z = np.asarray(z, dtype=float)
        t = (np.maximum(z, 0.0) / self.scale) ** self.shape
        a = 1.0 + 2.0 / self.shape
        return self.scale**2 * special.gamma(a) * special.gammainc(a, t)

    def quantile(self, u):
        return self.scale * (-np.log1p(-np.asarray(u, dtype=float))) ** (1.0 / self.shape)

    def isf(self, s):
        return self.scale * (-np.log(np.asarray(s, dtype=float))) ** (1.0 / self.shape)


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Point mass; admitted for unit tests, rejected where unbounded support
    is required."""

    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise DistributionError("value must be positive")

    def tail(self, z):
        return np.where(np.asarray(z, dtype=float) < self.value, 1.0, 0.0)

    def mean(self):
        return self.value

    def truncated_mean(self, z):
        return np.where(np.asarray(z, dtype=float) >= self.value, self.value, 0.0)

    def truncated_second_moment(self, z):
        return np.where(np.asarray(z, dtype=float) >= self.value, self.value**2, 0.0)

    def quantile(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.value)

    @property
    def unbounded(self):
        return False


@dataclass(frozen=True)
class FiniteMixture(Distribution):
    weights: tuple
    components: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.components) or len(self.components) == 0:
            raise DistributionError("weights and components must align")
        if np.any(w <= 0):
            raise DistributionError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DistributionError(f"mixture weights sum to {w.sum()}, not 1")

    def tail(self, z):
        return sum(w * c.tail(z) for w, c in zip(self.weights, self.components))

    def mean(self):
        return sum(w * c.mean() for w, c in zip(self.weights, self.components))

    def truncated_mean(self, z):
        return sum(w * c.truncated_mean(z) for w, c in zip(self.weights, self.components))

    def truncated_second_moment(self, z):
        return sum(w * c.truncated_second_moment(z)
                   for w, c in zip(self.weights, self.components))

    def _quantile_scalar(self, u: float) -> float:
        hi = max(float(c.quantile(min(u, 1.0 - 1e-15))) for c in self.components) + 1.0
        lo = 0.0
        while self.cdf(hi) < u:
            hi *= 2.0
        return optimize.brentq(lambda x: float(self.cdf(x)) - u, lo, hi, xtol=1e-14, rtol=1e-14)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return self._quantile_scalar(float(u))
        return np.array([self._quantile_scalar(v) for v in u.ravel()]).reshape(u.shape)

    def _isf_scalar(self, s: float) -> float:
        if s >= 1.0:
            return 0.0
        # tail(hi) <= sum w_i s = s; tail(lo) >= w_i * (s / w_i) = s
        hi = max(float(c.isf(s)) for c in self.components if c.unbounded)
        lo = min(
            float(c.isf(min(1.0, s / w)))
            for w, c in zip(self.weights, self.components)
            if c.unbounded
        )
        if lo >= hi:
            return hi

        def excess(z):
            return float(self.log_tail(z)) - math.log(s)

        # rounding can leave no sign change, e.g. when all components are
        # one law and hi is the root; brentq's tie rule (lo, then hi) is kept
        if excess(lo) <= 0.0:
            return lo
        if excess(hi) >= 0.0:
            return hi
        return optimize.brentq(excess, lo, hi, xtol=1e-14, rtol=8.9e-16)

    def isf(self, s):
        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            return self._isf_scalar(float(s))
        return np.array([self._isf_scalar(v) for v in s.ravel()]).reshape(s.shape)

    @property
    def unbounded(self):
        return any(c.unbounded for c in self.components)


# ---------------------------------------------------------------------------
# Tail classification and comparison


class TailClass(Enum):
    HEAVY = "Heavy"
    LIGHT = "Light"


class TailVerdict(Enum):
    FIRST_HEAVIER = "FirstHeavier"
    FIRST_STRICT_HEAVIER = "FirstStrictHeavier"
    SECOND_HEAVIER = "SecondHeavier"
    SECOND_STRICT_HEAVIER = "SecondStrictHeavier"
    EQUAL = "Equal"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class TailComparison:
    verdict: TailVerdict
    witness_z0: float | None = None
    witness_epsilon: float | None = None

    @property
    def first_heavier(self) -> bool:
        return self.verdict in (
            TailVerdict.FIRST_HEAVIER,
            TailVerdict.FIRST_STRICT_HEAVIER,
            TailVerdict.EQUAL,
        )


def classify_tail(d: Distribution) -> TailClass:
    """Heavy iff e^{gamma t} P[X > t] diverges for every gamma > 0.

    Exact for every family: a finite mixture is heavy iff one of its
    unbounded components is, since its tail is their weighted sum and a
    bounded component's tail is eventually 0.
    """
    if not d.unbounded:
        raise BoundedSupportError("bounded support violates the integrability assumption")
    if isinstance(d, FiniteMixture):
        heavy = any(classify_tail(c) is TailClass.HEAVY for c in d.components if c.unbounded)
        return TailClass.HEAVY if heavy else TailClass.LIGHT
    if isinstance(d, Exponential):
        return TailClass.LIGHT
    if isinstance(d, Pareto):
        return TailClass.HEAVY
    if isinstance(d, Weibull):
        return TailClass.HEAVY if d.shape < 1.0 else TailClass.LIGHT
    raise DistributionError(f"no tail class for {d!r}")


_EPS_GRID = [2.0**-k for k in range(0, 11)]


def _dominance_witness(lt_hi, lt_lo, eps):
    """Smallest grid index i0 with lt_hi[i] >= eps*lt_lo[i] for all i >= i0."""
    ok = lt_hi >= eps * lt_lo - 1e-12 * np.abs(lt_lo)
    if not ok[-1]:
        return None
    idx = len(ok) - 1
    while idx > 0 and ok[idx - 1]:
        idx -= 1
    return idx


def compare_tails(v: Distribution, w: Distribution) -> TailComparison:
    """Grid-based dominance check of survival functions (with witnesses).

    Strictness means tail_heavier(z) >= tail_lighter(z)^eps beyond the
    witness; smaller certified eps is a stronger statement.  Inconclusive
    is a legal verdict when the probes conflict.
    """
    for x in (v, w):
        if not x.unbounded:
            raise BoundedSupportError("compare_tails requires right-unbounded support")
    if v == w:
        return TailComparison(TailVerdict.EQUAL, witness_z0=0.0, witness_epsilon=1.0)

    if isinstance(v, Exponential) and isinstance(w, Exponential):
        # Closed form: exp(-b z) == exp(-a z)^(b/a), so the infimum exponent
        # is attained with equality at every z and is reported exactly.
        a, b = v.rate, w.rate
        if a > b:
            return TailComparison(TailVerdict.SECOND_STRICT_HEAVIER, 0.0, b / a)
        return TailComparison(TailVerdict.FIRST_STRICT_HEAVIER, 0.0, a / b)

    ps = 1.0 - 2.0 ** -np.arange(1, 41)
    zs = np.maximum(np.asarray(v.quantile(ps), float), np.asarray(w.quantile(ps), float))
    zs = np.unique(zs)
    lt_v = np.asarray(v.log_tail(zs), dtype=float)
    lt_w = np.asarray(w.log_tail(zs), dtype=float)

    first_plain = _dominance_witness(lt_v, lt_w, 1.0)
    second_plain = _dominance_witness(lt_w, lt_v, 1.0)

    if first_plain is not None and second_plain is not None:
        # numerically indistinguishable but not literally equal laws
        return TailComparison(TailVerdict.INCONCLUSIVE)
    if first_plain is None and second_plain is None:
        return TailComparison(TailVerdict.INCONCLUSIVE)

    if first_plain is not None:
        heavier, lighter = lt_v, lt_w
        plain, strict = TailVerdict.FIRST_HEAVIER, TailVerdict.FIRST_STRICT_HEAVIER
        idx0 = first_plain
    else:
        heavier, lighter = lt_w, lt_v
        plain, strict = TailVerdict.SECOND_HEAVIER, TailVerdict.SECOND_STRICT_HEAVIER
        idx0 = second_plain

    best_eps = None
    best_idx = idx0
    for eps in sorted(_EPS_GRID):  # ascending: first hit is the strongest claim
        i0 = _dominance_witness(heavier, lighter, eps)
        if i0 is not None:
            best_eps, best_idx = eps, i0
            break
    if best_eps is not None:
        return TailComparison(strict, float(zs[best_idx]), best_eps)
    return TailComparison(plain, float(zs[idx0]), None)


# ---------------------------------------------------------------------------
# Scenario-file syntax: exp(rate), pareto(scale,shape), weibull(scale,shape),
# det(value), mix(w1*d1, w2*d2, ...)

_CALL_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*\((.*)\)\s*$", re.S)


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_distribution(text: str) -> Distribution:
    m = _CALL_RE.match(text)
    if not m:
        raise DistributionError(f"cannot parse distribution expression: {text!r}")
    name, body = m.group(1).lower(), m.group(2)
    args = _split_top_level(body)
    try:
        if name == "exp":
            (rate,) = args
            return Exponential(float(rate))
        if name == "pareto":
            scale, shape = args
            return Pareto(float(scale), float(shape))
        if name == "weibull":
            scale, shape = args
            return Weibull(float(scale), float(shape))
        if name == "det":
            (value,) = args
            return Deterministic(float(value))
        if name == "mix":
            weights, comps = [], []
            for part in args:
                wtxt, dtxt = part.split("*", 1)
                weights.append(float(wtxt))
                comps.append(parse_distribution(dtxt))
            return FiniteMixture(tuple(weights), tuple(comps))
    except DistributionError:
        raise
    except Exception as exc:
        raise DistributionError(f"bad arguments in {text!r}: {exc}") from exc
    raise DistributionError(f"unknown distribution family {name!r}")


def format_distribution(d: Distribution) -> str:
    if isinstance(d, Exponential):
        return f"exp({d.rate})"
    if isinstance(d, Pareto):
        return f"pareto({d.scale},{d.shape})"
    if isinstance(d, Weibull):
        return f"weibull({d.scale},{d.shape})"
    if isinstance(d, Deterministic):
        return f"det({d.value})"
    if isinstance(d, FiniteMixture):
        inner = ", ".join(
            f"{w}*{format_distribution(c)}" for w, c in zip(d.weights, d.components)
        )
        return f"mix({inner})"
    raise DistributionError(f"unknown distribution {d!r}")
