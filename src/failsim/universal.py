"""Universal-checkpoint detection for exponential failure marks.

Every point n has a single-hop target kappa_n: the furthest point covered
by its winning attempt, taken by one `checkpoint.hop_scan` from every
point.  The count N_n of earlier points whose hop jumps past n is, for
exponential marks, a Markov chain; points with N_n = 0 are universal —
every trajectory started earlier passes through them.

The transition kernel used here is Binomial(k + 1, e^{-lambda t}) mixed
over the inter-arrival law: the k pending trajectories and the hop
launched at the current point each survive the next interval independently
with probability e^{-lambda t} by memorylessness.  Its rows are validated
empirically against simulated transition counts.

For exp(mu) sizes, s = e^{-lambda t} is Beta(mu / lambda, 1), and entry
(k, j) is C(k+1, j) a B(j + a, k + 2 - j) with a = mu / lambda:
``kernel_row`` and ``stationary_n_distribution`` build that kernel in one
gammaln array pass.  Every other size law is integrated numerically.
``analytic_n_kernel``, one adaptive quadrature per entry, is the reference
both are tested against.

For other size laws the stationary law of the truncated chain
(``stationary_n_distribution``) comes from one tanh-sinh quadrature of
every kernel entry at once: the size quantile is evaluated once at the 257
nodes of a double-exponential rule on (0, 1), and each row's binomial pmf
is contracted with the weights of steps h and h/2.  pi P = pi is then
solved directly, for both steps.
The largest difference between the two laws is the error estimate; when it
is not below ``STATIONARY_TOL`` the kernel is rebuilt from ``kernel_row``,
one scalar adaptive quadrature per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .checkpoint import DEFAULT_SCAN_CAP, hop_scan, raise_first_capped
from .dist import Distribution, Exponential
from .procgen import MarkedWindow, stationary_law
from .restart import DEFAULT_ATTEMPT_CAP


class MarkLawError(ValueError):
    """The N-process machinery requires exponential marks."""


def _require_exponential(law) -> Exponential:
    if not isinstance(law, Exponential):
        raise MarkLawError("universal-checkpoint analysis requires exponential marks")
    return law


@dataclass(frozen=True)
class NProcess:
    values: np.ndarray
    lookback: int
    first_index: int  # values[i] is N_{first_index + i}
    universal_indices: np.ndarray
    max_hop: int
    boundary_ok: bool  # no hop observed longer than the lookback


def compute_all_kappas(
    window: MarkedWindow,
    n_points: int,
    attempt_cap=DEFAULT_ATTEMPT_CAP,
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> np.ndarray:
    """kappa for points 0..n_points-1 of a renewal window.

    One `checkpoint.hop_scan` from every point at once, its mark scan in the
    winners-only mode, with the inclusive rule: kappa_n is the largest k
    with X_k - X_n <= the winning mark, the ``end_index`` of
    ``run_checkpoint_iteration(window, n, inclusive=True)``.  A mixture
    window is a renewal window with its regime's mark law; a Markov window
    is refused.  Raises as that walk does at the first point that reaches
    ``attempt_cap`` or ``scan_cap``.
    """
    if window.mrp_spec is not None:
        raise ValueError("kappa computation runs on renewal windows")
    law = _require_exponential(window.mark_laws[0])
    pts = np.arange(n_points, dtype=np.int64)
    (kappa, *_), *flags = hop_scan(window.size_law, law, window.seed, window.replication,
                                   pts, True, attempt_cap, scan_cap, winners_only=True)
    raise_first_capped(pts, *flags, attempt_cap, scan_cap)
    return kappa


def compute_n_process(window: MarkedWindow, n_points: int, lookback: int,
                      kappa: np.ndarray | None = None) -> NProcess:
    """N_n = #{m in [n - lookback, n): kappa_m > n} for n in [lookback, n_points)."""
    if lookback >= n_points:
        raise ValueError("lookback must be smaller than the window span")
    if kappa is None:
        kappa = compute_all_kappas(window, n_points)
    kappa = np.asarray(kappa[:n_points])
    m = np.arange(n_points)
    # m contributes +1 to every n in [m + 1, min(kappa_m - 1, m + lookback)]
    lo = m + 1
    hi = np.minimum(kappa - 1, m + lookback)
    diff = np.zeros(n_points + 1, dtype=np.int64)
    valid = hi >= lo
    np.add.at(diff, lo[valid], 1)
    np.add.at(diff, np.minimum(hi[valid] + 1, n_points), -1)
    counts = np.cumsum(diff[:-1])
    values = counts[lookback:n_points]
    universal = np.nonzero(values == 0)[0] + lookback
    max_hop = int((kappa - m).max())
    return NProcess(
        values=values, lookback=lookback, first_index=lookback,
        universal_indices=universal, max_hop=max_hop,
        boundary_ok=max_hop <= lookback,
    )


def verify_universal(kappa: np.ndarray, n: int, lookback: int) -> bool:
    """Brute force: every trajectory started in [n - lookback, n) visits n.

    reach[m] is decided right-to-left with memoization on the hop map.
    """
    reach: dict[int, bool] = {n: True}

    def hits(m: int) -> bool:
        seen = []
        cur = m
        while cur not in reach:
            if cur > n:
                break
            seen.append(cur)
            cur = int(kappa[cur])
        ok = reach.get(cur, False)
        for s in seen:
            reach[s] = ok
        return ok

    return all(hits(m) for m in range(max(n - lookback, 0), n))


# ---------------------------------------------------------------------------
# Analytic kernel of the N-chain


def analytic_n_kernel(d: Distribution, lam: float, k: int, j: int) -> float:
    """P[N_n = j | N_{n-1} = k] for exponential marks of rate ``lam``.

    Binomial(k+1, e^{-lam t}) survival of the k pending trajectories plus
    the freshly launched hop, mixed over the inter-arrival law: one
    adaptive quadrature over y = logit(w), w = F_D(t).  s**j or
    (1 - s)**(k+1-j) can confine an entry to a layer at w = 0 or w = 1
    that spans many decades (a Weibull quantile goes as w**(1/shape) near
    0), and QUADPACK in w can miss such a layer without reporting it; in y
    it is a smooth bump.  The quantile is taken through ``isf`` for y > 0,
    so that the upper layer keeps its digits.  This is the reference the
    exponential closed form and the tanh-sinh rule are tested against.
    """
    if k < 0 or j < 0:
        raise ValueError("k and j must be nonnegative")
    if j > k + 1:
        return 0.0
    comb = special.comb(k + 1, j, exact=True)

    def g(y):
        w, v = special.expit(y), special.expit(-y)  # w and 1 - w
        if w * v == 0.0:
            return 0.0
        s = math.exp(-lam * float(d.quantile(w) if y <= 0 else d.isf(v)))
        return comb * s**j * (1.0 - s) ** (k + 1 - j) * w * v

    val, _ = integrate.quad(g, -math.inf, math.inf, limit=200, epsabs=1e-12, epsrel=1e-12)
    return float(min(max(val, 0.0), 1.0))


def _exponential_kernel(rate: float, lam: float, k, j) -> np.ndarray:
    """Kernel entries (k, j) for exp(rate) sizes, broadcast over k and j.

    s = exp(-lam D) is then Beta(a, 1) with a = rate / lam, so entry (k, j)
    is C(k+1, j) a B(j + a, k + 2 - j) = a Gamma(k+2) Gamma(j+a) /
    (Gamma(j+1) Gamma(k+2+a)), taken through gammaln; 0 for j > k + 1.
    """
    a = rate / lam
    log_p = (math.log(a) + special.gammaln(k + 2) - special.gammaln(k + 2 + a)
             + special.gammaln(j + a) - special.gammaln(j + 1))
    return np.where(j <= k + 1, np.exp(log_p), 0.0)


def kernel_row(d: Distribution, lam: float, k: int) -> np.ndarray:
    """Entries j = 0..k+1 of kernel row k: in closed form for exponential
    sizes, else one `analytic_n_kernel` quadrature per entry."""
    if isinstance(d, Exponential):
        return _exponential_kernel(d.rate, lam, k, np.arange(k + 2))
    return np.array([analytic_n_kernel(d, lam, k, j) for j in range(k + 2)])


# Tanh-sinh (double-exponential) rule on (0, 1), Takahasi & Mori (1974):
# nodes w = (1 + tanh(pi/2 sinh t)) / 2 at t = i h, |t| <= _TS_SPAN.  Its
# error falls exponentially in 1/h even where the integrand has an endpoint
# singularity, as exp(2) sizes give (s = sqrt(1 - w)); Gauss-Legendre only
# converges algebraically there.  At this span the outermost nodes lie
# within 2.3e-16 of 0 and 1, so the dropped weight is below double rounding.
_TS_SPAN = 3.15
_TS_STEPS = 128  # the fine rule has 2 * 128 + 1 = 257 nodes, the coarse one 129
# Largest difference between the fine and coarse stationary laws that
# `stationary_n_distribution` accepts before it falls back to `kernel_row`.
STATIONARY_TOL = 1e-12


def _tanh_sinh_rule():
    """Nodes of the fine rule and a (node, 2) matrix of fine and coarse weights."""
    t = np.linspace(-_TS_SPAN, _TS_SPAN, 2 * _TS_STEPS + 1)
    h = t[1] - t[0]
    v = 0.5 * math.pi * np.sinh(t)
    nodes = special.expit(2.0 * v)
    fine = h * 0.25 * math.pi * np.cosh(t) / np.cosh(v) ** 2
    coarse = np.zeros_like(fine)
    coarse[::2] = 2.0 * fine[::2]  # every other node: the rule at twice the step
    return nodes, np.stack([fine, coarse], axis=1)


def stationary_n_distribution(d: Distribution, lam: float, truncation: int = 200) -> np.ndarray:
    """Stationary law of the N-chain on states 0..truncation-1.

    For exponential sizes the kernel is the closed form.  Otherwise kernel
    entry (k, j) is the integral over w in (0, 1) of the Binomial(k + 1, s)
    pmf at j, with s = exp(-lam Q(w)) and Q the size quantile; see the
    module docstring for the quadrature, the error estimate and the
    ``STATIONARY_TOL`` fallback.  The pmf is taken in log space, one
    row at a time, from outer products of j and k + 1 - j with log s and
    log(1 - s); the j = 0 and j = k + 1 terms are set on their own, so
    that s = 0 and s = 1 stay finite.
    """
    if isinstance(d, Exponential):
        states = np.arange(truncation)
        p = _exponential_kernel(d.rate, lam, states[:, None], states)
        return stationary_law(p / p.sum(axis=1, keepdims=True))
    nodes, weights = _tanh_sinh_rule()
    s = np.exp(-lam * np.asarray(d.quantile(nodes), dtype=float))
    with np.errstate(divide="ignore"):
        log_s, log_r = np.log(s), np.log1p(-s)  # -inf where s = 0 or s = 1
    p = np.zeros((2, truncation, truncation))
    for k in range(truncation):
        j = np.arange(min(k + 2, truncation))
        log_comb = special.gammaln(k + 2) - special.gammaln(j + 1) - special.gammaln(k + 2 - j)
        # the middle terms from outer products; j = 0 has no power of s and
        # j = k + 1 none of 1 - s, where 0 * -inf would give NaN
        log_pmf = np.empty((len(j), len(s)))
        log_pmf[0] = log_comb[0] + (k + 1) * log_r
        mid = j[1:k + 1]
        log_pmf[1:k + 1] = (log_comb[mid, None] + np.multiply.outer(mid, log_s)
                            + np.multiply.outer(k + 1 - mid, log_r))
        if k + 1 < truncation:
            log_pmf[k + 1] = log_comb[k + 1] + (k + 1) * log_s
        p[:, k, : len(j)] = (np.exp(log_pmf) @ weights).T
    fine, coarse = (stationary_law(m) for m in p / p.sum(axis=-1, keepdims=True))
    if np.max(np.abs(fine - coarse)) < STATIONARY_TOL:
        return fine
    p = np.zeros((truncation, truncation))
    for k in range(truncation):
        row = kernel_row(d, lam, k)[:truncation]
        p[k, : len(row)] = row
    return stationary_law(p / p.sum(axis=1, keepdims=True))


def universal_growth(nproc: NProcess):
    """Cumulative universal-checkpoint count at 20 window lengths, with a
    least-squares linear fit (slope, intercept, r_squared)."""
    span = len(nproc.values)
    xs = np.linspace(span / 20, span, 20).astype(int)
    counts = np.searchsorted(nproc.universal_indices - nproc.first_index, xs)
    slope, intercept = np.polyfit(xs, counts, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((counts - pred) ** 2))
    ss_tot = float(np.sum((counts - counts.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2, xs, counts
