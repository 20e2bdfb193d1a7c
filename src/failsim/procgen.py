"""Finite windows of marked point processes under the point-at-origin view.

Three generator families: plain renewal, Markov renewal (state-dependent
size and mark laws per transition), and the two-regime mixture in which a
single regime draw selects the mark law for the whole replication.

Windows are immutable; extending a window re-derives every inter-arrival
from the keyed stream, so a longer window is always a prefix-consistent
superset of a shorter one with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .dist import BoundedSupportError, Distribution


class ProcessError(ValueError):
    pass


@dataclass(frozen=True)
class MarkedWindow:
    """Ordered points X_0 = 0 < X_1 < ... with lazy per-point mark streams.

    ``law_index[n]`` selects ``mark_laws[law_index[n]]`` as the failure law
    of point n.  Marks themselves are never materialized here; engines pull
    them through keyed lanes addressed by (seed, replication, point).
    """

    kind: str
    seed: int
    replication: int
    sizes: np.ndarray
    size_law: Distribution | None
    mark_laws: tuple
    law_index: np.ndarray | None = None
    state_labels: np.ndarray | None = None
    regime: int | None = None
    mrp_spec: "MarkovRenewalSpec | None" = None

    @property
    def n_points(self) -> int:
        return len(self.sizes)

    @property
    def points(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.sizes)))

    def mark_law_for(self, point_index: int) -> Distribution:
        if self.law_index is None:
            return self.mark_laws[0]
        return self.mark_laws[self.law_index[point_index]]

    def extended(self, n_points: int) -> "MarkedWindow":
        if n_points <= self.n_points:
            return self
        if self.kind == "renewal":
            fresh = generate_renewal(
                self.size_law, n_points, self.seed, self.replication, self.mark_laws[0]
            )
            return replace(fresh, regime=self.regime)
        if self.kind == "mixture":
            new = generate_renewal(self.size_law, n_points, self.seed, self.replication, None)
            return replace(
                self, sizes=new.sizes, law_index=np.zeros(n_points, dtype=np.intp)
            )
        if self.kind == "markov":
            return generate_markov_renewal(self.mrp_spec, n_points, self.seed, self.replication)
        raise ProcessError(f"cannot extend window of kind {self.kind!r}")

    def size_at(self, index: int) -> float:
        """Inter-arrival at an arbitrary (possibly negative) index.

        Two-sided access is only defined for renewal-type windows; it backs
        the boundary-free random-walk model.
        """
        if self.kind not in ("renewal", "mixture"):
            raise ProcessError("two-sided sizes are defined for renewal windows only")
        if 0 <= index < self.n_points:
            return float(self.sizes[index])
        return float(keyed_sizes(self.size_law, self.seed, self.replication, [index])[0])


def keyed_sizes(d: Distribution, seed, replication, points, out=None) -> np.ndarray:
    """Renewal inter-arrivals at ``points`` (any signed indices, any shape),
    each from its own keyed draw: the sizes of every renewal window.
    ``out`` is an optional float64 work array for the uniforms."""
    u = rng.keyed_uniform(seed, replication, rng.DOMAIN_SIZE, np.asarray(points) + 1, out=out)
    return np.asarray(d.quantile(u), dtype=float)


def generate_renewal(
    d: Distribution,
    n_points: int,
    seed: int,
    replication: int = 0,
    mark_law: Distribution | None = None,
) -> MarkedWindow:
    if n_points < 1:
        raise ProcessError("n_points must be >= 1")
    sizes = keyed_sizes(d, seed, replication, np.arange(n_points))
    return MarkedWindow(
        kind="renewal",
        seed=seed,
        replication=replication,
        sizes=sizes,
        size_law=d,
        mark_laws=(mark_law,),
    )


def generate_mixture(
    d: Distribution,
    l0: Distribution,
    l1: Distribution,
    p0: float,
    seed: int,
    replication: int = 0,
) -> MarkedWindow:
    """One regime draw per replication selects the mark law for all points."""
    if not (0.0 < p0 <= 1.0):
        raise ProcessError("p0 must lie in (0, 1]")
    u = float(rng.keyed_uniform(seed, replication, rng.DOMAIN_REGIME, 0))
    regime = 0 if u < p0 else 1
    sizes = keyed_sizes(d, seed, replication, np.arange(1))
    win = MarkedWindow(
        kind="mixture",
        seed=seed,
        replication=replication,
        sizes=sizes,
        size_law=d,
        mark_laws=(l0 if regime == 0 else l1,),
        law_index=np.zeros(1, dtype=np.intp),
        regime=regime,
    )
    return win


@dataclass(frozen=True)
class MarkovRenewalSpec:
    """Transition-indexed size and mark laws driven by a finite chain."""

    states: tuple
    transition: np.ndarray
    size_laws: dict
    mark_laws: dict
    initial: np.ndarray | None = None  # None means start from the stationary law

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "transition", p)
        k = len(self.states)
        if p.shape != (k, k):
            raise ProcessError("transition matrix shape does not match states")
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
            raise ProcessError("transition rows must be stochastic to 1e-12")
        if not _irreducible(p):
            raise ProcessError("transition matrix must be irreducible")
        for laws in (self.size_laws, self.mark_laws):
            for (i, j), law in laws.items():
                if p[i, j] <= 0:
                    continue
                if not law.unbounded:
                    raise BoundedSupportError(
                        f"law for transition ({i},{j}) must have unbounded support"
                    )
                law.mean()  # integrability
        for i in range(k):
            for j in range(k):
                if p[i, j] > 0 and ((i, j) not in self.size_laws or (i, j) not in self.mark_laws):
                    raise ProcessError(f"missing laws for reachable transition ({i},{j})")

    def stationary(self) -> np.ndarray:
        """Stationary distribution of the (irreducible) transition chain."""
        return stationary_law(self.transition)

    def transition_pairs(self):
        k = len(self.states)
        return [(i, j) for i in range(k) for j in range(k) if self.transition[i, j] > 0]


def stationary_law(p: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible stochastic matrix by one linear solve.

    Solves pi P = pi with its last balance equation replaced by sum(pi) = 1.
    Unlike power iteration this also holds for periodic chains.  Rounding
    can leave entries of order -1e-17 where the law is negligible; they are
    clipped to zero and the law renormalized.
    """
    n = p.shape[0]
    a = p.T - np.eye(n)
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.maximum(np.linalg.solve(a, b), 0.0)
    return pi / pi.sum()


def _irreducible(p: np.ndarray) -> bool:
    k = p.shape[0]
    reach = (p > 0) | np.eye(k, dtype=bool)
    for _ in range(k):
        reach = reach @ reach
    return bool(np.all(reach))


def generate_markov_renewal(
    spec: MarkovRenewalSpec, n_points: int, seed: int, replication: int = 0
) -> MarkedWindow:
    if n_points < 1:
        raise ProcessError("n_points must be >= 1")
    k = len(spec.states)
    init = spec.initial if spec.initial is not None else spec.stationary()
    cum_init = np.cumsum(init)
    cum_rows = np.cumsum(spec.transition, axis=1)

    us = rng.keyed_uniform(
        seed, replication, rng.DOMAIN_STATE, np.arange(0, n_points + 1)
    )
    states = np.empty(n_points + 1, dtype=np.intp)
    states[0] = int(np.searchsorted(cum_init, us[0], side="right"))
    for n in range(1, n_points + 1):
        states[n] = int(np.searchsorted(cum_rows[states[n - 1]], us[n], side="right"))

    pairs = spec.transition_pairs()
    pair_id = {pr: t for t, pr in enumerate(pairs)}
    law_index = np.array(
        [pair_id[(int(states[n]), int(states[n + 1]))] for n in range(n_points)], dtype=np.intp
    )

    idx = np.arange(1, n_points + 1)
    u = rng.keyed_uniform(seed, replication, rng.DOMAIN_SIZE, idx)
    sizes = np.empty(n_points, dtype=float)
    for t, pr in enumerate(pairs):
        sel = law_index == t
        if np.any(sel):
            sizes[sel] = np.asarray(spec.size_laws[pr].quantile(u[sel]), dtype=float)

    return MarkedWindow(
        kind="markov",
        seed=seed,
        replication=replication,
        sizes=sizes,
        size_law=None,
        mark_laws=tuple(spec.mark_laws[pr] for pr in pairs),
        law_index=law_index,
        state_labels=states[:-1],
        mrp_spec=spec,
    )
