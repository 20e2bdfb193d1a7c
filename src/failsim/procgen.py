"""Finite windows of marked point processes under the point-at-origin view.

Three generator families: plain renewal, Markov renewal (state-dependent
size and mark laws per transition), and the two-regime mixture in which a
single regime draw selects the mark law for the whole replication.  There
are two kinds of window: a window is Markov if and only if it carries its
``mrp_spec``.  A mixture window is a renewal window whose one mark law is
its drawn regime's, and it records that ``regime``.

Windows are immutable and hold their keys, not their sizes: the
inter-arrival of point n is one keyed draw (`keyed_sizes`), made when the
sizes are read.  Extending a renewal window only raises its ``n_points``,
and extending a Markov window walks its states again, so a longer window is
always a prefix-consistent superset of a shorter one with the same seed.

A Markov window's states are drawn with no per-point loop: one keyed
uniform per point, a next-state table of every state's successor at every
step (one ``searchsorted`` per row of the transition matrix), and pointer
doubling, which composes the table's steps into prefix maps in log2 passes
(`markov_states`), in tiles of at most SCAN_TILE entries.  The states
equal those of the one-point-at-a-time walk, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .dist import BoundedSupportError, Distribution

# Every scan holds at most SCAN_TILE values at once: the restart and
# checkpoint scans' draws (one task's batch at least) and the Markov state
# walk's next-state table.  A tile's few work arrays then fit a 2 MB L2
# cache, and memory is bounded by the tile, not by the size of the run.
SCAN_TILE = 1 << 15


class ProcessError(ValueError):
    pass


@dataclass(frozen=True)
class MarkedWindow:
    """Ordered points X_0 = 0 < X_1 < ... with lazy per-point mark streams.

    A window is its keys: ``sizes`` and ``points`` are derived on every
    read, with no cache, through `keyed_sizes`.  ``law_index[n]`` selects
    point n's size law and ``mark_laws[law_index[n]]`` as its failure law
    in a Markov window; a renewal window has one mark law and no
    ``law_index``.  Marks themselves are never materialized here; engines
    pull them through keyed lanes addressed by (seed, replication, point).
    """

    seed: int
    replication: int
    n_points: int
    size_law: Distribution | None
    mark_laws: tuple
    law_index: np.ndarray | None = None
    state_labels: np.ndarray | None = None
    regime: int | None = None
    mrp_spec: "MarkovRenewalSpec | None" = None

    @property
    def sizes(self) -> np.ndarray:
        if self.mrp_spec is None:
            return keyed_sizes(self.size_law, self.seed, self.replication,
                               np.arange(self.n_points))
        sizes = np.empty(self.n_points)
        for t, pr in enumerate(self.mrp_spec.transition_pairs()):
            sel = np.flatnonzero(self.law_index == t)
            sizes[sel] = keyed_sizes(self.mrp_spec.size_laws[pr], self.seed, self.replication, sel)
        return sizes

    @property
    def points(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.sizes)))

    def extended(self, n_points: int) -> "MarkedWindow":
        if n_points <= self.n_points:
            return self
        if self.mrp_spec is not None:
            return generate_markov_renewal(self.mrp_spec, n_points, self.seed, self.replication)
        return replace(self, n_points=n_points)


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
    return MarkedWindow(seed, replication, n_points, d, (mark_law,))


def generate_mixture(
    d: Distribution,
    l0: Distribution,
    l1: Distribution,
    p0: float,
    seed: int,
    replication: int = 0,
) -> MarkedWindow:
    """One regime draw per replication selects the mark law for all points.

    The window is a one-point renewal window with that mark law and its
    ``regime``, built here and not through `generate_renewal`, so that one
    generator call makes one window."""
    if not (0.0 < p0 <= 1.0):
        raise ProcessError("p0 must lie in (0, 1]")
    u = float(rng.keyed_uniform(seed, replication, rng.DOMAIN_REGIME, 0))
    regime = 0 if u < p0 else 1
    return MarkedWindow(seed, replication, 1, d, (l0 if regime == 0 else l1,),
                        regime=regime)


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
        if not _stochastic(p):
            raise ProcessError("transition rows must be stochastic to 1e-12")
        if self.initial is not None:
            init = np.asarray(self.initial, dtype=float)
            object.__setattr__(self, "initial", init)
            if init.shape != (k,) or not _stochastic(init):
                raise ProcessError(
                    f"initial law must have {k} nonnegative entries summing to 1 to 1e-12"
                )
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


def _stochastic(p: np.ndarray) -> bool:
    """Nonnegative entries, each row summing to 1 to within 1e-12 (NaN fails)."""
    return bool(np.all(p >= 0) and np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-12))


def _irreducible(p: np.ndarray) -> bool:
    k = p.shape[0]
    reach = (p > 0) | np.eye(k, dtype=bool)
    for _ in range(k):
        reach = reach @ reach
    return bool(np.all(reach))


def cumulative_law(p) -> np.ndarray:
    """Cumulative sums of a law, or of each row of a stochastic matrix, with
    the entry of the last state of positive probability and every later one
    raised to +inf.  ``searchsorted(c, u, side="right")`` then maps every
    uniform u in [0, 1) to a state of positive probability, also where
    rounding leaves a row's sum just below 1 (rows are accepted to 1e-12).
    Below the raised entry the sums are those of ``np.cumsum``."""
    p = np.asarray(p, dtype=float)
    cum = np.cumsum(p, axis=-1)
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)
    cum[np.arange(p.shape[-1]) >= np.expand_dims(last, -1)] = np.inf
    return cum


def markov_states(cum_init, cum_rows, us) -> np.ndarray:
    """The states of a chain driven by the uniforms ``us``: state 0 is drawn
    from ``cum_init`` by us[0], and state n from the row ``cum_rows[state
    n-1]`` by us[n] (both from `cumulative_law`).

    There is no per-point loop.  A tile of steps m = lo, ..., lo + w - 1
    holds the k x w next-state table f[i, m] = searchsorted(cum_rows[i],
    us[m], side="right"), one searchsorted per row i, and composes it in
    place by pointer doubling: after the pass at distance d, column m holds
    the map of steps max(lo, m - 2d + 1), ..., m composed, so after
    ceil(log2 w) passes it maps the state before the tile to state m (a
    prefix scan over function composition; Hillis & Steele 1986, Blelloch
    1990).  Each tile starts from the last state of the one before it and
    holds at most SCAN_TILE table entries (one column at least), so memory
    is bounded by the tile whatever the chain length and the state count.
    """
    k, n = len(cum_rows), len(us) - 1
    states = np.empty(n + 1, dtype=np.intp)
    states[0] = np.searchsorted(cum_init, us[0], side="right")
    width = max(SCAN_TILE // k, 1)
    table = np.empty((k, min(width, n)), dtype=np.intp)
    for lo in range(1, n + 1, width):
        u = us[lo:lo + width]
        f = table[:, :len(u)]
        for i in range(k):
            f[i] = np.searchsorted(cum_rows[i], u, side="right")
        d = 1
        while d < len(u):
            f[:, d:] = np.take_along_axis(f[:, d:], f[:, :-d], axis=0)
            d *= 2
        states[lo:lo + len(u)] = f[states[lo - 1]]
    return states


def generate_markov_renewal(
    spec: MarkovRenewalSpec, n_points: int, seed: int, replication: int = 0
) -> MarkedWindow:
    """A Markov renewal window of ``n_points`` points.

    State 0 is drawn from the initial law (the stationary law when
    ``spec.initial`` is None) and state n from row state n-1 of the
    transition matrix, by keyed uniforms 0..n_points of domain STATE.
    `markov_states` walks them with a tiled next-state table composed by
    pointer doubling.  Point n's transition (state n, state n+1) selects
    its size and mark laws, and ``law_index[n]``, its place in
    ``spec.transition_pairs()``, is one gather in a k x k pair table.
    """
    if n_points < 1:
        raise ProcessError("n_points must be >= 1")
    k = len(spec.states)
    init = spec.initial if spec.initial is not None else spec.stationary()
    us = rng.keyed_uniform(
        seed, replication, rng.DOMAIN_STATE, np.arange(0, n_points + 1)
    )
    states = markov_states(cumulative_law(init), cumulative_law(spec.transition), us)

    pairs = spec.transition_pairs()
    pair_table = np.full((k, k), -1, dtype=np.intp)
    pair_table[tuple(np.array(pairs).T)] = np.arange(len(pairs))
    law_index = pair_table[states[:-1], states[1:]]

    return MarkedWindow(
        seed=seed,
        replication=replication,
        n_points=n_points,
        size_law=None,
        mark_laws=tuple(spec.mark_laws[pr] for pr in pairs),
        law_index=law_index,
        state_labels=states[:-1],
        mrp_spec=spec,
    )
