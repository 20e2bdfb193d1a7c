"""Counter-based random streams.

Every uniform draw is a pure function of a tuple of 64-bit key words
``(seed, replication, domain, point, attempt)``.  This makes each mark
sequence lazy (attempt ``i`` of point ``n`` can be produced on demand),
bit-reproducible, and independently addressable, so simulations can be
audited by recomputing any individual draw.

The mixer is the splitmix64 finalizer chained over the key words, which
is more than adequate statistically for Monte Carlo at the scales used
here and is trivially vectorizable with numpy uint64 arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_PHI = np.uint64(0x9E3779B97F4A7C15)
_INIT = np.uint64(0x8C5FDB8E3A1D4E27)

# Key-word domains, so sizes / marks / auxiliary draws never collide.
DOMAIN_SIZE = 1
DOMAIN_MARK = 2
DOMAIN_STATE = 3
DOMAIN_REGIME = 4
DOMAIN_WALK = 5
DOMAIN_APPROX = 6
DOMAIN_AUX = 7


def as_u64(x):
    """Map (possibly negative / array) integers to uint64 key words."""
    return np.asarray(x, dtype=np.int64).view(np.uint64)


def _mix(x):
    """The splitmix64 finalizer; in place when ``x`` is an array."""
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def keyed_u64(*words, out=None):
    """Hash a tuple of integer words (scalars or broadcastable arrays).

    The earlier words are hashed at their own (small) broadcast shape; the
    last word's round runs in place in ``out``, a uint64 array of the
    words' broadcast shape, made here when not given.  Scalar words give
    a scalar.
    """
    if out is None:
        out = np.empty(np.broadcast(*words).shape, dtype=np.uint64)
    # uint64 wraparound is the point here, so mute numpy's overflow warnings.
    with np.errstate(over="ignore"):
        h = _INIT
        for w in words[:-1]:
            h = _mix((h + _PHI) ^ (as_u64(w) * _M1 + _PHI))
        np.multiply(as_u64(words[-1]), _M1, out=out)
        out += _PHI
        out ^= h + _PHI
        _mix(out)
    return out if out.ndim else out[()]


def keyed_uniform(*words, out=None):
    """Uniform double in (0, 1), a pure function of the key words.

    The hash and its conversion run in place in ``out``, a C-contiguous
    float64 array of the words' broadcast shape, made here when not given
    (the scans pass a reused work buffer).  Scalar words give a scalar.
    """
    if out is None:
        out = np.empty(np.broadcast(*words).shape)
    bits = out.view(np.uint64)
    keyed_u64(*words, out=bits)
    bits >>= np.uint64(11)
    # The top 53 bits convert exactly; read as int64 (they are below 2**63)
    # they take numpy's fast int64 conversion, not its slow uint64 one.  On
    # flat views numpy converts the overlapping arrays without a temporary.
    np.copyto(out.reshape(-1), bits.reshape(-1).view(np.int64), casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    return out if out.ndim else out[()]


@dataclass
class CounterStream:
    """Single-owner sequential uniform stream over one keyed lane.

    Not thread-safe by design; give each consumer its own stream.
    """

    seed: int
    replication: int = 0
    domain: int = DOMAIN_AUX
    point: int = 0
    _counter: int = field(default=0, repr=False)

    def next_uniform(self) -> float:
        self._counter += 1
        return float(
            keyed_uniform(self.seed, self.replication, self.domain, self.point, self._counter)
        )

    def uniforms(self, count: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + count + 1)
        self._counter += count
        return keyed_uniform(self.seed, self.replication, self.domain, self.point, idx)


def lane_uniforms(seed, replication, domain, point, start, count):
    """Uniforms at attempt indices start..start+count-1 of one lane."""
    idx = np.arange(start, start + count)
    return keyed_uniform(seed, replication, domain, point, idx)
