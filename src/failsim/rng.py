"""Counter-based random streams.

Every uniform draw is a pure function of a tuple of 64-bit key words
``(seed, replication, domain, point, attempt)``.  This makes each mark
sequence lazy (attempt ``i`` of point ``n`` can be produced on demand),
bit-reproducible, and independently addressable, so simulations can be
audited by recomputing any individual draw.

The mixer is the splitmix64 finalizer chained over the key words, which
is more than adequate statistically for Monte Carlo at the scales used
here and is trivially vectorizable with numpy uint64 arithmetic.

A lane is the draws of one ``(seed, replication, domain, point)`` at
attempts 1, 2, ...  The scans hash each lane's four leading words once
(`lane_prefix`) and then draw a batch of attempts of many lanes at a time
(`lane_draws`): the attempt word's round takes (base * M1 + PHI) + j * M1,
which is exact mod 2**64, from a table of j * M1 made once, and the
finalizer and the conversion run in place in the caller's buffers.  For
exponential marks the conversion and the quantile are one in-place pass,
log1p((k + 0.5) * -2**-53) / -rate, which is -log1p(-u) / rate bit for
bit.  Every draw equals `keyed_uniform` of its five words, and both share
one finalizer (`_mix`) and one conversion (`_to_unit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_PHI = 0x9E3779B97F4A7C15
_INIT = 0x8C5FDB8E3A1D4E27
# The same constants as numpy scalars, for the rounds that run on arrays.
_M1_U, _M2_U, _PHI_U = np.uint64(_M1), np.uint64(_M2), np.uint64(_PHI)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))

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


def _word(w):
    """A key word as a Python int in [0, 2**64) when it holds one value,
    else as a uint64 array; every word converts as `as_u64` converts it."""
    if type(w) is int:
        if not -(1 << 63) <= w < 1 << 63:
            raise OverflowError("Python int too large to convert to C long")
        return w & _MASK
    w = as_u64(w)
    return int(w.reshape(-1)[0]) if w.size == 1 else w


def _mix_int(x):
    """The splitmix64 finalizer on a Python int in [0, 2**64)."""
    x = (x ^ x >> 30) * _M1 & _MASK
    x = (x ^ x >> 27) * _M2 & _MASK
    return x ^ x >> 31


def _mix(x, tmp=None):
    """The splitmix64 finalizer, in place on a uint64 array; its shifts go
    to ``tmp``, a uint64 array of x's shape and layout, made here when not
    given."""
    if tmp is None:
        tmp = np.empty_like(x)
    for shift, factor in ((_S30, _M1_U), (_S27, _M2_U)):
        x ^= np.right_shift(x, shift, out=tmp)
        x *= factor
    x ^= np.right_shift(x, _S31, out=tmp)
    return x


def _round(h, w, out=None):
    """One word's round, h = mix((h + PHI) ^ (w * M1 + PHI)): in Python
    integers when ``h`` and ``w`` both are, else on uint64 arrays, in
    ``out`` when it is given."""
    if isinstance(h, int) and isinstance(w, int):
        return _mix_int(h + _PHI & _MASK ^ w * _M1 + _PHI & _MASK)
    if out is None:
        out = np.empty(np.broadcast(h, w).shape, dtype=np.uint64)
    if isinstance(w, int):
        out[...] = w * _M1 + _PHI & _MASK
    else:
        np.multiply(w, _M1_U, out=out)
        out += _PHI_U
    out ^= np.uint64(h + _PHI & _MASK) if isinstance(h, int) else h + _PHI_U
    return _mix(out)


def keyed_u64(*words, out=None):
    """Hash a tuple of integer words (scalars or broadcastable arrays).

    Each word takes one `_round`.  Leading words that hold one value
    (Python ints, numpy scalars, 0-d or one-element arrays) are hashed in
    Python integers, so a scan's fixed key words cost no numpy call; the
    rounds from the first array word on run in numpy, the last word's in
    place in ``out``, a uint64 array of the words' broadcast shape, made
    here when not given.  Scalar words give a scalar.
    """
    if out is None:
        out = np.empty(np.broadcast(*words).shape, dtype=np.uint64)
    h = _INIT
    for w in words[:-1]:
        h = _round(h, _word(w))
    h = _round(h, _word(words[-1]), out)
    if isinstance(h, int):
        out[...] = h
    return out if out.ndim else out[()]


def keyed_uniform(*words, out=None):
    """Uniform double in (0, 1), a pure function of the key words.

    The hash and its conversion run in place in ``out``, a contiguous (C
    or Fortran order) float64 array of the words' broadcast shape, made
    here when not given (the scans pass a reused work buffer).  Scalar
    words give a scalar.
    """
    if out is None:
        out = np.empty(np.broadcast(*words).shape)
    bits = out.view(np.uint64)
    keyed_u64(*words, out=bits)
    _to_unit(bits, out, 2.0**-53)
    return out if out.ndim else out[()]


def _to_unit(bits, out, scale):
    """out = ((bits >> 11) + 0.5) * scale, in place: ``out`` is the memory of
    ``bits`` as float64, contiguous in C or Fortran order."""
    bits >>= _S11
    # The top 53 bits convert exactly; read as int64 (they are below 2**63)
    # they take numpy's fast int64 conversion, not its slow uint64 one.  On
    # flat views (in memory order) numpy converts the overlapping arrays
    # without a temporary.
    np.copyto(out.reshape(-1, order="A"), bits.reshape(-1, order="A").view(np.int64),
              casting="unsafe")
    out += 0.5
    out *= scale


# j * M1 for j = 1, ..., 2**15 (a scan tile's widest row): the attempt
# steps of `lane_draws`, made once.
_STEPS = np.arange(1, (1 << 15) + 1, dtype=np.uint64) * _M1_U


def lane_prefix(seed, replication, domain, points):
    """Each lane's hash after its four leading words, plus PHI: what every
    attempt's round of `lane_draws` starts from.  ``replication`` is one
    value or one per point; returns a uint64 array over ``points``."""
    h = keyed_u64(seed, replication, domain, np.asarray(points, dtype=np.int64))
    h += _PHI_U
    return h


def lane_draws(prefix, base, out, scratch=None, rate=None):
    """Attempts base[k] + 1, ..., base[k] + m of lane k, for an (lanes, m)
    ``out``.

    ``prefix`` is each lane's `lane_prefix` and ``base`` (int64) its last
    attempt drawn.  Draw j of lane k is `keyed_uniform` of the lane's words
    and attempt base[k] + j, bit for bit.  The hash, the finalizer (its
    shifts in ``scratch``, a uint64 array of out's shape and layout, made
    here when not given) and the conversion run in place in ``out``, a
    contiguous (C or Fortran order) float64 array, which is returned.
    With ``rate`` the draws are exponential marks, -log1p(-u) / rate bit
    for bit, converted in the same pass.
    """
    bits = out.view(np.uint64)
    m = out.shape[1]
    steps = _STEPS[:m] if m <= len(_STEPS) else np.arange(1, m + 1, dtype=np.uint64) * _M1_U
    words = as_u64(base) * _M1_U
    words += _PHI_U
    np.add(words[:, None], steps, out=bits)
    bits ^= prefix[:, None]
    _mix(bits, scratch)
    if rate is None:
        _to_unit(bits, out, 2.0**-53)
    else:
        # -u is exactly (k + 0.5) * -2**-53, and x / -rate is -(x / rate)
        _to_unit(bits, out, -2.0**-53)
        np.log1p(out, out=out)
        out /= -rate
    return out


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
