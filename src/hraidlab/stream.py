"""Deterministic counter-based uniform streams for reproducible trials.

Every Monte Carlo trial draws from its own stream, keyed by (seed, trial
index) through the SplitMix64 finalizer.  A draw is addressed purely by
(key, counter), so trials can run in any order, in any chunk and on any
number of threads with bit-identical results.  Seeds are 64-bit words:
``check_seed`` rejects any other value, a non-integer or one that would
alias a seed in [0, 2**64).
"""

from __future__ import annotations

import numpy as np

from .config import ValidationError, check_integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U64 = np.uint64


def check_seed(seed: int) -> None:
    """Raise ValidationError unless ``seed`` is an integer in [0, 2**64)."""
    check_integer("seed", seed)
    if not 0 <= seed <= _MASK64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective avalanche mix of each 64-bit word.

    Array arithmetic wraps modulo 2**64 silently; a ``uint64`` scalar would
    warn on the wrap, so a single word goes in as a one-element array.  The
    first operation makes a new array and the rest mix it in place, so the
    caller's array is never changed.
    """
    z = z ^ (z >> _U64(30))
    z *= _U64(_MIX_A)
    z ^= z >> _U64(27)
    z *= _U64(_MIX_B)
    z ^= z >> _U64(31)
    return z


def trial_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Vector of stream keys for trials start .. start+count-1."""
    base = _mix64_array(np.array([seed], dtype=np.uint64))
    idx = np.arange(start, start + count, dtype=np.uint64)
    return _mix64_array(base + idx)


def uniforms_at(keys: np.ndarray, counter: int) -> np.ndarray:
    """The ``counter``-th uniform in [0, 1) of each stream in ``keys``.

    Counters start at 1; the top 53 bits of the mixed word form the float.
    They fit an ``int64`` exactly, whose cast to float is the cheaper one.
    """
    offset = _U64((counter * _GOLDEN) & _MASK64)
    z = _mix64_array(keys + offset)
    z >>= _U64(11)
    return z.view(np.int64) * 2.0**-53
