"""Deterministic counter-based random streams.

Every draw is a pure function of (seed, index): independent workers can
sample disjoint index ranges in any order and reproduce bit-identical
values.  Stateful generators cannot give that property for normals (ziggurat
rejection consumes a data-dependent number of uniforms), so normals here go
through the inverse CDF instead.

Quality is splitmix64-grade, which is plenty for threshold-crossing Monte
Carlo; the device tests check moment recovery empirically.

All three stages (hash, uniform, normal) run in place in one buffer per
call, so a call allocates one array the size of its indices plus one
scratch array for the hash.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_WORDS, _UNIFORMS, _NORMALS = range(3)


def _mix64_inplace(x: np.ndarray) -> None:
    """splitmix64 finalizer of a uint64 array, overwriting it."""
    t = np.empty_like(x)
    for shift, mult in ((_U64(30), _MIX1), (_U64(27), _MIX2)):
        np.right_shift(x, shift, out=t)
        np.bitwise_xor(x, t, out=x)
        np.multiply(x, mult, out=x)  # array ufuncs wrap mod 2^64 without a warning
    np.right_shift(x, _U64(31), out=t)
    np.bitwise_xor(x, t, out=x)


def mix64(x):
    """splitmix64 finalizer, elementwise over uint64 arrays or scalars."""
    x = np.array(x, dtype=np.uint64)
    _mix64_inplace(x)
    return x if x.ndim else x[()]


def seed_state(seed: int) -> np.uint64:
    """Pre-mixed seed word; decorrelates nearby integer seeds."""
    with np.errstate(over="ignore"):
        return mix64(_U64(seed & _MASK64) + _GOLDEN)


def _draw(seed: int, indices, stage: int):
    """Stream words at the given indices, carried up to the given stage in
    the one buffer: 64-bit word, uniform double, standard normal."""
    x = np.array(indices, dtype=np.uint64)
    np.add(x, _U64(1), out=x)
    np.multiply(x, _GOLDEN, out=x)
    np.add(x, seed_state(seed), out=x)
    _mix64_inplace(x)
    out = x
    if stage != _WORDS:
        # 53 mantissa bits, offset by half an ulp so 0.0 is unreachable.
        out = x.view(np.float64)
        np.right_shift(x, _U64(11), out=x)
        np.multiply(x, 2.0**-53, out=out)
        np.add(out, 2.0**-54, out=out)
        if stage == _NORMALS:
            ndtri(out, out=out)
    return out if out.ndim else out[()]


def hash_words(seed: int, indices) -> np.ndarray:
    """64-bit stream words at the given indices."""
    return _draw(seed, indices, _WORDS)


def uniforms(seed: int, indices) -> np.ndarray:
    """Doubles strictly inside (0, 1), one per index."""
    return _draw(seed, indices, _UNIFORMS)


def unit_normals(seed: int, indices) -> np.ndarray:
    """Standard normal draws via the inverse CDF, one per index."""
    return _draw(seed, indices, _NORMALS)
