"""Deterministic counter-based random streams.

Every draw is a pure function of (seed, index): independent workers can
sample disjoint index ranges in any order and reproduce bit-identical
values.  Stateful generators cannot give that property for normals (ziggurat
rejection consumes a data-dependent number of uniforms), so normals here go
through the inverse CDF instead.

Quality is splitmix64-grade, which is plenty for threshold-crossing Monte
Carlo; the device tests check moment recovery empirically.

Both stages (hash to uniform, uniform to normal) run in place in one
buffer per call, so a call allocates one array the size of its indices
plus one scratch array for the hash.  The variation Monte Carlo, which draws the
same shape block after block, passes its own index buffer and scratch
instead, so its blocks reuse two arrays rather than map fresh ones.

scipy is imported on the first normal draw, not with this module: only the
device model draws normals, and importing ``scipy.special`` costs about a
quarter of a second, which most runs (kernels, the assembler and rewriter,
mapping, most CLI commands) would pay for nothing.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
# splitmix64 finalizer rounds, x ^= x >> shift then x *= mult mod 2^64,
# followed by x ^= x >> 31.
_ROUNDS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_GOLDEN = _U64(_GOLDEN_INT)
_ROUNDS_U64 = tuple((_U64(shift), _U64(mult)) for shift, mult in _ROUNDS)


def _mix64_inplace(x: np.ndarray, t: np.ndarray) -> None:
    """splitmix64 finalizer of a uint64 array, overwriting it; t is scratch
    of x's shape."""
    for shift, mult in _ROUNDS_U64:
        np.right_shift(x, shift, out=t)
        np.bitwise_xor(x, t, out=x)
        np.multiply(x, mult, out=x)  # array ufuncs wrap mod 2^64 without a warning
    np.right_shift(x, _U64(31), out=t)
    np.bitwise_xor(x, t, out=x)


def seed_state(seed: int) -> np.uint64:
    """Pre-mixed seed word; decorrelates nearby integer seeds.

    The splitmix64 finalizer of seed + golden ratio, in Python ints: a 0-d
    numpy version costs about as much as hashing 50 indices.
    """
    x = (seed + _GOLDEN_INT) & _MASK64
    for shift, mult in _ROUNDS:
        x = ((x ^ (x >> shift)) * mult) & _MASK64
    return _U64(x ^ (x >> 31))


def _draw(seed: int, indices, normals: bool, scratch=None):
    """Uniform doubles at the given indices, or standard normals if normals
    is set, built from the hashed 64-bit stream words in the one buffer.

    Given scratch, a uint64 array of the indices' shape for the hash,
    indices must be a uint64 array too: it becomes the buffer, the draw
    overwrites it and returns a view of it, and nothing is allocated.
    """
    if scratch is None:
        x = np.array(indices, dtype=np.uint64)
        scratch = np.empty_like(x)
    else:
        x = indices
    np.add(x, _U64(1), out=x)
    np.multiply(x, _GOLDEN, out=x)
    np.add(x, seed_state(seed), out=x)
    _mix64_inplace(x, scratch)
    # 53 mantissa bits, offset by half an ulp so 0.0 is unreachable.
    out = x.view(np.float64)
    np.right_shift(x, _U64(11), out=x)
    np.multiply(x, 2.0**-53, out=out)
    np.add(out, 2.0**-54, out=out)
    if normals:
        from scipy.special import ndtri
        ndtri(out, out=out)
    return out if out.ndim else out[()]


def uniforms(seed: int, indices) -> np.ndarray:
    """Doubles strictly inside (0, 1), one per index."""
    return _draw(seed, indices, False)


def unit_normals(seed: int, indices, scratch=None) -> np.ndarray:
    """Standard normal draws via the inverse CDF, one per index.  Given
    scratch, the draw runs in place over indices as ``_draw`` says."""
    return _draw(seed, indices, True, scratch)
