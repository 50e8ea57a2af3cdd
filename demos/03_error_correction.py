"""
Error correction shaped by how in-array logic fails
===================================================

A failed two-row access does not flip one stored bit; it confuses the
comparator in one column, and for XOR that confusion lands in the result
as a single-bit error.  Both codes here are linear, so the XOR of two
codewords is a codeword and the sideband XOR of two protected words can
be decoded directly.  That closure is what lets the array repair most
CiM errors without touching the operand rows again.
"""

import random

from sttcim import (
    ArrayConfig,
    CimArray,
    CimOp,
    DecodeStatus,
    InjectedColumnNoise,
    make_code,
)
from sttcim.cimarray import AccessCounters

# Two codes, one per protection level.  The light one corrects single
# bit errors and detects doubles; the heavy one corrects up to three and
# detects quadruples, which matters once two-row accesses multiply the
# chances of simultaneous column confusions.
for name in ("secded", "ec3ed4"):
    code = make_code(name, 8)
    print(f"{name}: 8 data bits -> {code.n} code bits")

print()

# Closure check: XOR any two codewords and the result decodes clean.
code = make_code("ec3ed4", 8)
cw = {code.encode(d) for d in range(256)}
closed = all(code.decode(a ^ b).status is DecodeStatus.CLEAN for a in list(cw)[:16] for b in list(cw)[:16])
print(f"xor of codewords stays a codeword (sampled): {closed}")

# Correction walk: flip one, two, three bits and watch the decoder name
# the exact positions; four flips must be refused, not miscorrected.
word = code.encode(0x5A)
rng = random.Random(3)
for k in (1, 2, 3, 4):
    flips = rng.sample(range(code.n), k)
    bad = word
    for pos in flips:
        bad ^= 1 << pos
    res = code.decode(bad)
    found = sorted(res.error_positions)
    print(f"{k} flipped at {sorted(flips)} -> {res.status.value:24s} decoder flipped {found}")

print()

# The same machinery live in the array.  Inject column confusions at a
# visible rate and run XOR operations: a corrupted result is fixed from
# its own sideband in the same access, so every operation still costs
# exactly one access and the fixup counter records the saves.
config = ArrayConfig()
arr = CimArray(config, sampler=InjectedColumnNoise(p=0.01, seed=9))
vals = [random.Random(i).getrandbits(32) for i in range(64)]
for i, v in enumerate(vals):
    arr.write_word(i, v)
arr.counters = AccessCounters()

# Operands of one access sit in the same columns, so pair word j with
# word j+32: two rows down, same group.
ok = 0
for j in range(32):
    got, accesses = arr.cim_word(CimOp.XOR, j, j + 32)
    assert accesses == 1
    ok += got == (vals[j] ^ vals[j + 32])
c = arr.counters
print(f"noisy XOR sweep: {ok}/32 correct, all single-access")
print(f"  corrected words: {c.corrected_words}, fixed from the xor sideband: {c.xor_fixups}")

# Non-XOR results are not codewords, so a detected error there falls back
# to two near-memory reads plus the local ALU: three accesses, correct
# answer, separate traffic bucket.
arr.counters = AccessCounters()
worst = 1
for j in range(32):
    got, accesses = arr.cim_word(CimOp.AND, j, j + 32)
    assert got == (vals[j] & vals[j + 32])
    worst = max(worst, accesses)
c = arr.counters
print(f"noisy AND sweep: worst case {worst} accesses, "
      f"fallbacks={c.fallbacks}, near-memory reads={c.nm_reads}")
