"""Error-correcting codes sized for in-array logic results.

Two codes, both linear and systematic over GF(2), so the bitwise XOR of two
codewords is again a codeword.  That closure is what lets a controller run
an ECC check directly on the XOR output of a compute-in-memory access
instead of on each operand.

* ``Secded``: extended Hamming code.  Corrects any single bit error and
  detects any double (distance 4).  Check bits sit at power-of-two
  positions, data bits fill the rest, one overall parity bit is appended.

* ``Ec3Ed4``: a binary BCH code of length 63 with designed distance 7,
  shortened to the requested data width, plus one overall parity bit.
  Corrects any 1, 2 or 3 bit errors and detects any 4 (distance 8).  The
  in-array failure mode is several independent column confusions per word,
  which single-error codes cannot absorb; this one is sized for it.

Codeword convention: Python ints, bit i of the int is codeword bit i.
Layout is [data | checks | parity] for ``Ec3Ed4``; ``Secded`` interleaves
checks at power-of-two Hamming positions with the parity bit last.

Both codes share one table-driven decoder (syndrome decoding, Lin &
Costello, *Error Control Coding*, ch. 3).  Every codeword bit has a column
syndrome: for ``Ec3Ed4`` the remainder of its polynomial term modulo the
generator, for ``Secded`` its Hamming index, each with the overall-parity
flag one bit above.  The syndrome of a word is the XOR of the columns of
its set bits, computed as per-byte table lookups, and is zero exactly on
codewords.  A nonzero syndrome is looked up among single columns, then
(for t = 3) among pairs of columns, then as a pair plus one column; a miss
everywhere means the word is uncorrectable.  With distance 8 (resp. 4)
every error pattern of weight <= t has its own syndrome, so a hit names the
unique codeword within distance t and a miss means there is none: this is
the bounded-distance decoder.  The pair table is built on the first
nonzero syndrome; clean decodes never pay for it.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import NamedTuple

__all__ = [
    "DecodeStatus",
    "DecodeResult",
    "Secded",
    "Ec3Ed4",
    "make_code",
]


class DecodeStatus(enum.Enum):
    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED_UNCORRECTABLE = "detected_uncorrectable"


class DecodeResult(NamedTuple):
    """Outcome of one decode.

    data and codeword are the corrected values, or None when the decoder
    refuses.  error_positions lists the codeword bit indices the decoder
    flipped, in increasing order.  A named tuple: one is built per decode,
    at a fraction of a frozen dataclass's construction cost.
    """

    status: DecodeStatus
    data: int | None
    codeword: int | None
    error_positions: tuple[int, ...] = ()

    @property
    def errors(self) -> int:
        return len(self.error_positions)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _byte_tables(columns) -> tuple[list[int], ...]:
    """Per-byte XOR tables: tables[k][v] is the XOR of columns[8k + i] over
    the set bits i of v, so a linear map of x is the XOR of one lookup per
    byte of x."""
    tables = []
    for k in range(0, len(columns), 8):
        chunk = columns[k:k + 8]
        table = [0] * (1 << len(chunk))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] ^ chunk[low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


def _lookup(tables, x: int) -> int:
    acc = 0
    for table in tables:
        acc ^= table[x & 0xFF]
        x >>= 8
    return acc


class _SyndromeCode:
    """Table-driven encode and bounded-distance decode of a systematic
    linear code, given each data bit's codeword and each codeword bit's
    column syndrome."""

    _T = 1

    def _build_tables(self, data_codewords, columns) -> None:
        self._encode_tables = _byte_tables(data_codewords)
        self._syndrome_tables = _byte_tables(columns)
        self._columns = columns
        self._singles = {c: (i,) for i, c in enumerate(columns)}
        self._pairs = None

    def encode(self, data: int) -> int:
        if data < 0 or data >> self.data_bits:
            raise ValueError("data out of range")
        return _lookup(self._encode_tables, data)

    def decode(self, word: int) -> DecodeResult:
        if word < 0 or word >> self.n:
            raise ValueError("word out of range")
        syndrome = _lookup(self._syndrome_tables, word)
        if not syndrome:
            return DecodeResult(DecodeStatus.CLEAN, self.extract(word), word)
        positions = self._error_positions(syndrome)
        if positions is None:
            return DecodeResult(DecodeStatus.DETECTED_UNCORRECTABLE, None, None)
        fixed = word
        for p in positions:
            fixed ^= 1 << p
        return DecodeResult(DecodeStatus.CORRECTED, self.extract(fixed), fixed, positions)

    def _error_positions(self, syndrome: int) -> tuple[int, ...] | None:
        """Sorted positions of the unique pattern of weight <= t with this
        syndrome, or None."""
        hit = self._singles.get(syndrome)
        if hit is not None or self._T < 2:
            return hit
        pairs = self._pairs
        if pairs is None:
            cols = self._columns
            pairs = self._pairs = {
                cols[i] ^ cols[j]: (i, j) for i, j in combinations(range(self.n), 2)
            }
        hit = pairs.get(syndrome)
        if hit is not None or self._T < 3:
            return hit
        # A weight-3 pattern is one column plus a pair; singles were checked
        # first, so the pair found never contains that column.  The scan
        # meets the pattern's lowest position first: the result is sorted.
        for i, col in enumerate(self._columns):
            pair = pairs.get(syndrome ^ col)
            if pair is not None:
                return (i,) + pair
        return None


class Secded(_SyndromeCode):
    """Extended Hamming code: single-error correct, double-error detect."""

    def __init__(self, data_bits: int):
        if data_bits < 1:
            raise ValueError("data_bits must be positive")
        r = 2
        while (1 << r) < data_bits + r + 1:
            r += 1
        self.data_bits = data_bits
        self.check_bits = r
        # Hamming positions 1..m hold data and checks; one parity bit after.
        m = data_bits + r
        self.n = m + 1
        self.parity_position = m
        self.data_positions: tuple[int, ...] = tuple(
            p - 1 for p in range(1, m + 1) if p & (p - 1)
        )
        self.check_positions: tuple[int, ...] = tuple((1 << i) - 1 for i in range(r))
        # Column syndrome: Hamming index, overall parity flag at bit r.
        flag = 1 << r
        columns = [(pos + 1) | flag for pos in range(m)] + [flag]
        data_codewords = []
        for pos in self.data_positions:
            word = 1 << pos
            for i in range(r):
                if (pos + 1) >> i & 1:
                    word |= 1 << self.check_positions[i]
            data_codewords.append(word | _parity(word) << self.parity_position)
        self._build_tables(data_codewords, columns)
        extract_columns = [0] * self.n
        for j, pos in enumerate(self.data_positions):
            extract_columns[pos] = 1 << j
        self._extract_tables = _byte_tables(extract_columns)

    def extract(self, codeword: int) -> int:
        return _lookup(self._extract_tables, codeword)


# GF(2^6) tables over the primitive polynomial x^6 + x + 1, used to build
# the BCH generator.
_GF_POLY = 0b1000011
_GF_ORDER = 63
_EXP = [0] * (2 * _GF_ORDER)
_LOG = [0] * 64
_x = 1
for _i in range(_GF_ORDER):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x40:
        _x ^= _GF_POLY
for _i in range(_GF_ORDER):
    _EXP[_i + _GF_ORDER] = _EXP[_i]
del _x, _i


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _minimal_polynomial(exponent: int) -> int:
    """GF(2) minimal polynomial of alpha**exponent, as a bitmask."""
    conjugates = []
    e = exponent % _GF_ORDER
    while e not in conjugates:
        conjugates.append(e)
        e = (e * 2) % _GF_ORDER
    # Multiply out (x - alpha^e) over GF(64); result must land in GF(2).
    poly = [1]
    for e in conjugates:
        root = _EXP[e]
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] ^= c
            nxt[i] ^= _gf_mul(c, root)
        poly = nxt
    mask = 0
    for i, c in enumerate(poly):
        if c not in (0, 1):
            raise AssertionError("minimal polynomial left GF(2)")
        mask |= c << i
    return mask


def _poly_mul_gf2(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod_gf2(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


class Ec3Ed4(_SyndromeCode):
    """Shortened distance-7 BCH code plus overall parity: distance 8.

    Corrects up to three bit errors per word and detects all four-bit
    patterns.  Data widths up to 45 bits are supported; the codeword is
    data_bits + 19 bits long ([data | 18 checks | parity]).
    """

    _T = 3
    _CHECK_BITS = 18
    _MAX_DATA = 45

    def __init__(self, data_bits: int = 32):
        if not 1 <= data_bits <= self._MAX_DATA:
            raise ValueError(f"data_bits must be in 1..{self._MAX_DATA}")
        self.data_bits = data_bits
        self.check_bits = self._CHECK_BITS
        self.n = data_bits + self._CHECK_BITS + 1
        self.parity_position = self.n - 1
        self.data_positions: tuple[int, ...] = tuple(range(data_bits))
        self.check_positions: tuple[int, ...] = tuple(
            range(data_bits, data_bits + self._CHECK_BITS)
        )
        g = _minimal_polynomial(1)
        for e in (3, 5):
            g = _poly_mul_gf2(g, _minimal_polynomial(e))
        if g.bit_length() - 1 != self._CHECK_BITS:
            raise AssertionError("generator degree is off")
        self.generator = g
        self._data_mask = (1 << data_bits) - 1
        # Data bit j is the polynomial term x^(18 + j), check bit i the term
        # x^i; a column syndrome is the term's remainder modulo g, with the
        # overall parity flag at bit 18.
        flag = 1 << self._CHECK_BITS
        rems = [_poly_mod_gf2(1 << (self._CHECK_BITS + j), g) for j in range(data_bits)]
        columns = ([rem | flag for rem in rems]
                   + [(1 << i) | flag for i in range(self._CHECK_BITS)] + [flag])
        data_codewords = [
            (1 << j) | rem << data_bits | (1 ^ _parity(rem)) << self.parity_position
            for j, rem in enumerate(rems)
        ]
        self._build_tables(data_codewords, columns)

    def extract(self, codeword: int) -> int:
        return codeword & self._data_mask


_CODES: dict[tuple[str, int], _SyndromeCode] = {}


def make_code(name: str, data_bits: int):
    """Code factory for config files: secded | ec3ed4.  Codes are built once
    per (name, data_bits) and shared."""
    key = (name.strip().lower(), data_bits)
    code = _CODES.get(key)
    if code is None:
        if key[0] == "secded":
            code = Secded(data_bits)
        elif key[0] == "ec3ed4":
            code = Ec3Ed4(data_bits)
        else:
            raise ValueError(f"unknown code {name!r}")
        _CODES[key] = code
    return code
