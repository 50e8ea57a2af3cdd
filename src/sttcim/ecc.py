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
Costello, *Error Control Coding*, ch. 3).  Because both are systematic, a
word is a codeword exactly when re-encoding its data bits gives the word
back, and the XOR of the two, the re-encode residue, is the word's
syndrome: linear, zero exactly on codewords, nonzero only on check and
parity bits.  A decode therefore extracts the data bits, re-encodes them
and compares once; a clean word costs that and nothing more.  A nonzero
syndrome is looked up among the column syndromes (each codeword bit's
residue when set alone), then (for t = 3) among pairs of columns, then as a
pair plus one column; a miss everywhere means the word is uncorrectable.
With distance 8 (resp. 4) every error pattern of weight <= t has its own
syndrome, so a hit names the unique codeword within distance t and a miss
means there is none: this is the bounded-distance decoder.  The pair table
is built on the first nonzero syndrome; clean decodes never pay for it.

Every linear map over bits (encoding, and ``Secded``'s data extraction; an
``Ec3Ed4`` word keeps its data in its low bits, so a mask extracts it) is
one generated expression: the input is cut into 11-bit fields, each field
indexes a 2^11-entry table of XORs of its columns, and the lookups are
unrolled into a single XOR.  A 32-bit ``Ec3Ed4`` encode is three lookups.
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


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


# 2^11-entry tables: a 32-bit data word is three lookups, and one table of
# 51-bit codewords holds about 80 KB.
_FIELD_BITS = 11


def _linear_map(columns):
    """The GF(2)-linear map sending x to the XOR of columns[i] over the set
    bits i of x (bits of x past the last column are ignored), as one
    unrolled expression: x is cut into 11-bit fields and field k indexes a
    table holding the XOR of every subset of its columns."""
    tables, terms = [], []
    for k in range(0, len(columns), _FIELD_BITS):
        chunk = columns[k:k + _FIELD_BITS]
        table = [0] * (1 << len(chunk))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] ^ chunk[low.bit_length() - 1]
        field = f"x >> {k}" if k else "x"
        terms.append(f"t{len(tables)}[{field} & {len(table) - 1}]")
        tables.append(table)
    names = ", ".join(f"t{i}" for i in range(len(tables)))
    scope: dict = {}
    exec(f"def bind({names}):\n    return lambda x: {' ^ '.join(terms)}\n", scope)
    return scope["bind"](*tables)


_CLEAN, _CORRECTED, _DETECTED = DecodeStatus


class _SyndromeCode:
    """Table-driven encode and bounded-distance decode of a systematic
    linear code of length n.  A subclass sets n, data_bits and
    check_positions, provides ``extract`` (the data bits of a word) and
    passes each data bit's codeword to _build_maps."""

    t = 1  # the number of bit errors a decode corrects

    def _build_maps(self, data_codewords) -> None:
        self._encode = encode = _linear_map(data_codewords)
        # Per codeword bit: the data bits it holds (none for a check bit),
        # and its column syndrome, the re-encode residue of the unit word.
        # A residue has no bit below the lowest check position; shifted
        # down by it, Ec3Ed4's syndromes are 19-bit ints, which hash and
        # XOR faster than 51-bit ones in the lookups.
        self._shift = shift = min(self.check_positions)
        self._data_bit = [self.extract(1 << i) for i in range(self.n)]
        self._columns = columns = [
            ((1 << i) ^ encode(d)) >> shift for i, d in enumerate(self._data_bit)
        ]
        self._singles = {c: (i,) for i, c in enumerate(columns)}
        self._pairs = None

    # x >> k is nonzero both for x >= 2**k and for every negative x: one
    # shift checks an input's range.

    def encode(self, data: int) -> int:
        if data >> self.data_bits:
            raise ValueError("data out of range")
        return self._encode(data)

    def decode(self, word: int) -> DecodeResult:
        if word >> self.n:
            raise ValueError("word out of range")
        data = self.extract(word)
        syndrome = word ^ self._encode(data)
        if not syndrome:
            return DecodeResult(_CLEAN, data, word)
        positions = self._error_positions(syndrome >> self._shift)
        if positions is None:
            return DecodeResult(_DETECTED, None, None)
        data_bit = self._data_bit
        for p in positions:
            word ^= 1 << p
            data ^= data_bit[p]
        return DecodeResult(_CORRECTED, data, word, positions)

    def _error_positions(self, syndrome: int) -> tuple[int, ...] | None:
        """Sorted positions of the unique pattern of weight <= t with this
        syndrome, or None."""
        hit = self._singles.get(syndrome)
        if hit is not None or self.t < 2:
            return hit
        pairs = self._pairs
        if pairs is None:
            cols = self._columns
            pairs = self._pairs = {
                cols[i] ^ cols[j]: (i, j) for i, j in combinations(range(self.n), 2)
            }
        hit = pairs.get(syndrome)
        if hit is not None or self.t < 3:
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

    _MAX_DATA = 120  # the widest with a 128-bit codeword; tables grow as its square

    def __init__(self, data_bits: int):
        if not 1 <= data_bits <= self._MAX_DATA:
            raise ValueError(f"data_bits must be in 1..{self._MAX_DATA}")
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
        extract_columns = [0] * self.n
        for j, pos in enumerate(self.data_positions):
            extract_columns[pos] = 1 << j
        self.extract = _linear_map(extract_columns)
        data_codewords = []
        for pos in self.data_positions:
            word = 1 << pos
            for i in range(r):
                if (pos + 1) >> i & 1:
                    word |= 1 << self.check_positions[i]
            data_codewords.append(word | _parity(word) << self.parity_position)
        self._build_maps(data_codewords)


# Generator of the (63, 45, t = 3) binary BCH code: the product m1*m3*m5 of
# the minimal polynomials of alpha, alpha^3 and alpha^5 over x^6 + x + 1,
# octal 1701317 in the standard BCH generator tables (Lin & Costello,
# *Error Control Coding*, appendix C).  Degree 18, the check-bit count.
_BCH_63_45_GENERATOR = 0b1111000001011001111


def _poly_mod_gf2(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


class Ec3Ed4(_SyndromeCode):
    """Shortened distance-7 BCH code plus overall parity: distance 8.

    Corrects up to three bit errors per word and detects all four-bit
    patterns.  Data widths up to 45 bits are supported; the codeword is
    data_bits + 19 bits long ([data | 18 checks | parity]).  The generator
    is the tabulated (63, 45) BCH generator, stated as a constant; the
    exhaustive weight checks in the tests are the proof that the shortened,
    parity-extended code has distance 8.
    """

    t = 3
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
        self.generator = g = _BCH_63_45_GENERATOR
        self._data_mask = (1 << data_bits) - 1
        # Data bit j is the polynomial term x^(18 + j) and check bit i the
        # term x^i: data bit j's checks are the remainder of x^(18 + j)
        # modulo g.
        rems = [_poly_mod_gf2(1 << (self._CHECK_BITS + j), g) for j in range(data_bits)]
        data_codewords = [
            (1 << j) | rem << data_bits | (1 ^ _parity(rem)) << self.parity_position
            for j, rem in enumerate(rems)
        ]
        self._build_maps(data_codewords)

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
