"""Bank/row/column array model with in-array logic and the controller's
error-handling flow.

Geometry: ``banks`` x ``rows_per_bank`` rows; each row stores
``words_per_row`` ECC codewords side by side.  The last row of every bank is
a spare that sits outside the linear address space; controllers reach it
through the alias window (base address + ``SPARE_ALIAS``) as a
compute-in-memory operand, and fill it with a broadcast special write.  The
store holds one codeword per slot: data words at their linear address, then
the spare rows, bank b's group g at ``total_words + b * words_per_row + g``.
Two functions are the layout's only home: ``_locate`` turns an ``Addr``, a
linear address or a spare alias into its slot and (bank, row, group), and
``_pair`` states the two-row rule (one bank, one word group, distinct rows)
for the CiM and vector accesses and for the rewriter.

An in-array access activates one row (READ, NOT) or two rows (the rest) and
senses every column of one word in parallel.  Each column carries two
comparator outputs: the source-line current against the or-reference and
against the and-reference (reference stacks hold REF, AP and P cells; the
read reference is the REF cell alone).  All logic outputs derive from those
two bits, so a column that thresholds correctly is correct for every mode at
once.

Error flow: the XOR of two codewords of a linear code is a codeword, so the
controller always decodes the XOR lane of a two-row access.

* CLEAN: trust the requested output, 1 access.
* CORRECTED on an XOR op: the corrected word is the result, 1 access.
* CORRECTED on any other op: the comparator bits of the flagged columns are
  suspect and the requested output cannot be repaired from the XOR lane, so
  fall back to two near-memory reads plus a register-file recompute,
  3 accesses total.
* DETECTED_UNCORRECTABLE: raise ``HardError``.

Every stored word is a codeword: the store starts zeroed, and every write
and ``load`` goes through ``encode``.  So a read that senses the stored word
unchanged, or a two-row access whose XOR lane equals the XOR of the two
stored words, holds a codeword and is CLEAN with data ``extract(word)``;
only a sensed word that differs reaches the decoder.  The decoder would
answer the same, at several times the cost.

NOT activates a single row against the read reference with the inverting
amp; there is no second operand, the XOR sideband is identically zero and
sensing errors on NOT pass through undetected.  That asymmetry is inherent
to the access, not a modeling shortcut.

Column noise is pluggable: ``InjectedColumnNoise`` moves a column to an
adjacent decision level with a fixed probability, ``DeviceColumnSampler``
resolves every column against freshly drawn varied cells using the bit-cell
model.  Vector (multi-lane) ops model a digital vector unit and are
noise-free.

Sampler contract: sensed columns are int masks, column j at bit j, the
same layout as a codeword.  ``sense_read(access, word, n)`` returns the
read-reference decisions of a stored word's n columns; ``sense_pair(access,
a, b, n)`` returns the (or-reference, and-reference) decision masks of two
activated words.  The XOR lane is ``or & ~and``.  ADD ripples with the XOR
lane X as propagate and the and-lane G as generate; X & G == 0 always, so
with A = X | G the ripple computes A + G = X + 2G exactly, carry-out at bit
word_width included.

A noisy sampler states its noise as one decision table per access and
column, ``device.IDEAL_DECISIONS`` varied: the read reference against a
stored 0 and 1, then the or- and the and-reference against the states
(a, b) = 00, 01, 10, 11; noise-free it senses like ``IdealSampler``.  The
samplers differ only in how they fill the tables (the device sampler with
``device.column_decisions``, as the Monte Carlo does), from the stream
layout ``access * 2^20 + column``, a block of consecutive access ids per
draw call (the array numbers its accesses 1, 2, 3, ...).  Every draw is a
pure function of (seed, access, column), so the block changes no sensed bit.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .device import (_DRAWS_PER_CELL, CELLS_PER_SAMPLE, SENSED_SLOTS, ConfigError, DeviceParams,
                     VariationSpec, cell_factors, column_decisions, sensed_levels)
from .ecc import DecodeStatus, make_code
from .streams import uniforms

__all__ = [
    "CimOp",
    "CONTROL_TABLE",
    "ArrayConfig",
    "Addr",
    "SPARE_ALIAS",
    "HardError",
    "AccessCounters",
    "IdealSampler",
    "InjectedColumnNoise",
    "DeviceColumnSampler",
    "CimArray",
    "SelftestError",
    "selftest",
]


class CimOp(enum.IntEnum):
    READ = 0
    NOT = 1
    AND = 2
    OR = 3
    NAND = 4
    NOR = 5
    XOR = 6
    ADD = 7


# Per op: (left reference stack enables, right reference stack enables,
# output select).  Stack order is (REF, AP, P): (1,0,0) is the read
# reference, (1,1,0) the or-reference, (1,0,1) the and-reference.  The left
# amp latches the direct comparison, the right amp the inverted one; select
# bit 2 routes their AND (the XOR lane).  Don't-care lines are driven to 0.
CONTROL_TABLE: dict[CimOp, tuple[tuple[int, int, int], ...]] = {
    CimOp.READ: ((1, 0, 0), (0, 0, 0), (1, 1, 0)),
    CimOp.NOT: ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    CimOp.AND: ((1, 0, 1), (0, 0, 0), (1, 1, 0)),
    CimOp.OR: ((1, 1, 0), (0, 0, 0), (1, 1, 0)),
    CimOp.NAND: ((0, 0, 0), (1, 0, 1), (0, 1, 0)),
    CimOp.NOR: ((0, 0, 0), (1, 1, 0), (0, 1, 0)),
    CimOp.XOR: ((1, 1, 0), (1, 0, 1), (0, 0, 1)),
    CimOp.ADD: ((1, 1, 0), (1, 0, 1), (0, 0, 0)),
}

# Linear addresses at or above this offset name the spare row of the bank
# the base address lives in; only CiM operands may use them.
SPARE_ALIAS = 1 << 20


class HardError(RuntimeError):
    """An ECC-uncorrectable word reached the controller."""


@dataclass(frozen=True)
class ArrayConfig:
    """Array geometry and word protection.

    rows_per_bank includes the spare row; the linear address space covers
    rows_per_bank - 1 data rows per bank and ends below SPARE_ALIAS.  The
    vector unit takes 4 or 8 lanes at any width; a vector access must fit
    in its operands' rows (see ``CimArray.vcim``).
    """

    banks: int = 4
    rows_per_bank: int = 129
    words_per_row: int = 16
    word_width: int = 32
    code: str = "ec3ed4"

    def __post_init__(self):
        if self.banks < 1 or self.words_per_row < 1:
            raise ValueError("banks and words_per_row must be positive")
        if self.rows_per_bank < 2:
            raise ValueError("need at least one data row plus the spare")
        if self.total_words > SPARE_ALIAS:
            raise ValueError(f"{self.total_words} data words reach the spare-row alias "
                             f"window at {SPARE_ALIAS}")
        make_code(self.code, self.word_width)

    @cached_property
    def data_rows(self) -> int:
        return self.rows_per_bank - 1

    @cached_property
    def spare_row(self) -> int:
        return self.rows_per_bank - 1

    @cached_property
    def words_per_bank(self) -> int:
        return self.data_rows * self.words_per_row

    @cached_property
    def total_words(self) -> int:
        return self.banks * self.words_per_bank


@dataclass(frozen=True)
class Addr:
    """bank / row / word-group coordinates of one stored word."""

    bank: int
    row: int
    group: int

    def to_linear(self, config: ArrayConfig) -> int:
        """Linear address of a data word; ValueError outside the data rows."""
        return _locate(config, self)[0]


@dataclass
class AccessCounters:
    """Array traffic by category; the energy model prices these."""

    reads: int = 0
    writes: int = 0
    special_writes: int = 0
    cim_ops: int = 0
    vcim_ops: int = 0
    vcim_lanes: int = 0
    nm_reads: int = 0
    corrected_words: int = 0
    xor_fixups: int = 0
    fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def _int_masks(decisions: np.ndarray) -> list:
    """Per-column booleans (..., n) as nested lists of int masks, column j
    at bit j."""
    *shape, n = decisions.shape
    words = -(-n // 64)
    padded = np.zeros((*shape, 64 * words), dtype=bool)
    padded[..., :n] = decisions
    lanes = np.packbits(padded, bitorder="little").view("<u8").reshape(*shape, words)
    lanes = lanes.astype(object)  # Python ints, so masks wider than 64 columns fold exactly
    masks = lanes[..., 0]
    for k in range(1, words):
        masks |= lanes[..., k] << (64 * k)
    return masks.tolist()


class IdealSampler:
    """Noise-free sensing; comparator outputs follow the stored bits."""

    def sense_read(self, access: int, word: int, n: int) -> int:
        return word

    def sense_pair(self, access: int, a: int, b: int, n: int) -> tuple[int, int]:
        return a | b, a & b


# A block of consecutive access ids is drawn in one call, by one rule: the
# first block of a run is _BLOCK_START accesses, each block that continues
# the last doubles, and no block exceeds _BLOCK_CAP accesses or makes a fill
# array (8 bytes per draw, _DRAWS draws per column and access) larger than
# _BLOCK_BYTES.  Short-lived samplers (perfbench's faults workload makes one
# per 100 accesses) waste part of their last block, and a 32-access first
# block made a faults pass about 4% slower; long runs amortize numpy's
# per-call cost.  On a 2-core x86 host caps of 16 to 32 are fastest on
# faults, 32 runs acceptance criterion 4 (320,000 sequential accesses) in
# 3.1 s against 4.3 s at 16, and caps of 64 and above add 2-6% peak RSS for
# no gain.  Under 128 KiB, glibc serves fill arrays from the heap, not fresh
# mappings: 32-access device blocks at 51 columns (235 KB arrays) cost every
# faults pass 10,900-11,900 minor page faults in 12 of 12 fresh processes
# (getrusage); with the bound (17 accesses at 51 columns, 12 at 72, 32 at 27)
# the median pass took none.
_BLOCK_START = 16
_BLOCK_CAP = 32
_BLOCK_BYTES = 1 << 17


# Column entities per access in the stream layout; equal to SPARE_ALIAS only by chance.
_ACCESS_STRIDE = 1 << 20


def _entities(first: int, count: int, n: int) -> np.ndarray:
    """(count, n) stream entities of accesses first .. first + count - 1 at
    n columns: access * _ACCESS_STRIDE + column."""
    accesses = np.arange(first, first + count, dtype=np.uint64)
    return (accesses * np.uint64(_ACCESS_STRIDE))[:, None] + np.arange(n, dtype=np.uint64)


class _BlockSampler:
    """Per-access decision tables, a block of consecutive access ids at a
    time.  Subclasses define ``_fill(first, count, n)``: per access ``first
    .. first + count - 1``, ten int masks in ``device.IDEAL_DECISIONS``
    order, a pure function of (seed, access, n).  Sensing selects each
    column's decision by its stored bits."""

    # Draws per column and access in one fill.
    _DRAWS = 1
    # The cached block: accesses _first .. _end - 1 at n columns.
    _n = None
    _first = _end = _size = 0
    _block: list | tuple = ()

    def _entry(self, access: int, n: int):
        if n == self._n and self._first <= access < self._end:
            return self._block[access - self._first]
        cap = max(1, min(_BLOCK_CAP, _BLOCK_BYTES // (8 * self._DRAWS * n)))
        if n == self._n and access == self._end:
            size = min(2 * self._size, cap)
        else:
            size = min(_BLOCK_START, cap)
        try:
            block = self._fill(access, size, n)
        except ConfigError:
            # Retries ran out on a cell of the block, possibly one of an
            # access that is never made: a draw for this access alone
            # decides whether it raises.
            size = 1
            block = self._fill(access, 1, n)
        self._first, self._end, self._n, self._size, self._block = (
            access, access + size, n, size, block)
        return block[0]

    def sense_read(self, access, word, n):
        read0, read1 = self._entry(access, n)[:2]
        return (word & read1) | (read0 & ~word)

    def sense_pair(self, access, a, b, n):
        _, _, or00, or01, or10, or11, and00, and01, and10, and11 = self._entry(access, n)
        s00, s01, s10, s11 = ~(a | b), b & ~a, a & ~b, a & b
        o_or = (or00 & s00) | (or01 & s01) | (or10 & s10) | (or11 & s11)
        o_and = (and00 & s00) | (and01 & s01) | (and10 & s10) | (and11 & s11)
        return o_or, o_and


class InjectedColumnNoise(_BlockSampler):
    """Adjacent-level confusion with a fixed per-column probability.

    Every activated column independently misreads against one adjacent
    reference with probability p: the outer states can only cross their
    single neighboring reference, the middle state splits p evenly between
    dropping below the or-reference and rising above the and-reference.
    Any such confusion flips the column's XOR output, which is what the
    controller's check keys on.
    """

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        self.p = p
        self.seed = seed

    def _fill(self, first, count, n):
        u = uniforms(self.seed, _entities(first, count, n))
        full = (1 << n) - 1
        tables = []
        # A hit raises 00 above the or-reference and drops 11 below the
        # and-reference; on a middle state its low half drops the column
        # below the or-reference, the rest raises it above the and-reference.
        for hit, low in _int_masks(np.stack((u < self.p, u < 0.5 * self.p), axis=1)):
            miss, high = full ^ hit, full ^ low
            rise = hit & high
            tables.append((hit, miss, hit, high, high, full, 0, rise, rise, miss))
        return tables


class DeviceColumnSampler(_BlockSampler):
    """Column sensing resolved against the physical bit-cell model.

    Each access draws fresh varied cells for every activated column from
    the deterministic stream layout the Monte Carlo uses (an access owns a
    2^20-column window of entity indices, each entity eight cells).  Only
    the six cells sensing reads are drawn, ``device.SENSED_SLOTS``: the two
    data cells, the left stack's REF and AP cells and the right stack's REF
    and P cells.  ``device.column_decisions`` turns them into the column's
    decision table, as in the Monte Carlo; draws come a block of
    consecutive accesses at a time.
    """

    def __init__(self, params: DeviceParams | None = None,
                 variation: VariationSpec | None = None, seed: int = 0):
        self.params = params if params is not None else DeviceParams()
        self.variation = variation if variation is not None else VariationSpec()
        self.seed = seed

    _DRAWS = len(SENSED_SLOTS) * _DRAWS_PER_CELL  # normals and hash scratch: 144 B

    def _fill(self, first, count, n):
        # Entity access * _ACCESS_STRIDE + column owns cells entity * 8 + slot;
        # row k holds sensed slot k of every (access, column).
        entities = _entities(first, count, n)
        cells = (entities * np.uint64(CELLS_PER_SAMPLE)
                 + np.array(SENSED_SLOTS, np.uint64)[:, None, None])
        f, r_t = cell_factors(self.params, self.variation, self.seed, cells)
        decisions = column_decisions(self.params, sensed_levels(self.params, f, r_t))[0]
        return _int_masks(decisions.swapaxes(0, 1))


_TWO_ROW_OPS = (CimOp.AND, CimOp.OR, CimOp.NAND, CimOp.NOR, CimOp.XOR, CimOp.ADD)
# Module names for the members the access paths test: an Enum member looked
# up on its class costs about ten global lookups on CPython 3.11.
_AND, _OR, _NAND, _NOR, _XOR, _ADD = _TWO_ROW_OPS
_CLEAN, _CORRECTED, _DETECTED = DecodeStatus


def _locate(config: ArrayConfig, addr, spare_ok: bool = False) -> tuple[int, int, int, int]:
    """(slot, bank, row, group) of an Addr or a linear address.  With
    spare_ok, a spare-row Addr and a spare alias (SPARE_ALIAS plus a base
    address: the spare-row word column-aligned with the base) are valid."""
    words_per_row = config.words_per_row
    if isinstance(addr, Addr):
        bank, row, group = addr.bank, addr.row, addr.group
        if not (0 <= bank < config.banks and 0 <= group < words_per_row):
            raise ValueError(f"{addr} out of range")
        if 0 <= row < config.data_rows:
            return (bank * config.data_rows + row) * words_per_row + group, bank, row, group
        if spare_ok and row == config.spare_row:
            return config.total_words + bank * words_per_row + group, bank, row, group
        raise ValueError(f"{addr} row out of range")
    slot = linear = int(addr)
    if linear >= SPARE_ALIAS:
        if not spare_ok:
            raise ValueError("spare-row alias is only valid as a CiM operand")
        linear -= SPARE_ALIAS
    total, data_rows = config.total_words, config.data_rows
    if not 0 <= linear < total:
        raise ValueError(f"linear address {linear} out of range")
    rows = linear // words_per_row
    bank, group = rows // data_rows, linear % words_per_row
    if slot == linear:
        return slot, bank, rows % data_rows, group
    return total + bank * words_per_row + group, bank, config.spare_row, group


def _pair(config: ArrayConfig, addr_a, addr_b) -> tuple[int, int, int]:
    """(slot_a, slot_b, group) of a two-row operand pair; raises ValueError
    unless the words share a bank and a word group in distinct rows."""
    slot_a, bank, row, group = _locate(config, addr_a, True)
    slot_b, bank_b, row_b, group_b = _locate(config, addr_b, True)
    if bank != bank_b:
        raise ValueError("CiM operands must share a bank")
    if group != group_b:
        raise ValueError("CiM operands must be column-aligned")
    if row == row_b:
        raise ValueError("CiM operands must be distinct rows")
    return slot_a, slot_b, group


class CimArray:
    """Array state plus the controller: ECC on the way in and out, the XOR
    check on every two-row access, near-memory fallback bookkeeping."""

    def __init__(self, config: ArrayConfig | None = None, sampler=None):
        self.config = config if config is not None else ArrayConfig()
        self.code = make_code(self.config.code, self.config.word_width)
        self.sampler = sampler if sampler is not None else IdealSampler()
        self.counters = AccessCounters()
        config = self.config
        # One codeword per slot, laid out as the module notes say.
        self._words = [0] * (config.total_words + config.banks * config.words_per_row)
        self._access = 0
        self._n = self.code.n
        self._data_mask = (1 << config.word_width) - 1
        self._total_words = config.total_words

    # -- addressing -----------------------------------------------------

    def _resolve(self, addr, spare_ok: bool = False) -> int:
        """Store slot of an address; a data word's linear address is its
        own slot."""
        if type(addr) is int and 0 <= addr < self._total_words:
            return addr
        return _locate(self.config, addr, spare_ok)[0]

    # -- scalar accesses -------------------------------------------------

    def write_word(self, addr, data: int) -> None:
        self._words[self._resolve(addr)] = self.code.encode(data)
        self.counters.writes += 1

    def load(self, words) -> None:
        """Store an initial image, a map from address to data word: each
        word is encoded into its slot, and no traffic is counted."""
        encode, store, total = self.code.encode, self._words, self._total_words
        for addr, data in words.items():
            if type(addr) is not int or not 0 <= addr < total:  # else its own slot
                addr = self._resolve(addr)
            store[addr] = encode(data)

    def write_spare(self, bank: int, data: int) -> None:
        """Broadcast one word into every group of a bank's spare row."""
        if not 0 <= bank < self.config.banks:
            raise ValueError("bank out of range")
        self._fill_row(bank, self.config.spare_row, data)
        self.counters.special_writes += 1

    def write_replicated(self, bank: int, row: int, data: int) -> None:
        """Fill a data row with one word in every group (pattern rows).
        Costs a whole row of ordinary writes."""
        if not 0 <= bank < self.config.banks:
            raise ValueError("bank out of range")
        if not 0 <= row < self.config.data_rows:
            raise ValueError("row out of range")
        self._fill_row(bank, row, data)
        self.counters.writes += self.config.words_per_row

    def _fill_row(self, bank: int, row: int, data: int) -> None:
        start = _locate(self.config, Addr(bank, row, 0), spare_ok=True)[0]
        words_per_row = self.config.words_per_row
        self._words[start : start + words_per_row] = [self.code.encode(data)] * words_per_row

    def _read(self, slot: int, near_memory: bool = False) -> int:
        """Sense and decode one stored word.  Near-memory fallback reads
        are their own traffic category."""
        self._access += 1
        stored = self._words[slot]
        sensed = self.sampler.sense_read(self._access, stored, self._n)
        if near_memory:
            self.counters.nm_reads += 1
        else:
            self.counters.reads += 1
        if sensed == stored:  # a codeword: CLEAN (see the module notes)
            return self.code.extract(stored)
        res = self.code.decode(sensed)
        if res.status is not _CLEAN:
            if res.status is _DETECTED:
                raise HardError("uncorrectable word on read")
            self.counters.corrected_words += 1
        return res.data

    def read_word(self, addr) -> int:
        return self._read(self._resolve(addr))

    def cim_not(self, addr) -> tuple[int, int]:
        """Single-row inverted read.  No XOR sideband exists for one
        operand, so sensing errors here are invisible to the controller."""
        slot = self._resolve(addr, spare_ok=True)
        self._access += 1
        sensed = self.sampler.sense_read(self._access, self._words[slot], self._n)
        self.counters.cim_ops += 1
        return self.code.extract(sensed) ^ self._data_mask, 1

    def _alu(self, op: CimOp, a: int, b: int) -> int:
        mask = self._data_mask
        if op is _AND:
            return a & b
        if op is _OR:
            return a | b
        if op is _NAND:
            return (a & b) ^ mask
        if op is _NOR:
            return (a | b) ^ mask
        if op is _XOR:
            return a ^ b
        if op is _ADD:
            return a + b  # carry-out kept at bit word_width
        raise ValueError(f"not a two-operand op: {op}")

    def cim_word(self, op: CimOp, addr_a, addr_b) -> tuple[int, int]:
        """Two-row in-array op.  Returns (result data, array accesses)."""
        if op not in _TWO_ROW_OPS:
            raise ValueError(f"{op!r} is not a two-row op")
        a, b, _ = _pair(self.config, addr_a, addr_b)
        self._access += 1
        self.counters.cim_ops += 1
        wa, wb = self._words[a], self._words[b]
        o_or, o_and = self.sampler.sense_pair(self._access, wa, wb, self._n)
        lane = o_or & ~o_and
        if lane == wa ^ wb:  # a codeword: CLEAN (see the module notes)
            return self._op_output(op, o_or, o_and, self.code.extract(lane)), 1
        res = self.code.decode(lane)
        if res.status is _CLEAN:
            return self._op_output(op, o_or, o_and, res.data), 1
        if res.status is _CORRECTED:
            self.counters.corrected_words += 1
            if op is _XOR:
                self.counters.xor_fixups += 1
                return res.data, 1
            self.counters.fallbacks += 1
            da = self._read(a, near_memory=True)
            db = self._read(b, near_memory=True)
            return self._alu(op, da, db), 3
        raise HardError("uncorrectable XOR lane on CiM access")

    def _op_output(self, op: CimOp, o_or: int, o_and: int, xor_data: int) -> int:
        """The requested output from a clean access's comparator masks;
        xor_data is the data of the XOR lane (ADD: see the module notes)."""
        if op is _XOR:
            return xor_data
        if op is _ADD:
            return xor_data + 2 * self.code.extract(o_and)
        if op is _AND:
            return self.code.extract(o_and)
        if op is _OR:
            return self.code.extract(o_or)
        if op is _NAND:
            return self.code.extract(o_and) ^ self._data_mask
        return self.code.extract(o_or) ^ self._data_mask  # NOR

    # -- vector accesses ---------------------------------------------------

    def vcim(self, op: CimOp, addr_a, addr_b, lanes: int, reduce: str) -> int:
        """Multi-lane op over consecutive groups with a reduction.

        Lane k pairs word addr_a+k with addr_b+k.  lanes is 4 or 8, and
        all lanes must stay in the operands' rows: the starting group plus
        lanes may not pass words_per_row.  Reductions: "sum" adds lane
        results modulo 2^word_width, "zcmp" sets bit k iff lane k's result
        is nonzero.  The vector unit is digital and noise-free.
        """
        if lanes not in (4, 8):
            raise ValueError("bad lane count")
        if reduce not in ("sum", "zcmp"):
            raise ValueError("reduce must be sum or zcmp")
        if op not in _TWO_ROW_OPS:
            raise ValueError(f"{op!r} is not a two-row op")
        a, b, group = _pair(self.config, addr_a, addr_b)
        if group + lanes > self.config.words_per_row:
            raise ValueError("vector access crosses a row boundary")
        self.counters.vcim_ops += 1
        self.counters.vcim_lanes += lanes
        words, extract = self._words, self.code.extract
        acc = 0
        for k in range(lanes):
            lane = self._alu(op, extract(words[a + k]), extract(words[b + k]))
            if reduce == "sum":
                acc = (acc + lane) & self._data_mask
            else:
                acc |= (1 if lane != 0 else 0) << k
        return acc


# -- diagnostics ---------------------------------------------------------------


class SelftestError(RuntimeError):
    """The array's output disagreed with the software reference."""


def selftest(config: ArrayConfig, seed: int = 0, words: int = 64) -> None:
    """Randomized logic and addition check on a noise-free array of the given
    configuration; raises SelftestError on the first mismatch."""
    rng = random.Random(seed)
    arr = CimArray(config)
    mask = (1 << config.word_width) - 1
    a_addr = Addr(0, 0, 0)
    b_addr = Addr(0, 1, 0)
    for _ in range(words):
        a = rng.getrandbits(config.word_width)
        b = rng.getrandbits(config.word_width)
        arr.write_word(a_addr, a)
        arr.write_word(b_addr, b)
        checks = [(op.name, arr.cim_word(op, a_addr, b_addr), (arr._alu(op, a, b), 1))
                  for op in _TWO_ROW_OPS]
        checks.append(("NOT", arr.cim_not(a_addr), (a ^ mask, 1)))
        checks.append(("READ", arr.read_word(a_addr), a))
        for name, got, want in checks:
            if got != want:
                raise SelftestError(f"{name} of {a:#x}, {b:#x}: got {got}, want {want}")
