"""Placement planner for in-array kernels.

A two-row access needs its operands in the same bank, the same word group
and different rows, so operand layout is the whole game.  Three placement
patterns cover the kernel shapes the toolchain knows:

* type1: two equal-length arrays combined elementwise.  Each used bank
  holds a chunk of A in its top half rows and the matching chunk of B in
  its bottom half, so A[i] and B[i] always share bank and group and sit
  half the rows apart.

* type2: one array against one runtime scalar.  A fills whole banks; the
  scalar is broadcast into the spare row of every used bank at kernel
  start (one special write per bank), and accesses name it through the
  spare alias window.  The plan records the fill count, not the value:
  the scalar arrives in a register at run time.

* type3: a short pattern slid across a long text.  The first M rows of
  every used bank each hold one pattern word replicated across all
  groups; the text fills the rows above.  Text word t then pairs with
  pattern word j at (row j, t's own group), valid for every alignment
  offset without moving data.

Plans carry a CONFIG header, a PATTERN line, one PLACE line per contiguous
segment (name, segment index, linear base, length) and the pattern-specific
SPARE_FILL / REPLICATE lines.  Linear addresses count words:
((bank * data_rows) + row) * words_per_row + group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cimarray import Addr, ArrayConfig, SPARE_ALIAS, _locate

__all__ = [
    "PlanError",
    "PlanSegment",
    "MapPlan",
    "plan_type1",
    "plan_type2",
    "plan_type3",
]


class PlanError(ValueError):
    """Requested layout does not fit the array."""


@dataclass(frozen=True)
class PlanSegment:
    name: str
    seg: int
    base: int
    length: int

    @property
    def end(self) -> int:
        return self.base + self.length


@dataclass(frozen=True)
class MapPlan:
    config: ArrayConfig
    pattern: str
    segments: tuple[PlanSegment, ...]
    spare_fill_banks: int = 0
    replicated_rows: int = 0

    def address(self, name: str, index: int) -> int:
        """Linear address of element index of the named operand."""
        off = index
        for seg in self.segments:
            if seg.name != name:
                continue
            if off < seg.length:
                return seg.base + off
            off -= seg.length
        raise IndexError(f"{name}[{index}] not placed")

    def scalar_operand(self, base_addr: int) -> int:
        """Spare-alias operand aligned with the given word (type2)."""
        if self.pattern != "type2":
            raise PlanError("scalar operand only exists for type2 plans")
        return base_addr + SPARE_ALIAS

    def pattern_operand(self, text_addr: int, j: int) -> int:
        """Operand address of replicated pattern word j, column-aligned
        with the given text word (type3)."""
        if self.pattern != "type3":
            raise PlanError("pattern operands only exist for type3 plans")
        if not 0 <= j < self.replicated_rows:
            raise IndexError("pattern word index out of range")
        _, bank, _, group = _locate(self.config, text_addr)
        return _locate(self.config, Addr(bank, j, group))[0]

    def text(self) -> str:
        cfg = self.config
        lines = [
            "CONFIG banks={} rows_per_bank={} words_per_row={} word_width={} code={}".format(
                cfg.banks, cfg.rows_per_bank, cfg.words_per_row, cfg.word_width, cfg.code
            ),
            f"PATTERN {self.pattern}",
        ]
        for seg in self.segments:
            lines.append(f"PLACE {seg.name} {seg.seg} {seg.base} {seg.length}")
        if self.spare_fill_banks:
            lines.append(f"SPARE_FILL {self.spare_fill_banks}")
        for row in range(self.replicated_rows):
            lines.append(f"REPLICATE {row} {row}")
        return "\n".join(lines) + "\n"


def _chunked(name: str, n: int, chunk: int, bank_base):
    """Split n elements into per-bank segments of at most chunk words, from
    bank 0 up."""
    return [
        PlanSegment(name=name, seg=k, base=bank_base(k), length=min(chunk, n - k * chunk))
        for k in range(-(-n // chunk))
    ]


def plan_type1(config: ArrayConfig, n: int) -> MapPlan:
    """Two aligned arrays A and B of n words each."""
    if n < 1:
        raise PlanError("n must be positive")
    half_rows = config.data_rows // 2
    if half_rows < 1:
        raise PlanError("bank too short to split")
    chunk = half_rows * config.words_per_row
    if n > config.banks * chunk:
        raise PlanError(f"type1 capacity is {config.banks * chunk} words, asked for {n}")
    wpb = config.words_per_bank
    a_segs = _chunked("A", n, chunk, lambda b: b * wpb)
    b_segs = _chunked("B", n, chunk, lambda b: b * wpb + chunk)
    segs = []
    for a, b in zip(a_segs, b_segs):
        segs.extend([a, b])
    return MapPlan(config=config, pattern="type1", segments=tuple(segs))


def plan_type2(config: ArrayConfig, n: int) -> MapPlan:
    """Array A of n words against one broadcast scalar."""
    if n < 1:
        raise PlanError("n must be positive")
    chunk = config.words_per_bank
    if n > config.banks * chunk:
        raise PlanError(f"type2 capacity is {config.banks * chunk} words, asked for {n}")
    segs = _chunked("A", n, chunk, lambda b: b * chunk)
    return MapPlan(config=config, pattern="type2", segments=tuple(segs),
                   spare_fill_banks=len(segs))


def plan_type3(config: ArrayConfig, n_text: int, m_pattern: int) -> MapPlan:
    """Text T of n_text words scanned by an m_pattern-word pattern."""
    if n_text < 1 or m_pattern < 1:
        raise PlanError("sizes must be positive")
    if m_pattern >= config.data_rows:
        raise PlanError("pattern taller than the bank")
    text_rows = config.data_rows - m_pattern
    chunk = text_rows * config.words_per_row
    if n_text > config.banks * chunk:
        raise PlanError(f"type3 capacity is {config.banks * chunk} words, asked for {n_text}")
    base_off = m_pattern * config.words_per_row
    segs = _chunked("T", n_text, chunk, lambda b: b * config.words_per_bank + base_off)
    return MapPlan(config=config, pattern="type3", segments=tuple(segs),
                   replicated_rows=m_pattern)
