"""Small word-addressed CPU with a compute-in-memory instruction extension.

Scalar core: 32 registers (r0 reads as zero), two's-complement arithmetic
at the array's word width, and a flat word address space served by a
``CimArray``.  The base ISA is deliberately minimal:

    LDW rd, imm(ra)     load word          STW rs, imm(ra)     store word
    ADD/SUB/AND/OR/XOR rd, ra, rb          NOT rd, ra
    SLT rd, ra, rb      signed set-less-than
    ADDI rd, ra, imm    LUI rd, imm        (imm << 16)
    BEQ/BNE ra, rb, label                  JMP label
    HALT

CiM extension (register operands hold array addresses):

    CIMAND/CIMOR/CIMXOR/CIMNAND/CIMNOR/CIMADD rd, ra, rb
    CIMNOT rd, ra
    VCIM.<OP>.<RED>.<N> rd, ra, rb   N-lane vector op, RED in {SUM, ZCMP}
    SPWR rv[, mask]     broadcast rv into the spare row of masked banks

Timing: every instruction costs one cycle plus ``memory_latency`` cycles
per array access it triggers.  A two-row op that falls back to the
near-memory path costs three accesses; everything else costs one.

The memory bus has one secondary channel, shared by the second operand
address and the write data.  The ISA never needs both at once: the
instructions that send two addresses (the CiM and VCIM two-row ops) send
no data, and the two that send data (STW, SPWR) read it from one register
and send one address.

``_ISA`` is the single description of this instruction set: one operand
signature per mnemonic, the 16 ``VCIM.<OP>.<RED>.<N>`` forms included.  The
assembler and the formatter are one loop each over a signature, and the
rewriter's register roles (``_uses``) and the set of mnemonics that end in a
label (``_LABEL_OPS``) are derived from it at import.

A ``Cpu`` decodes its program once, at construction, into one handler per
instruction: mnemonics are dispatched, branch labels resolved to indices
(an unknown label is an ``AsmError`` there) and ``VCIM.*`` mnemonics looked
up as (op, lanes, reduction) before the first step.  Stepping then costs
one call per instruction.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .cimarray import CimArray, CimOp

__all__ = [
    "AsmError",
    "CpuFault",
    "Instruction",
    "Program",
    "RunResult",
    "Cpu",
    "parse_program",
    "format_program",
    "NUM_REGS",
]

NUM_REGS = 32

_ALU_OPS = ("ADD", "SUB", "AND", "OR", "XOR", "SLT")
_CIM_OPS = {
    "CIMAND": CimOp.AND,
    "CIMOR": CimOp.OR,
    "CIMXOR": CimOp.XOR,
    "CIMNAND": CimOp.NAND,
    "CIMNOR": CimOp.NOR,
    "CIMADD": CimOp.ADD,
}
# VCIM.<OP>.<RED>.<N> -> (op, lanes, reduction), one entry per vector form.
_VCIM = {
    f"VCIM.{name}.{red}.{lanes}": (op, lanes, reduce)
    for name, op in (("AND", CimOp.AND), ("OR", CimOp.OR), ("XOR", CimOp.XOR), ("ADD", CimOp.ADD))
    for red, reduce in (("SUM", "sum"), ("ZCMP", "zcmp"))
    for lanes in (4, 8)
}

# Operand signatures, one character per operand.  w: register written,
# r: register read, i: immediate, m: imm(reg) (two argument slots, offset
# then base register, the base read), b/j: branch/jump label, o: optional
# immediate (None when left out).
_ISA = {
    "HALT": "",
    **dict.fromkeys(_ALU_OPS, "wrr"),
    "NOT": "wr",
    "ADDI": "wri",
    "LUI": "wi",
    "LDW": "wm",
    "STW": "rm",
    "BEQ": "rrb",
    "BNE": "rrb",
    "JMP": "j",
    **dict.fromkeys(_CIM_OPS, "wrr"),
    "CIMNOT": "wr",
    **dict.fromkeys(_VCIM, "wrr"),
    "SPWR": "ro",
}
# Mnemonics whose last operand is a label.
_LABEL_OPS = frozenset(op for op, sig in _ISA.items() if sig[-1:] in ("b", "j"))


def _slots(sig: str, kind: str) -> tuple[int, ...]:
    """Argument indices of one kind; imm(reg) fills an i slot, then an r."""
    return tuple(i for i, k in enumerate(sig.replace("m", "ir")) if k == kind)


# (read, written) register argument indices per mnemonic.
_ROLES = {op: (_slots(sig, "r"), _slots(sig, "w")) for op, sig in _ISA.items()}


def _uses(ins: Instruction) -> tuple[set[int], set[int]]:
    """(read registers, written registers) of one instruction."""
    try:
        reads, writes = _ROLES[ins.op]
    except KeyError:
        raise ValueError(f"unknown op {ins.op!r}") from None
    a = ins.args
    return {a[i] for i in reads}, {a[i] for i in writes}


class AsmError(ValueError):
    """Malformed assembly text."""


class CpuFault(RuntimeError):
    """Execution error with program location attached."""


@dataclass(frozen=True)
class Instruction:
    op: str
    args: tuple = ()
    labels: tuple[str, ...] = ()
    line: int = 0


@dataclass
class Program:
    instructions: list[Instruction]

    def label_map(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for idx, ins in enumerate(self.instructions):
            for lab in ins.labels:
                if lab in out:
                    raise AsmError(f"line {ins.line}: duplicate label {lab!r}")
                out[lab] = idx
        return out

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class RunResult:
    cycles: int
    instructions: int


_REG_RE = re.compile(r"^r([0-9]|[12][0-9]|3[01])$")
_MEM_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))\((r\d+)\)$")
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _reg(tok: str, line: int) -> int:
    m = _REG_RE.match(tok)
    if not m:
        raise AsmError(f"line {line}: expected register, got {tok!r}")
    return int(m.group(1))


def _imm(tok: str, line: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"line {line}: expected immediate, got {tok!r}") from None


def _split_args(rest: str) -> list[str]:
    return [t.strip() for t in rest.split(",")] if rest.strip() else []


def parse_program(text: str) -> Program:
    """Assemble text into a Program.  Labels may stand alone on a line or
    prefix an instruction; comments start with # or ;."""
    instructions: list[Instruction] = []
    pending_labels: list[str] = []
    defined: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"[#;]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        while ":" in line:
            label, _, line = line.partition(":")
            label = label.strip()
            if not _LABEL_RE.match(label):
                raise AsmError(f"line {line_no}: bad label {label!r}")
            if label in defined:
                raise AsmError(f"line {line_no}: duplicate label {label!r}")
            defined.add(label)
            pending_labels.append(label)
            line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        op = parts[0].upper()
        args = _split_args(parts[1] if len(parts) > 1 else "")
        instructions.append(_parse_one(op, args, line_no, tuple(pending_labels)))
        pending_labels = []
    if pending_labels:
        raise AsmError(f"labels {pending_labels} point past the end of the program")
    prog = Program(instructions)
    labels = prog.label_map()
    for ins in instructions:
        if ins.op in _LABEL_OPS:
            _target(labels, ins.args[-1], ins.line)
    return prog


def _parse_one(op: str, args: list[str], line: int, labels: tuple[str, ...]) -> Instruction:
    sig = _ISA.get(op)
    if sig is None:
        what = "bad vector mnemonic" if op.startswith("VCIM.") else "unknown mnemonic"
        raise AsmError(f"line {line}: {what} {op!r}")
    if not len(sig) - sig.endswith("o") <= len(args) <= len(sig):
        raise AsmError(f"line {line}: {op} takes {len(sig)} operands, got {len(args)}")
    # Labels and imm(reg) operands are checked for shape before any register
    # is read, so a line with several faults always reports the same one.
    toks = []
    for kind, tok in zip(sig, args):
        if kind == "m":
            m = _MEM_RE.match(tok.replace(" ", ""))
            if not m:
                raise AsmError(f"line {line}: expected imm(reg), got {tok!r}")
            toks += m.groups()
        elif kind in "bj" and not _LABEL_RE.match(tok):
            noun = "branch" if kind == "b" else "jump"
            raise AsmError(f"line {line}: bad {noun} target {tok!r}")
        else:
            toks.append(tok)
    values = [tok if kind in "bj" else _reg(tok, line) if kind in "wr" else _imm(tok, line)
              for kind, tok in zip(sig.replace("m", "ir"), toks)]
    values += [None] * (len(sig) - len(args))
    return Instruction(op, tuple(values), labels, line)


def format_program(prog: Program) -> str:
    """Assembly text for a program; inverse of parse_program."""
    out = []
    for ins in prog.instructions:
        for lab in ins.labels:
            out.append(f"{lab}:")
        out.append("    " + _format_one(ins))
    return "\n".join(out) + "\n"


def _format_one(ins: Instruction) -> str:
    sig = _ISA.get(ins.op)
    if sig is None:
        raise AsmError(f"cannot format {ins.op!r}")
    args = iter(ins.args)
    parts = []
    for kind in sig:
        value = next(args)
        if kind == "m":
            parts.append(f"{value}(r{next(args)})")
        elif kind in "wr":
            parts.append(f"r{value}")
        elif value is not None:
            parts.append(f"{value}")
    return f"{ins.op} {', '.join(parts)}" if parts else ins.op


# -- decoded execution ------------------------------------------------------
# A decoded instruction is (handler, operands, line).  A handler takes (cpu,
# pc, operands) and returns (next pc, array accesses).  Handlers are module
# functions, so a decoded program holds no reference to the Cpu that runs
# it and a finished Cpu is freed without waiting for the cycle collector.

_ALU_FNS = {
    "ADD": operator.add,
    "SUB": operator.sub,
    "AND": operator.and_,
    "OR": operator.or_,
    "XOR": operator.xor,
}


def _nop(cpu, pc, x):
    return pc + 1, 0


def _halt(cpu, pc, x):
    cpu.halted = True
    return pc + 1, 0


def _alu(cpu, pc, x):
    fn, d, a, b = x
    regs = cpu.regs
    regs[d] = fn(regs[a], regs[b]) & cpu._mask
    return pc + 1, 0


def _slt(cpu, pc, x):
    d, a, b = x
    regs, sign = cpu.regs, cpu._sign
    # Flipping the sign bit maps two's-complement order onto unsigned order.
    regs[d] = 1 if regs[a] ^ sign < regs[b] ^ sign else 0
    return pc + 1, 0


def _not(cpu, pc, x):
    d, a = x
    cpu.regs[d] = ~cpu.regs[a] & cpu._mask
    return pc + 1, 0


def _addi(cpu, pc, x):
    d, a, imm = x
    cpu.regs[d] = (cpu.regs[a] + imm) & cpu._mask
    return pc + 1, 0


def _lui(cpu, pc, x):
    d, imm = x
    cpu.regs[d] = (imm << 16) & cpu._mask
    return pc + 1, 0


def _ldw(cpu, pc, x):
    d, imm, base = x
    value = cpu.array.read_word((cpu.regs[base] + imm) & cpu._mask)
    if d:
        cpu.regs[d] = value & cpu._mask
    return pc + 1, 1


def _stw(cpu, pc, x):
    s, imm, base = x
    cpu.array.write_word((cpu.regs[base] + imm) & cpu._mask, cpu.regs[s])
    return pc + 1, 1


def _cim(cpu, pc, x):
    op, d, a, b = x
    value, accesses = cpu.array.cim_word(op, cpu.regs[a], cpu.regs[b])
    if d:
        cpu.regs[d] = value & cpu._mask
    return pc + 1, accesses


def _cimnot(cpu, pc, x):
    d, a = x
    value, accesses = cpu.array.cim_not(cpu.regs[a])
    if d:
        cpu.regs[d] = value & cpu._mask
    return pc + 1, accesses


def _vcim(cpu, pc, x):
    op, lanes, reduce, d, a, b = x
    value = cpu.array.vcim(op, cpu.regs[a], cpu.regs[b], lanes, reduce)
    if d:
        cpu.regs[d] = value & cpu._mask
    return pc + 1, 1


def _spwr(cpu, pc, x):
    v, mask, line = x
    banks = cpu.array.config.banks
    if mask is None:
        mask = (1 << banks) - 1
    if mask <= 0 or mask >> banks:
        raise CpuFault(f"line {line}: bad bank mask {mask:#x}")
    value = cpu.regs[v]
    for bank in range(banks):
        if mask >> bank & 1:
            cpu.array.write_spare(bank, value)
    return pc + 1, 1


def _beq(cpu, pc, x):
    a, b, target = x
    return (target if cpu.regs[a] == cpu.regs[b] else pc + 1), 0


def _bne(cpu, pc, x):
    a, b, target = x
    return (target if cpu.regs[a] != cpu.regs[b] else pc + 1), 0


def _jmp(cpu, pc, x):
    return x[0], 0


def _unknown(cpu, pc, x):
    op, line = x
    raise CpuFault(f"line {line}: unknown op {op!r}")


def _target(labels: dict[str, int], name: str, line: int) -> int:
    if name not in labels:
        raise AsmError(f"line {line}: unknown label {name!r}")
    return labels[name]


_PLAIN = {"HALT": _halt, "SLT": _slt, "NOT": _not, "ADDI": _addi, "LUI": _lui,
          "LDW": _ldw, "STW": _stw, "CIMNOT": _cimnot,
          "BEQ": _beq, "BNE": _bne, "JMP": _jmp}
# Ops whose only effect is a register write.
_PURE = frozenset(("SLT", "NOT", "ADDI", "LUI", *_ALU_FNS))


def _decode_one(ins: Instruction, labels: dict[str, int]):
    op, a = ins.op, ins.args
    if op in _LABEL_OPS:
        a = a[:-1] + (_target(labels, a[-1], ins.line),)
    if op in _PURE and a[0] == 0:  # r0 reads as zero: the write is dropped, the cycle stays
        return _nop, ()
    if op in _PLAIN:
        return _PLAIN[op], a
    if op in _ALU_FNS:
        return _alu, (_ALU_FNS[op],) + a
    if op in _CIM_OPS:
        return _cim, (_CIM_OPS[op],) + a
    if op in _VCIM:
        return _vcim, _VCIM[op] + a
    if op == "SPWR":
        return _spwr, a + (ins.line,)
    return _unknown, (op, ins.line)


class Cpu:
    """Executes a Program against a CimArray with cycle accounting.  The
    program is decoded once, at construction."""

    def __init__(self, array: CimArray, program: Program, memory_latency: int = 1):
        if memory_latency < 0:
            raise ValueError("memory_latency must be non-negative")
        self.array = array
        labels = program.label_map()
        self._code = [_decode_one(ins, labels) + (ins.line,) for ins in program.instructions]
        self.memory_latency = memory_latency
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.cycles = 0
        self.executed = 0
        self.halted = False
        self._mask = (1 << array.config.word_width) - 1
        self._sign = 1 << (array.config.word_width - 1)

    def run(self, max_steps: int = 10_000_000) -> RunResult:
        """Step until HALT; CpuFault after max_steps instructions of this
        call without one.  The state is kept, so a later run resumes."""
        code, latency = self._code, self.memory_latency
        pc, cycles, executed = self.pc, self.cycles, self.executed
        limit = executed + max_steps
        try:
            while not self.halted:
                if executed >= limit:
                    raise CpuFault(f"exceeded {max_steps} steps without HALT")
                if not 0 <= pc < len(code):
                    raise CpuFault(f"pc {pc} outside the program")
                handler, operands, line = code[pc]
                try:
                    pc, accesses = handler(self, pc, operands)
                except ValueError as exc:
                    raise CpuFault(f"line {line}: {exc}") from exc
                cycles += 1 + latency * accesses
                executed += 1
        finally:
            self.pc, self.cycles, self.executed = pc, cycles, executed
        return RunResult(cycles=cycles, instructions=executed)
