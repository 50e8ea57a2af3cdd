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

Each memory instruction emits one ``BusTransaction``.  The bus has a
single secondary channel shared by the second operand address and the
write data, so no transaction may carry both; the constructor enforces it.

A ``Cpu`` decodes its program once, at construction, into one handler per
instruction: mnemonics are dispatched, branch labels resolved to indices
(an unknown label is an ``AsmError`` there) and ``VCIM.*`` mnemonics split
before the first step.  Stepping then costs one call per instruction.
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
    "BusTransaction",
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
_VCIM_OPS = {"AND": CimOp.AND, "OR": CimOp.OR, "XOR": CimOp.XOR, "ADD": CimOp.ADD}
_VCIM_REDUCES = {"SUM": "sum", "ZCMP": "zcmp"}


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

    def with_labels(self, labels: tuple[str, ...]) -> "Instruction":
        return Instruction(self.op, self.args, labels, self.line)


@dataclass
class Program:
    instructions: list[Instruction]

    def label_map(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for idx, ins in enumerate(self.instructions):
            for lab in ins.labels:
                if lab in out:
                    raise AsmError(f"duplicate label {lab!r}")
                out[lab] = idx
        return out

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class BusTransaction:
    """One array command as seen on the memory bus."""

    addr_a: int
    addr_b: int | None = None
    cim_type: CimOp | None = None
    write_data: int | None = None
    vector_meta: tuple[int, str] | None = None
    spare: bool = False

    def __post_init__(self):
        if self.addr_b is not None and self.write_data is not None:
            raise ValueError("addr_b and write_data share one bus channel")


@dataclass(frozen=True)
class RunResult:
    cycles: int
    instructions: int
    halted: bool


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
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"[#;]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        while ":" in line:
            label, _, line = line.partition(":")
            label = label.strip()
            if not _LABEL_RE.match(label):
                raise AsmError(f"line {line_no}: bad label {label!r}")
            pending_labels.append(label)
            line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        op = parts[0].upper()
        args = _split_args(parts[1] if len(parts) > 1 else "")
        ins = _parse_one(op, args, line_no)
        if pending_labels:
            ins = ins.with_labels(tuple(pending_labels))
            pending_labels = []
        instructions.append(ins)
    if pending_labels:
        raise AsmError(f"labels {pending_labels} point past the end of the program")
    prog = Program(instructions)
    labels = prog.label_map()
    for ins in instructions:
        if ins.op in ("BEQ", "BNE"):
            target = ins.args[2]
            if target not in labels:
                raise AsmError(f"line {ins.line}: unknown label {target!r}")
        elif ins.op == "JMP":
            if ins.args[0] not in labels:
                raise AsmError(f"line {ins.line}: unknown label {ins.args[0]!r}")
    return prog


def _parse_one(op: str, args: list[str], line: int) -> Instruction:
    def need(n):
        if len(args) != n:
            raise AsmError(f"line {line}: {op} takes {n} operands, got {len(args)}")

    if op == "HALT":
        need(0)
        return Instruction(op, (), (), line)
    if op in _ALU_OPS:
        need(3)
        return Instruction(op, (_reg(args[0], line), _reg(args[1], line), _reg(args[2], line)), (), line)
    if op == "NOT":
        need(2)
        return Instruction(op, (_reg(args[0], line), _reg(args[1], line)), (), line)
    if op == "ADDI":
        need(3)
        return Instruction(op, (_reg(args[0], line), _reg(args[1], line), _imm(args[2], line)), (), line)
    if op == "LUI":
        need(2)
        return Instruction(op, (_reg(args[0], line), _imm(args[1], line)), (), line)
    if op in ("LDW", "STW"):
        need(2)
        m = _MEM_RE.match(args[1].replace(" ", ""))
        if not m:
            raise AsmError(f"line {line}: expected imm(reg), got {args[1]!r}")
        return Instruction(
            op, (_reg(args[0], line), _imm(m.group(1), line), _reg(m.group(2), line)), (), line
        )
    if op in ("BEQ", "BNE"):
        need(3)
        if not _LABEL_RE.match(args[2]):
            raise AsmError(f"line {line}: bad branch target {args[2]!r}")
        return Instruction(op, (_reg(args[0], line), _reg(args[1], line), args[2]), (), line)
    if op == "JMP":
        need(1)
        if not _LABEL_RE.match(args[0]):
            raise AsmError(f"line {line}: bad jump target {args[0]!r}")
        return Instruction(op, (args[0],), (), line)
    if op in _CIM_OPS:
        need(3)
        return Instruction(op, (_reg(args[0], line), _reg(args[1], line), _reg(args[2], line)), (), line)
    if op == "CIMNOT":
        need(2)
        return Instruction(op, (_reg(args[0], line), _reg(args[1], line)), (), line)
    if op.startswith("VCIM."):
        parts = op.split(".")
        if len(parts) != 4 or parts[1] not in _VCIM_OPS or parts[2] not in _VCIM_REDUCES:
            raise AsmError(f"line {line}: bad vector mnemonic {op!r}")
        lanes = _imm(parts[3], line)
        if lanes not in (4, 8):
            raise AsmError(f"line {line}: vector lanes must be 4 or 8")
        need(3)
        return Instruction(op, (_reg(args[0], line), _reg(args[1], line), _reg(args[2], line)), (), line)
    if op == "SPWR":
        if len(args) == 1:
            return Instruction(op, (_reg(args[0], line), None), (), line)
        need(2)
        return Instruction(op, (_reg(args[0], line), _imm(args[1], line)), (), line)
    raise AsmError(f"line {line}: unknown mnemonic {op!r}")


def format_program(prog: Program) -> str:
    """Assembly text for a program; inverse of parse_program."""
    out = []
    for ins in prog.instructions:
        for lab in ins.labels:
            out.append(f"{lab}:")
        out.append("    " + _format_one(ins))
    return "\n".join(out) + "\n"


def _format_one(ins: Instruction) -> str:
    a = ins.args
    if ins.op == "HALT":
        return "HALT"
    if ins.op in _ALU_OPS or ins.op in _CIM_OPS or ins.op.startswith("VCIM."):
        return f"{ins.op} r{a[0]}, r{a[1]}, r{a[2]}"
    if ins.op in ("NOT", "CIMNOT"):
        return f"{ins.op} r{a[0]}, r{a[1]}"
    if ins.op == "ADDI":
        return f"ADDI r{a[0]}, r{a[1]}, {a[2]}"
    if ins.op == "LUI":
        return f"LUI r{a[0]}, {a[1]}"
    if ins.op in ("LDW", "STW"):
        return f"{ins.op} r{a[0]}, {a[1]}(r{a[2]})"
    if ins.op in ("BEQ", "BNE"):
        return f"{ins.op} r{a[0]}, r{a[1]}, {a[2]}"
    if ins.op == "JMP":
        return f"JMP {a[0]}"
    if ins.op == "SPWR":
        return f"SPWR r{a[0]}" if a[1] is None else f"SPWR r{a[0]}, {a[1]}"
    raise AsmError(f"cannot format {ins.op!r}")


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
    addr = (cpu.regs[base] + imm) & cpu._mask
    value = cpu.array.read_word(addr)
    if cpu.bus is not None:
        cpu.bus.append(BusTransaction(addr_a=addr))
    if d:
        cpu.regs[d] = value & cpu._mask
    return pc + 1, 1


def _stw(cpu, pc, x):
    s, imm, base = x
    addr = (cpu.regs[base] + imm) & cpu._mask
    value = cpu.regs[s]
    cpu.array.write_word(addr, value)
    if cpu.bus is not None:
        cpu.bus.append(BusTransaction(addr_a=addr, write_data=value))
    return pc + 1, 1


def _cim(cpu, pc, x):
    op, d, a, b = x
    addr_a, addr_b = cpu.regs[a], cpu.regs[b]
    value, accesses = cpu.array.cim_word(op, addr_a, addr_b)
    if cpu.bus is not None:
        cpu.bus.append(BusTransaction(addr_a=addr_a, addr_b=addr_b, cim_type=op))
    if d:
        cpu.regs[d] = value & cpu._mask
    return pc + 1, accesses


def _cimnot(cpu, pc, x):
    d, a = x
    addr = cpu.regs[a]
    value, accesses = cpu.array.cim_not(addr)
    if cpu.bus is not None:
        cpu.bus.append(BusTransaction(addr_a=addr, cim_type=CimOp.NOT))
    if d:
        cpu.regs[d] = value & cpu._mask
    return pc + 1, accesses


def _vcim(cpu, pc, x):
    op, lanes, reduce, d, a, b = x
    addr_a, addr_b = cpu.regs[a], cpu.regs[b]
    value = cpu.array.vcim(op, addr_a, addr_b, lanes, reduce)
    if cpu.bus is not None:
        cpu.bus.append(BusTransaction(addr_a=addr_a, addr_b=addr_b, cim_type=op,
                                      vector_meta=(lanes, reduce)))
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
    if cpu.bus is not None:
        cpu.bus.append(BusTransaction(addr_a=0, write_data=value, spare=True))
    return pc + 1, 1


def _beq(cpu, pc, x):
    a, b, target = x
    return (target if cpu.regs[a] == cpu.regs[b] else pc + 1), 0


def _bne(cpu, pc, x):
    a, b, target = x
    return (target if cpu.regs[a] != cpu.regs[b] else pc + 1), 0


def _jmp(cpu, pc, x):
    return x, 0


def _unknown(cpu, pc, x):
    op, line = x
    raise CpuFault(f"line {line}: unknown op {op!r}")


def _target(labels: dict[str, int], name: str, line: int) -> int:
    if name not in labels:
        raise AsmError(f"line {line}: unknown label {name!r}")
    return labels[name]


_PLAIN = {"HALT": _halt, "SLT": _slt, "NOT": _not, "ADDI": _addi, "LUI": _lui,
          "LDW": _ldw, "STW": _stw, "CIMNOT": _cimnot}
# Ops whose only effect is a register write.
_PURE = frozenset(("SLT", "NOT", "ADDI", "LUI", *_ALU_FNS))


def _decode_one(ins: Instruction, labels: dict[str, int]):
    op, a = ins.op, ins.args
    if op in _PURE and a[0] == 0:  # r0 reads as zero: the write is dropped, the cycle stays
        return _nop, ()
    if op in _PLAIN:
        return _PLAIN[op], a
    if op in _ALU_FNS:
        return _alu, (_ALU_FNS[op],) + a
    if op in _CIM_OPS:
        return _cim, (_CIM_OPS[op],) + a
    if op == "SPWR":
        return _spwr, a + (ins.line,)
    if op in ("BEQ", "BNE"):
        return (_beq if op == "BEQ" else _bne), (a[0], a[1], _target(labels, a[2], ins.line))
    if op == "JMP":
        return _jmp, _target(labels, a[0], ins.line)
    parts = op.split(".")
    if (len(parts) == 4 and parts[0] == "VCIM" and parts[1] in _VCIM_OPS
            and parts[2] in _VCIM_REDUCES and parts[3] in ("4", "8")):
        return _vcim, (_VCIM_OPS[parts[1]], int(parts[3]), _VCIM_REDUCES[parts[2]]) + a
    return _unknown, (op, ins.line)


class Cpu:
    """Executes a Program against a CimArray with cycle accounting.  The
    program is decoded once, at construction."""

    def __init__(self, array: CimArray, program: Program,
                 memory_latency: int = 1, trace_bus: bool = False):
        if memory_latency < 0:
            raise ValueError("memory_latency must be non-negative")
        self.array = array
        self.program = program
        self.labels = program.label_map()
        self._code = [_decode_one(ins, self.labels) + (ins.line,)
                      for ins in program.instructions]
        self.memory_latency = memory_latency
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.cycles = 0
        self.executed = 0
        self.halted = False
        self.bus: list[BusTransaction] = [] if trace_bus else None
        self._mask = (1 << array.config.word_width) - 1
        self._sign = 1 << (array.config.word_width - 1)

    def step(self) -> None:
        if self.halted:
            raise CpuFault("stepping a halted CPU")
        self._execute(self.executed + 1)

    def run(self, max_steps: int = 10_000_000) -> RunResult:
        self._execute(max_steps)
        if not self.halted:
            raise CpuFault(f"exceeded {max_steps} steps without HALT")
        return RunResult(cycles=self.cycles, instructions=self.executed, halted=True)

    def _execute(self, limit: int) -> None:
        """Step until HALT or until `limit` instructions have executed."""
        code, latency = self._code, self.memory_latency
        pc, cycles, executed = self.pc, self.cycles, self.executed
        try:
            while not self.halted and executed < limit:
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
