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

``_EFFECTS`` states what each instruction does, once: the handlers are
generated from it, compiled blocks formatted from it, and the rewriter folds
constants through those handlers.  A ``Cpu`` decodes its program once, at
construction: labels are resolved (an unknown one is an ``AsmError``), CiM
and ``VCIM.*`` mnemonics carry their op, SPWR bank masks are checked.  A
block is the straight line from an entry point through its first branch,
jump or HALT.  It runs one handler call per instruction on its first entry
and is compiled into one function on its second, so a loop runs compiled
from its second iteration and a block entered once never pays for a
compile.  Both paths give the same registers, memory, cycles and faults,
down to a ``max_steps`` cut inside a block.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple

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
# One object per distinct (read, written) pair of register sets.
_ROLE_SETS: dict = {}


def _uses(ins: Instruction) -> tuple[frozenset[int], frozenset[int]]:
    """(read registers, written registers) of one instruction."""
    return ins._roles


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

    @functools.cached_property
    def _roles(self) -> tuple[frozenset[int], frozenset[int]]:
        # Worked out once per instruction: the rewriter asks again and again.
        try:
            reads, writes = _ROLES[self.op]
        except KeyError:
            raise ValueError(f"unknown op {self.op!r}") from None
        a = self.args
        roles = frozenset(a[i] for i in reads), frozenset(a[i] for i in writes)
        return _ROLE_SETS.setdefault(roles, roles)


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
# pc, operands) and returns (next pc, array accesses).  Handlers hold no
# reference to a Cpu, so a finished Cpu is freed without the cycle collector.
# _EFFECTS states each instruction's effect once, per decoded kind: operand
# fields in operand-tuple order, statements, array accesses and next pc.
# Templates use {field} for an operand, r[i] for a register, {M}/{S} for the
# word mask and sign bit, {next} for the fall-through pc and the array's
# methods by name.  r0 reads as zero: a register write sits under `if {d}:`,
# so the write is dropped and the cycle stays.  The handlers are generated
# from the table at import; _block_source formats the same templates with
# constants.  HALT and the fault are the only hand-written handlers.


class _Effect(NamedTuple):
    fields: str
    code: str
    accesses: str = "0"
    next: str = "{next}"


_EFFECTS = {
    "ADD": _Effect("d a b", "if {d}: r[{d}] = (r[{a}] + r[{b}]) & {M}"),
    "SUB": _Effect("d a b", "if {d}: r[{d}] = (r[{a}] - r[{b}]) & {M}"),
    "AND": _Effect("d a b", "if {d}: r[{d}] = (r[{a}] & r[{b}]) & {M}"),
    "OR": _Effect("d a b", "if {d}: r[{d}] = (r[{a}] | r[{b}]) & {M}"),
    "XOR": _Effect("d a b", "if {d}: r[{d}] = (r[{a}] ^ r[{b}]) & {M}"),
    # Flipping the sign bit maps two's-complement order onto unsigned order.
    "SLT": _Effect("d a b", "if {d}: r[{d}] = 1 if r[{a}] ^ {S} < r[{b}] ^ {S} else 0"),
    "NOT": _Effect("d a", "if {d}: r[{d}] = ~r[{a}] & {M}"),
    "ADDI": _Effect("d a imm", "if {d}: r[{d}] = (r[{a}] + {imm}) & {M}"),
    "LUI": _Effect("d imm", "if {d}: r[{d}] = ({imm} << 16) & {M}"),
    "LDW": _Effect("d imm base", "v = read_word((r[{base}] + {imm}) & {M})\n"
                                 "if {d}: r[{d}] = v & {M}", "1"),
    "STW": _Effect("s imm base", "write_word((r[{base}] + {imm}) & {M}, r[{s}])", "1"),
    "CIM": _Effect("op d a b", "v, n = cim_word({op}, r[{a}], r[{b}])\n"
                               "if {d}: r[{d}] = v & {M}", "n"),
    "CIMNOT": _Effect("d a", "v, n = cim_not(r[{a}])\nif {d}: r[{d}] = v & {M}", "n"),
    "VCIM": _Effect("op lanes reduce d a b", "v = vcim({op}, r[{a}], r[{b}], {lanes}, {reduce})\n"
                                            "if {d}: r[{d}] = v & {M}", "1"),
    "SPWR": _Effect("s banks", "for bank in {banks}: write_spare(bank, r[{s}])", "1"),
    "BEQ": _Effect("a b target", "", next="{target} if r[{a}] == r[{b}] else {next}"),
    "BNE": _Effect("a b target", "", next="{target} if r[{a}] != r[{b}] else {next}"),
    "JMP": _Effect("target", "", next="{target}"),
}
_ARRAY_CALLS = ("read_word", "write_word", "cim_word", "cim_not", "vcim", "write_spare")


def _handler_source(kind: str, effect: _Effect) -> str:
    """A handler for one kind, named after it: operands unpacked into the
    fields, the array methods it calls looked up on cpu.array."""
    names = {f: f for f in effect.fields.split()}
    code = effect.code.format(M="cpu._mask", S="cpu._sign", **names)
    ret = f"return {effect.next.format(next='pc + 1', **names)}, {effect.accesses}"
    lines = [f"{', '.join(names)}, = x", "r = cpu.regs"]
    lines += [f"{call} = cpu.array.{call}" for call in _ARRAY_CALLS if f"{call}(" in code]
    lines += code.splitlines() + [ret]
    return f"def {kind}(cpu, pc, x):\n" + "".join(f"    {line}\n" for line in lines)


def _build_handlers() -> dict:
    scope: dict = {}
    exec(compile("\n".join(map(_handler_source, _EFFECTS, _EFFECTS.values())),
                 "<handlers>", "exec"), scope)
    return {kind: scope[kind] for kind in _EFFECTS}


_HANDLERS = _build_handlers()


def _halt(cpu, pc, x):
    cpu.halted = True
    return pc + 1, 0


def _fault(cpu, pc, x):
    raise CpuFault(x[0])


def _target(labels: dict[str, int], name: str, line: int) -> int:
    if name not in labels:
        raise AsmError(f"line {line}: unknown label {name!r}")
    return labels[name]


# Handlers after which control may leave the straight line: each ends a block.
_EXITS = frozenset((_halt, _fault, *(_HANDLERS[kind] for kind, e in _EFFECTS.items()
                                     if e.next != "{next}")))


def _decode_one(ins: Instruction, labels: dict[str, int], banks: int):
    op, a = ins.op, ins.args
    if op in _LABEL_OPS:
        a = a[:-1] + (_target(labels, a[-1], ins.line),)
    if op == "HALT":
        return _halt, ()
    if op == "SPWR":
        v, mask = a
        if mask is None:
            mask = (1 << banks) - 1
        if mask <= 0 or mask >> banks:
            return _fault, (f"line {ins.line}: bad bank mask {mask:#x}",)
        return _HANDLERS["SPWR"], (v, tuple(b for b in range(banks) if mask >> b & 1))
    if op in _CIM_OPS:
        return _HANDLERS["CIM"], (_CIM_OPS[op],) + a
    if op in _VCIM:
        return _HANDLERS["VCIM"], _VCIM[op] + a
    if op in _ISA:  # every other mnemonic is a kind of its own
        return _HANDLERS[op], a
    return _fault, (f"line {ins.line}: unknown op {op!r}",)


# -- compiled blocks ----------------------------------------------------------
# A block runs from its entry pc through the first instruction that ends one
# (_EXITS), or to the end of the program.  On its _COMPILE_AT-th entry a
# block is compiled into one generated function: each instruction's _EFFECTS
# templates with the operands, mask and sign bit as constants, and the array
# methods bound when the block compiles, so a tracer wrapping them still
# sees every call.  A trailing HALT or fault stays with its handler.  The
# function returns (next pc, array accesses); when an instruction raises, it
# leaves (its offset in the block, accesses before it) in its fault cell.
#
# On a 2-core x86 host under CPython 3.11, an ALU instruction costs about
# 380 ns through its handler and 100 ns in a compiled loop.  compile() costs
# about 15 us per generated line, so a block entered once stays with the
# handlers: 780 straight-line ALU instructions take about 12 ms to compile
# and 0.25 ms to interpret.
_COMPILE_AT = 2

_BLOCK = f"""\
def bind({", ".join(_ARRAY_CALLS)}, fault):
    def block(r):
        k = acc = 0
        try:
{{body}}
        except BaseException:
            fault[:] = k, acc
            raise
    return block
"""


def _block_source(block: tuple, start: int, mask: int, sign: int) -> str:
    """Source of a binder for a block's decoded instructions, the first at pc
    start; see _BLOCK.  Each instruction's statements follow k = its offset."""
    body = []
    for k, (handler, x, _) in enumerate(block):
        effect = _EFFECTS[handler.__name__]
        # Operands as source text; a CimOp by its name, bound in _binder.
        consts = {f: v.name if isinstance(v, CimOp) else repr(v)
                  for f, v in zip(effect.fields.split(), x)}
        consts.update(M=mask, S=sign, next=start + k + 1)
        body.append(f"k = {k}")
        body += effect.code.format(**consts).splitlines()
        if effect.accesses != "0":
            body.append(f"acc += {effect.accesses}")
        if handler in _EXITS:
            body.append(f"return {effect.next.format(**consts)}, acc")
    if block[-1][0] not in _EXITS:
        body.append(f"return {start + len(block)}, acc")
    return _BLOCK.format(body="\n".join(" " * 12 + line for line in body))


@functools.lru_cache(maxsize=256)
def _binder(block: tuple, start: int, mask: int, sign: int):
    """The bind function of a block, compiled once per block: runs of one
    program share it."""
    scope = {op.name: op for op in CimOp}
    exec(compile(_block_source(block, start, mask, sign), "<compiled block>", "exec"), scope)
    return scope["bind"]


class Cpu:
    """Executes a Program against a CimArray with cycle accounting.  The
    program is decoded once, at construction; hot blocks compile lazily."""

    def __init__(self, array: CimArray, program: Program, memory_latency: int = 1):
        if memory_latency < 0:
            raise ValueError("memory_latency must be non-negative")
        self.array = array
        labels = program.label_map()
        banks = array.config.banks
        self._code = code = [_decode_one(ins, labels, banks) + (ins.line,)
                             for ins in program.instructions]
        # One past the end of the block that starts at each pc.
        self._ends = ends = [0] * len(code)
        end = len(code)
        for i in range(len(code) - 1, -1, -1):
            if code[i][0] in _EXITS:
                end = i + 1
            ends[i] = end
        self._entries: dict[int, int] = {}
        self._compiled: dict[int, tuple | None] = {}
        self.memory_latency = memory_latency
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.cycles = 0
        self.executed = 0
        self.halted = False
        self._mask = (1 << array.config.word_width) - 1
        self._sign = 1 << (array.config.word_width - 1)

    def _compile(self, start: int):
        """(function, instruction count, fault cell) of the block at start,
        or None if it holds nothing but a HALT or a fault."""
        stop = self._ends[start]
        if self._code[stop - 1][0] in (_halt, _fault):
            stop -= 1
        if stop == start:
            return None
        bind = _binder(tuple(self._code[start:stop]), start, self._mask, self._sign)
        arr, fault = self.array, [0, 0]
        fn = bind(*(getattr(arr, call) for call in _ARRAY_CALLS), fault)
        return fn, stop - start, fault

    def run(self, max_steps: int = 10_000_000) -> RunResult:
        """Step until HALT; CpuFault after max_steps instructions of this
        call without one.  The state is kept, so a later run resumes."""
        code, ends, latency, regs = self._code, self._ends, self.memory_latency, self.regs
        compiled, entries, hot = self._compiled, self._entries, _COMPILE_AT
        pc, cycles, executed = self.pc, self.cycles, self.executed
        limit = executed + max_steps
        try:
            while not self.halted:
                # pc enters a block.
                if executed >= limit:
                    raise CpuFault(f"exceeded {max_steps} steps without HALT")
                if not 0 <= pc < len(code):
                    raise CpuFault(f"pc {pc} outside the program")
                block = compiled.get(pc)
                if block is None:
                    seen = entries[pc] = entries.get(pc, 0) + 1
                    if seen == hot:
                        block = compiled[pc] = self._compile(pc)
                if block is not None and block[1] <= limit - executed:
                    fn, steps, fault = block
                    try:
                        pc, accesses = fn(regs)
                    except BaseException as exc:
                        k, accesses = fault
                        pc += k
                        cycles += k + latency * accesses
                        executed += k
                        if isinstance(exc, ValueError):
                            raise CpuFault(f"line {code[pc][2]}: {exc}") from exc
                        raise
                    cycles += steps + latency * accesses
                    executed += steps
                    continue
                # The block's instructions but the last run in order, so
                # the limit cuts it after the first limit - executed.
                for _ in range(min(ends[pc] - pc, limit - executed)):
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
