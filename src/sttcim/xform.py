"""Rewrites eligible load/compute windows into in-array instructions.

Target patterns, always contiguous and entered only at the top (no labels
on the interior instructions):

    LDW rX, 0(rA); LDW rY, 0(rB); OP rZ, rX, rY   ->  CIMOP rZ, rA, rB
    LDW rX, 0(rA); NOT rZ, rX                     ->  CIMNOT rZ, rA

for OP in {ADD, AND, OR, XOR}.  A rewrite must preserve two things: the
architectural state any later instruction can observe, and the in-array
legality of the operand pair (same bank, same word group, different rows)
on every execution.

State safety: the loaded registers stop being written, so rX (and rY) must
be dead on every path leaving the window; the check is skipped for a
register the window's own destination overwrites.  Only offset-0 loads
qualify, since the in-array instructions take bare register addresses.

Every CFG question below is one walk, ``_reach``: the instructions
reachable from some starts, where a stop predicate ends the walk at an
instruction after entering it.  Liveness walks from the window's exit,
stopping at the register's first read or write on each path, and fails if
it stopped at a read.  An init dominates the window if the window is
unreachable from entry once the walk stops at the init, and it never runs
after the window if the plain walk from the window's exit misses it.

Alignment safety, two proof strategies:

* Straight-line prefix: if no branch or jump precedes the window and no
  branch target lands at or before it, the window runs at most once, with
  register values known by constant propagation from entry; one concrete
  alignment check settles it.  Each pure op (ADD, SUB, AND, OR, XOR, SLT,
  NOT, ADDI, LUI) folds through the CPU's own handler at the word width.

* Loop induction: each base register is written exactly twice in the whole
  program, once by a constant init (``ADDI r, r0, c`` or ``LUI r, c``) and
  once by a self-step ``ADDI r, r, s``, with equal strides.  The init must
  dominate the window and must not be reachable from it (a re-init inside
  an enclosing loop would restart the sequence mid-flight), and both steps
  must sit in the window's own basic block after the window, so each window
  execution advances both pointers exactly once and in lockstep.  The pair
  sequence (c_a + k*s, c_b + k*s), with each init folded as above and each
  sum wrapped at the word width, is then checked exhaustively for every k
  at which both addresses still fall inside the plan's placed segments.
  Programs that walk pointers outside their planned arrays are outside the
  tool's contract, exactly as they would be for the original loads.

``CIMNOT`` needs only the liveness argument: a single operand has no
alignment constraint.

Rewriting is one forward scan to a fixed point, so the transform is
idempotent; every three-instruction rewrite shrinks the program by two
instructions, the NOT form by one.  The scan carries the constant state of
the straight-line prefix forward and builds the label map and branch targets
once: a window's inner instructions hold no label and are no branch target,
so a rewrite at i moves only the labels and targets past i, each by the
instructions it removed.  Keeping these facts costs a transform time linear
in the program length plus rewrites x labels.  After a rewrite at i the scan
resumes at i: the prefix is unchanged, and a rejected window before i stays
rejected, since dropping the loaded registers' writes only lengthens the
paths that read them, the contracted window holds no label, and a CIM
instruction starts no pattern.  The exception is a register whose writer
count falls to two, which may turn into an induction register for an earlier
window; the scan then restarts at entry.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace

from .cimarray import SPARE_ALIAS, ArrayConfig, CimArray, _pair
from .cpu import (_EFFECTS, _HANDLERS, _LABEL_OPS, NUM_REGS, Cpu, CpuFault, Instruction,
                  Program, _uses)
from .mapper import MapPlan

__all__ = [
    "Rewrite",
    "XformReport",
    "transform",
    "addresses_aligned",
    "verify_equivalence",
]

_OP_TO_CIM = {"ADD": "CIMADD", "AND": "CIMAND", "OR": "CIMOR", "XOR": "CIMXOR"}
# Control flow never falls through these; with the label ops they end a block.
_NO_FALLTHROUGH = frozenset(("JMP", "HALT"))
_ENDS_BLOCK = _LABEL_OPS | _NO_FALLTHROUGH
# Ops whose only effect is a register write: no array access, no jump.
_FOLDABLE = frozenset(k for k, e in _EFFECTS.items() if e.accesses == "0" and e.next == "{next}")


@dataclass(frozen=True)
class Rewrite:
    index: int
    kind: str
    line: int
    proof: str


@dataclass(frozen=True)
class XformReport:
    program: Program
    rewrites: tuple[Rewrite, ...]
    instructions_before: int
    instructions_after: int


def addresses_aligned(config: ArrayConfig, addr_a: int, addr_b: int) -> bool:
    """True iff the pair satisfies the two-row access constraints."""
    try:
        _pair(config, addr_a, addr_b)
    except ValueError:
        return False
    return True


def _reach(prog, labels, starts, stop=None) -> set[int]:
    """Instructions reachable from starts; the walk enters an i with
    stop(i) but goes no further from it.  Indices past the end are dropped."""
    code = prog.instructions
    seen: set[int] = set()
    stack = list(starts)
    while stack:
        i = stack.pop()
        if i in seen or i >= len(code):
            continue
        seen.add(i)
        if stop is not None and stop(i):
            continue
        ins = code[i]
        if ins.op not in _NO_FALLTHROUGH:
            stack.append(i + 1)
        if ins.op in _LABEL_OPS:
            stack.append(labels[ins.args[-1]])
    return seen


def _may_read_before_write(prog, labels, starts, reg) -> bool:
    """True if some path from the given points reads reg before writing it.
    r0 is constant and never considered live."""
    if reg == 0:
        return False
    code, reads = prog.instructions, []

    def stop(i):  # the walk ends at the first read or write on each path
        r, w = _uses(code[i])
        if reg in r:
            reads.append(i)
        return reg in r or reg in w

    _reach(prog, labels, starts, stop)
    return bool(reads)


def _cfg_facts(prog: Program) -> tuple[dict[str, int], set[int]]:
    """(label map, branch-target set) of one program version."""
    labels = prog.label_map()
    targets = {labels[ins.args[-1]] for ins in prog.instructions if ins.op in _LABEL_OPS}
    return labels, targets


def _block_end(prog: Program, targets: set[int], i: int) -> int:
    """One past the last instruction of the basic block containing i."""
    j = i
    n = len(prog.instructions)
    while j < n:
        ins = prog.instructions[j]
        if ins.op in _ENDS_BLOCK:
            return j + 1
        if j + 1 < n and (j + 1 in targets or prog.instructions[j + 1].labels):
            return j + 1
        j += 1
    return n


def _fold(known: dict[int, int] | None, ins: Instruction, width: int) -> dict[int, int] | None:
    """Constant propagation through one instruction on the straight line from
    entry: updates and returns known, or None once control flow is reached.
    A pure op whose reads are all known runs through the CPU's own handler
    at the given word width; any other write makes its register unknown."""
    if known is None or ins.op in _ENDS_BLOCK:
        return None
    reads, writes = _uses(ins)
    if ins.op in _FOLDABLE and reads <= known.keys():
        regs = [0] * NUM_REGS
        for reg in reads:
            regs[reg] = known[reg]
        state = SimpleNamespace(regs=regs, _mask=(1 << width) - 1, _sign=1 << (width - 1))
        _HANDLERS[ins.op](state, 0, ins.args)
        known.update((w, regs[w]) for w in writes)  # the handler leaves r0 at 0
    else:
        for w in writes - {0}:  # the CPU discards r0 writes
            known.pop(w, None)
    return known


def _induction(prog: Program, writers: Counter, reg: int, width: int):
    """(init_value, stride, init_index, step_index) if reg is a two-write
    induction register: one constant init, one self-step."""
    if writers[reg] != 2 or reg == 0:
        return None
    init = step = None
    for i, ins in enumerate(prog.instructions):
        if reg not in _uses(ins)[1]:
            continue
        if (ins.op == "ADDI" and ins.args == (reg, 0, ins.args[2])
                or ins.op == "LUI" and ins.args[0] == reg):
            init = (i, _fold({0: 0}, ins, width)[reg])
        elif ins.op == "ADDI" and ins.args[1] == reg and ins.args[0] == reg:
            step = (i, ins.args[2])
    if init is None or step is None or step[1] == 0:
        return None
    return init[1], step[1], init[0], step[0]


def _placed_spans(plan: MapPlan) -> tuple[list[int], list[int]]:
    """(starts, ends) of the disjoint, sorted address ranges the plan's
    segments cover together."""
    starts: list[int] = []
    ends: list[int] = []
    for base, end in sorted((s.base, s.end) for s in plan.segments if s.length > 0):
        if ends and base <= ends[-1]:
            ends[-1] = max(ends[-1], end)
        else:
            starts.append(base)
            ends.append(end)
    return starts, ends


def _prove_alignment(prog, labels, targets, writers, plan, known,
                     win_start, win_end, ra, rb):
    """Proof string if every execution of the window sees a legal pair.
    known: register values at win_start if the window runs at most once on
    a straight line from entry, else None."""
    cfg = plan.config
    if known is not None and ra in known and rb in known:
        if addresses_aligned(cfg, known[ra], known[rb]):
            return "const"
        return None
    ia = _induction(prog, writers, ra, cfg.word_width)
    ib = _induction(prog, writers, rb, cfg.word_width)
    if ia is None or ib is None:
        return None
    base_a, stride_a, init_a, step_a = ia
    base_b, stride_b, init_b, step_b = ib
    if stride_a != stride_b:
        return None
    # Init must run before the window on every path and never after it.
    post = _reach(prog, labels, [win_end])
    for init_idx in (init_a, init_b):
        if init_idx in post:
            return None
        if win_start in _reach(prog, labels, [0], lambda i: i == init_idx):
            return None
    # Both steps inside the window's block, after the window.
    bend = _block_end(prog, targets, win_start)
    for step_idx in (step_a, step_b):
        if not win_end <= step_idx < bend:
            return None
    mask = (1 << cfg.word_width) - 1  # the CPU's sums wrap at its word width
    stride = stride_a
    limit = 2 * cfg.total_words // max(1, abs(stride)) + 4
    starts, ends = _placed_spans(plan)

    def placed(linear):  # the word, or an alias's base word, lies in a segment
        base = linear - SPARE_ALIAS if linear >= SPARE_ALIAS else linear
        i = bisect_right(starts, base) - 1
        return i >= 0 and base < ends[i]

    checked = 0
    try:
        for k in range(limit + 1):
            la = (base_a + k * stride) & mask
            lb = (base_b + k * stride) & mask
            if not (placed(la) and placed(lb)):
                break
            _pair(cfg, la, lb)
            checked += 1
    except ValueError:  # a pair that breaks the two-row rule ends the proof
        return None
    if checked == 0:
        return None
    return f"induction k=0..{checked - 1}"


def _try_cim_window(prog, labels, targets, writers, plan, known, i):
    ins0 = prog.instructions[i]
    if i + 2 >= len(prog.instructions):
        return None
    ins1 = prog.instructions[i + 1]
    ins2 = prog.instructions[i + 2]
    if ins0.op != "LDW" or ins1.op != "LDW" or ins2.op not in _OP_TO_CIM:
        return None
    if ins1.labels or ins2.labels:
        return None
    rx, off_x, ra = ins0.args
    ry, off_y, rb = ins1.args
    if off_x != 0 or off_y != 0:
        return None
    if rx == ry or rx == rb or rx == 0 or ry == 0:
        return None
    rz, s1, s2 = ins2.args
    if (s1, s2) == (rx, ry):
        bases = (ra, rb)
    elif (s1, s2) == (ry, rx):
        bases = (rb, ra)
    else:
        return None
    for loaded in (rx, ry):
        if loaded != rz and _may_read_before_write(prog, labels, [i + 3], loaded):
            return None
    proof = _prove_alignment(prog, labels, targets, writers, plan, known,
                             i, i + 3, ra, rb)
    if proof is None:
        return None
    new_ins = Instruction(_OP_TO_CIM[ins2.op], (rz, bases[0], bases[1]), ins0.labels, ins0.line)
    return new_ins, 3, Rewrite(i, _OP_TO_CIM[ins2.op], ins0.line, proof)


def _try_not_window(prog, labels, i):
    ins0 = prog.instructions[i]
    if i + 1 >= len(prog.instructions):
        return None
    ins1 = prog.instructions[i + 1]
    if ins0.op != "LDW" or ins1.op != "NOT" or ins1.labels:
        return None
    rx, off, ra = ins0.args
    if off != 0 or rx == 0:
        return None
    rz, src = ins1.args
    if src != rx:
        return None
    if rx != rz and _may_read_before_write(prog, labels, [i + 2], rx):
        return None
    new_ins = Instruction("CIMNOT", (rz, ra), ins0.labels, ins0.line)
    return new_ins, 2, Rewrite(i, "CIMNOT", ins0.line, "liveness")


def transform(prog: Program, plan: MapPlan) -> XformReport:
    """Apply every provable rewrite; idempotent."""
    current = Program(list(prog.instructions))
    rewrites: list[Rewrite] = []
    before = len(current)
    writers = Counter(r for ins in current.instructions for r in _uses(ins)[1])
    labels, targets = _cfg_facts(current)
    first_target = min(targets, default=len(current))
    i, known = 0, {0: 0}
    while i < len(current.instructions):
        const = known if first_target > i else None
        hit = (_try_cim_window(current, labels, targets, writers, plan, const, i)
               or _try_not_window(current, labels, i))
        if hit is None:
            known = _fold(known, current.instructions[i], plan.config.word_width)
            i += 1
            continue
        new_ins, width, note = hit
        dropped = Counter(r for ins in current.instructions[i : i + width] for r in _uses(ins)[1])
        dropped.subtract(_uses(new_ins)[1])
        writers.subtract(dropped)
        current.instructions[i : i + width] = [new_ins]
        rewrites.append(note)
        # The window's inner instructions held no label and were no target,
        # so only the facts past i move.
        shift = width - 1
        labels = {name: j - shift if j > i else j for name, j in labels.items()}
        targets = {t - shift if t > i else t for t in targets}
        first_target = min(targets, default=len(current))
        # A register left with two writers may prove an earlier window.
        if any(d > 0 and writers[r] == 2 for r, d in dropped.items()):
            i, known = 0, {0: 0}
    return XformReport(
        program=current,
        rewrites=tuple(rewrites),
        instructions_before=before,
        instructions_after=len(current),
    )


def verify_equivalence(original: Program, transformed: Program, plan: MapPlan,
                       seed: int = 0, max_steps: int = 1_000_000) -> bool:
    """Run both programs on identically seeded arrays and compare the final
    memory images.

    Every placed segment is filled with the same seeded random words before
    each run; unplaced words start zeroed in both.  Registers are not
    compared: the rewrite deliberately stops writing the dead loaded
    temporaries, and that difference must stay invisible through memory.
    Returns True iff both programs halt and leave identical stores; a plan
    segment outside the data words raises ValueError.
    """
    config = plan.config
    rng = random.Random(seed)
    image: dict[int, int] = {}
    for seg in plan.segments:
        if seg.length > 0 and (seg.base < 0 or seg.end > config.total_words):
            raise ValueError(f"segment {seg.name}/{seg.seg} at {seg.base}+{seg.length} "
                             "runs outside the data words")
        image.update(zip(range(seg.base, seg.end),
                         map(rng.getrandbits, repeat(config.word_width, seg.length))))
    seeded = CimArray(config)
    seeded.load(image)
    images = []
    for prog in (original, transformed):
        arr = CimArray(config)
        arr._words = list(seeded._words)
        cpu = Cpu(arr, prog)
        try:
            cpu.run(max_steps=max_steps)
        except CpuFault:
            return False
        images.append(arr._words)
    return images[0] == images[1]
