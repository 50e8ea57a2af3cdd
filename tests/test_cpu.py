"""Assembler round trip, scalar semantics, the CiM instruction extension,
bus invariants, the cycle model, and compiled blocks against the handlers."""

import gc
import random
import re
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from sttcim import cpu as cpu_module, xform
from sttcim.cimarray import (Addr, ArrayConfig, CimArray, HardError, InjectedColumnNoise,
                             SPARE_ALIAS)
from sttcim.cpu import (
    AsmError,
    Cpu,
    CpuFault,
    Instruction,
    Program,
    format_program,
    parse_program,
)


def _run(asm, array=None, latency=1):
    cpu = Cpu(array or CimArray(), parse_program(asm), memory_latency=latency)
    result = cpu.run()
    return cpu, result


def test_parse_format_roundtrip():
    src = """
    start:
        ADDI r1, r0, 10
        LUI r2, 0x1234
        LDW r3, 4(r1)
        STW r3, -2(r1)
        CIMXOR r4, r1, r2
        CIMNOT r5, r1
        VCIM.ADD.SUM.8 r6, r1, r2
        SPWR r3, 5
        SPWR r3
        BNE r1, r0, start
        JMP done
    done:
        HALT
    """
    prog = parse_program(src)
    text = format_program(prog)
    again = parse_program(text)
    assert format_program(again) == text
    assert len(prog) == 12
    assert prog.instructions[0].labels == ("start",)


def test_parse_errors():
    with pytest.raises(AsmError):
        parse_program("ADD r1, r2\n")
    with pytest.raises(AsmError):
        parse_program("FROB r1, r2, r3\n")
    with pytest.raises(AsmError):
        parse_program("ADD r32, r0, r0\n")
    with pytest.raises(AsmError):
        parse_program("BEQ r0, r0, nowhere\nHALT\n")
    with pytest.raises(AsmError):
        parse_program("LDW r1, r2\n")
    with pytest.raises(AsmError):
        parse_program("VCIM.MUL.SUM.8 r1, r2, r3\n")
    with pytest.raises(AsmError):
        parse_program("VCIM.ADD.SUM.5 r1, r2, r3\n")
    with pytest.raises(AsmError):
        parse_program("dangling:\n")


@pytest.mark.parametrize("op", ["VCIM.ADD.SUM.0x8", "VCIM.ADD.SUM.+8", "VCIM.ADD.SUM.0b1000",
                                "VCIM.ADD.SUM.08", "vcim.add.sum.0x8"])
def test_vector_lanes_must_be_spelled_in_decimal(op):
    # Only the decimal lane counts 4 and 8 name a vector form the CPU runs.
    with pytest.raises(AsmError, match=re.escape(f"line 1: bad vector mnemonic '{op.upper()}'")):
        parse_program(f"{op} r1, r2, r3\n")


@pytest.mark.parametrize("src, line", [("a: HALT\na: HALT\n", 2),
                                       ("a:\nHALT\nb: a:\nHALT\n", 3),
                                       ("a: a: HALT\n", 1)])
def test_duplicate_label_names_the_line_of_its_second_definition(src, line):
    with pytest.raises(AsmError, match=f"^line {line}: duplicate label 'a'$"):
        parse_program(src)


def test_duplicate_label_in_a_built_program_names_the_labelled_line():
    prog = Program([Instruction("HALT", (), ("a",), 1), Instruction("HALT", (), ("a",), 4)])
    with pytest.raises(AsmError, match="^line 4: duplicate label 'a'$"):
        Cpu(CimArray(), prog)


# Operand shapes as the assembly dialect writes them, kept apart from the
# cpu's table: r register, i immediate, m imm(reg), l label, o optional
# immediate.
_VECTOR_OPS = [f"VCIM.{op}.{red}.{lanes}" for op in ("AND", "OR", "XOR", "ADD")
               for red in ("SUM", "ZCMP") for lanes in (4, 8)]
_SHAPES = {
    "HALT": "", "NOT": "rr", "CIMNOT": "rr", "ADDI": "rri", "LUI": "ri", "LDW": "rm",
    "STW": "rm", "BEQ": "rrl", "BNE": "rrl", "JMP": "l", "SPWR": "ro",
    **dict.fromkeys(("ADD", "SUB", "AND", "OR", "XOR", "SLT", "CIMAND", "CIMOR", "CIMXOR",
                     "CIMNAND", "CIMNOR", "CIMADD", *_VECTOR_OPS), "rrr"),
}
_LABELS = ("L0", "loop", "_x9", "end_1")
_IMMS = st.integers(-(1 << 40), 1 << 40)


def _reference_uses(ins):
    """The rewriter's register roles as an if-chain over mnemonics."""
    op, a = ins.op, ins.args
    if op in ("ADD", "SUB", "AND", "OR", "XOR", "SLT"):
        return {a[1], a[2]}, {a[0]}
    if op in ("NOT",):
        return {a[1]}, {a[0]}
    if op == "ADDI":
        return {a[1]}, {a[0]}
    if op == "LUI":
        return set(), {a[0]}
    if op == "LDW":
        return {a[2]}, {a[0]}
    if op == "STW":
        return {a[0], a[2]}, set()
    if op in ("BEQ", "BNE"):
        return {a[0], a[1]}, set()
    if op in ("JMP", "HALT"):
        return set(), set()
    if op.startswith("CIM") and op != "CIMNOT":
        return {a[1], a[2]}, {a[0]}
    if op == "CIMNOT":
        return {a[1]}, {a[0]}
    if op.startswith("VCIM."):
        return {a[1], a[2]}, {a[0]}
    if op == "SPWR":
        return {a[0]}, set()
    raise ValueError(f"unknown op {op!r}")


@st.composite
def _every_mnemonic(draw):
    """Every mnemonic at least once, SPWR with and without its mask, in a
    random order with random operands and labels."""
    ops = draw(st.permutations(sorted(_SHAPES) + ["SPWR"]))
    ops += draw(st.lists(st.sampled_from(sorted(_SHAPES)), max_size=8))
    masks = [None, draw(_IMMS)]
    instructions = []
    for op in ops:
        args = []
        for kind in _SHAPES[op]:
            if kind == "r":
                args.append(draw(st.integers(0, 31)))
            elif kind == "i":
                args.append(draw(_IMMS))
            elif kind == "m":
                args += [draw(_IMMS), draw(st.integers(0, 31))]
            elif kind == "l":
                args.append(draw(st.sampled_from(_LABELS)))
            else:
                args.append(masks.pop() if masks else draw(st.none() | _IMMS))
        instructions.append(Instruction(op, tuple(args)))
    # Every label names some instruction; some instructions carry several.
    labels = [()] * len(instructions)
    for label in _LABELS:
        i = draw(st.integers(0, len(instructions) - 1))
        labels[i] += (label,)
    # Line numbers as format_program lays the text out: labels on lines of
    # their own.
    line = 0
    for i, ins in enumerate(instructions):
        line += len(labels[i]) + 1
        instructions[i] = Instruction(ins.op, ins.args, labels[i], line)
    return Program(instructions)


def test_isa_table_lists_exactly_the_dialect():
    assert set(cpu_module._ISA) == set(_SHAPES)
    assert len(_VECTOR_OPS) == 16


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(_every_mnemonic())
def test_isa_table_round_trips_and_matches_the_register_roles(prog):
    assert parse_program(format_program(prog)) == prog
    for ins in prog.instructions:
        assert xform._uses(ins) == _reference_uses(ins), ins


def test_alu_semantics():
    cpu, _ = _run(
        """
        ADDI r1, r0, 7
        ADDI r2, r0, -3
        ADD r3, r1, r2
        SUB r4, r2, r1
        AND r5, r1, r2
        OR r6, r1, r2
        XOR r7, r1, r2
        NOT r8, r0
        SLT r9, r2, r1
        SLT r10, r1, r2
        LUI r11, 0x8000
        SLT r12, r11, r0
        ADDI r0, r0, 99
        HALT
        """
    )
    assert cpu.regs[3] == 4
    assert cpu.regs[4] == (-10) & 0xFFFFFFFF
    assert cpu.regs[5] == 7 & (0xFFFFFFFD)
    assert cpu.regs[6] == (7 | ((-3) & 0xFFFFFFFF))
    assert cpu.regs[7] == (7 ^ ((-3) & 0xFFFFFFFF))
    assert cpu.regs[8] == 0xFFFFFFFF
    assert cpu.regs[9] == 1  # signed: -3 < 7
    assert cpu.regs[10] == 0
    assert cpu.regs[12] == 1  # signed: 0x80000000 is negative
    assert cpu.regs[0] == 0


def test_branch_loop_sums():
    cpu, res = _run(
        """
        ADDI r1, r0, 0      # acc
        ADDI r2, r0, 10     # counter
        loop:
        ADD r1, r1, r2
        ADDI r2, r2, -1
        BNE r2, r0, loop
        HALT
        """
    )
    assert cpu.regs[1] == 55
    assert res.instructions == 2 + 3 * 10 + 1


def test_memory_roundtrip_and_cycles():
    cpu, res = _run(
        """
        ADDI r1, r0, 42
        STW r1, 100(r0)
        LDW r2, 100(r0)
        HALT
        """,
        latency=16,
    )
    assert cpu.regs[2] == 42
    # 1 + (1+16) + (1+16) + 1
    assert res.cycles == 36
    assert res.instructions == 4


def test_cim_ops_end_to_end():
    arr = CimArray()
    arr.write_word(10, 0x0F0F)
    arr.write_word(26, 0x00FF)  # row 1, same group as 10
    cpu = Cpu(arr, parse_program(
        """
        ADDI r1, r0, 10
        ADDI r2, r0, 26
        CIMXOR r3, r1, r2
        CIMAND r4, r1, r2
        CIMOR r5, r1, r2
        CIMADD r6, r1, r2
        CIMNOT r7, r1
        HALT
        """
    ))
    cpu.run()
    assert cpu.regs[3] == 0x0F0F ^ 0x00FF
    assert cpu.regs[4] == 0x0F0F & 0x00FF
    assert cpu.regs[5] == 0x0F0F | 0x00FF
    assert cpu.regs[6] == 0x0F0F + 0x00FF
    assert cpu.regs[7] == 0x0F0F ^ 0xFFFFFFFF
    assert arr.counters.cim_ops == 5


def test_vcim_instructions():
    arr = CimArray()
    for k in range(8):
        arr.write_word(Addr(0, 0, k), k + 1)
        arr.write_word(Addr(0, 1, k), 10 * (k + 1))
    cpu = Cpu(arr, parse_program(
        """
        ADDI r1, r0, 0
        ADDI r2, r0, 16
        VCIM.ADD.SUM.8 r3, r1, r2
        VCIM.XOR.ZCMP.4 r4, r1, r2
        HALT
        """
    ))
    cpu.run()
    assert cpu.regs[3] == sum((k + 1) + 10 * (k + 1) for k in range(8))
    assert cpu.regs[4] == 0b1111


def test_spwr_and_alias_operand():
    arr = CimArray()
    arr.write_word(5, 0b1100)
    cpu = Cpu(arr, parse_program(
        f"""
        ADDI r1, r0, 0xAA
        SPWR r1, 1
        ADDI r2, r0, 5
        LUI r3, {SPARE_ALIAS >> 16}
        ADD r3, r3, r2
        CIMOR r4, r2, r3
        HALT
        """
    ))
    cpu.run()
    assert cpu.regs[4] == 0b1100 | 0xAA
    assert arr.counters.special_writes == 1


def test_spwr_default_mask_hits_all_banks():
    arr = CimArray()
    cpu = Cpu(arr, parse_program("ADDI r1, r0, 7\nSPWR r1\nHALT\n"))
    cpu.run()
    assert arr.counters.special_writes == arr.config.banks


def test_ldw_rejects_spare_alias():
    arr = CimArray()
    src = f"""
    LUI r1, {SPARE_ALIAS >> 16}
    LDW r2, 0(r1)
    HALT
    """
    cpu = Cpu(arr, parse_program(src))
    with pytest.raises(CpuFault):
        cpu.run()


def test_step_limit_guard():
    cpu = Cpu(CimArray(), parse_program("spin: JMP spin\nHALT\n"))
    with pytest.raises(CpuFault):
        cpu.run(max_steps=100)


def test_no_instruction_sends_a_second_address_and_write_data():
    # The second operand address and the write data share one bus channel.
    isa = cpu_module._ISA
    two_address = [op for op in isa if op.startswith(("CIM", "VCIM.")) and op != "CIMNOT"]
    assert len(two_address) == 6 + 16
    assert {isa[op] for op in two_address} == {"wrr"}  # a result, no data
    # The two that send write data read it from one register and send one
    # address: STW's imm(reg), SPWR's spare row under a bank mask.
    assert (isa["STW"], isa["SPWR"]) == ("rm", "ro")


def test_sub_word_width_config():
    arr = CimArray(ArrayConfig(word_width=16, code="secded"))
    arr.write_word(0, 0x1234)
    cpu = Cpu(arr, parse_program("LDW r1, 0(r0)\nNOT r2, r1\nHALT\n"))
    cpu.run()
    assert cpu.regs[1] == 0x1234
    assert cpu.regs[2] == 0x1234 ^ 0xFFFF


def test_run_stopped_at_max_steps_resumes_to_the_uninterrupted_state():
    src = """
        ADDI r1, r0, 3
    loop:
        ADDI r2, r2, 5
        STW r2, 0(r1)
        ADDI r1, r1, -1
        BNE r1, r0, loop
        HALT
    """
    ran = Cpu(CimArray(), parse_program(src), memory_latency=2)
    whole = ran.run()
    resumed = Cpu(CimArray(), parse_program(src), memory_latency=2)
    with pytest.raises(CpuFault, match="^exceeded 5 steps without HALT$"):
        resumed.run(max_steps=5)
    assert (resumed.executed, resumed.halted) == (5, False)
    assert resumed.run() == whole
    assert (resumed.regs, resumed.cycles, resumed.executed, resumed.pc) == (
        ran.regs, ran.cycles, ran.executed, ran.pc)
    assert resumed.array.counters == ran.array.counters


def test_running_off_the_end_faults_and_keeps_state():
    cpu = Cpu(CimArray(), parse_program("ADDI r1, r0, 1\n"))
    with pytest.raises(CpuFault, match="^pc 1 outside the program$"):
        cpu.run()
    assert (cpu.pc, cpu.cycles, cpu.executed) == (1, 1, 1)


def test_array_error_names_the_line_and_keeps_pc():
    src = f"ADDI r3, r0, 1\nLUI r1, {SPARE_ALIAS >> 16}\nLDW r2, 0(r1)\nHALT\n"
    cpu = Cpu(CimArray(), parse_program(src))
    with pytest.raises(CpuFault, match="^line 3: spare-row alias is only valid as a CiM operand$"):
        cpu.run()
    assert (cpu.pc, cpu.executed, cpu.cycles) == (2, 2, 2)


def test_step_limit_message():
    cpu = Cpu(CimArray(), parse_program("spin: JMP spin\nHALT\n"))
    with pytest.raises(CpuFault, match="^exceeded 100 steps without HALT$"):
        cpu.run(max_steps=100)
    assert cpu.executed == 100


def test_max_steps_bounds_each_call():
    cpu = Cpu(CimArray(), parse_program("spin: JMP spin\nHALT\n"))
    for _ in range(2):
        with pytest.raises(CpuFault, match="^exceeded 5 steps without HALT$"):
            cpu.run(max_steps=5)
    assert cpu.executed == 10


def test_decode_checks_labels_and_defers_unknown_ops():
    with pytest.raises(AsmError, match="unknown label 'nowhere'"):
        Cpu(CimArray(), Program([Instruction("JMP", ("nowhere",), (), 4)]))
    cpu = Cpu(CimArray(), Program([Instruction("HALT", (), (), 1),
                                   Instruction("FROB", (), (), 2)]))
    assert cpu.run().instructions == 1
    cpu = Cpu(CimArray(), Program([Instruction("FROB", (), (), 7)]))
    with pytest.raises(CpuFault, match="^line 7: unknown op 'FROB'$"):
        cpu.run()


def test_finished_cpu_is_freed_without_the_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # The second program's loop runs as a compiled block.
        for src in ("ADDI r1, r0, 1\nBEQ r0, r0, end\nend: HALT\n",
                    "ADDI r1, r0, 4\nloop: STW r1, 0(r1)\nADDI r1, r1, -1\n"
                    "BNE r1, r0, loop\nHALT\n"):
            cpu = Cpu(CimArray(), parse_program(src))
            cpu.run()
            ref = weakref.ref(cpu)
            del cpu
            assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_writes_to_r0_are_dropped_but_accesses_stay():
    arr = CimArray()
    arr.write_word(5, 99)
    arr.write_word(16 + 5, 7)
    cpu, res = _run("ADDI r0, r0, 4\nLDW r0, 5(r0)\nADDI r1, r0, 5\nADDI r2, r0, 21\n"
                    "CIMXOR r0, r1, r2\nHALT\n", array=arr, latency=3)
    assert cpu.regs[0] == 0
    assert arr.counters.reads == 1 and arr.counters.cim_ops == 1
    assert res.cycles == 6 + 3 * 2


# -- compiled blocks against the handlers ---------------------------------------

# 2 banks x 2 data rows x 8 groups of 32-bit words: 32 data words, so the
# walking pointer leaves the array within a few iterations.
_DIFF = ArrayConfig(banks=2, rows_per_bank=3, words_per_row=8)
_DATA_REGS = (5, 6, 7, 8, 9)
_NEVER = float("inf")


@st.composite
def _looping_program(draw):
    """A counted loop over a body that uses every kind of op, plus at most
    one instruction that faults, at once or after some iterations.  r2 and
    r3 point at an aligned pair in bank 0 (a vector access crosses the row
    once they step far enough), r10 at the spare alias of r2's word and r11
    walks off the end of the array; the body reads r5..r9 and writes those
    and r0."""
    reg = st.sampled_from(_DATA_REGS)
    dest = st.sampled_from((0,) + _DATA_REGS)
    base = st.sampled_from((2, 3))
    pair = st.sampled_from(((2, 3), (3, 2), (2, 10), (10, 3)))
    group = draw(st.sampled_from((0, 0, 3)))
    lanes = st.sampled_from((4, 8) if group == 0 else (4,))
    lines = [f"ADDI r1, r0, {draw(st.integers(1, 5))}", f"ADDI r2, r0, {group}",
             f"ADDI r3, r0, {group + 8}", f"LUI r10, {SPARE_ALIAS >> 16}", "ADD r10, r10, r2",
             f"ADDI r11, r0, {_DIFF.total_words - draw(st.integers(1, 4))}"]
    lines += [f"ADDI r{r}, r0, {draw(st.integers(-9, 9))}" for r in _DATA_REGS]
    body = []
    kinds = ["alu", "not", "addi", "lui", "ldw", "stw", "cim", "cimnot", "vcim", "spwr"]
    for kind in draw(st.permutations(kinds)) + draw(st.lists(st.sampled_from(kinds),
                                                              max_size=4)):
        if kind == "alu":
            op = draw(st.sampled_from(("ADD", "SUB", "AND", "OR", "XOR", "SLT")))
            body.append(f"{op} r{draw(dest)}, r{draw(reg)}, r{draw(reg)}")
        elif kind == "not":
            body.append(f"NOT r{draw(dest)}, r{draw(reg)}")
        elif kind == "addi":
            body.append(f"ADDI r{draw(dest)}, r{draw(reg)}, {draw(st.integers(-3, 3))}")
        elif kind == "lui":
            body.append(f"LUI r{draw(dest)}, {draw(st.integers(0, 0xFFFF))}")
        elif kind == "ldw":
            body.append(f"LDW r{draw(dest)}, {draw(st.integers(0, 2))}(r{draw(base)})")
        elif kind == "stw":
            body.append(f"STW r{draw(reg)}, {draw(st.integers(0, 2))}(r{draw(base)})")
        elif kind == "cim":
            op = draw(st.sampled_from(("AND", "OR", "XOR", "NAND", "NOR", "ADD")))
            pa, pb = draw(pair)
            body.append(f"CIM{op} r{draw(dest)}, r{pa}, r{pb}")
        elif kind == "cimnot":
            body.append(f"CIMNOT r{draw(dest)}, r{draw(st.sampled_from((2, 3, 10)))}")
        elif kind == "vcim":
            op = draw(st.sampled_from(("AND", "OR", "XOR", "ADD")))
            form = f"{op}.{draw(st.sampled_from(('SUM', 'ZCMP')))}.{draw(lanes)}"
            pa, pb = draw(pair)
            body.append(f"VCIM.{form} r{draw(dest)}, r{pa}, r{pb}")
        else:
            body.append(f"SPWR r{draw(reg)}{draw(st.sampled_from(('', ', 1', ', 3')))}")
    fault = draw(st.sampled_from((None, None, "LDW r6, 0(r11)", "STW r6, 0(r11)",
                                  "LDW r5, 0(r10)", "CIMXOR r5, r2, r2", "SPWR r5, 4")))
    if fault:
        body.insert(draw(st.integers(0, len(body))), fault)
    body[0] = "loop: " + body[0]
    step = draw(st.integers(0, 1))
    tail = [f"ADDI r2, r2, {step}", f"ADDI r3, r3, {step}", f"ADDI r10, r10, {step}",
            "ADDI r11, r11, 1", "ADDI r1, r1, -1", "BNE r1, r0, loop", "HALT"]
    # A forward branch or jump inside the loop, landing in the body or the tail.
    if draw(st.booleans()):
        at = draw(st.integers(1, len(body)))
        body.insert(at, draw(st.sampled_from(("JMP skip", "BEQ r5, r6, skip",
                                                "BNE r5, r6, skip"))))
        to = draw(st.integers(at + 1, len(body)))
        if to < len(body):
            body[to] = "skip: " + body[to]
        else:
            tail[0] = "skip: " + tail[0]
    return "\n".join(lines + body + tail) + "\n"


def _diff_run(prog, hot, noise, cut):
    """Outcome and state after run(max_steps=cut) and after a resume, with
    blocks compiling on their hot-th entry."""
    arr = CimArray(_DIFF, InjectedColumnNoise(*noise) if noise[0] else None)
    arr.load({i: (i * 0x9E3779B1) & 0xFFFFFFFF for i in range(_DIFF.total_words)})
    cpu = Cpu(arr, prog, memory_latency=2)
    runs = []
    with mock.patch.object(cpu_module, "_COMPILE_AT", hot):
        for steps in (cut, 500):
            try:
                outcome = cpu.run(max_steps=steps)
            except (CpuFault, HardError) as exc:
                outcome = type(exc).__name__, str(exc)
            runs.append((outcome, list(cpu.regs), cpu.pc, cpu.cycles, cpu.executed,
                         cpu.halted, arr.counters.as_dict(), list(arr._words)))
    return runs


# Under this noise and seed, the LDW of the seventh iteration raises HardError.
_LATE_HARD_ERROR = """
    ADDI r1, r0, 7
    ADDI r2, r0, 0
    ADDI r3, r0, 8
loop:
    LDW r5, 0(r2)
    CIMXOR r6, r2, r3
    ADD r7, r5, r6
    STW r7, 1(r3)
    ADDI r2, r2, 1
    ADDI r3, r3, 1
    ADDI r1, r1, -1
    BNE r1, r0, loop
    HALT
"""


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@example(_LATE_HARD_ERROR, (0.02, 2))
@given(_looping_program(), st.tuples(st.sampled_from((0, 0.01, 0.02, 0.05)), st.integers(0, 999)))
def test_compiled_blocks_match_the_handlers(src, noise):
    prog = parse_program(src)
    whole = _diff_run(prog, _NEVER, noise, 500)
    if src == _LATE_HARD_ERROR:
        assert whole[0][0] == ("HardError", "uncorrectable word on read")
        assert whole[0][4] == 3 + 6 * 8
    assert _diff_run(prog, 1, noise, 500) == whole
    assert _diff_run(prog, 2, noise, 500) == whole
    # A cut at every step, and so at every offset of every compiled block.
    for cut in range(1, min(whole[-1][4], 60) + 1):
        reference = _diff_run(prog, _NEVER, noise, cut)
        assert _diff_run(prog, 1, noise, cut) == reference, cut
        assert _diff_run(prog, 2, noise, cut) == reference, cut


def test_compiled_block_keeps_the_state_of_any_error():
    # A hand-built program can name a register the CPU does not have; the
    # IndexError leaves the same state whichever path ran the instruction.
    src = ("ADDI r1, r0, 3\nloop: STW r1, 0(r1)\nADDI r1, r1, -1\nADD r2, r1, r1\n"
           "BNE r1, r0, loop\nHALT\n")
    ins = parse_program(src).instructions
    ins[3] = Instruction("ADD", (2, 1, 40), (), 4)
    prog = Program(ins)
    states = []
    for hot in (1, _NEVER):
        cpu = Cpu(CimArray(), prog)
        with mock.patch.object(cpu_module, "_COMPILE_AT", hot), pytest.raises(IndexError):
            cpu.run()
        states.append((cpu.regs, cpu.pc, cpu.cycles, cpu.executed, cpu.array.counters))
    assert states[0] == states[1]
    assert states[0][1:4] == (3, 4, 3)


def test_an_access_whose_register_write_raises_leaves_the_same_state():
    # The LDW reads the array, then its write to r40 raises: neither path
    # counts the access in the cycles of an instruction that did not finish.
    src = ("ADDI r1, r0, 3\nloop: STW r1, 0(r1)\nADDI r1, r1, -1\nLDW r2, 0(r1)\n"
           "BNE r1, r0, loop\nHALT\n")
    ins = parse_program(src).instructions
    ins[3] = Instruction("LDW", (40, 0, 1), (), 4)
    states = []
    for hot in (1, _NEVER):
        cpu = Cpu(CimArray(), Program(ins))
        with mock.patch.object(cpu_module, "_COMPILE_AT", hot), pytest.raises(IndexError):
            cpu.run()
        states.append((cpu.regs, cpu.pc, cpu.cycles, cpu.executed, cpu.array.counters))
    assert states[0] == states[1]
    assert states[0][1:4] == (3, 4, 3) and states[0][4].reads == 1


# -- every decoded kind against plain arithmetic ---------------------------------
# Handlers and compiled blocks are both generated from cpu._EFFECTS, so the
# differential test above cannot see a wrong template.  Here each kind's
# result is stated in plain integer arithmetic at the word width instead.

_CIM_REFERENCE = {
    "AND": lambda x, y, m: x & y,
    "OR": lambda x, y, m: x | y,
    "XOR": lambda x, y, m: x ^ y,
    "NAND": lambda x, y, m: m - (x & y),
    "NOR": lambda x, y, m: m - (x | y),
    "ADD": lambda x, y, m: (x + y) % (m + 1),
}


def _kind_cases(width):
    """(kind, instruction, registers, memory, registers written, slots
    written, branch taken, array accesses) per case.  Memory maps a data
    word's address, which is also its slot, to its value; the spare row of
    bank b, group g is slot 32 + 8 * b + g."""
    mod, sign = 1 << width, 1 << (width - 1)
    mask = mod - 1
    rng = random.Random(width)
    values = [0, 1, 5, sign - 1, sign, sign + 3, mask - 1, mask,
              rng.getrandbits(width), rng.getrandbits(width)]
    pairs = [(x, y) for x in values for y in values]

    def signed(x):
        return x - mod if x >= sign else x

    alu = {
        "ADD": lambda x, y: (x + y) % mod,
        "SUB": lambda x, y: (x - y) % mod,
        "AND": lambda x, y: x & y,
        "OR": lambda x, y: x | y,
        "XOR": lambda x, y: x ^ y,
        "SLT": lambda x, y: int(signed(x) < signed(y)),
    }
    cases = []
    for op, fn in alu.items():
        cases += [(op, f"{op} r3, r1, r2", {1: x, 2: y}, {}, {3: fn(x, y)}, {}, False, 0)
                  for x, y in pairs]
        for x, y in pairs[13:16]:
            cases += [(op, f"{op} r1, r1, r2", {1: x, 2: y}, {}, {1: fn(x, y)}, {}, False, 0),
                      (op, f"{op} r3, r1, r1", {1: x}, {}, {3: fn(x, x)}, {}, False, 0),
                      (op, f"{op} r0, r1, r2", {1: x, 2: y}, {}, {}, {}, False, 0)]
    for x in values:
        cases.append(("NOT", "NOT r3, r1", {1: x}, {}, {3: mask - x}, {}, False, 0))
        for imm in (0, 1, -1, 7, -mod, mod + 3, 65540, -sign):
            cases.append(("ADDI", f"ADDI r3, r1, {imm}", {1: x}, {},
                          {3: (x + imm) % mod}, {}, False, 0))
    cases += [("NOT", "NOT r0, r1", {1: 5}, {}, {}, {}, False, 0),
              ("ADDI", "ADDI r0, r1, 1", {1: 5}, {}, {}, {}, False, 0),
              ("LUI", "LUI r0, 1", {}, {}, {}, {}, False, 0)]
    for imm in (0, 1, -1, 0x7FFF, 0xFFFF, 0x12345, -0x8000):
        cases.append(("LUI", f"LUI r3, {imm}", {}, {}, {3: imm * 65536 % mod}, {}, False, 0))

    # Bank 0 holds words 0..15 (row 0, row 1) and bank 1 words 16..31, so
    # word g and word 8 + g form a pair.  Lane 2 of a vector op over words
    # 0..7 and 8..15 is 0 for every op, and lane 3 is 0 for XOR.
    mem = {i: rng.getrandbits(width) for i in range(32)}
    mem[2] = mem[10] = 0
    mem[11] = mem[3]
    for base, imm in ((0, 0), (4, 3), (31, 0), (10, -4), (mod - 2, 5), (3, mod)):
        addr = (base + imm) % mod
        cases += [("LDW", f"LDW r3, {imm}(r1)", {1: base}, mem, {3: mem[addr]}, {}, False, 1),
                  ("STW", f"STW r2, {imm}(r1)", {1: base, 2: values[-1]}, mem, {},
                   {addr: values[-1]}, False, 1)]
    cases.append(("LDW", "LDW r0, 4(r1)", {1: 1}, mem, {}, {}, False, 1))
    for name, fn in _CIM_REFERENCE.items():
        for a in (0, 5, 18):
            cases.append(("CIM", f"CIM{name} r3, r1, r2", {1: a, 2: a + 8}, mem,
                          {3: fn(mem[a], mem[a + 8], mask)}, {}, False, 1))
        for red in ("SUM", "ZCMP") if name in ("AND", "OR", "XOR", "ADD") else ():
            for a, lanes in ((0, 4), (0, 8), (4, 4), (16, 8)):
                out = [fn(mem[a + k], mem[a + 8 + k], mask) for k in range(lanes)]
                want = (sum(out) % mod if red == "SUM"
                        else sum(1 << k for k, v in enumerate(out) if v))
                cases.append(("VCIM", f"VCIM.{name}.{red}.{lanes} r3, r1, r2",
                              {1: a, 2: a + 8}, mem, {3: want}, {}, False, 1))
    cases.append(("CIM", "CIMXOR r0, r1, r2", {1: 0, 2: 8}, mem, {}, {}, False, 1))
    for a in (0, 7, 29):
        cases.append(("CIMNOT", "CIMNOT r3, r1", {1: a}, mem, {3: mask - mem[a]}, {}, False, 1))
    for mask_arg, banks in (("", (0, 1)), (", 1", (0,)), (", 2", (1,)), (", 3", (0, 1))):
        spare = {32 + 8 * b + g: values[-2] for b in banks for g in range(8)}
        cases.append(("SPWR", f"SPWR r1{mask_arg}", {1: values[-2]}, {}, {}, spare, False, 1))

    for x, y in [(v, v) for v in values[:4]] + pairs[1:40:3]:
        cases += [("BEQ", "BEQ r1, r2, t", {1: x, 2: y}, {}, {}, {}, x == y, 0),
                  ("BNE", "BNE r1, r2, t", {1: x, 2: y}, {}, {}, {}, x != y, 0)]
    cases.append(("JMP", "JMP t", {}, {}, {}, {}, True, 0))
    return cases


@pytest.mark.parametrize("width", (16, 32))
@pytest.mark.parametrize("hot", (1, _NEVER), ids=("compiled", "handlers"))
def test_every_kind_matches_plain_arithmetic(width, hot):
    config = ArrayConfig(banks=2, rows_per_bank=3, words_per_row=8, word_width=width)
    cases = _kind_cases(width)
    assert {case[0] for case in cases} == set(cpu_module._EFFECTS)
    for kind, text, regs, mem, wrote, stored, taken, accesses in cases:
        arr = CimArray(config)
        arr.load(mem)
        cpu = Cpu(arr, parse_program(f"{text}\nHALT\nt: HALT\n"))
        for reg, value in regs.items():
            cpu.regs[reg] = value
        with mock.patch.object(cpu_module, "_COMPILE_AT", hot):
            result = cpu.run()
        assert (cpu._compiled.get(0) is not None) == (hot == 1)
        want_regs = [0] * 32
        for reg, value in {**regs, **wrote}.items():
            want_regs[reg] = value
        want_words = [mem.get(i, 0) for i in range(32)] + [0] * 16
        for slot, value in stored.items():
            want_words[slot] = value
        got = cpu.regs, [arr.code.extract(w) for w in arr._words], cpu.pc, result.cycles
        assert got == (want_regs, want_words, 3 if taken else 2, 2 + accesses), text


def test_every_mnemonic_decodes_to_a_generated_handler():
    kind_of = {handler: kind for kind, handler in cpu_module._HANDLERS.items()}
    kinds = set()
    for op, sig in cpu_module._ISA.items():
        args = []
        for k in sig:
            args += {"m": [0, 1], "b": ["t"], "j": ["t"], "o": [None], "i": [0]}.get(k, [1])
        handler, _ = cpu_module._decode_one(Instruction(op, tuple(args)), {"t": 0}, 2)
        if op == "HALT":
            assert handler is cpu_module._halt
        else:
            assert handler in kind_of, op
            kinds.add(kind_of[handler])
    assert kinds == set(cpu_module._EFFECTS)


@pytest.mark.parametrize("hot", (1, _NEVER), ids=("compiled", "handlers"))
def test_a_fallback_costs_three_accesses_in_cycles(hot):
    # A corrected non-XOR lane falls back to two near-memory reads: the CIM
    # instruction's accesses are the array's count, not a constant 1.
    arr = CimArray(_DIFF, InjectedColumnNoise(0.003, 7))
    arr.load({i: (i * 0x9E3779B1) & 0xFFFFFFFF for i in range(_DIFF.total_words)})
    prog = parse_program("ADDI r1, r0, 3\nADDI r2, r0, 11\nADDI r4, r0, 100\n"
                         "loop: CIMAND r3, r1, r2\nADDI r4, r4, -1\nBNE r4, r0, loop\nHALT\n")
    cpu = Cpu(arr, prog)
    with mock.patch.object(cpu_module, "_COMPILE_AT", hot):
        result = cpu.run()
    c = arr.counters
    assert c.cim_ops == 100 and c.fallbacks > 0
    assert result.cycles == result.instructions + c.cim_ops + 2 * c.fallbacks
