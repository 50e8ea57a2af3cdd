"""Assembler round trip, scalar semantics, the CiM instruction extension,
bus invariants and the cycle model."""

import gc
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from sttcim import cpu as cpu_module, xform
from sttcim.cimarray import Addr, ArrayConfig, CimArray, SPARE_ALIAS
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
        cpu = Cpu(CimArray(), parse_program("ADDI r1, r0, 1\nBEQ r0, r0, end\nend: HALT\n"))
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
