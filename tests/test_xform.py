"""Transform: window matching, liveness and alignment proofs, induction
guards, and end-to-end equivalence of rewritten programs."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sttcim import bench, xform
from sttcim.cimarray import AccessCounters, ArrayConfig, CimArray, SPARE_ALIAS
from sttcim.cpu import Cpu, Program, format_program, parse_program
from sttcim.mapper import MapPlan, PlanSegment, plan_type1, plan_type2
from sttcim.xform import addresses_aligned, transform, verify_equivalence

CFG = ArrayConfig()
PLAN = plan_type1(CFG, 32)


def _ops(prog):
    return [ins.op for ins in prog.instructions]


def test_addresses_aligned():
    # 5 and 21 share bank 0 / group 5, rows 0 and 1.
    assert addresses_aligned(CFG, 5, 21)
    assert not addresses_aligned(CFG, 5, 22)
    assert not addresses_aligned(CFG, 5, 5)
    assert not addresses_aligned(CFG, 5, 2048 + 5)
    assert addresses_aligned(CFG, 5, 5 + SPARE_ALIAS)
    assert not addresses_aligned(CFG, 5, 999999)


def test_straightline_rewrite_and_equivalence():
    src = """
        ADDI r1, r0, 5
        ADDI r2, r0, 21
        LDW r3, 0(r1)
        LDW r4, 0(r2)
        XOR r5, r3, r4
        STW r5, 100(r0)
        HALT
    """
    prog = parse_program(src)
    rep = transform(prog, PLAN)
    assert rep.instructions_before - rep.instructions_after == 2
    assert [r.kind for r in rep.rewrites] == ["CIMXOR"]
    assert rep.rewrites[0].proof == "const"
    assert "CIMXOR" in _ops(rep.program)

    def run(p):
        arr = CimArray(CFG)
        arr.write_word(5, 0xAAAA)
        arr.write_word(21, 0x00FF)
        cpu = Cpu(arr, p)
        cpu.run()
        return arr.read_word(100), cpu.cycles

    base_val, base_cycles = run(parse_program(src))
    cim_val, cim_cycles = run(rep.program)
    assert base_val == cim_val == 0xAAAA ^ 0x00FF
    assert cim_cycles < base_cycles


@pytest.mark.parametrize("prefix", ["ADDI r0, r9, 1", "LDW r0, 0(r9)", "ADD r0, r9, r9"])
def test_write_to_r0_keeps_r0_known_zero(prefix):
    # The CPU discards r0 writes, so the addresses below stay const-proved.
    src = f"""
        {prefix}
        ADDI r1, r0, 5
        ADDI r2, r0, 21
        LDW r3, 0(r1)
        LDW r4, 0(r2)
        XOR r5, r3, r4
        STW r5, 100(r0)
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert [(r.kind, r.proof) for r in rep.rewrites] == [("CIMXOR", "const")]
    assert verify_equivalence(parse_program(src), rep.program, PLAN)


def test_straightline_misaligned_not_rewritten():
    src = """
        ADDI r1, r0, 5
        ADDI r2, r0, 22
        LDW r3, 0(r1)
        LDW r4, 0(r2)
        XOR r5, r3, r4
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


# 80,000 data words of 16 bits: linear addresses past 2^16 exist, but the CPU's
# address sums wrap at the word width.
_WIDE16 = ArrayConfig(banks=50, rows_per_bank=101, words_per_row=16, word_width=16)
_WIDE16_PLAN = MapPlan(_WIDE16, "type1", (PlanSegment("A", 0, 0, 16),
                                          PlanSegment("B", 0, 65500, 100)))


def test_const_proof_uses_addresses_at_the_word_width():
    # ADDI leaves 65540 mod 2^16 = 4 in r1, and words 4 and 65524 lie in
    # different banks, though 65540 and 65524 would pair.
    src = """
        ADDI r1, r0, 65540
        ADDI r2, r0, 65524
        LDW r5, 0(r1)
        LDW r6, 0(r2)
        XOR r7, r5, r6
        STW r7, 8(r0)
        HALT
    """
    prog = parse_program(src)
    rep = transform(prog, _WIDE16_PLAN)
    assert rep.rewrites == ()
    assert verify_equivalence(prog, rep.program, _WIDE16_PLAN)


@pytest.mark.parametrize("a, b, trips", [(65540, 65524, 4), (65530, 65514, 8)])
def test_induction_proof_uses_addresses_at_the_word_width(a, b, trips):
    # The pair walked by a loop: the CPU's first pointer starts at 4, or
    # wraps from 65535 to 0 on the seventh trip.
    src = f"""
        ADDI r1, r0, {a}
        ADDI r2, r0, {b}
        ADDI r3, r0, {trips}
    loop:
        LDW r5, 0(r1)
        LDW r6, 0(r2)
        XOR r7, r5, r6
        STW r7, 8(r0)
        ADDI r1, r1, 1
        ADDI r2, r2, 1
        ADDI r3, r3, -1
        BNE r3, r0, loop
        HALT
    """
    prog = parse_program(src)
    rep = transform(prog, _WIDE16_PLAN)
    assert rep.rewrites == ()
    assert verify_equivalence(prog, rep.program, _WIDE16_PLAN)


def test_live_loaded_register_blocks_rewrite():
    src = """
        ADDI r1, r0, 5
        ADDI r2, r0, 21
        LDW r3, 0(r1)
        LDW r4, 0(r2)
        XOR r5, r3, r4
        ADD r6, r3, r0
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


def test_destination_overwrite_skips_liveness():
    # r3 is both a load target and the op destination; later reads of r3
    # see the op result either way.
    src = """
        ADDI r1, r0, 5
        ADDI r2, r0, 21
        LDW r3, 0(r1)
        LDW r4, 0(r2)
        XOR r3, r3, r4
        ADD r6, r3, r0
        STW r6, 40(r0)
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert [r.kind for r in rep.rewrites] == ["CIMXOR"]
    arr_a, arr_b = CimArray(CFG), CimArray(CFG)
    for arr in (arr_a, arr_b):
        arr.write_word(5, 77)
        arr.write_word(21, 12)
    Cpu(arr_a, parse_program(src)).run()
    Cpu(arr_b, rep.program).run()
    assert arr_a.read_word(40) == arr_b.read_word(40) == 77 ^ 12


def test_nonzero_offset_blocks_rewrite():
    src = """
        ADDI r1, r0, 5
        ADDI r2, r0, 20
        LDW r3, 0(r1)
        LDW r4, 1(r2)
        XOR r5, r3, r4
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


def test_label_inside_window_blocks_rewrite():
    src = """
        ADDI r1, r0, 5
        ADDI r2, r0, 21
        ADDI r7, r0, 1
        entry:
        LDW r3, 0(r1)
        mid:
        LDW r4, 0(r2)
        XOR r5, r3, r4
        ADDI r7, r7, -1
        BNE r7, r0, mid
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


def test_address_dependency_blocks_rewrite():
    # Second load's base is the first load's destination.
    src = """
        ADDI r1, r0, 5
        LDW r2, 0(r1)
        LDW r4, 0(r2)
        XOR r5, r2, r4
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


LOOP_SRC = """
    ADDI r1, r0, 0
    ADDI r2, r0, 1024
    ADDI r3, r0, 32
    ADDI r4, r0, 0
loop:
    LDW r5, 0(r1)
    LDW r6, 0(r2)
    ADD r7, r5, r6
    ADD r4, r4, r7
    ADDI r1, r1, 1
    ADDI r2, r2, 1
    ADDI r3, r3, -1
    BNE r3, r0, loop
    STW r4, 2000(r0)
    HALT
"""


def test_induction_rewrite_and_equivalence():
    rep = transform(parse_program(LOOP_SRC), PLAN)
    assert [r.kind for r in rep.rewrites] == ["CIMADD"]
    assert rep.rewrites[0].proof == "induction k=0..31"
    assert rep.instructions_before - rep.instructions_after == 2

    def run(p):
        arr = CimArray(CFG)
        for i in range(32):
            arr.write_word(PLAN.address("A", i), 3 * i + 1)
            arr.write_word(PLAN.address("B", i), i * i % 97)
        arr.counters = AccessCounters()
        cpu = Cpu(arr, p)
        cpu.run()
        counts = arr.counters.as_dict()
        return arr.read_word(2000), cpu.cycles, counts

    base_val, base_cycles, base_cnt = run(parse_program(LOOP_SRC))
    cim_val, cim_cycles, cim_cnt = run(rep.program)
    expect = sum((3 * i + 1) + (i * i % 97) for i in range(32)) & 0xFFFFFFFF
    assert base_val == cim_val == expect
    assert cim_cycles < base_cycles
    assert base_cnt["reads"] == 64 and base_cnt["cim_ops"] == 0
    assert cim_cnt["reads"] == 0 and cim_cnt["cim_ops"] == 32


def test_transform_idempotent():
    rep = transform(parse_program(LOOP_SRC), PLAN)
    again = transform(rep.program, PLAN)
    assert again.rewrites == ()
    assert len(again.program) == len(rep.program)


def test_inner_reset_pointer_rejected():
    # The inner pointers are re-initialized inside the outer loop, so their
    # value at the window is not a single affine sequence.
    src = """
        ADDI r8, r0, 2
    outer:
        ADDI r1, r0, 0
        ADDI r2, r0, 1024
        ADDI r3, r0, 4
    inner:
        LDW r5, 0(r1)
        LDW r6, 0(r2)
        XOR r7, r5, r6
        ADDI r1, r1, 1
        ADDI r2, r2, 1
        ADDI r3, r3, -1
        BNE r3, r0, inner
        ADDI r8, r8, -1
        BNE r8, r0, outer
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


def test_unequal_strides_rejected():
    src = LOOP_SRC.replace("ADDI r2, r2, 1", "ADDI r2, r2, 2")
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


def test_step_outside_window_block_rejected():
    # Pointer steps live in a separate block reached by a branch, so the
    # lockstep argument does not hold.
    src = """
        ADDI r1, r0, 0
        ADDI r2, r0, 1024
        ADDI r3, r0, 8
    loop:
        LDW r5, 0(r1)
        LDW r6, 0(r2)
        ADD r7, r5, r6
        BEQ r7, r0, skip
        ADDI r1, r1, 1
        ADDI r2, r2, 1
    skip:
        ADDI r3, r3, -1
        BNE r3, r0, loop
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


_SKIPPED_INIT_SRC = """
    ADDI r3, r0, 16
    BEQ r3, r0, skip
    ADDI r1, r0, 0
skip:
    ADDI r2, r0, 1024
loop:
    LDW r5, 0(r1)
    LDW r6, 0(r2)
    XOR r7, r5, r6
    STW r7, 0(r1)
    ADDI r1, r1, 1
    ADDI r2, r2, 1
    ADDI r3, r3, -1
    BNE r3, r0, loop
    HALT
"""


def test_init_that_a_branch_can_skip_is_rejected():
    # The branch can jump past r1's init, so the init does not dominate the
    # window and r1's value there is not known to start at 0.
    plan = plan_type1(CFG, 1024)
    assert transform(parse_program(_SKIPPED_INIT_SRC), plan).rewrites == ()
    # With the init ahead of the branch the same loop is rewritten.
    hoisted = _SKIPPED_INIT_SRC.replace("    ADDI r1, r0, 0\n", "").replace(
        "    BEQ", "    ADDI r1, r0, 0\n    BEQ")
    rep = transform(parse_program(hoisted), plan)
    assert [(r.kind, r.proof) for r in rep.rewrites] == [("CIMXOR", "induction k=0..1023")]


def test_scalar_alias_loop_via_lui_induction():
    # Type2 shape: operand B walks the spare alias window via a LUI init.
    plan = plan_type2(CFG, 16)
    src = f"""
        ADDI r1, r0, 0
        LUI r2, {SPARE_ALIAS >> 16}
        ADDI r3, r0, 16
        ADDI r9, r0, 0x55
        SPWR r9, 1
    loop:
        LDW r5, 0(r1)
        LDW r6, 0(r2)
        AND r7, r5, r6
        ADD r4, r4, r7
        ADDI r1, r1, 1
        ADDI r2, r2, 1
        ADDI r3, r3, -1
        BNE r3, r0, loop
        STW r4, 3000(r0)
        HALT
    """
    prog = parse_program(src)
    rep = transform(prog, plan)
    # The original program cannot even run: LDW faults on the alias window.
    assert [r.kind for r in rep.rewrites] == ["CIMAND"]
    arr = CimArray(CFG)
    for i in range(16):
        arr.write_word(i, 0xF0 + i)
    cpu = Cpu(arr, rep.program)
    cpu.run()
    expect = sum((0xF0 + i) & 0x55 for i in range(16)) & 0xFFFFFFFF
    assert arr.read_word(3000) == expect


def test_ldw_not_rewrite():
    src = """
        ADDI r1, r0, 9
        LDW r3, 0(r1)
        NOT r5, r3
        STW r5, 50(r0)
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert [r.kind for r in rep.rewrites] == ["CIMNOT"]
    assert rep.instructions_before - rep.instructions_after == 1
    arr_a, arr_b = CimArray(CFG), CimArray(CFG)
    for arr in (arr_a, arr_b):
        arr.write_word(9, 0x1234)
    Cpu(arr_a, parse_program(src)).run()
    Cpu(arr_b, rep.program).run()
    assert arr_a.read_word(50) == arr_b.read_word(50) == 0x1234 ^ 0xFFFFFFFF


def test_ldw_not_blocked_when_loaded_reg_live():
    src = """
        ADDI r1, r0, 9
        LDW r3, 0(r1)
        NOT r5, r3
        ADD r6, r3, r5
        HALT
    """
    rep = transform(parse_program(src), PLAN)
    assert rep.rewrites == ()


def test_verify_equivalence_accepts_and_rejects():
    cfg = ArrayConfig()
    plan = plan_type1(cfg, 64)
    src = f"""
        ADDI r1, r0, {plan.address("A", 0)}
        ADDI r2, r0, {plan.address("B", 0)}
        ADDI r3, r0, {plan.address("A", 0) + 64}
    loop:
        LDW r5, 0(r1)
        LDW r6, 0(r2)
        XOR r7, r5, r6
        STW r7, 0(r1)
        ADDI r1, r1, 1
        ADDI r2, r2, 1
        BNE r1, r3, loop
        HALT
    """
    prog = parse_program(src)
    rep = transform(prog, plan)
    assert len(rep.rewrites) == 1
    assert verify_equivalence(prog, rep.program, plan, seed=3)
    # a program computing a different function must be rejected
    other = parse_program(src.replace("XOR r7", "OR r7"))
    assert not verify_equivalence(prog, other, plan, seed=3)
    # and one that cannot halt is never equivalent
    stuck = parse_program("loop:\n JMP loop\n HALT")
    assert not verify_equivalence(prog, stuck, plan, seed=3, max_steps=2000)


@pytest.mark.parametrize("base, length", [(CFG.total_words - 4, 8), (-1, 2), (SPARE_ALIAS, 1)])
def test_verify_equivalence_rejects_segment_outside_data_words(base, length):
    plan = MapPlan(CFG, "type1", (PlanSegment("A", 0, base, length),))
    prog = parse_program("HALT")
    with pytest.raises(ValueError):
        verify_equivalence(prog, prog, plan)


def _straight_line_windows(count):
    """count const-proved LDW/LDW/op windows, then a forward branch over a
    labelled store, so every rewrite moves a label and a branch target."""
    lines = []
    for k in range(count):
        a = k % CFG.words_per_row  # bank 0, row 0
        b = a + CFG.words_per_row * (1 + k % (CFG.data_rows - 1))
        lines += [f"ADDI r1, r0, {a}", f"ADDI r2, r0, {b}", "LDW r5, 0(r1)",
                  "LDW r6, 0(r2)", "XOR r7, r5, r6", f"STW r7, {4096 + k}(r0)"]
    return "\n".join(lines + ["BEQ r7, r0, done", "STW r7, 100(r0)", "done: HALT"])


def test_cfg_facts_built_once_per_transform(monkeypatch):
    straight = parse_program(_straight_line_windows(120))
    loop, _, loop_plan = bench.transform_pair("vecsum")
    calls = []
    label_map = Program.label_map

    def counting(self):
        calls.append(len(self))
        return label_map(self)

    monkeypatch.setattr(Program, "label_map", counting)
    for prog, plan, rewrites in ((straight, PLAN, 120), (loop, loop_plan, 1)):
        calls.clear()
        assert len(transform(prog, plan).rewrites) == rewrites
        assert calls == [len(prog)]


def test_rewrite_that_leaves_two_writers_reopens_earlier_window():
    # r1 has three writers until the LDW/NOT window after the loop becomes
    # CIMNOT; only then is r1 an induction register for the loop window.
    src = """
        ADDI r1, r0, 0
        ADDI r2, r0, 1024
        ADDI r3, r0, 32
        ADDI r8, r0, 9
    loop:
        LDW r5, 0(r1)
        LDW r6, 0(r2)
        ADD r7, r5, r6
        ADDI r1, r1, 1
        ADDI r2, r2, 1
        ADDI r3, r3, -1
        BNE r3, r0, loop
        LDW r1, 0(r8)
        NOT r7, r1
        STW r7, 2000(r0)
        HALT
    """
    prog = parse_program(src)
    rep = transform(prog, PLAN)
    assert [(r.index, r.kind, r.proof) for r in rep.rewrites] == [
        (11, "CIMNOT", "liveness"),
        (4, "CIMADD", "induction k=0..31"),
    ]
    assert verify_equivalence(prog, rep.program, PLAN, seed=1)
    assert transform(rep.program, PLAN).rewrites == ()


def _reference_transform(prog, plan):
    """Restart-from-entry fixed point: after every rewrite the scan starts
    again at 0, and every position recomputes the program's facts and its
    straight-line constant state from scratch."""
    current = Program(list(prog.instructions))
    rewrites = []
    changed = True
    while changed:
        changed = False
        for i in range(len(current.instructions)):
            labels, targets = xform._cfg_facts(current)
            writers = Counter(
                r for ins in current.instructions for r in xform._uses(ins)[1]
            )
            known = {0: 0}
            for ins in current.instructions[:i]:
                known = xform._fold(known, ins, plan.config.word_width)
            if any(t <= i for t in targets):
                known = None
            hit = xform._try_cim_window(
                current, labels, targets, writers, plan, known, i
            ) or xform._try_not_window(current, labels, i)
            if hit is not None:
                new_ins, width, note = hit
                current.instructions[i : i + width] = [new_ins]
                rewrites.append(note)
                changed = True
                break
    return current, rewrites


_ADDRS = (0, 1, 5, 16, 21, 1024, 1025, 1029, 2053)
# Aligned pairs, then pairs in another word group or bank.
_PAIRS = ((5, 21), (0, 1024), (1, 1025), (1024, SPARE_ALIAS), (5, 22), (0, 2048))
_BASE = st.sampled_from((1, 2))  # straight-line pointers; loops mostly use r3, r4
_TEMP = st.sampled_from((5, 6, 3, 4))  # loaded registers, sometimes a pointer
_DEST = st.sampled_from((7, 10, 5, 1, 2))  # results, sometimes a pointer


@st.composite
def _programs(draw):
    """Straight-line code, loops with induction pointers (ADDI or LUI
    inits), forward branches, and LDW/LDW/op and LDW/NOT windows whose
    operands may or may not be aligned, some with labels inside."""
    n_labels = 0

    def label():
        nonlocal n_labels
        n_labels += 1
        return f"L{n_labels}"

    def window(ra=None, rb=None, temp=_TEMP):
        setup = []
        if ra is None:
            ra, rb = draw(st.permutations([1, 2]))
            a, b = draw(st.sampled_from(_PAIRS))
            setup = [f"ADDI r{ra}, r0, {a}", f"ADDI r{rb}, r0, {b}"]
            setup = setup[: draw(st.sampled_from((2, 2, 1, 0)))]
        rx = draw(temp)
        ry, rz = draw(temp.filter(lambda r: r != rx)), draw(_DEST)
        if draw(st.integers(0, 3)) == 0:
            out = [f"LDW r{rx}, 0(r{ra})", f"NOT r{rz}, r{rx}"]
        else:
            op = draw(st.sampled_from(("ADD", "AND", "OR", "XOR")))
            s1, s2 = draw(st.permutations([rx, ry]))
            out = [f"LDW r{rx}, 0(r{ra})", f"LDW r{ry}, 0(r{rb})", f"{op} r{rz}, r{s1}, r{s2}"]
        if draw(st.integers(0, 5)) == 0:
            out.insert(draw(st.integers(1, len(out) - 1)), f"{label()}:")
        return setup + out

    def init(reg, value=None):
        value = draw(st.sampled_from((0, 1, 1024, SPARE_ALIAS))) if value is None else value
        if value % (1 << 16) == 0 and draw(st.booleans()):
            return f"LUI r{reg}, {value >> 16}"
        return f"ADDI r{reg}, r0, {value}"

    def straight():
        kind = draw(st.integers(0, 5))
        if kind == 0:
            return [f"ADDI r{draw(_BASE)}, r0, {draw(st.sampled_from(_ADDRS))}"]
        if kind == 1:
            return [init(draw(_BASE))]
        if kind == 2:
            return [f"ADD r{draw(_DEST)}, r{draw(_BASE)}, r{draw(_TEMP)}"]
        if kind == 3:
            reg = draw(_BASE)
            return [f"ADDI r{reg}, r{reg}, {draw(st.sampled_from((1, 16)))}"]
        return [f"STW r{draw(_DEST)}, {draw(st.integers(100, 120))}(r0)"]

    def loop():
        ra, rb = draw(st.permutations([3, 4]))
        if draw(st.integers(0, 3)) == 0:
            ra = draw(st.integers(1, 4).filter(lambda r: r != rb))
        rc = draw(st.integers(8, 9))
        top = label()
        body = window(ra, rb, st.sampled_from((5, 6)))
        body.insert(draw(st.sampled_from((0, 0, 0, 1))), f"{top}:")
        stride = draw(st.sampled_from((1, 1, 1, 16)))
        steps = [f"ADDI r{ra}, r{ra}, {stride}", f"ADDI r{rb}, r{rb}, {stride}"]
        if draw(st.integers(0, 5)) == 0:
            steps[1] = f"ADDI r{rb}, r{rb}, {draw(st.sampled_from((2, -1)))}"
        middle = sum((straight() for _ in range(draw(st.integers(0, 1)))), [])
        # A pointer reloaded after the loop has a third writer until the
        # reload itself is rewritten.
        reload = []
        if draw(st.integers(0, 2)) == 0:
            reload = [f"LDW r{ra}, 0(r{draw(_BASE)})", f"NOT r{draw(_DEST)}, r{ra}"]
        a, b = draw(st.sampled_from(_PAIRS))
        return ([init(ra, a), init(rb, b), f"ADDI r{rc}, r0, 3"] + body + middle + steps
                + [f"ADDI r{rc}, r{rc}, -1", f"BNE r{rc}, r0, {top}"] + reload)

    def skip():
        target = label()
        return [f"BEQ r{draw(_BASE)}, r0, {target}"] + window() + [f"{target}:"]

    pieces = (straight, straight, window, window, loop, skip)
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        lines += draw(st.sampled_from(pieces))()
    return "\n".join(lines + ["HALT"])


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_programs())
def test_scan_matches_restart_from_entry_reference(src):
    prog = parse_program(src)
    rep = transform(prog, PLAN)
    ref_prog, ref_rewrites = _reference_transform(prog, PLAN)
    assert format_program(rep.program) == format_program(ref_prog)
    assert list(rep.rewrites) == ref_rewrites
    assert rep.instructions_after == len(ref_prog)
