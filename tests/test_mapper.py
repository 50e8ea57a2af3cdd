"""Placement plans: legality of every operand pairing, bank chunking,
capacity limits and the plan text format."""

import pytest

from sttcim.cimarray import Addr, ArrayConfig, CimArray, CimOp, SPARE_ALIAS
from sttcim.mapper import MapPlan, PlanError, plan_type1, plan_type2, plan_type3

CFG = ArrayConfig()


def _coords(linear):
    rows, group = divmod(linear, CFG.words_per_row)
    return Addr(*divmod(rows, CFG.data_rows), group)


def _banks(plan):
    """Number of banks the plan's segments occupy."""
    return len({_coords(seg.base).bank for seg in plan.segments})


def test_type1_single_bank_layout():
    plan = plan_type1(CFG, 1024)
    assert _banks(plan) == 1
    assert plan.address("A", 0) == 0
    assert plan.address("B", 0) == 1024
    assert plan.address("A", 1023) == 1023
    for i in (0, 1, 15, 16, 500, 1023):
        a = _coords(plan.address("A", i))
        b = _coords(plan.address("B", i))
        assert a.bank == b.bank
        assert a.group == b.group
        assert a.row != b.row


def test_type1_spans_banks():
    plan = plan_type1(CFG, 2500)
    assert _banks(plan) == 3
    # Third chunk: 2500 - 2048 = 452 words in bank 2.
    assert plan.address("A", 2048) == 2 * 2048
    assert plan.address("B", 2048) == 2 * 2048 + 1024
    for i in (1024, 2047, 2048, 2499):
        a = _coords(plan.address("A", i))
        b = _coords(plan.address("B", i))
        assert (a.bank, a.group) == (b.bank, b.group)
        assert a.row != b.row
    with pytest.raises(IndexError):
        plan.address("A", 2500)


def test_type1_capacity():
    plan_type1(CFG, 4096)
    with pytest.raises(PlanError):
        plan_type1(CFG, 4097)


def test_type1_pairs_are_cim_legal():
    plan = plan_type1(CFG, 4096)
    arr = CimArray(CFG)
    for i in (0, 1023, 1024, 3000, 4095):
        arr.write_word(plan.address("A", i), i)
        arr.write_word(plan.address("B", i), i + 1)
        got, acc = arr.cim_word(CimOp.XOR, plan.address("A", i), plan.address("B", i))
        assert (got, acc) == (i ^ (i + 1), 1)


def test_type2_layout_and_scalar_alias():
    plan = plan_type2(CFG, 2048)
    assert _banks(plan) == 1
    assert plan.spare_fill_banks == 1
    assert plan.scalar_operand(plan.address("A", 7)) == 7 + SPARE_ALIAS
    plan2 = plan_type2(CFG, 2049)
    assert _banks(plan2) == 2
    assert plan2.spare_fill_banks == 2
    assert plan2.address("A", 2048) == 2048
    with pytest.raises(PlanError):
        plan_type2(CFG, 8193)


def test_type2_runs_on_array():
    plan = plan_type2(CFG, 40)
    arr = CimArray(CFG)
    arr.write_spare(0, 0xFF)
    for i in range(40):
        arr.write_word(plan.address("A", i), i)
    got, acc = arr.cim_word(CimOp.AND, plan.address("A", 33), plan.scalar_operand(plan.address("A", 33)))
    assert (got, acc) == (33 & 0xFF, 1)


def test_type3_layout():
    plan = plan_type3(CFG, 100, 2)
    assert plan.replicated_rows == 2
    # Text starts above the two pattern rows.
    assert plan.address("T", 0) == 32
    t_addr = plan.address("T", 17)
    t = _coords(t_addr)
    for j in (0, 1):
        p = _coords(plan.pattern_operand(t_addr, j))
        assert p.bank == t.bank
        assert p.group == t.group
        assert p.row == j
        assert p.row != t.row
    with pytest.raises(IndexError):
        plan.pattern_operand(t_addr, 2)


def test_type3_spans_banks_and_capacity():
    chunk = (CFG.data_rows - 1) * CFG.words_per_row
    plan = plan_type3(CFG, chunk + 5, 1)
    assert _banks(plan) == 2
    t_addr = plan.address("T", chunk)
    assert _coords(t_addr).bank == 1
    p = _coords(plan.pattern_operand(t_addr, 0))
    assert p.bank == 1 and p.row == 0
    with pytest.raises(PlanError):
        plan_type3(CFG, 4 * chunk + 1, 1)
    with pytest.raises(PlanError):
        plan_type3(CFG, 10, CFG.data_rows)


def test_plan_text_format():
    plan = plan_type1(CFG, 1500)
    text = plan.text()
    lines = text.strip().split("\n")
    assert lines[0] == "CONFIG banks=4 rows_per_bank=129 words_per_row=16 word_width=32 code=ec3ed4"
    assert lines[1] == "PATTERN type1"
    assert "PLACE A 0 0 1024" in lines
    assert "PLACE B 0 1024 1024" in lines
    assert "PLACE A 1 2048 476" in lines
    assert "PLACE B 1 3072 476" in lines

    t2 = plan_type2(CFG, 3000).text()
    assert "SPARE_FILL 2" in t2
    t3 = plan_type3(CFG, 64, 3).text()
    assert "REPLICATE 0 0" in t3 and "REPLICATE 2 2" in t3
    assert "PLACE T 0 48 64" in t3


def test_wrong_pattern_helpers_raise():
    plan = plan_type1(CFG, 10)
    with pytest.raises(PlanError):
        plan.scalar_operand(0)
    with pytest.raises(PlanError):
        plan.pattern_operand(0, 0)
