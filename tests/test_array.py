"""Array model: control table, addressing, logic and add correctness, the
spare-row alias, vector ops, and the error flow under injected noise."""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sttcim.cimarray import (
    CONTROL_TABLE,
    AccessCounters,
    Addr,
    ArrayConfig,
    CimArray,
    CimOp,
    DeviceColumnSampler,
    HardError,
    IdealSampler,
    InjectedColumnNoise,
    SPARE_ALIAS,
    _TWO_ROW_OPS,
    _BlockSampler,
    _locate,
    _pair,
    selftest,
)
from sttcim.cpu import Cpu, CpuFault, parse_program
from sttcim.device import IDEAL_DECISIONS, ConfigError, DeviceParams, VariationSpec, cell_factors
from sttcim.ecc import DecodeStatus
from sttcim.streams import uniforms
from sttcim.xform import addresses_aligned


def test_control_table_frozen():
    assert CONTROL_TABLE[CimOp.READ] == ((1, 0, 0), (0, 0, 0), (1, 1, 0))
    assert CONTROL_TABLE[CimOp.NOT] == ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert CONTROL_TABLE[CimOp.AND] == ((1, 0, 1), (0, 0, 0), (1, 1, 0))
    assert CONTROL_TABLE[CimOp.OR] == ((1, 1, 0), (0, 0, 0), (1, 1, 0))
    assert CONTROL_TABLE[CimOp.NAND] == ((0, 0, 0), (1, 0, 1), (0, 1, 0))
    assert CONTROL_TABLE[CimOp.NOR] == ((0, 0, 0), (1, 1, 0), (0, 1, 0))
    assert CONTROL_TABLE[CimOp.XOR] == ((1, 1, 0), (1, 0, 1), (0, 0, 1))
    assert CONTROL_TABLE[CimOp.ADD] == ((1, 1, 0), (1, 0, 1), (0, 0, 0))
    assert len(CONTROL_TABLE) == 8
    # Reference enables spell out read/or/and stacks in (REF, AP, P) order.
    assert CONTROL_TABLE[CimOp.READ][0] == (1, 0, 0)
    assert CONTROL_TABLE[CimOp.OR][0] == (1, 1, 0)
    assert CONTROL_TABLE[CimOp.AND][0] == (1, 0, 1)


def test_op_encoding_values():
    assert [op.value for op in CimOp] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert CimOp.READ.value == 0 and CimOp.ADD.value == 7


def test_addr_linear_roundtrip():
    cfg = ArrayConfig()
    assert cfg.data_rows == 128
    assert cfg.words_per_bank == 2048
    assert cfg.total_words == 8192
    for linear in (0, 1, 15, 16, 2047, 2048, 8191):
        rows, group = divmod(linear, cfg.words_per_row)
        bank, row = divmod(rows, cfg.data_rows)
        assert Addr(bank, row, group).to_linear(cfg) == linear
    assert Addr(bank=1, row=0, group=0).to_linear(cfg) == 2048
    with pytest.raises(ValueError):
        CimArray(cfg).read_word(8192)


@pytest.mark.parametrize("addr", [
    Addr(0, 128, 0),  # the spare row has no linear address
    Addr(0, 129, 0),
    Addr(0, 0, 16),
    Addr(4, 0, 0),
    Addr(-1, 0, 0),
    Addr(0, -1, 0),
    Addr(0, 0, -1),
])
def test_to_linear_rejects_out_of_range_coordinates(addr):
    # Unchecked, Addr(0, 128, 0) and Addr(0, 0, 16) would alias Addr(1, 0, 0)
    # and Addr(0, 1, 0).
    with pytest.raises(ValueError):
        addr.to_linear(ArrayConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(words_per_row=0)
    with pytest.raises(ValueError):
        ArrayConfig(rows_per_bank=1)
    with pytest.raises(ValueError):
        ArrayConfig(code="nope")


def test_data_words_end_below_the_spare_alias():
    # 2^21 data words would give linear addresses SPARE_ALIAS and up two
    # meanings: a data word and a spare-row alias.
    with pytest.raises(ValueError, match="reach the spare-row alias"):
        ArrayConfig(banks=128, rows_per_bank=1025, words_per_row=16)
    assert ArrayConfig(banks=64, rows_per_bank=1025, words_per_row=16).total_words == SPARE_ALIAS
    with pytest.raises(ValueError, match="^spare-row alias is only valid as a CiM operand$"):
        CimArray().read_word(SPARE_ALIAS + 5)


def test_write_read_roundtrip():
    arr = CimArray()
    arr.write_word(0, 0xDEADBEEF)
    arr.write_word(Addr(3, 127, 15), 123456789)
    assert arr.read_word(0) == 0xDEADBEEF
    assert arr.read_word(Addr(3, 127, 15)) == 123456789
    assert arr.counters.writes == 2 and arr.counters.reads == 2


def test_logic_and_add_against_alu():
    arr = CimArray()
    rng = np.random.default_rng(42)
    a_addr, b_addr = Addr(1, 3, 5), Addr(1, 77, 5)
    cases = [(0, 0), (0xFFFFFFFF, 1), (0xFFFFFFFF, 0xFFFFFFFF), (1, 1)]
    cases += [(int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 32))) for _ in range(40)]
    for a, b in cases:
        arr.write_word(a_addr, a)
        arr.write_word(b_addr, b)
        assert arr.cim_word(CimOp.AND, a_addr, b_addr) == (a & b, 1)
        assert arr.cim_word(CimOp.OR, a_addr, b_addr) == (a | b, 1)
        assert arr.cim_word(CimOp.XOR, a_addr, b_addr) == (a ^ b, 1)
        assert arr.cim_word(CimOp.NAND, a_addr, b_addr) == ((a & b) ^ 0xFFFFFFFF, 1)
        assert arr.cim_word(CimOp.NOR, a_addr, b_addr) == ((a | b) ^ 0xFFFFFFFF, 1)
        # full integer sum: carry-out rides at bit 32
        assert arr.cim_word(CimOp.ADD, a_addr, b_addr) == (a + b, 1)
        got, acc = arr.cim_not(a_addr)
        assert (got, acc) == (a ^ 0xFFFFFFFF, 1)


def test_selftest_passes_on_default_geometry():
    selftest(ArrayConfig(), seed=1, words=16)
    selftest(ArrayConfig(code="secded"), seed=2, words=8)


def test_operand_alignment_enforced():
    arr = CimArray()
    arr.write_word(Addr(0, 0, 0), 5)
    arr.write_word(Addr(0, 1, 1), 6)
    arr.write_word(Addr(1, 1, 0), 7)
    with pytest.raises(ValueError):
        arr.cim_word(CimOp.AND, Addr(0, 0, 0), Addr(0, 1, 1))
    with pytest.raises(ValueError):
        arr.cim_word(CimOp.AND, Addr(0, 0, 0), Addr(1, 1, 0))
    with pytest.raises(ValueError):
        arr.cim_word(CimOp.AND, Addr(0, 0, 0), Addr(0, 0, 0))
    with pytest.raises(ValueError):
        arr.cim_word(CimOp.READ, Addr(0, 0, 0), Addr(0, 1, 0))


@pytest.mark.parametrize("call", ["cim_word", "vcim"])
@pytest.mark.parametrize("addr_a, addr_b, message", [
    (Addr(0, 0, 0), Addr(1, 1, 0), "CiM operands must share a bank"),
    (Addr(0, 0, 0), Addr(0, 1, 1), "CiM operands must be column-aligned"),
    (Addr(0, 0, 0), Addr(0, 0, 0), "CiM operands must be distinct rows"),
    (0, 2048 + SPARE_ALIAS, "CiM operands must share a bank"),
    (0, 1 + SPARE_ALIAS, "CiM operands must be column-aligned"),
    (Addr(0, 128, 0), 16 + SPARE_ALIAS, "CiM operands must be distinct rows"),
])
def test_misaligned_operands_name_the_broken_rule(call, addr_a, addr_b, message):
    arr = CimArray()
    args = (CimOp.AND, addr_a, addr_b) + ((4, "sum") if call == "vcim" else ())
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(arr, call)(*args)
    assert arr.counters == AccessCounters()


def test_spare_alias_semantics():
    arr = CimArray()
    arr.write_word(100, 0xF0F0F0F0)
    arr.write_spare(0, 0x0F0F0F0F)
    alias = 100 + SPARE_ALIAS
    assert arr.cim_word(CimOp.OR, 100, alias) == (0xFFFFFFFF, 1)
    assert arr.cim_word(CimOp.AND, 100, alias) == (0, 1)
    # The alias names the same column group, any base word works.
    arr.write_word(37, 3)
    assert arr.cim_word(CimOp.XOR, 37, 37 + SPARE_ALIAS)[0] == 3 ^ 0x0F0F0F0F
    with pytest.raises(ValueError):
        arr.read_word(alias)
    with pytest.raises(ValueError):
        arr.write_word(alias, 1)
    assert arr.counters.special_writes == 1


def test_vcim_sum_and_zcmp():
    arr = CimArray()
    base_a = Addr(2, 0, 0)
    base_b = Addr(2, 1, 0)
    a_vals = [10, 20, 30, 40, 50, 60, 70, 80]
    b_vals = [1, 2, 3, 4, 5, 6, 7, 8]
    for k in range(8):
        arr.write_word(Addr(2, 0, k), a_vals[k])
        arr.write_word(Addr(2, 1, k), b_vals[k])
    total = arr.vcim(CimOp.ADD, base_a, base_b, lanes=8, reduce="sum")
    assert total == sum(a + b for a, b in zip(a_vals, b_vals))
    arr.write_word(Addr(2, 1, 2), 30)
    zc = arr.vcim(CimOp.XOR, base_a, base_b, lanes=4, reduce="zcmp")
    assert zc == 0b1011
    assert arr.counters.vcim_ops == 2
    assert arr.counters.vcim_lanes == 12


def test_vcim_validation():
    arr = CimArray()
    with pytest.raises(ValueError):
        arr.vcim(CimOp.ADD, Addr(0, 0, 0), Addr(0, 1, 0), lanes=3, reduce="sum")
    with pytest.raises(ValueError):
        arr.vcim(CimOp.ADD, Addr(0, 0, 0), Addr(0, 1, 0), lanes=8, reduce="max")
    with pytest.raises(ValueError):
        arr.vcim(CimOp.ADD, Addr(0, 0, 12), Addr(0, 1, 12), lanes=8, reduce="sum")
    with pytest.raises(ValueError):
        arr.vcim(CimOp.ADD, Addr(0, 0, 0), Addr(1, 1, 0), lanes=4, reduce="sum")


def test_vcim_lanes_must_fit_the_row():
    # The lane count is 4 or 8 at any row width; a short row only limits
    # where a vector access may start.
    cfg = ArrayConfig(words_per_row=4)
    arr = CimArray(cfg)
    for k in range(4):
        arr.write_word(Addr(0, 0, k), k + 1)
        arr.write_word(Addr(0, 1, k), 10)
    assert arr.vcim(CimOp.ADD, Addr(0, 0, 0), Addr(0, 1, 0), lanes=4, reduce="sum") == 50
    with pytest.raises(ValueError, match="^vector access crosses a row boundary$"):
        arr.vcim(CimOp.ADD, Addr(0, 0, 0), Addr(0, 1, 0), lanes=8, reduce="sum")
    with pytest.raises(ValueError, match="^vector access crosses a row boundary$"):
        arr.vcim(CimOp.ADD, Addr(0, 0, 1), Addr(0, 1, 1), lanes=4, reduce="sum")
    assert (arr.counters.vcim_ops, arr.counters.vcim_lanes) == (1, 4)
    src = "ADDI r1, r0, 0\nADDI r2, r0, 4\nVCIM.ADD.SUM.8 r3, r1, r2\nHALT\n"
    with pytest.raises(CpuFault, match="^line 3: vector access crosses a row boundary$"):
        Cpu(arr, parse_program(src)).run()


def test_injected_noise_xor_fixup_stays_in_array():
    # p high enough to hit single-column confusions often, low enough to
    # keep multi-column words rare.
    arr = CimArray(sampler=InjectedColumnNoise(0.004, seed=3))
    a_addr, b_addr = Addr(0, 0, 0), Addr(0, 1, 0)
    arr.write_word(a_addr, 0x12345678)
    arr.write_word(b_addr, 0x0BADF00D)
    fixups = 0
    for _ in range(2000):
        got, acc = arr.cim_word(CimOp.XOR, a_addr, b_addr)
        assert got == 0x12345678 ^ 0x0BADF00D
        assert acc == 1
    fixups = arr.counters.xor_fixups
    assert fixups > 0
    assert arr.counters.fallbacks == 0
    assert arr.counters.nm_reads == 0


def test_injected_noise_nonxor_falls_back():
    arr = CimArray(sampler=InjectedColumnNoise(0.004, seed=4))
    a_addr, b_addr = Addr(0, 0, 0), Addr(0, 1, 0)
    arr.write_word(a_addr, 0xFFFF0000)
    arr.write_word(b_addr, 0x00FFFF00)
    total_accesses = 0
    trials = 2000
    for _ in range(trials):
        got, acc = arr.cim_word(CimOp.AND, a_addr, b_addr)
        assert got == 0xFFFF0000 & 0x00FFFF00
        assert acc in (1, 3)
        total_accesses += acc
    assert arr.counters.fallbacks > 0
    assert arr.counters.nm_reads == 2 * arr.counters.fallbacks
    # Every fallback costs exactly two extra accesses.
    assert total_accesses == trials + 2 * arr.counters.fallbacks
    p_fail = 1.0 - (1.0 - 0.004) ** arr.code.n
    observed = arr.counters.fallbacks / trials
    assert observed == pytest.approx(p_fail, rel=0.25)


def test_injected_noise_read_path_corrects():
    arr = CimArray(sampler=InjectedColumnNoise(0.004, seed=5))
    arr.write_word(0, 0xCAFEBABE)
    for _ in range(1500):
        assert arr.read_word(0) == 0xCAFEBABE
    assert arr.counters.corrected_words > 0


def test_heavy_noise_raises_hard_error():
    arr = CimArray(sampler=InjectedColumnNoise(0.5, seed=6))
    arr.write_word(0, 1)
    arr.write_word(16, 2)
    with pytest.raises(HardError):
        for _ in range(50):
            arr.cim_word(CimOp.AND, Addr(0, 0, 0), Addr(0, 1, 0))


def test_device_sampler_zero_variation_matches_ideal():
    sampler = DeviceColumnSampler(DeviceParams(), VariationSpec.zero(), seed=1)
    arr = CimArray(sampler=sampler)
    rng = np.random.default_rng(7)
    a_addr, b_addr = Addr(0, 5, 2), Addr(0, 9, 2)
    for _ in range(10):
        a = int(rng.integers(0, 1 << 32))
        b = int(rng.integers(0, 1 << 32))
        arr.write_word(a_addr, a)
        arr.write_word(b_addr, b)
        assert arr.cim_word(CimOp.XOR, a_addr, b_addr) == (a ^ b, 1)
        assert arr.read_word(a_addr) == a
    assert arr.counters.corrected_words == 0


class _TableSampler(_BlockSampler):
    """Every column of every access senses through one fixed decision
    table."""

    def __init__(self, table):
        self.table = table

    def _fill(self, first, count, n):
        full = (1 << n) - 1
        return [[full if d else 0 for d in self.table]] * count


@pytest.mark.parametrize("n", [27, 51, 72])
def test_noise_free_table_senses_like_ideal(n):
    table, ideal = _TableSampler(IDEAL_DECISIONS), IdealSampler()
    rng = random.Random(n)
    for access in range(1, 200):
        a, b = rng.getrandbits(n), rng.getrandbits(n)
        assert table.sense_read(access, a, n) == ideal.sense_read(access, a, n)
        assert table.sense_pair(access, a, b, n) == ideal.sense_pair(access, a, b, n)


def test_device_sampler_half_variation_all_corrected():
    sampler = DeviceColumnSampler(DeviceParams(), VariationSpec().scaled(0.5), seed=2)
    arr = CimArray(sampler=sampler)
    a_addr, b_addr = Addr(0, 0, 0), Addr(0, 1, 0)
    arr.write_word(a_addr, 0xA5A5A5A5)
    arr.write_word(b_addr, 0x5A5A5A5A)
    for _ in range(2000):
        got, _ = arr.cim_word(CimOp.XOR, a_addr, b_addr)
        assert got == 0xA5A5A5A5 ^ 0x5A5A5A5A
    assert arr.counters.corrected_words > 0


def test_device_sampler_full_variation_needs_error_flow():
    # At the calibrated sigmas a 51-column access fails ~0.5 columns on
    # average; the code absorbs up to 3, beyond that the access hard-fails.
    sampler = DeviceColumnSampler(seed=2)
    arr = CimArray(sampler=sampler)
    a_addr, b_addr = Addr(0, 0, 0), Addr(0, 1, 0)
    arr.write_word(a_addr, 0xA5A5A5A5)
    arr.write_word(b_addr, 0x5A5A5A5A)
    ok = hard = 0
    trials = 2000
    for _ in range(trials):
        try:
            got, _ = arr.cim_word(CimOp.XOR, a_addr, b_addr)
            if got == 0xA5A5A5A5 ^ 0x5A5A5A5A:
                ok += 1
        except HardError:
            hard += 1
    assert ok >= 0.9 * trials
    assert 0 < hard < 0.1 * trials
    assert arr.counters.corrected_words > 100


def test_counters_as_dict():
    c = AccessCounters(reads=3, writes=1)
    d = c.as_dict()
    assert d["reads"] == 3 and d["writes"] == 1


# -- datapath pins ---------------------------------------------------------------


def _reference(op, a, b, width):
    mask = (1 << width) - 1
    return {
        CimOp.READ: a,
        CimOp.NOT: a ^ mask,
        CimOp.AND: a & b,
        CimOp.OR: a | b,
        CimOp.NAND: (a & b) ^ mask,
        CimOp.NOR: (a | b) ^ mask,
        CimOp.XOR: a ^ b,
        CimOp.ADD: a + b,  # carry-out at bit width
    }[op]


@st.composite
def _code_width_operands(draw):
    code = draw(st.sampled_from(("secded", "ec3ed4")))
    width = draw(st.integers(4, 64) if code == "secded" else st.integers(1, 45))
    edge = st.sampled_from((0, 1, (1 << width) - 1, 1 << (width - 1)))
    word = st.one_of(edge, st.integers(0, (1 << width) - 1))
    return code, width, draw(word), draw(word)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_code_width_operands(), st.integers(0, 15))
def test_ideal_datapath_matches_alu(case, group):
    code, width, a, b = case
    arr = CimArray(ArrayConfig(banks=1, rows_per_bank=3, word_width=width, code=code),
                   IdealSampler())
    pa, pb = Addr(0, 0, group), Addr(0, 1, group)
    arr.write_word(pa, a)
    arr.write_word(pb, b)
    assert arr.read_word(pa) == a
    assert arr.cim_not(pa) == (_reference(CimOp.NOT, a, b, width), 1)
    for op in (CimOp.AND, CimOp.OR, CimOp.NAND, CimOp.NOR, CimOp.XOR, CimOp.ADD):
        assert arr.cim_word(op, pa, pb) == (_reference(op, a, b, width), 1), op


_GOLDEN_OPS = (CimOp.READ, CimOp.NOT, CimOp.AND, CimOp.OR, CimOp.NAND, CimOp.NOR,
               CimOp.XOR, CimOp.ADD)


def _golden_run(config, sampler, seed, accesses=200):
    arr = CimArray(config, sampler)
    rng = random.Random(seed)
    values = []
    for k in range(accesses):
        op = _GOLDEN_OPS[k % len(_GOLDEN_OPS)]
        bank, group = rng.randrange(config.banks), rng.randrange(config.words_per_row)
        row_a, row_b = rng.sample(range(config.data_rows), 2)
        a, b = Addr(bank, row_a, group), Addr(bank, row_b, group)
        arr.write_word(a, rng.getrandbits(config.word_width))
        arr.write_word(b, rng.getrandbits(config.word_width))
        try:
            if op is CimOp.READ:
                values.append(arr.read_word(a))
            elif op is CimOp.NOT:
                values.append(arr.cim_not(a))
            else:
                values.append(arr.cim_word(op, a, b))
        except HardError:
            values.append(None)
    return hashlib.sha256(repr(values).encode()).hexdigest(), arr.counters.as_dict()


def _counts(nm_reads, corrected, fixups, fallbacks):
    return dict(reads=25, writes=400, special_writes=0, cim_ops=175, vcim_ops=0, vcim_lanes=0,
                nm_reads=nm_reads, corrected_words=corrected, xor_fixups=fixups,
                fallbacks=fallbacks)


@pytest.mark.parametrize("config, sampler, digest, counters", [
    (ArrayConfig(code="ec3ed4"), InjectedColumnNoise(1e-2, seed=11),
     "b89029669823d40fd40d5a2fffb84d13ee1852c8205ffcce281587d3c4d6f2d2", _counts(91, 106, 11, 46)),
    (ArrayConfig(code="secded"), InjectedColumnNoise(1e-2, seed=12),
     "e6b8a7b2175b4a877a1158060bf75261a9f0ed399e89edb3728b38568031fec2", _counts(57, 66, 8, 29)),
    (ArrayConfig(), DeviceColumnSampler(variation=VariationSpec().scaled(1.0), seed=13),
     "70c0c1cef1da2875f07ba34f0aa698e8dd73c523f1cd57ade7f10212d9194f48", _counts(144, 86, 14, 72)),
    (ArrayConfig(), DeviceColumnSampler(variation=VariationSpec().scaled(2.0), seed=14),
     "758c39cb36e85b28ab180f48f4030bb8e2c95816db81e7401dac434c937f0498", _counts(26, 58, 5, 13)),
], ids=["injected-ec3ed4", "injected-secded", "device-1x", "device-2x"])
def test_noisy_access_sequence_pinned(config, sampler, digest, counters):
    # Values (None for a HardError) and counters of 200 accesses, all eight
    # ops, recorded before sensing moved to int masks: any change to the
    # per-access draw layout or the noise-to-comparator mapping shows here.
    assert _golden_run(config, sampler, seed=7) == (digest, counters)


# -- blocked samplers against per-access references -----------------------------
# The samplers as they were before block prefetch: one draw call per access,
# decisions through 0/1 arrays.  The device reference takes its slots as a
# parameter; all eight is the old draw, (0, 1, 2, 3, 5, 7) the six it senses.


def _ref_bit_array(word, n):
    raw = np.frombuffer(word.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def _ref_mask(decisions):
    return int.from_bytes(np.packbits(decisions, bitorder="little").tobytes(), "little")


class _RefInjected:
    def __init__(self, p, seed):
        self.p, self.seed = p, seed

    def _draws(self, access, n):
        ent = np.uint64(access) * np.uint64(SPARE_ALIAS) + np.arange(n, dtype=np.uint64)
        return uniforms(self.seed, ent)

    def sense_read(self, access, word, n):
        return word ^ _ref_mask(self._draws(access, n) < self.p)

    def sense_pair(self, access, a, b, n):
        u = self._draws(access, n)
        hit = _ref_mask(u < self.p)
        low = _ref_mask(u < 0.5 * self.p)
        either, both, one = a | b, a & b, a ^ b
        o_or = (either | (hit & ~either)) & ~(low & one)
        o_and = (both & ~hit) | (hit & ~low & one)
        return o_or, o_and


class _RefDevice:
    def __init__(self, variation, seed, slots=tuple(range(8))):
        self.params, self.variation, self.seed, self.slots = DeviceParams(), variation, seed, slots

    def _cells(self, access, n):
        cells = (access * SPARE_ALIAS + np.arange(n, dtype=np.uint64)[:, None]) * np.uint64(8)
        factor, r_t = cell_factors(self.params, self.variation, self.seed,
                                   cells + np.array(self.slots, dtype=np.uint64))
        full = np.full((n, 8), np.nan), np.full((n, 8), np.nan)
        full[0][:, self.slots], full[1][:, self.slots] = factor, r_t
        return full

    def _currents(self, factor, r_t, slot, r_nominal):
        return self.params.read_voltage / (r_t[:, slot] + r_nominal * factor[:, slot])

    def sense_read(self, access, word, n):
        p = self.params
        factor, r_t = self._cells(access, n)
        r_cell = np.where(_ref_bit_array(word, n) == 1, p.r_p, p.r_ap) * factor[:, 0]
        i_cell = p.read_voltage / (r_t[:, 0] + r_cell)
        return _ref_mask(i_cell > self._currents(factor, r_t, 2, p.r_ref))

    def sense_pair(self, access, a, b, n):
        p = self.params
        factor, r_t = self._cells(access, n)
        r_a = np.where(_ref_bit_array(a, n) == 1, p.r_p, p.r_ap) * factor[:, 0]
        r_b = np.where(_ref_bit_array(b, n) == 1, p.r_p, p.r_ap) * factor[:, 1]
        i_sl = p.read_voltage / (r_t[:, 0] + r_a) + p.read_voltage / (r_t[:, 1] + r_b)
        i_ref_or = self._currents(factor, r_t, 2, p.r_ref) + self._currents(factor, r_t, 3, p.r_ap)
        i_ref_and = self._currents(factor, r_t, 5, p.r_ref) + self._currents(factor, r_t, 7, p.r_p)
        return _ref_mask(i_sl > i_ref_or), _ref_mask(i_sl > i_ref_and)


def _sense(sampler, call):
    """One sampler call, or the ConfigError it raised."""
    access, n, pair, a, b = call
    try:
        if pair:
            return sampler.sense_pair(access, a, b, n)
        return sampler.sense_read(access, a, n)
    except ConfigError:
        return ConfigError


# Segments of consecutive access ids (long enough for blocks to reach their
# cap), joined by repeats, gaps, steps backwards and far jumps, as a sampler
# shared between arrays or driven by hand would see; n changes between
# segments (72 columns, a 64-bit secded word, spans two 64-bit lanes).
_segments = st.lists(
    st.tuples(st.one_of(st.sampled_from((1, 0, 2, 63, -1, -64)), st.integers(-300, 300)),
              st.integers(1, 100), st.sampled_from((27, 51, 72))),
    min_size=1, max_size=6)


def _drive(blocked, reference, seed, start, segments):
    rng = random.Random(seed)
    access = start
    for step, run, n in segments:
        access = max(0, access + step)
        for access in range(access, access + run):
            call = (access, n, rng.random() < 0.5, rng.getrandbits(n), rng.getrandbits(n))
            assert _sense(blocked, call) == _sense(reference, call), call


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.sampled_from((1e-3, 1e-2, 0.5)), seed=st.integers(0, 2**32),
       start=st.integers(0, 5000), segments=_segments)
def test_blocked_injected_noise_matches_per_access(p, seed, start, segments):
    _drive(InjectedColumnNoise(p, seed=seed), _RefInjected(p, seed), seed, start, segments)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(scale=st.sampled_from((0.5, 1.0, 2.0)), seed=st.integers(0, 2**32),
       start=st.integers(0, 5000), segments=_segments)
def test_blocked_device_sampler_matches_per_access(scale, seed, start, segments):
    variation = VariationSpec().scaled(scale)
    _drive(DeviceColumnSampler(variation=variation, seed=seed), _RefDevice(variation, seed),
           seed, start, segments)


def test_blocked_device_sampler_raises_where_its_access_runs_out():
    # At 30x variation about one cell in 1,700 stays non-positive through
    # all nine attempts, so some accesses raise and most of their block does
    # not (19 of these 200).  The blocked sampler must raise at exactly the
    # accesses a per-access six-slot draw raises at, and serve the rest
    # unchanged.
    variation = VariationSpec().scaled(30.0)
    blocked = DeviceColumnSampler(variation=variation, seed=5)
    sensed = _RefDevice(variation, 5, slots=(0, 1, 2, 3, 5, 7))
    eight = _RefDevice(variation, 5)
    rng = random.Random(5)
    got, want, old = [], [], []
    for access in range(1, 201):
        call = (access, 27, access % 2 == 0, rng.getrandbits(27), rng.getrandbits(27))
        got.append(_sense(blocked, call))
        want.append(_sense(sensed, call))
        old.append(_sense(eight, call))
    assert got == want
    raised = [k for k, r in enumerate(want) if r is ConfigError]
    assert 0 < len(raised) < 50
    # Blocks of 16, then 32 accesses: the first raising access (index 22,
    # access 23) shares its block, accesses 17..48, with accesses served
    # normally.
    assert 16 <= raised[0] < 48 and not set(range(16, 48)) <= set(raised)
    # Cells in the unsensed slots 4 and 6 no longer raise for their access.
    assert set(raised) < {k for k, r in enumerate(old) if r is ConfigError}


def _block_sizes(sampler, n, accesses=100):
    """The block sizes a sampler fills over consecutive accesses 0..accesses-1."""
    sizes = []
    fill = sampler._fill

    def recording(first, count, n):
        sizes.append(count)
        return fill(first, count, n)

    sampler._fill = recording
    for access in range(accesses):
        sampler.sense_read(access, 0, n)
    return sizes


@pytest.mark.parametrize("n, want", [(27, [16, 32, 32, 32]),
                                     (51, [16, 17, 17, 17, 17, 17]),
                                     (72, [12] * 9)])
def test_device_sampler_blocks_stay_under_128_kib(n, want):
    # A block's draw array is 6 sensed slots x 3 draws x 8 B per column and
    # access; it must stay under glibc's default 128 KiB mmap threshold.
    sizes = _block_sizes(DeviceColumnSampler(), n)
    assert all(size * 144 * n < 1 << 17 for size in sizes)
    assert sizes == want


@pytest.mark.parametrize("n", [27, 51, 72])
def test_injected_noise_blocks_keep_16_then_32(n):
    assert _block_sizes(InjectedColumnNoise(1e-2), n) == [16, 32, 32, 32]


# -- the store against a coordinate model ------------------------------------------

# Two banks of two data rows plus the spare, so spare, row-crossing and
# aligned operands come up often.
_SMALL = ArrayConfig(banks=2, rows_per_bank=3, words_per_row=8, word_width=8)
_SPARE_ROW = _SMALL.rows_per_bank - 1
_MASK8 = (1 << _SMALL.word_width) - 1


class _StoreModel:
    """Stored data by (bank, row, group), with the array's addressing rules
    and counters written out independently of the array."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.words = {}
        self.counters = AccessCounters()

    def coords(self, addr, spare_ok=False):
        cfg = self.cfg
        if isinstance(addr, Addr):
            bank, row, group = addr.bank, addr.row, addr.group
            rows = cfg.rows_per_bank if spare_ok else cfg.data_rows
        else:
            spare = addr >= SPARE_ALIAS
            if spare and not spare_ok:
                raise ValueError("alias outside a CiM operand")
            base = addr - SPARE_ALIAS if spare else addr
            if not 0 <= base < cfg.total_words:
                raise ValueError("out of range")
            bank, rest = divmod(base, cfg.data_rows * cfg.words_per_row)
            row, group = divmod(rest, cfg.words_per_row)
            row, rows = (cfg.spare_row if spare else row), cfg.rows_per_bank
        if not (0 <= bank < cfg.banks and 0 <= row < rows and 0 <= group < cfg.words_per_row):
            raise ValueError("out of range")
        return bank, row, group

    def pair(self, op, addr_a, addr_b):
        if op not in (CimOp.AND, CimOp.OR, CimOp.NAND, CimOp.NOR, CimOp.XOR, CimOp.ADD):
            raise ValueError("not a two-row op")
        (bank, row, group), (bank_b, row_b, group_b) = (
            self.coords(addr_a, True), self.coords(addr_b, True))
        if bank != bank_b or group != group_b or row == row_b:
            raise ValueError("misaligned")
        return bank, row, row_b, group

    def apply(self, call):
        name, *args = call
        cfg, words, c = self.cfg, self.words, self.counters
        if name == "write_word":
            words[self.coords(args[0])] = args[1]
            c.writes += 1
        elif name == "load":  # every address is checked before the first store
            words.update({self.coords(addr): data for addr, data in args[0].items()})
        elif name == "write_spare":
            if not 0 <= args[0] < cfg.banks:
                raise ValueError("bank")
            for g in range(cfg.words_per_row):
                words[args[0], cfg.spare_row, g] = args[1]
            c.special_writes += 1
        elif name == "write_replicated":
            bank, row, data = args
            if not (0 <= bank < cfg.banks and 0 <= row < cfg.data_rows):
                raise ValueError("bank or row")
            for g in range(cfg.words_per_row):
                words[bank, row, g] = data
            c.writes += cfg.words_per_row
        elif name == "read_word":
            value = words.get(self.coords(args[0]), 0)
            c.reads += 1
            return value
        elif name == "cim_not":
            value = words.get(self.coords(args[0], True), 0)
            c.cim_ops += 1
            return value ^ _MASK8, 1
        elif name == "addresses_aligned":
            try:
                self.pair(CimOp.AND, *args)
            except ValueError:
                return False
            return True
        elif name == "cim_word":
            bank, row_a, row_b, group = self.pair(*args)
            c.cim_ops += 1
            a, b = words.get((bank, row_a, group), 0), words.get((bank, row_b, group), 0)
            return _reference(args[0], a, b, cfg.word_width), 1
        else:  # vcim
            op, addr_a, addr_b, lanes, reduce = args
            bank, row_a, row_b, group = self.pair(op, addr_a, addr_b)
            if group + lanes > cfg.words_per_row:
                raise ValueError("crosses the row")
            c.vcim_ops += 1
            c.vcim_lanes += lanes
            acc = 0
            for k in range(lanes):
                lane = _reference(op, words.get((bank, row_a, group + k), 0),
                                  words.get((bank, row_b, group + k), 0), cfg.word_width)
                acc = (acc + lane) & _MASK8 if reduce == "sum" else acc | (lane != 0) << k
            return acc
        return None


_LINEAR = st.integers(-2, _SMALL.total_words + 1)
_ANY_ADDR = st.one_of(
    _LINEAR,
    _LINEAR.map(lambda k: k + SPARE_ALIAS),
    st.builds(Addr, st.integers(0, _SMALL.banks), st.integers(0, _SMALL.rows_per_bank),
              st.integers(0, _SMALL.words_per_row)),
)
_DATA = st.integers(0, _MASK8)


@st.composite
def _spelled(draw, bank, row, group):
    """One word's coordinates as an Addr, a linear address or a spare alias."""
    if row == _SPARE_ROW and draw(st.booleans()):
        base_row = draw(st.integers(0, _SMALL.data_rows - 1))
        return SPARE_ALIAS + Addr(bank, base_row, group).to_linear(_SMALL)
    if row != _SPARE_ROW and draw(st.booleans()):
        return Addr(bank, row, group).to_linear(_SMALL)
    return Addr(bank, row, group)


@st.composite
def _operand_pair(draw):
    """Mostly one bank and word group, sometimes another group, sometimes
    two arbitrary addresses."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_ANY_ADDR), draw(_ANY_ADDR)
    bank = draw(st.integers(0, _SMALL.banks - 1))
    group = draw(st.one_of(st.just(0), st.integers(0, _SMALL.words_per_row - 1)))
    group_b = group if draw(st.integers(0, 4)) else draw(st.integers(0, _SMALL.words_per_row - 1))
    row_a = draw(st.integers(0, _SPARE_ROW))
    row_b = (row_a + draw(st.sampled_from((1, 2, 1, 2, 0)))) % _SMALL.rows_per_bank
    return draw(_spelled(bank, row_a, group)), draw(_spelled(bank, row_b, group_b))


def _as_int(addr):
    """An operand as the rewriter sees it: a linear address, or a spare
    alias for a spare-row word.  Out-of-range coordinates, which have no
    linear address, go through the same row-major arithmetic and give
    whatever int it yields, in range or not."""
    if not isinstance(addr, Addr):
        return addr
    row, base = addr.row, 0
    if row == _SPARE_ROW:
        row, base = 0, SPARE_ALIAS
    return base + (addr.bank * _SMALL.data_rows + row) * _SMALL.words_per_row + addr.group


@st.composite
def _store_calls(draw):
    kind = draw(st.sampled_from(("write_word", "write_word", "load", "write_spare",
                                 "write_replicated", "read_word", "cim_not", "cim_word",
                                 "cim_word", "vcim", "addresses_aligned")))
    if kind == "write_word":
        return kind, draw(_ANY_ADDR), draw(_DATA)
    if kind == "load":
        return kind, draw(st.dictionaries(_ANY_ADDR, _DATA, max_size=4))
    if kind == "write_spare":
        return kind, draw(st.integers(-1, _SMALL.banks)), draw(_DATA)
    if kind == "write_replicated":
        return (kind, draw(st.integers(-1, _SMALL.banks)),
                draw(st.integers(-1, _SMALL.rows_per_bank)), draw(_DATA))
    if kind in ("read_word", "cim_not"):
        return kind, draw(_ANY_ADDR)
    if kind == "addresses_aligned":
        return (kind,) + tuple(_as_int(a) for a in draw(_operand_pair()))
    op = draw(st.sampled_from(list(CimOp)))
    if kind == "cim_word":
        return (kind, op) + draw(_operand_pair())
    return ((kind, op) + draw(_operand_pair())
            + (draw(st.sampled_from((4, 8))), draw(st.sampled_from(("sum", "zcmp")))))


def _outcome(fn, call):
    try:
        return "ok", fn(call)
    except ValueError:
        return "ValueError", None


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.lists(_store_calls(), max_size=40))
def test_store_matches_coordinate_model(calls):
    arr, model = CimArray(_SMALL), _StoreModel(_SMALL)

    def run(call):
        if call[0] == "addresses_aligned":
            return addresses_aligned(_SMALL, *call[1:])
        return getattr(arr, call[0])(*call[1:])

    for call in calls:
        got = _outcome(run, call)
        assert got == _outcome(model.apply, call), call
        assert arr.counters == model.counters, call
    # The whole store, spare rows included, reads back through NOT.
    for bank in range(_SMALL.banks):
        for row in range(_SMALL.rows_per_bank):
            for group in range(_SMALL.words_per_row):
                want = model.words.get((bank, row, group), 0) ^ _MASK8
                assert arr.cim_not(Addr(bank, row, group)) == (want, 1)


class _AlwaysDecodes(CimArray):
    """The sensing paths with every sensed word sent through the decoder,
    as they were before equal words skipped it."""

    def _read(self, slot, near_memory=False):
        self._access += 1
        sensed = self.sampler.sense_read(self._access, self._words[slot], self._n)
        if near_memory:
            self.counters.nm_reads += 1
        else:
            self.counters.reads += 1
        res = self.code.decode(sensed)
        if res.status is DecodeStatus.DETECTED_UNCORRECTABLE:
            raise HardError("uncorrectable word on read")
        if res.status is DecodeStatus.CORRECTED:
            self.counters.corrected_words += 1
        return res.data

    def cim_word(self, op, addr_a, addr_b):
        if op not in _TWO_ROW_OPS:
            raise ValueError(f"{op!r} is not a two-row op")
        a, b, _ = _pair(self.config, addr_a, addr_b)
        self._access += 1
        self.counters.cim_ops += 1
        o_or, o_and = self.sampler.sense_pair(self._access, self._words[a], self._words[b],
                                              self._n)
        res = self.code.decode(o_or & ~o_and)
        if res.status is DecodeStatus.CLEAN:
            return self._ops[op][1](o_or, o_and, res.data), 1
        if res.status is DecodeStatus.CORRECTED:
            self.counters.corrected_words += 1
            if op is CimOp.XOR:
                self.counters.xor_fixups += 1
                return res.data, 1
            self.counters.fallbacks += 1
            da = self._read(a, near_memory=True)
            db = self._read(b, near_memory=True)
            return self._alu(op, da, db), 3
        raise HardError("uncorrectable XOR lane on CiM access")


def _noisy_outcome(arr, call):
    try:
        return "ok", getattr(arr, call[0])(*call[1:])
    except (ValueError, HardError) as exc:
        return type(exc).__name__, str(exc)


_WORD = st.integers(0, _SMALL.total_words - 1)


@st.composite
def _noisy_calls(draw):
    """Mostly sensing accesses on valid, aligned operands, and every kind of
    write."""
    kind = draw(st.sampled_from(("read_word", "cim_not", "cim_word", "cim_word", "cim_word",
                                 "write_word", "load", "write_spare", "write_replicated")))
    if kind == "read_word":
        return kind, draw(_WORD)
    if kind == "cim_not":
        return kind, draw(st.one_of(_WORD, _WORD.map(lambda k: k + SPARE_ALIAS)))
    if kind == "cim_word":
        bank = draw(st.integers(0, _SMALL.banks - 1))
        group = draw(st.integers(0, _SMALL.words_per_row - 1))
        rows = draw(st.permutations(range(_SMALL.rows_per_bank)))
        return (kind, draw(st.sampled_from(_TWO_ROW_OPS)), draw(_spelled(bank, rows[0], group)),
                draw(_spelled(bank, rows[1], group)))
    if kind == "write_word":
        return kind, draw(_WORD), draw(_DATA)
    if kind == "load":
        return kind, draw(st.dictionaries(_WORD, _DATA, max_size=4))
    if kind == "write_spare":
        return kind, draw(st.integers(0, _SMALL.banks - 1)), draw(_DATA)
    return (kind, draw(st.integers(0, _SMALL.banks - 1)),
            draw(st.integers(0, _SMALL.data_rows - 1)), draw(_DATA))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(code=st.sampled_from(("ec3ed4", "secded")), p=st.sampled_from((1e-3, 1e-2, 0.3)),
       seed=st.integers(0, 2**32 - 1),
       image=st.lists(_DATA, min_size=_SMALL.total_words, max_size=_SMALL.total_words),
       spare=st.tuples(_DATA, _DATA), calls=st.lists(_noisy_calls(), min_size=20, max_size=40))
def test_equal_words_skip_the_decoder(code, p, seed, image, spare, calls):
    # Every write encodes, so every slot holds a codeword and the XOR of two
    # slots is one too: an access that senses the stored word (or XOR lane)
    # unchanged is CLEAN without a decode.
    cfg = replace(_SMALL, code=code)
    arr = CimArray(cfg, InjectedColumnNoise(p, seed))
    ref = _AlwaysDecodes(cfg, InjectedColumnNoise(p, seed))
    for a in (arr, ref):
        a.load(dict(enumerate(image)))
        for bank, data in enumerate(spare):
            a.write_spare(bank, data)
    for call in calls:
        assert _noisy_outcome(arr, call) == _noisy_outcome(ref, call), call
        assert arr.counters == ref.counters, call
    assert arr._words == ref._words
    assert all(arr.code.decode(w).status is DecodeStatus.CLEAN for w in arr._words)


@pytest.mark.parametrize("addr", [Addr(-1, 0, 0), Addr(0, 0, -1), Addr(0, -1, 0)])
def test_negative_addr_coordinates_rejected(addr):
    arr = CimArray()
    for call in (lambda: arr.write_word(addr, 1), lambda: arr.read_word(addr),
                 lambda: arr.cim_not(addr)):
        with pytest.raises(ValueError):
            call()
    assert arr.counters == AccessCounters()


# -- the two-row rule on linear ints, atomic loads, int-valued ops ----------------


def _two_locates(config, addr_a, addr_b):
    """_pair stated through _locate alone, the reference of its int path."""
    slot_a, bank, row, group = _locate(config, addr_a, True)
    slot_b, bank_b, row_b, group_b = _locate(config, addr_b, True)
    if bank != bank_b:
        raise ValueError("CiM operands must share a bank")
    if group != group_b:
        raise ValueError("CiM operands must be column-aligned")
    if row == row_b:
        raise ValueError("CiM operands must be distinct rows")
    return slot_a, slot_b, group


def _result_or_message(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


_PAIR_CONFIGS = (_SMALL, ArrayConfig(banks=1, rows_per_bank=3, words_per_row=1, word_width=8),
                 ArrayConfig(banks=3, rows_per_bank=5, words_per_row=4, word_width=8))


@pytest.mark.parametrize("config", _PAIR_CONFIGS)
def test_pair_on_every_int_pair_matches_two_locates(config):
    ints = range(-3, config.total_words + 4)
    operands = list(ints) + [k + SPARE_ALIAS for k in ints]
    for a in operands:
        for b in operands:
            assert (_result_or_message(_pair, config, a, b)
                    == _result_or_message(_two_locates, config, a, b)), (a, b)


@st.composite
def _pair_case(draw):
    config = draw(st.sampled_from(_PAIR_CONFIGS))
    linear = st.integers(-3, config.total_words + 3)
    operand = st.one_of(
        linear, linear.map(lambda k: k + SPARE_ALIAS),
        st.builds(Addr, st.integers(-1, config.banks), st.integers(-1, config.rows_per_bank),
                  st.integers(-1, config.words_per_row)))
    a = draw(operand)
    if draw(st.booleans()):  # b in a's word group, a few rows away, maybe in another form
        if isinstance(a, Addr):
            b = Addr(a.bank, a.row + draw(st.integers(-2, 2)), a.group)
        else:
            b = (a + draw(st.integers(-2, 2)) * config.words_per_row
                 + draw(st.sampled_from((0, SPARE_ALIAS, -SPARE_ALIAS))))
        if draw(st.booleans()):
            a, b = b, a
    else:
        b = draw(operand)
    return config, a, b


@settings(derandomize=True, deadline=None, max_examples=800, database=None)
@given(_pair_case())
def test_pair_matches_two_locates(case):
    # Ints, aliases (two of them included), Addr operands and mixed pairs:
    # the same slots, or the same ValueError text.
    config, a, b = case
    assert _result_or_message(_pair, config, a, b) == _result_or_message(_two_locates, config, a, b)


@pytest.mark.parametrize("image, message", [
    ({0: 5, 1: 1 << 32, 2: 7}, "data out of range"),
    ({0: 5, 1: -1}, "data out of range"),
    ({0: 5, 10**9: 3}, "spare-row alias is only valid as a CiM operand"),
])
def test_a_load_that_raises_stores_nothing(image, message):
    arr = CimArray()
    arr.write_word(2, 9)
    before = list(arr._words)
    with pytest.raises(ValueError, match=f"^{message}$"):
        arr.load(image)
    assert arr._words == before


@pytest.mark.parametrize("spare", ["none", "a", "b"])
def test_vcim_matches_plain_int_lanes(spare):
    # Bank 1 of _SMALL: data rows 0 and 1, the spare row holding one word.
    rng = random.Random(3)
    arr = CimArray(_SMALL)
    base = _SMALL.words_per_bank
    row0 = [0, 0x5A, _MASK8, 0x0F, 0x5A, 0, 1, 0x80]
    row1 = [rng.getrandbits(8) for _ in range(4)] + [0x5A, 0xF0, 0, 0x3C]
    arr.load(dict(enumerate(row0 + row1, base)))
    arr.write_spare(1, 0x5A)
    words = {"row0": row0, "row1": row1, "spare": [0x5A] * _SMALL.words_per_row}
    names = {"none": ("row0", "row1"), "a": ("spare", "row1"), "b": ("row0", "spare")}[spare]
    for lanes, groups in ((4, (0, 2, 4)), (8, (0,))):
        for group in groups:
            addrs = [base + group + (SPARE_ALIAS if name == "spare" else
                                     _SMALL.words_per_row * (name == "row1"))
                     for name in names]
            a, b = (words[name][group:group + lanes] for name in names)
            for op in _TWO_ROW_OPS:
                results = [_reference(op, x, y, 8) for x, y in zip(a, b)]
                want_sum = sum(results) % 256
                want_zcmp = sum(1 << k for k, v in enumerate(results) if v)
                assert arr.vcim(op, *addrs, lanes, "sum") == want_sum, (op, lanes, group)
                assert arr.vcim(op, *addrs, lanes, "zcmp") == want_zcmp, (op, lanes, group)


def test_an_int_op_acts_as_its_member():
    arr = CimArray()
    arr.load({0: 3, 16: 5, 1: 0, 17: 9})
    # 3 AND 5 as the int 2 once computed NOR, 0xfffffff8.
    assert arr.cim_word(2, 0, 16) == (1, 1)
    # The int 6 is XOR: once vcim counted the access, then raised.
    assert arr.vcim(6, 0, 16, 4, "sum") == (3 ^ 5) + 9
    for op in _TWO_ROW_OPS:
        assert arr.cim_word(int(op), 0, 16) == arr.cim_word(op, 0, 16)
        for reduce in ("sum", "zcmp"):
            assert arr.vcim(int(op), 0, 16, 4, reduce) == arr.vcim(op, 0, 16, 4, reduce)
    before = arr.counters.as_dict()
    for op in (0, 1, 8, CimOp.READ, CimOp.NOT):
        with pytest.raises(ValueError, match="is not a two-row op$"):
            arr.cim_word(op, 0, 16)
        with pytest.raises(ValueError, match="is not a two-row op$"):
            arr.vcim(op, 0, 16, 4, "sum")
    assert arr.counters.as_dict() == before


def test_an_int_op_takes_its_member_error_flow():
    # Under noise the XOR lane gets corrected: the int 6 is fixed up in the
    # array like XOR, and the other ints fall back like their members.
    arrs = [CimArray(_SMALL, InjectedColumnNoise(0.05, seed=4)) for _ in range(2)]
    rng = random.Random(8)
    image = {a: rng.getrandbits(8) for a in range(_SMALL.total_words)}
    for arr in arrs:
        arr.load(image)
    for k in range(300):
        op = _TWO_ROW_OPS[k % len(_TWO_ROW_OPS)]
        a = rng.randrange(_SMALL.words_per_bank)
        b = (a + _SMALL.words_per_row) % _SMALL.words_per_bank
        assert (_noisy_outcome(arrs[0], ("cim_word", int(op), a, b))
                == _noisy_outcome(arrs[1], ("cim_word", op, a, b)))
        assert arrs[0].counters == arrs[1].counters
    assert arrs[0].counters.xor_fixups > 0 and arrs[0].counters.fallbacks > 0
