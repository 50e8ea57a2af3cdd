import pytest

from sttcim import bench
from sttcim.bench import (
    BenchError,
    DEFAULT_SIZES,
    KERNEL_MODES,
    latency_sweep,
    marginal_speedup,
    run_kernel,
    transform_pair,
)
from sttcim.cimarray import ArrayConfig
from sttcim.mapper import PlanError, plan_type1, plan_type2, plan_type3


def test_every_mode_matches_its_reference():
    # run_kernel raises BenchError on any result/reference mismatch, so
    # surviving the sweep is the assertion.  Small n keeps it quick.
    for kernel, modes in KERNEL_MODES.items():
        for mode in modes:
            r = run_kernel(kernel, mode, n=256)
            assert r.cycles > 0
            assert r.kernel == kernel and r.mode == mode


def test_transform_produced_modes_report_rewrites():
    assert run_kernel("xorcipher", "cim", n=256).rewrites == 1
    assert run_kernel("blit", "cim", n=256).rewrites == 2
    assert run_kernel("vecsum", "cim", n=256).rewrites == 1
    assert run_kernel("vecsum", "base", n=256).rewrites == 0


def test_vecsum_cycle_model_frozen():
    # 4 setup + N iterations + result store (1+L) + HALT, latency 1:
    # base iteration 7 instructions 2 loads, rewritten 5 and 1 access,
    # vector loops 5 instructions 1 access per lane group.
    assert run_kernel("vecsum", "base").cycles == 4 + 1024 * 9 + 2 + 1
    assert run_kernel("vecsum", "cim").cycles == 4 + 1024 * 6 + 2 + 1
    assert run_kernel("vecsum", "vec4").cycles == 4 + 256 * 6 + 2 + 1
    assert run_kernel("vecsum", "vec8").cycles == 4 + 128 * 6 + 2 + 1


def test_vecsum_marginal_speedup_curve():
    expected = {lat: (7 + 2 * lat) / (5 + lat) for lat in (1, 2, 4, 8, 16)}
    points = latency_sweep("vecsum", "cim", (1, 2, 4, 8, 16))
    for lat, speedup in points:
        assert speedup == pytest.approx(expected[lat], rel=1e-12)
    speeds = [s for _, s in points]
    assert speeds == sorted(speeds)
    assert speeds[0] == pytest.approx(1.5, rel=1e-12)
    assert speeds[-1] == pytest.approx(39 / 21, rel=1e-12)


def test_vector_marginal_speedups():
    assert marginal_speedup("vecsum", "vec4") == pytest.approx(6.0, rel=1e-12)
    assert marginal_speedup("vecsum", "vec8") == pytest.approx(12.0, rel=1e-12)


def test_vecsum_energy_frozen():
    base = run_kernel("vecsum", "base").energy
    cim = run_kernel("vecsum", "cim").energy
    assert base.total == pytest.approx(2051.0, rel=1e-9)
    assert cim.total == pytest.approx(1024 * 1.316 + 3.0, rel=1e-9)
    assert cim.total / base.total == pytest.approx(0.658, rel=0.01)


def test_strmatch_energy_frozen():
    # 1023 positions, two planted matches: baseline does 2 reads per
    # position plus 2 extra per match; the in-array scan does one two-row
    # op per position plus one extra per match.
    base = run_kernel("strmatch", "base")
    cim = run_kernel("strmatch", "cim")
    assert base.result == cim.result == 2
    assert base.energy.total == pytest.approx(2 * 1023 + 4 + 3.0, rel=1e-9)
    assert cim.energy.total == pytest.approx(1.316 * 1025 + 3.0, rel=1e-9)
    ratio = cim.energy.total / base.energy.total
    assert ratio == pytest.approx(0.658, rel=0.01)


def test_xorcipher_transform_gains():
    base = run_kernel("xorcipher", "base")
    cim = run_kernel("xorcipher", "cim")
    assert base.result == cim.result
    # 7 instructions 3 accesses vs 5 instructions 2 accesses per element.
    assert base.cycles - cim.cycles == 1024 * 3
    assert base.energy.total == pytest.approx(1024 * (2 + 3.0), rel=1e-9)
    assert cim.energy.total == pytest.approx(1024 * (1.316 + 3.0), rel=1e-9)


def test_blit_masked_merge():
    base = run_kernel("blit", "base")
    cim = run_kernel("blit", "cim")
    assert base.result == cim.result
    # two passes of n=512 behave like one pass of 1024
    assert base.cycles - cim.cycles == 1024 * 3


@pytest.mark.parametrize("mode", ["base", "cim"])
@pytest.mark.parametrize("n", [0, -16])
def test_blit_rejects_a_non_positive_size(mode, n):
    with pytest.raises(PlanError, match="^n must be positive$"):
        run_kernel("blit", mode, n=n)


def test_editdist_counts():
    base = run_kernel("editdist", "base")
    assert base.result == 11  # planted every 97th slot starting at 5
    for mode in ("cim", "vec4", "vec8"):
        assert run_kernel("editdist", mode).result == 11


def test_scalar_broadcast_is_cycle_neutral_but_costs_energy():
    # One-row-and-spare ops replace the load one-for-one, so cycles only
    # differ by the SPWR/LUI setup; energy is strictly worse.  The win for
    # this shape comes from the vector variants.
    for kernel in ("editdist", "saxpy_add"):
        base = run_kernel(kernel, "base")
        cim = run_kernel(kernel, "cim")
        assert cim.cycles - base.cycles == 3
        assert cim.energy.total > base.energy.total
        vec8 = run_kernel(kernel, "vec8")
        assert vec8.result == base.result
        assert base.cycles / vec8.cycles > 4.0
        assert vec8.energy.total < base.energy.total


def test_saxpy_vector_speedup_scales():
    s4 = marginal_speedup("saxpy_add", "vec4")
    s8 = marginal_speedup("saxpy_add", "vec8")
    # per element: base (5+L), vector (5+L)/lanes
    assert s4 == pytest.approx(4.0, rel=1e-12)
    assert s8 == pytest.approx(8.0, rel=1e-12)


def test_runs_are_deterministic():
    a = run_kernel("xorcipher", "cim", seed=11)
    b = run_kernel("xorcipher", "cim", seed=11)
    assert a == b
    c = run_kernel("xorcipher", "cim", seed=12)
    assert c.result != a.result


def test_default_sizes_cover_all_kernels():
    assert set(DEFAULT_SIZES) == set(KERNEL_MODES)


def test_bad_kernel_and_mode_raise():
    with pytest.raises(BenchError):
        run_kernel("nope", "base")
    with pytest.raises(BenchError):
        run_kernel("vecsum", "vec16")
    with pytest.raises(BenchError):
        run_kernel("strmatch", "vec8")


# Every kernel x mode at n = 64, seed 7, latency 1: cycles, instructions,
# program length, rewrites, result, nonzero counters and the energy repr.
_PINNED_N64 = {
    ("xorcipher", "base"): (
        644, 452, 11, 0, 0x62d929c3,
        {"reads": 128, "writes": 64},
        "EnergyBreakdown(read=127.99999999999999, write=192.0, cim=0.0, nm_corrections=0.0)"),
    ("xorcipher", "cim"): (
        452, 324, 9, 1, 0x62d929c3,
        {"writes": 64, "cim_ops": 64},
        "EnergyBreakdown(read=0.0, write=192.0, cim=84.22400000000002, nm_corrections=0.0)"),
    ("blit", "base"): (
        1287, 903, 21, 0, 0xddf2f6e4,
        {"reads": 256, "writes": 128},
        "EnergyBreakdown(read=255.99999999999997, write=384.0, cim=0.0, nm_corrections=0.0)"),
    ("blit", "cim"): (
        903, 647, 17, 2, 0xddf2f6e4,
        {"writes": 128, "cim_ops": 128},
        "EnergyBreakdown(read=0.0, write=384.0, cim=168.44800000000004, nm_corrections=0.0)"),
    ("vecsum", "base"): (
        583, 454, 13, 0, 0xcaf487ef,
        {"reads": 128, "writes": 1},
        "EnergyBreakdown(read=127.99999999999999, write=3.0, cim=0.0, nm_corrections=0.0)"),
    ("vecsum", "cim"): (
        391, 326, 11, 1, 0xcaf487ef,
        {"writes": 1, "cim_ops": 64},
        "EnergyBreakdown(read=0.0, write=3.0, cim=84.22400000000002, nm_corrections=0.0)"),
    ("vecsum", "vec4"): (
        103, 86, 11, 0, 0xcaf487ef,
        {"writes": 1, "vcim_ops": 16, "vcim_lanes": 64},
        "EnergyBreakdown(read=0.0, write=3.0, cim=28.256000000000007, nm_corrections=0.0)"),
    ("vecsum", "vec8"): (
        55, 46, 11, 0, 0xcaf487ef,
        {"writes": 1, "vcim_ops": 8, "vcim_lanes": 64},
        "EnergyBreakdown(read=0.0, write=3.0, cim=18.928000000000004, nm_corrections=0.0)"),
    ("strmatch", "base"): (
        460, 329, 15, 0, 0x00000002,
        {"reads": 130, "writes": 1},
        "EnergyBreakdown(read=129.99999999999997, write=3.0, cim=0.0, nm_corrections=0.0)"),
    ("strmatch", "cim"): (
        399, 333, 17, 0, 0x00000002,
        {"writes": 1, "cim_ops": 65},
        "EnergyBreakdown(read=0.0, write=3.0, cim=85.54000000000002, nm_corrections=0.0)"),
    ("editdist", "base"): (
        392, 327, 12, 0, 0x00000001,
        {"reads": 64, "writes": 1},
        "EnergyBreakdown(read=63.99999999999999, write=3.0, cim=0.0, nm_corrections=0.0)"),
    ("editdist", "cim"): (
        395, 329, 14, 0, 0x00000001,
        {"writes": 1, "special_writes": 1, "cim_ops": 64},
        "EnergyBreakdown(read=0.0, write=7.5, cim=84.22400000000002, nm_corrections=0.0)"),
    ("editdist", "vec4"): (
        155, 121, 16, 0, 0x00000001,
        {"reads": 16, "writes": 1, "special_writes": 1, "vcim_ops": 16, "vcim_lanes": 64},
        "EnergyBreakdown(read=15.999999999999998, write=7.5, cim=28.256000000000007, nm_corrections=0.0)"),
    ("editdist", "vec8"): (
        83, 65, 16, 0, 0x00000001,
        {"reads": 8, "writes": 1, "special_writes": 1, "vcim_ops": 8, "vcim_lanes": 64},
        "EnergyBreakdown(read=7.999999999999999, write=7.5, cim=18.928000000000004, nm_corrections=0.0)"),
    ("saxpy_add", "base"): (
        391, 326, 11, 0, 0x361bb4b0,
        {"reads": 64, "writes": 1},
        "EnergyBreakdown(read=63.99999999999999, write=3.0, cim=0.0, nm_corrections=0.0)"),
    ("saxpy_add", "cim"): (
        394, 328, 13, 0, 0x361bb4b0,
        {"writes": 1, "special_writes": 1, "cim_ops": 64},
        "EnergyBreakdown(read=0.0, write=7.5, cim=84.22400000000002, nm_corrections=0.0)"),
    ("saxpy_add", "vec4"): (
        106, 88, 13, 0, 0x361bb4b0,
        {"writes": 1, "special_writes": 1, "vcim_ops": 16, "vcim_lanes": 64},
        "EnergyBreakdown(read=0.0, write=7.5, cim=28.256000000000007, nm_corrections=0.0)"),
    ("saxpy_add", "vec8"): (
        58, 48, 13, 0, 0x361bb4b0,
        {"writes": 1, "special_writes": 1, "vcim_ops": 8, "vcim_lanes": 64},
        "EnergyBreakdown(read=0.0, write=7.5, cim=18.928000000000004, nm_corrections=0.0)"),
}


@pytest.mark.parametrize("kernel, mode", list(_PINNED_N64))
def test_every_run_record_pinned(kernel, mode):
    r = run_kernel(kernel, mode, n=64)
    cycles, instructions, length, rewrites, result, counters, energy = _PINNED_N64[kernel, mode]
    assert (r.cycles, r.instructions, r.program_length, r.rewrites, r.result) == (
        cycles, instructions, length, rewrites, result)
    assert {k: v for k, v in r.counters.items() if v} == counters
    assert repr(r.energy) == energy


@pytest.mark.parametrize("kernel", ["xorcipher", "blit", "vecsum"])
def test_rewritten_mode_runs_the_transform_pair_program(kernel, monkeypatch):
    ran = []

    class RecordingCpu(bench.Cpu):
        def __init__(self, array, program, **kwargs):
            ran.append(program)
            super().__init__(array, program, **kwargs)

    monkeypatch.setattr(bench, "Cpu", RecordingCpu)
    run = run_kernel(kernel, "cim", n=64)
    _, report, _ = transform_pair(kernel, n=64)
    assert ran == [report.program]
    assert run.rewrites == len(report.rewrites) > 0


@pytest.mark.parametrize("kernel, mode", [("xorcipher", "cim"), ("blit", "cim"),
                                          ("vecsum", "cim"), ("vecsum", "vec8")])
def test_one_plan_per_kernel_run(kernel, mode, monkeypatch):
    planned = []

    def counting(fn):
        def plan(*args):
            planned.append(fn.__name__)
            return fn(*args)
        return plan

    # Count a planner reached by name or through the table.
    for name in ("plan_type1", "plan_type2", "plan_type3", "_blit_plan"):
        fn = getattr(bench, name)
        monkeypatch.setattr(bench, name, counting(fn))
        for k, planner in list(bench._PLANNERS.items()):
            if planner is fn:
                monkeypatch.setitem(bench._PLANNERS, k, getattr(bench, name))
    run_kernel(kernel, mode, n=64)
    assert len(planned) == 1, planned


@pytest.mark.parametrize("plan, name", [
    (plan_type1(ArrayConfig(), 3000), "B"),  # one segment per bank
    (plan_type2(ArrayConfig(), 3000), "A"),
    (plan_type3(ArrayConfig(), 2500, 2), "T"),
])
def test_placed_operands_follow_the_plan_addresses(plan, name):
    count = sum(s.length for s in plan.segments if s.name == name)
    words = list(range(100, 100 + count))
    assert bench._placed(plan, name, words) == {
        plan.address(name, i): w for i, w in enumerate(words)}
    with pytest.raises(IndexError, match=f"^{name}\\[{count}\\] not placed$"):
        bench._placed(plan, name, words + [7])
    with pytest.raises(IndexError, match=f"^{name}\\[{count}\\] not placed$"):
        plan.address(name, count)
