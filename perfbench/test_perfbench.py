"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from sttcim import bench, cimarray, xform  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, generate_program  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)


def run(workload, seed=5, trace=0, cwd=ROOT, script=HERE / "run.py"):
    res = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return res


def parse(res):
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_digest_stable_and_nothing_fails(workload):
    first, d1 = parse(run(workload))
    second, d2 = parse(run(workload))
    traced, d3 = parse(run(workload, trace=1))
    assert d1 == d2 == d3
    for result in (first, second, traced):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(first["metrics"]) == {"setup_s", "wall_s", "item_ms_p50", "item_ms_tail",
                                     "peak_rss_mb"}
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert "trace.overhead_pct" in traced["metrics"]


def test_other_seed_other_digest():
    assert parse(run("faults", seed=5))[1] != parse(run("faults", seed=6))[1]


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOAD_NAMES)
    plain, _ = parse(run("kernels"))
    traced, _ = parse(run("kernels", trace=1))
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for group, result in (("end_to_end", plain), ("per_layer", traced)):
        for m in spec[group]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("pair_windows", [8, 40, 96])
def test_generator_expectation_matches_transform(pair_windows):
    config = cimarray.ArrayConfig()
    text, made, expected = generate_program(random.Random(pair_windows), config, pair_windows)
    program = bench.parse_program(text)
    plan = bench.plan_type2(config, 2 * config.words_per_bank)
    report = xform.transform(program, plan)
    assert made == pair_windows + pair_windows // 10
    assert len(report.rewrites) == expected
    assert xform.verify_equivalence(program, report.program, plan, seed=1)


def test_tracer_self_time_and_uninstall():
    original = bench.run_kernel
    tracer = Tracer()
    tracer.install()
    try:
        bench.run_kernel("vecsum", "cim", n=64)
    finally:
        tracer.uninstall()
    assert bench.run_kernel is original
    run_ns = tracer.stats["bench.run_kernel"][1]
    layers = ("bench", "cpu", "cimarray", "ecc", "xform", "mapper", "energy")
    assert sum(tracer.layer_self_ns(layer) for layer in layers) == run_ns
    assert tracer.stats["cpu.run"][3] == bench.run_kernel("vecsum", "cim", n=64).instructions
    # Every span but the root has a parent that started no later than it.
    parents = list(tracer.span_parent)
    assert parents[0] == -1 and all(0 <= p < i for i, p in enumerate(parents) if i)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run("kernels", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert res.returncode != 0
    assert not res.stdout.strip().startswith("{") and '"correct"' not in res.stdout
