import os
import subprocess
import sys
from pathlib import Path

import pytest

from sttcim.cli import main


def test_device_mc_prints_csv(capsys):
    assert main(["device", "mc", "--samples", "4000", "--seed", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "samples,read_decision_rate,cim_decision_rate,margin_low_uA,margin_high_uA"
    fields = out[1].split(",")
    assert fields[0] == "4000"
    assert 0.0 <= float(fields[1]) < float(fields[2]) <= 1.0


def test_ecc_prove_passes(capsys):
    rc = main(["ecc", "prove", "--code", "secded", "--data-bits", "8", "--trials", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "correct weight 1: 200/200 ok" in out
    assert "detect weight 2: 200/200 ok" in out


def test_array_selftest(capsys):
    assert main(["array", "selftest", "--words", "32", "--seed", "3"]) == 0
    assert "selftest ok" in capsys.readouterr().out


def test_array_selftest_fails_under_python_dash_o():
    # A broken reference ALU must fail the selftest even with asserts
    # compiled out.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from sttcim import cimarray; from sttcim.cli import main; "
            "cimarray.CimArray._alu = lambda self, op, a, b: 0; "
            "sys.exit(main(['array', 'selftest', '--words', '4']))")
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("array selftest failed: AND of ")
    assert res.stderr.count("\n") == 1


def test_map_plan_text(capsys):
    assert main(["map", "plan", "--pattern", "type2", "--n", "100"]) == 0
    out = capsys.readouterr().out
    assert "PATTERN type2" in out
    assert "PLACE A 0 0 100" in out
    assert "SPARE_FILL 1" in out


def test_xform_rewrites_file(tmp_path, capsys):
    src = tmp_path / "loop.asm"
    src.write_text(
        """
        ADDI r1, r0, 0
        ADDI r2, r0, 1024
        ADDI r3, r0, 32
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
    )
    out_file = tmp_path / "out.asm"
    rc = main(["xform", str(src), "--pattern", "type1", "--n", "32", "--out", str(out_file)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "CIMXOR" in printed
    assert "induction k=0..31" in printed
    assert "CIMXOR" in out_file.read_text()


def test_bench_run_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "bench.txt"
    rc = main([
        "bench", "run", "--kernel", "vecsum", "--mode", "cim",
        "--n", "256", "--out", str(out_file),
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("vecsum/cim n=256")
    assert out_file.read_text().strip() == line


def test_bench_run_bad_mode_fails(capsys):
    rc = main(["bench", "run", "--kernel", "vecsum", "--mode", "vec16"])
    assert rc == 1
    assert "bench failed" in capsys.readouterr().err


def test_bench_sweep_csv(capsys):
    rc = main(["bench", "sweep", "--kernel", "vecsum", "--mode", "cim",
               "--latencies", "1,16", "--n", "128"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "latency,speedup"
    assert lines[1] == "1,1.500000"
    assert lines[2].startswith("16,1.857")


@pytest.mark.parametrize("argv, message", [
    (["run", "--n", "4"], "strmatch needs n >= 5, got 4"),
    (["run", "--mode", "cim", "--n", "1"], "strmatch needs n >= 5, got 1"),
    (["sweep", "--mode", "cim", "--n", "8"],
     "the half-size run (n=4) failed: strmatch needs n >= 5, got 4"),
    (["run", "--mode", "base", "--n", "3000"],
     "strmatch/base needs n <= 2048 (the pattern copy), got 3000"),
])
def test_strmatch_size_limits_fail_cleanly(argv, message, capsys):
    assert main(["bench", *argv, "--kernel", "strmatch"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bench failed: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--kernel", "strmatch", "--mode", "cim", "--n", "5"],
     "the half-size run (n=2) failed: strmatch needs n >= 5, got 2"),
    (["--kernel", "vecsum", "--mode", "vec8", "--n", "8"],
     "the half-size run (n=4) failed: n must be a lane multiple"),
    (["--n", "1"], "the half-size run (n=0) failed: n must be positive"),
])
def test_bench_sweep_names_a_failing_half_size_run(argv, message, capsys):
    assert main(["bench", "sweep", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bench failed: {message}\n"


def test_xform_unreadable_input_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "missing.asm"
    assert main(["xform", str(missing), "--n", "32"]) == 2
    err = capsys.readouterr().err
    assert err == f"xform failed: cannot read {missing}: No such file or directory\n"
    assert main(["xform", str(tmp_path), "--n", "32"]) == 2
    assert capsys.readouterr().err.startswith(f"xform failed: cannot read {tmp_path}: ")


def test_xform_bad_assembly_fails_cleanly(tmp_path, capsys):
    src = tmp_path / "bad.asm"
    src.write_text("FOO r1\nHALT\n")
    assert main(["xform", str(src), "--n", "32"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"xform failed: {src}: line 1: unknown mnemonic 'FOO'\n"


@pytest.mark.parametrize("argv, message", [
    (["bench", "sweep", "--latencies", "1,x"],
     "argument --latencies: expected comma-separated integers, got '1,x'"),
    (["device", "mc", "--samples", "0"],
     "argument --samples: expected a positive integer, got '0'"),
    (["device", "mc", "--samples", "-3"],
     "argument --samples: expected a positive integer, got '-3'"),
])
def test_bad_numeric_options_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["map", "plan", "--pattern", "type1", "--n", "0"],
     "argument --n: expected a positive integer, got '0'"),
    (["map", "plan", "--pattern", "type3", "--n", "8", "--m", "0"],
     "argument --m: expected a positive integer, got '0'"),
    (["xform", "prog.asm", "--n", "0"],
     "argument --n: expected a positive integer, got '0'"),
    (["bench", "run", "--n", "0"],
     "argument --n: expected a positive integer, got '0'"),
    (["bench", "sweep", "--n", "0"],
     "argument --n: expected a positive integer, got '0'"),
    (["device", "mc", "--scale", "-1"],
     "argument --scale: expected a non-negative number, got '-1'"),
    (["device", "mc", "--scale", "nan"],
     "argument --scale: expected a non-negative number, got 'nan'"),
    (["bench", "run", "--latency", "-1"],
     "argument --latency: expected a non-negative integer, got '-1'"),
    (["bench", "sweep", "--latencies", "1,-2"],
     "argument --latencies: expected non-negative latencies, got '1,-2'"),
    (["ecc", "prove", "--data-bits", "0"],
     "argument --data-bits: expected a positive integer, got '0'"),
    (["ecc", "prove", "--trials", "0"],
     "argument --trials: expected a positive integer, got '0'"),
    (["array", "selftest", "--words", "0"],
     "argument --words: expected a positive integer, got '0'"),
])
def test_out_of_range_options_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: {message}")
    assert "Traceback" not in captured.err


def test_device_mc_reads_config(tmp_path, capsys):
    argv = ["device", "mc", "--samples", "4000", "--seed", "5", "--scale", "1.5"]
    assert main(argv) == 0
    default_csv = capsys.readouterr().out
    same = tmp_path / "default.cfg"
    same.write_text("ra_product_ohm_um2 = 18\ntmr_pct = 124\nmtj_side_nm = 40\n"
                    "tox_sigma_pct = 2\narea_sigma_pct = 5\nvt_sigma_pct = 5\n")
    assert main([*argv, "--config", str(same)]) == 0
    assert capsys.readouterr().out == default_csv
    still = tmp_path / "still.cfg"
    still.write_text("tox_sigma_pct = 0\narea_sigma_pct = 0\nvt_sigma_pct = 0\n")
    assert main([*argv, "--config", str(still)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("4000,0.0,0.0,")


def test_device_mc_bad_input_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("tmr=abc\n")
    bad_number = tmp_path / "bad_number.cfg"
    bad_number.write_text("tmr_pct = abc\n")
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"tmr_pct = \xff\n")
    negative_tmr = tmp_path / "negative_tmr.cfg"
    negative_tmr.write_text("tmr_pct = -5\n")
    negative_sigma = tmp_path / "negative_sigma.cfg"
    negative_sigma.write_text("tox_sigma_pct = -1\n")
    both_sizes = tmp_path / "both_sizes.cfg"
    both_sizes.write_text("mtj_side_nm = 40\nmtj_area_um2 = 0.0016\n")
    negative_side = tmp_path / "negative_side.cfg"
    negative_side.write_text("mtj_side_nm = -40\n")
    nan_tmr = tmp_path / "nan_tmr.cfg"
    nan_tmr.write_text("ra_product_ohm_um2 = 18\ntmr_pct = nan\n")
    inf_voltage = tmp_path / "inf_voltage.cfg"
    inf_voltage.write_text("read_voltage_v = inf\n")
    low_ref = tmp_path / "low_ref.cfg"  # the read reference sits above both states' currents
    low_ref.write_text("ref_resistance_ohm = 1\n")
    cases = [
        (["--config", str(missing)], f"cannot read {missing}: No such file or directory"),
        (["--config", str(tmp_path)], f"cannot read {tmp_path}: Is a directory"),
        (["--config", str(malformed)], f"{malformed}:1: unknown key 'tmr'"),
        (["--config", str(bad_number)], f"{bad_number}:1: bad number for 'tmr_pct'"),
        (["--config", str(binary)], f"{binary}: 'utf-8' codec can't decode byte 0xff"),
        (["--config", str(negative_tmr)], f"{negative_tmr}: tmr must be positive"),
        (["--config", str(negative_sigma)], f"{negative_sigma}: sigmas must be non-negative"),
        (["--config", str(both_sizes)], f"{both_sizes}: give mtj_side_nm or mtj_area_um2"),
        (["--config", str(negative_side)], f"{negative_side}: mtj_side_nm must be positive"),
        (["--config", str(nan_tmr)], f"{nan_tmr}:2: bad number for 'tmr_pct'"),
        (["--config", str(inf_voltage)], f"{inf_voltage}:1: bad number for 'read_voltage_v'"),
        (["--config", str(low_ref)],
         f"{low_ref}: read reference does not separate the stored states"),
        (["--scale", "100"], "variation draws kept producing non-positive resistances"),
    ]
    for extra, message in cases:
        assert main(["device", "mc", "--samples", "1000", *extra]) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"device mc failed: {message}"), captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_ecc_prove_width_past_the_code_fails_cleanly(capsys):
    assert main(["ecc", "prove", "--code", "ec3ed4", "--data-bits", "46"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ecc prove failed: data_bits must be in 1..45\n"


def test_ecc_prove_secded_past_its_width_fails_cleanly(capsys):
    assert main(["ecc", "prove", "--code", "secded", "--data-bits", "121"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ecc prove failed: data_bits must be in 1..120\n"


def test_plan_past_capacity_fails_cleanly(tmp_path, capsys):
    message = "type1 capacity is 4096 words, asked for 100000"
    assert main(["map", "plan", "--pattern", "type1", "--n", "100000"]) == 2
    assert capsys.readouterr().err == f"map plan failed: {message}\n"
    src = tmp_path / "halt.asm"
    src.write_text("HALT\n")
    assert main(["xform", str(src), "--n", "100000"]) == 2
    assert capsys.readouterr().err == f"xform failed: {message}\n"
    assert main(["bench", "run", "--kernel", "vecsum", "--mode", "cim", "--n", "100000"]) == 1
    assert capsys.readouterr().err == f"bench failed: {message}\n"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "sttcim", "map", "plan", "--pattern", "type2",
                          "--n", "100"], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "PATTERN type2" in res.stdout


def test_scipy_loads_only_on_the_first_normal_draw():
    # Only the device model's normals need scipy.special; kernels, the
    # rewriter and the CLI's bench commands must start without it.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """
import sys
def loaded():
    return "scipy.special" in sys.modules
import sttcim
from sttcim import bench, cli, device, xform
assert not loaded(), "import sttcim"
sttcim.run_kernel("vecsum", "cim")
assert not loaded(), "run_kernel"
prog, report, plan = bench.transform_pair("vecsum")
assert xform.verify_equivalence(prog, xform.transform(prog, plan).program, plan)
assert not loaded(), "transform"
assert cli.main(["bench", "run", "--kernel", "vecsum", "--mode", "cim"]) == 0
assert not loaded(), "bench run"
device.unit_normals(0, [1, 2])
assert loaded(), "unit_normals"
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("argv", [
    ["device", "mc", "--samples", "1000"],
    ["ecc", "prove", "--code", "secded", "--data-bits", "8", "--trials", "10"],
    ["array", "selftest", "--words", "4"],
    ["map", "plan", "--pattern", "type1", "--n", "4"],
    ["xform", "{asm}", "--n", "4"],
    ["bench", "run", "--kernel", "vecsum", "--mode", "base", "--n", "8"],
    ["bench", "sweep", "--kernel", "vecsum", "--n", "8", "--latencies", "1"],
])
def test_unwritable_out_exits_2_with_one_line(argv, tmp_path, capsys):
    asm = tmp_path / "halt.asm"
    asm.write_text("HALT\n")
    out = tmp_path / "missing" / "x"
    argv = [arg.format(asm=asm) for arg in argv]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    command = " ".join(argv[:1] if argv[0] == "xform" else argv[:2])
    assert captured.err == f"{command} failed: cannot write {out}: No such file or directory\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == captured.out
