"""Command line front end.

Subcommands:

    device mc       Monte Carlo decision-failure rates for the cell model
    ecc prove       empirical check of the code guarantees, nonzero exit on miss
    array selftest  randomized in-array ops against a software shadow
    map plan        print a placement plan for a kernel shape
    xform           rewrite an assembly file against a placement plan
    bench run       execute benchmark kernels and report cycles/energy
    bench sweep     marginal speedup across memory latencies

A command that fails on its input prints one stderr line, ``<command>
failed: <reason>``, and nothing on stdout.  The command is named as in
the table above, except that both bench subcommands print ``bench``.  The
exit code is 1 for ``bench`` and ``array selftest`` and 2 for the others.
An ``--out`` file that cannot be written exits 2 after stdout is printed.
"""

from __future__ import annotations

import argparse
import random
import sys

from .bench import (
    BenchError,
    KERNEL_MODES,
    format_run,
    latency_sweep,
    run_kernel,
)
from .cimarray import ArrayConfig, SelftestError, selftest
from .cpu import AsmError, format_program, parse_program
from .device import (
    DeviceParams,
    VariationSpec,
    failure_report_csv,
    load_device_config,
    monte_carlo_failures,
)
from .ecc import DecodeStatus, make_code
from .mapper import plan_type1, plan_type2, plan_type3
from .xform import transform

__all__ = ["main"]


def _int_option(low: int, kind: str):
    """argparse type for integers >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_option(1, "positive")
_non_negative_int = _int_option(0, "non-negative")


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return value


def _latency_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if min(values) < 0:
        raise argparse.ArgumentTypeError(
            f"expected non-negative latencies, got {text!r}")
    return values


def _command(args) -> str:
    """The command line's command and subcommand: ``device mc``, ``xform``."""
    return " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))


def _write_out(args, text: str) -> int:
    """Print text and copy it to --out if given; the exit code, 2 if the
    copy cannot be written."""
    print(text, end="" if text.endswith("\n") else "\n")
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            print(f"{_command(args)} failed: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    return 0


def _cmd_device_mc(args) -> int:
    if args.config:
        params, variation = load_device_config(args.config)
    else:
        params, variation = DeviceParams(), VariationSpec()
    rep = monte_carlo_failures(params, variation.scaled(args.scale), args.samples, args.seed)
    return _write_out(args, failure_report_csv(rep))


def _corrupt(word: int, n: int, weight: int, rng: random.Random) -> tuple[int, tuple[int, ...]]:
    positions = tuple(sorted(rng.sample(range(n), weight)))
    for p in positions:
        word ^= 1 << p
    return word, positions


def _cmd_ecc_prove(args) -> int:
    code = make_code(args.code, args.data_bits)
    rng = random.Random(args.seed)
    failures = 0
    lines = []
    for weight in range(1, code.t + 2):
        want_detect = weight == code.t + 1
        ok = 0
        for _ in range(args.trials):
            data = rng.getrandbits(args.data_bits)
            word, positions = _corrupt(code.encode(data), code.n, weight, rng)
            res = code.decode(word)
            if want_detect:
                good = res.status is DecodeStatus.DETECTED_UNCORRECTABLE
            else:
                good = (
                    res.status is DecodeStatus.CORRECTED
                    and res.data == data
                    and tuple(res.error_positions) == positions
                )
            ok += good
        verdict = "ok" if ok == args.trials else "FAILED"
        goal = "detect" if want_detect else "correct"
        lines.append(
            f"{args.code}/{args.data_bits} {goal} weight {weight}: {ok}/{args.trials} {verdict}"
        )
        failures += ok != args.trials
    return _write_out(args, "\n".join(lines) + "\n") or (1 if failures else 0)


def _cmd_array_selftest(args) -> int:
    selftest(ArrayConfig(code=args.code), seed=args.seed, words=args.words)
    return _write_out(args, f"selftest ok: {args.words} random op words on code={args.code}\n")


def _make_plan(args):
    cfg = ArrayConfig()
    if args.pattern == "type1":
        return plan_type1(cfg, args.n)
    if args.pattern == "type2":
        return plan_type2(cfg, args.n)
    return plan_type3(cfg, args.n, args.m)


def _cmd_map_plan(args) -> int:
    return _write_out(args, _make_plan(args).text())


def _cmd_xform(args) -> int:
    try:
        with open(args.asm, encoding="utf-8") as fh:
            prog = parse_program(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {args.asm}: {exc.strerror}") from exc
    except (UnicodeDecodeError, AsmError) as exc:
        raise ValueError(f"{args.asm}: {exc}") from exc
    report = transform(prog, _make_plan(args))
    for rw in report.rewrites:
        print(f"# rewrite @{rw.index}: {rw.kind} ({rw.proof})")
    print(f"# instructions {report.instructions_before} -> {report.instructions_after}")
    return _write_out(args, format_program(report.program))


def _cmd_bench_run(args) -> int:
    lines = [format_run(run_kernel(kernel, mode, args.n, args.latency, args.seed))
             for kernel in ([args.kernel] if args.kernel else KERNEL_MODES)
             for mode in ([args.mode] if args.mode else KERNEL_MODES[kernel])]
    return _write_out(args, "\n".join(lines) + "\n")


def _cmd_bench_sweep(args) -> int:
    points = latency_sweep(args.kernel, args.mode, args.latencies, args.n, args.seed)
    text = "latency,speedup\n" + "".join(f"{lat},{s:.6f}\n" for lat, s in points)
    return _write_out(args, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sttcim")
    sub = parser.add_subparsers(dest="command", required=True)

    device = sub.add_parser("device", help="cell model studies").add_subparsers(
        dest="subcommand", required=True
    )
    mc = device.add_parser("mc", help="Monte Carlo decision failures")
    mc.add_argument("--samples", type=_positive_int, default=100_000)
    mc.add_argument("--seed", type=int, default=12345)
    mc.add_argument("--scale", type=_non_negative_float, default=1.0,
                    help="variation scale factor")
    mc.add_argument("--config", help="key=value device parameter file")
    mc.add_argument("--out", help="also write the CSV here")
    mc.set_defaults(func=_cmd_device_mc)

    ecc = sub.add_parser("ecc", help="code checks").add_subparsers(
        dest="subcommand", required=True
    )
    prove = ecc.add_parser("prove", help="exercise correction/detection guarantees")
    prove.add_argument("--code", choices=("secded", "ec3ed4"), default="ec3ed4")
    prove.add_argument("--data-bits", type=_positive_int, default=32)
    prove.add_argument("--trials", type=_positive_int, default=2000)
    prove.add_argument("--seed", type=int, default=1)
    prove.add_argument("--out")
    prove.set_defaults(func=_cmd_ecc_prove)

    array = sub.add_parser("array", help="array checks").add_subparsers(
        dest="subcommand", required=True
    )
    selftest = array.add_parser("selftest", help="random ops against a shadow model")
    selftest.add_argument("--code", choices=("secded", "ec3ed4"), default="ec3ed4")
    selftest.add_argument("--words", type=_positive_int, default=128)
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--out")
    selftest.set_defaults(func=_cmd_array_selftest)

    mapp = sub.add_parser("map", help="placement planning").add_subparsers(
        dest="subcommand", required=True
    )
    plan = mapp.add_parser("plan", help="print a placement plan")
    plan.add_argument("--pattern", choices=("type1", "type2", "type3"), required=True)
    plan.add_argument("--n", type=_positive_int, required=True)
    plan.add_argument("--m", type=_positive_int, default=2, help="pattern words (type3)")
    plan.add_argument("--out")
    plan.set_defaults(func=_cmd_map_plan)

    xf = sub.add_parser("xform", help="rewrite assembly against a plan")
    xf.add_argument("asm", help="assembly source file")
    xf.add_argument("--pattern", choices=("type1", "type2", "type3"), default="type1")
    xf.add_argument("--n", type=_positive_int, required=True)
    xf.add_argument("--m", type=_positive_int, default=2)
    xf.add_argument("--out", help="write the rewritten program here")
    xf.set_defaults(func=_cmd_xform)

    bench = sub.add_parser("bench", help="benchmark kernels").add_subparsers(
        dest="subcommand", required=True
    )
    run = bench.add_parser("run", help="run kernels and report")
    run.add_argument("--kernel", choices=tuple(KERNEL_MODES))
    run.add_argument("--mode")
    run.add_argument("--n", type=_positive_int, default=None)
    run.add_argument("--latency", type=_non_negative_int, default=1)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--out")
    run.set_defaults(func=_cmd_bench_run)
    sweep = bench.add_parser("sweep", help="speedup across memory latencies")
    sweep.add_argument("--kernel", choices=tuple(KERNEL_MODES), default="vecsum")
    sweep.add_argument("--mode", default="cim")
    sweep.add_argument("--latencies", type=_latency_list, default="1,2,4,8,16")
    sweep.add_argument("--n", type=_positive_int, default=None)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_bench_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BenchError, SelftestError) as exc:
        # ConfigError, PlanError and AsmError are ValueErrors.  OSError is
        # not caught: a closed stdout is not an input error.
        name = "bench" if args.command == "bench" else _command(args)
        print(f"{name} failed: {exc}", file=sys.stderr)
        return 1 if name in ("bench", "array selftest") else 2


if __name__ == "__main__":
    sys.exit(main())
