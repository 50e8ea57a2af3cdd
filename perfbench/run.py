"""Host-time benchmark of the sttcim simulator.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0

Runs one workload (kernels, montecarlo, faults, rewrite; see workloads.py)
closed-loop in this process on one thread: whole passes back to back until
--seconds have elapsed.  Every item checks its simulated outputs; every pass
must reproduce the same output digest.  Human-readable metric lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics.  Set-up time is the median over
this process and SETUP_SAMPLES - 1 fresh child processes run one after the
other before measuring, each timing the import, construction and one
warm-up item.

--trace 1 runs untraced passes for a third of the time, then wraps every
layer's public callables (tracer.py) and runs traced passes for the rest.
It reports the per-layer metrics, the tracing overhead, and writes the
spans to perfbench/out/spans-<workload>.npz.

The simulator is imported from src/ next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One thread everywhere, so a 2-core box measures the program, not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def import_simulator() -> None:
    """Import sttcim from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import sttcim
    except ImportError as exc:
        problem = f"cannot import sttcim from {SRC}: {exc}"
    else:
        if Path(sttcim.__file__).resolve().parent == SRC / "sttcim":
            return
        problem = f"sttcim came from {sttcim.__file__}, not {SRC}"
    print(f"perfbench: {problem}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Measurement:
    pass_s: list = field(default_factory=list)
    item_s: list = field(default_factory=list)
    digests: set = field(default_factory=set)
    records: list | None = None  # outputs of the first pass
    attempted: int = 0
    failed: int = 0


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()


def measure(workload, seconds: float) -> Measurement:
    """Whole passes back to back until `seconds` have elapsed (at least one)."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        records = []
        start = time.perf_counter()
        for label, item in workload.items:
            t0 = time.perf_counter()
            m.attempted += 1
            try:
                records.append(item())
            except Exception as exc:  # any failure is counted, never fatal
                m.failed += 1
                records.append(["failed", label, repr(exc)])
                traceback.print_exc(file=sys.stderr)
            m.item_s.append(time.perf_counter() - t0)
        m.pass_s.append(time.perf_counter() - start)
        m.digests.add(digest(records))
        if m.records is None:
            m.records = records
        if time.perf_counter() >= deadline:
            return m


def item_medians(item_s, items_per_pass: int) -> list:
    """Each item of a pass at its median over the run's passes.

    Every pass repeats the same items on the same inputs, so an item's
    median over passes is its latency with the host's slow stretches
    voted out.
    """
    return [statistics.median(item_s[i::items_per_pass]) for i in range(items_per_pass)]


def setup_samples(args, own: float) -> list:
    """This process's set-up time plus that of fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = [own]
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise RuntimeError(f"set-up child exited {res.returncode}")
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def emit(lines, correct, m: Measurement, metrics) -> None:
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_untraced(args, wl, setup_own):
    setups = setup_samples(args, setup_own)
    m = measure(wl, args.seconds)
    correct = m.failed == 0 and len(m.digests) == 1
    medians = item_medians(m.item_s, len(wl.items))
    wall = statistics.fmean(m.pass_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "item_ms_p50": (statistics.median(medians) * 1e3, "ms"),
        "item_ms_tail": (max(medians) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    slowest = max(range(len(medians)), key=medians.__getitem__)
    lines[3] += (f" (slowest of {len(medians)} items, {wl.items[slowest][0]},"
                 f" at its median over {len(m.pass_s)} passes)")
    lines.append(f"{wl.work_name} {wl.work(m.records) / wall / wl.work_scale:.6g} {wl.work_unit}")
    lines.append(f"failed_ops {m.failed / m.attempted:.6g} ratio ({m.failed} of {m.attempted} items)")
    lines.append(f"setup_samples_s {' '.join(f'{s:.4f}' for s in setups)}")
    lines.append(f"passes {len(m.pass_s)}")
    lines.append(f"digest {' '.join(sorted(m.digests))}")
    emit(lines, correct, m, metrics)


def run_traced(args, wl):
    from layers import layer_metrics
    from tracer import Tracer

    plain = measure(wl, args.seconds / 3)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(wl, args.seconds - args.seconds / 3)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, wl, traced)
    metrics["trace.overhead_pct"] = (
        (statistics.fmean(traced.pass_s) / statistics.fmean(plain.pass_s) - 1) * 100, "%")
    both = Measurement(attempted=plain.attempted + traced.attempted,
                       failed=plain.failed + traced.failed,
                       digests=plain.digests | traced.digests)
    correct = both.failed == 0 and len(both.digests) == 1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}.npz"
    spans = tracer.save(spans_path)
    lines = [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"passes {len(plain.pass_s)} untraced, {len(traced.pass_s)} traced")
    lines.append(f"spans {spans} written to {spans_path.relative_to(HERE.parent)}")
    lines.append(f"digest {' '.join(sorted(both.digests))}")
    emit(lines, correct, both, metrics)


def main(argv=None) -> int:
    import_simulator()
    import numpy
    import scipy
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up in this fresh process and print it as JSON")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    wl.items[0][1]()  # warm-up item, checked like every other
    setup_own = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0
    print(f"machine cores={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} items_per_pass={len(wl.items)}")
    if args.trace:
        run_traced(args, wl)
    else:
        run_untraced(args, wl, setup_own)
    return 0


if __name__ == "__main__":
    sys.exit(main())
