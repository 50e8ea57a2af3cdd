"""Benchmark kernels and the measurement harness.

Six kernels, each in a scalar baseline plus whichever accelerated variants
its shape admits:

* xorcipher (elementwise pair): A[i] ^= B[i].  In-array variant produced
  by the program transform, one rewrite.
* blit (two elementwise passes over three arrays): S &= M, then D |= S.
  In-array variant produced by the transform, two rewrites.
* vecsum (pair reduction): sum of A[i] + B[i].  Transform variant (one
  rewrite) plus 4- and 8-lane vector variants.
* strmatch (pattern scan): count occurrences of an M-word pattern in an
  N-word text.  Hand-written in-array variant over a replicated-pattern
  layout; the early-exit control flow is beyond the transform's windows.
* editdist (scalar compare reduction): count words equal to a key.
  Hand-written in-array variant (the key is broadcast to spare rows) and
  vector variants using a 256-entry match-count table.
* saxpy_add (scalar add reduction): sum of x[i] + a.  Hand-written
  in-array variant and vector variants.

Every kernel runs on the default array (``ArrayConfig()``), built per run.
Baselines are deliberately unhoisted: every operand load sits inside the
loop, the way a non-optimizing compiler would emit it.  Measurement covers
the program run only.  A builder states its inputs (arrays, replicated
pattern rows, the vector match-count table) as a map from linear address
to word; run_kernel loads them as the array's initial image
(``CimArray.load``), which counts no traffic.  Spare row broadcasts (SPWR)
are instructions, so they run inside the measured region.

The cim mode of the three transform kernels is the rewriter's output on the
baseline under the kernel's placement plan (``_PLANNERS``).  run_kernel and
transform_pair fail unless the rewriter makes the number of rewrites listed
in ``_REWRITES`` (none for the other kernels).

A kernel's result is the fold of its output address range, read after the
counters and energy are taken; a one-word range folds to the word itself.
Each run validates its result against a Python reference before reporting,
so a cycle or energy number from a wrong computation cannot escape.

Beware one accounting asymmetry: the scalar in-array variants of the
Type II kernels (editdist, saxpy_add) match the baseline cycle-for-cycle
but cost more energy per element (a two-row op against a read); they are
reported anyway because the vector variants build on the same layout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import repeat

from .cimarray import ArrayConfig, CimArray
from .cpu import Cpu, Program, parse_program
from .energy import EnergyBreakdown, account
from .mapper import MapPlan, PlanError, PlanSegment, plan_type1, plan_type2, plan_type3
from .xform import transform

__all__ = [
    "BenchError",
    "KernelRun",
    "KERNEL_MODES",
    "DEFAULT_SIZES",
    "run_kernel",
    "marginal_cycles",
    "marginal_speedup",
    "latency_sweep",
    "transform_pair",
    "format_run",
]

MASK32 = 0xFFFFFFFF

KERNEL_MODES: dict[str, tuple[str, ...]] = {
    "xorcipher": ("base", "cim"),
    "blit": ("base", "cim"),
    "vecsum": ("base", "cim", "vec4", "vec8"),
    "strmatch": ("base", "cim"),
    "editdist": ("base", "cim", "vec4", "vec8"),
    "saxpy_add": ("base", "cim", "vec4", "vec8"),
}

DEFAULT_SIZES: dict[str, int] = {
    "xorcipher": 1024,
    "blit": 512,
    "vecsum": 1024,
    "strmatch": 1024,
    "editdist": 1024,
    "saxpy_add": 1024,
}

_PATTERN_WORDS = 2  # strmatch pattern length

# Rewrites the transform makes on each kernel's baseline; the rest make none.
_REWRITES: dict[str, int] = {"xorcipher": 1, "blit": 2, "vecsum": 1}


class BenchError(RuntimeError):
    """A kernel produced a wrong result or an expected rewrite failed."""


@dataclass(frozen=True)
class KernelRun:
    kernel: str
    mode: str
    n: int
    latency: int
    seed: int
    cycles: int
    instructions: int
    program_length: int
    rewrites: int
    result: int
    counters: dict[str, int]
    energy: EnergyBreakdown


@dataclass(frozen=True)
class _Setup:
    program: Program
    inputs: dict[int, int]
    reference: int
    outputs: range


def _words(rng: random.Random, n: int) -> list[int]:
    return list(map(rng.getrandbits, repeat(32, n)))


def _fold(values) -> int:
    acc = 0
    for v in values:
        acc = (acc * 0x01000193 ^ v) & MASK32
    return acc


# -- kernel builders ---------------------------------------------------------


def _placed(plan: MapPlan, name: str, words: list[int]) -> dict[int, int]:
    """Address -> word map of the named operand under the plan, filling its
    segments in order; IndexError if they hold fewer words."""
    placed, i = {}, 0
    for seg in plan.segments:
        if seg.name == name and seg.length > 0:
            chunk = words[i : i + seg.length]
            placed.update(zip(range(seg.base, seg.end), chunk))
            i += len(chunk)
    if i < len(words):
        raise IndexError(f"{name}[{i}] not placed")
    return placed


def _single_segment(plan: MapPlan, *names: str) -> None:
    """The loop bodies walk one linear segment per operand."""
    for name in names:
        if sum(1 for s in plan.segments if s.name == name) != 1:
            raise BenchError(f"operand {name} spans banks; pick a smaller n")


def _lanes(mode: str, n: int) -> int:
    """Lane count of a vector mode; n must be a multiple of it."""
    lanes = int(mode[3:])
    if n % lanes:
        raise BenchError("n must be a lane multiple")
    return lanes


def _setup_xorcipher(plan, mode, n, seed):
    _single_segment(plan, "A", "B")
    rng = random.Random(seed)
    a = _words(rng, n)
    b = _words(rng, n)
    base = plan.address("A", 0)
    bbase = plan.address("B", 0)
    src = f"""
        ADDI r1, r0, {base}
        ADDI r2, r0, {bbase}
        ADDI r3, r0, {base + n}
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
    inputs = _placed(plan, "A", a) | _placed(plan, "B", b)
    reference = _fold((x ^ y) & MASK32 for x, y in zip(a, b))
    return _Setup(parse_program(src), inputs, reference, range(base, base + n))


def _blit_plan(config: ArrayConfig, n: int) -> MapPlan:
    """Three stacked arrays in one bank: sprite, mask, destination."""
    if n < 1:
        raise PlanError("n must be positive")
    if 3 * n > config.words_per_bank:
        raise BenchError("blit arrays must fit one bank")
    if n % config.words_per_row:
        raise BenchError("blit arrays must be whole rows for column alignment")
    segments = (
        PlanSegment("S", 0, 0, n),
        PlanSegment("M", 0, n, n),
        PlanSegment("D", 0, 2 * n, n),
    )
    return MapPlan(config=config, pattern="type1", segments=segments)


def _setup_blit(plan, mode, n, seed):
    rng = random.Random(seed)
    sprite = _words(rng, n)
    mask = _words(rng, n)
    dest = _words(rng, n)
    src = f"""
        ADDI r1, r0, 0
        ADDI r2, r0, {n}
        ADDI r3, r0, {n}
    mask_pass:
        LDW r5, 0(r1)
        LDW r6, 0(r2)
        AND r7, r5, r6
        STW r7, 0(r1)
        ADDI r1, r1, 1
        ADDI r2, r2, 1
        BNE r1, r3, mask_pass
        ADDI r8, r0, {2 * n}
        ADDI r9, r0, 0
        ADDI r10, r0, {3 * n}
    merge_pass:
        LDW r5, 0(r8)
        LDW r6, 0(r9)
        OR r7, r5, r6
        STW r7, 0(r8)
        ADDI r8, r8, 1
        ADDI r9, r9, 1
        BNE r8, r10, merge_pass
        HALT
    """
    inputs = _placed(plan, "S", sprite) | _placed(plan, "M", mask) | _placed(plan, "D", dest)
    masked = [(s & m) & MASK32 for s, m in zip(sprite, mask)]
    reference = _fold((d | s) & MASK32 for d, s in zip(dest, masked))
    return _Setup(parse_program(src), inputs, reference, range(2 * n, 3 * n))


def _setup_vecsum(plan, mode, n, seed):
    config = plan.config
    _single_segment(plan, "A", "B")
    rng = random.Random(seed)
    a = _words(rng, n)
    b = _words(rng, n)
    base = plan.address("A", 0)
    bbase = plan.address("B", 0)
    out = 2 * config.words_per_bank  # first word of an unused bank
    if mode == "base":
        prog = parse_program(f"""
            ADDI r1, r0, {base}
            ADDI r2, r0, {bbase}
            ADDI r3, r0, {base + n}
            ADDI r4, r0, 0
        loop:
            LDW r5, 0(r1)
            LDW r6, 0(r2)
            ADD r7, r5, r6
            ADD r4, r4, r7
            ADDI r1, r1, 1
            ADDI r2, r2, 1
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """)
    else:
        lanes = _lanes(mode, n)
        prog = parse_program(f"""
            ADDI r1, r0, {base}
            ADDI r2, r0, {bbase}
            ADDI r3, r0, {base + n}
            ADDI r4, r0, 0
        loop:
            VCIM.ADD.SUM.{lanes} r7, r1, r2
            ADD r4, r4, r7
            ADDI r1, r1, {lanes}
            ADDI r2, r2, {lanes}
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """)
    inputs = _placed(plan, "A", a) | _placed(plan, "B", b)
    reference = sum((x + y) for x, y in zip(a, b)) & MASK32
    return _Setup(prog, inputs, reference, range(out, out + 1))


def _setup_strmatch(plan, mode, n, seed):
    config, m = plan.config, _PATTERN_WORDS
    if n < 4 * m - 3:  # the match planted at 3n/4 must end inside the text
        raise BenchError(f"strmatch needs n >= {4 * m - 3}, got {n}")
    rng = random.Random(seed)
    text = _words(rng, n)
    pattern = _words(rng, m)
    # Plant two full matches away from each other and the ends.
    plants = (n // 8, (3 * n) // 4)
    for p in plants:
        for j in range(m):
            text[p + j] = pattern[j]
    positions = n - m + 1
    reference = sum(
        1 for i in range(positions) if all(text[i + j] == pattern[j] for j in range(m))
    )
    out = 3 * config.words_per_bank

    if mode == "base":
        t_base = 0
        p_base = config.words_per_bank  # pattern copy in the next bank
        if n > p_base:
            raise BenchError(f"strmatch/base needs n <= {p_base} (the pattern copy), got {n}")
        src = f"""
            ADDI r1, r0, {t_base}
            ADDI r3, r0, {t_base + positions}
            ADDI r4, r0, 0
            ADDI r9, r0, {p_base}
        loop:
            LDW r5, 0(r1)
            LDW r6, 0(r9)
            BNE r5, r6, nomatch
            LDW r5, 1(r1)
            LDW r6, 1(r9)
            BNE r5, r6, nomatch
            ADDI r4, r4, 1
        nomatch:
            ADDI r1, r1, 1
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """
        inputs = dict(enumerate(text, t_base)) | dict(enumerate(pattern, p_base))
    else:
        _single_segment(plan, "T")
        t_base = plan.address("T", 0)
        group_mask = config.words_per_row - 1
        wpr = config.words_per_row
        src = f"""
            ADDI r1, r0, {t_base}
            ADDI r3, r0, {t_base + positions}
            ADDI r4, r0, 0
            ADDI r13, r0, {group_mask}
        loop:
            AND r7, r1, r13
            CIMXOR r6, r1, r7
            BNE r6, r0, nomatch
            ADDI r8, r1, 1
            AND r7, r8, r13
            ADDI r7, r7, {wpr}
            CIMXOR r6, r8, r7
            BNE r6, r0, nomatch
            ADDI r4, r4, 1
        nomatch:
            ADDI r1, r1, 1
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """
        # Pattern word j fills every group of its row, each group aligned with
        # the text's (t_base starts a row).
        inputs = _placed(plan, "T", text) | {
            plan.pattern_operand(t_base + g, j): w
            for j, w in enumerate(pattern) for g in range(wpr)
        }

    return _Setup(parse_program(src), inputs, reference, range(out, out + 1))


def _setup_editdist(plan, mode, n, seed):
    config = plan.config
    _single_segment(plan, "A")
    rng = random.Random(seed)
    x = _words(rng, n)
    key = rng.getrandbits(32)
    for i in range(n):
        if i % 97 == 5:
            x[i] = key
    reference = sum(1 for w in x if w == key)
    base = plan.address("A", 0)
    out = 3 * config.words_per_bank
    table_base = config.words_per_bank  # 256 match-count entries in bank 1

    if mode == "base":
        src = f"""
            ADDI r1, r0, {base}
            ADDI r3, r0, {base + n}
            ADDI r4, r0, 0
            ADDI r11, r0, {key}
        loop:
            LDW r5, 0(r1)
            XOR r6, r5, r11
            BNE r6, r0, differ
            ADDI r4, r4, 1
        differ:
            ADDI r1, r1, 1
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """
    elif mode == "cim":
        src = f"""
            ADDI r11, r0, {key}
            SPWR r11, 1
            ADDI r1, r0, {base}
            LUI r2, {plan.scalar_operand(base) >> 16}
            ADDI r3, r0, {base + n}
            ADDI r4, r0, 0
        loop:
            CIMXOR r6, r1, r2
            BNE r6, r0, differ
            ADDI r4, r4, 1
        differ:
            ADDI r1, r1, 1
            ADDI r2, r2, 1
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """
    else:
        lanes = _lanes(mode, n)
        src = f"""
            ADDI r11, r0, {key}
            SPWR r11, 1
            ADDI r1, r0, {base}
            LUI r2, {plan.scalar_operand(base) >> 16}
            ADDI r3, r0, {base + n}
            ADDI r4, r0, 0
            ADDI r12, r0, {table_base}
        loop:
            VCIM.XOR.ZCMP.{lanes} r6, r1, r2
            ADD r7, r12, r6
            LDW r8, 0(r7)
            ADD r4, r4, r8
            ADDI r1, r1, {lanes}
            ADDI r2, r2, {lanes}
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """
    inputs = _placed(plan, "A", x)
    if mode.startswith("vec"):
        for mask_val in range(1 << lanes):
            inputs[table_base + mask_val] = lanes - bin(mask_val).count("1")

    return _Setup(parse_program(src), inputs, reference, range(out, out + 1))


def _setup_saxpy(plan, mode, n, seed):
    config = plan.config
    _single_segment(plan, "A")
    rng = random.Random(seed)
    x = _words(rng, n)
    a_val = rng.getrandbits(16)
    reference = sum((w + a_val) for w in x) & MASK32
    base = plan.address("A", 0)
    out = 3 * config.words_per_bank

    if mode == "base":
        src = f"""
            ADDI r1, r0, {base}
            ADDI r3, r0, {base + n}
            ADDI r4, r0, 0
            ADDI r11, r0, {a_val}
        loop:
            LDW r5, 0(r1)
            ADD r6, r5, r11
            ADD r4, r4, r6
            ADDI r1, r1, 1
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """
    elif mode == "cim":
        src = f"""
            ADDI r11, r0, {a_val}
            SPWR r11, 1
            ADDI r1, r0, {base}
            LUI r2, {plan.scalar_operand(base) >> 16}
            ADDI r3, r0, {base + n}
            ADDI r4, r0, 0
        loop:
            CIMADD r6, r1, r2
            ADD r4, r4, r6
            ADDI r1, r1, 1
            ADDI r2, r2, 1
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """
    else:
        lanes = _lanes(mode, n)
        src = f"""
            ADDI r11, r0, {a_val}
            SPWR r11, 1
            ADDI r1, r0, {base}
            LUI r2, {plan.scalar_operand(base) >> 16}
            ADDI r3, r0, {base + n}
            ADDI r4, r0, 0
        loop:
            VCIM.ADD.SUM.{lanes} r6, r1, r2
            ADD r4, r4, r6
            ADDI r1, r1, {lanes}
            ADDI r2, r2, {lanes}
            BNE r1, r3, loop
            STW r4, {out}(r0)
            HALT
        """

    return _Setup(parse_program(src), _placed(plan, "A", x), reference, range(out, out + 1))


# Builders take (plan, mode, n, seed), the plan from the kernel's planner,
# built once per run.  run_kernel has checked the mode; the cim modes of
# _REWRITES come from the rewriter, so those builders only make the baseline.
# strmatch's baseline keeps its own layout and ignores the plan.
_BUILDERS = {
    "xorcipher": _setup_xorcipher,
    "blit": _setup_blit,
    "vecsum": _setup_vecsum,
    "strmatch": _setup_strmatch,
    "editdist": _setup_editdist,
    "saxpy_add": _setup_saxpy,
}

_PLANNERS = {
    "xorcipher": plan_type1,
    "blit": _blit_plan,
    "vecsum": plan_type1,
    "strmatch": lambda cfg, n: plan_type3(cfg, n, _PATTERN_WORDS),
    "editdist": plan_type2,
    "saxpy_add": plan_type2,
}


def _rewritten(kernel: str, n: int, seed: int):
    """Baseline setup, its transform report under the kernel's plan, and the
    plan; raises unless the transform makes the kernel's expected rewrites."""
    plan = _PLANNERS[kernel](ArrayConfig(), n)
    setup = _BUILDERS[kernel](plan, "base", n, seed)
    report = transform(setup.program, plan)
    expected = _REWRITES.get(kernel, 0)
    if len(report.rewrites) != expected:
        raise BenchError(
            f"{kernel}: transform made {len(report.rewrites)} rewrites, expected {expected}"
        )
    return setup, report, plan


def transform_pair(kernel: str, n: int | None = None, seed: int = 7):
    """Baseline program, its transform report, and the placement plan.

    Kernels whose baselines contain no eligible windows (early-exit scans,
    register-held scalars) come back with zero rewrites; that is the
    expected answer.  Any other rewrite count than ``_REWRITES`` lists
    raises BenchError.
    """
    if kernel not in _BUILDERS:
        raise BenchError(f"unknown kernel {kernel!r}")
    size = n if n is not None else DEFAULT_SIZES[kernel]
    setup, report, plan = _rewritten(kernel, size, seed)
    return setup.program, report, plan


def run_kernel(kernel: str, mode: str, n: int | None = None, latency: int = 1,
               seed: int = 7) -> KernelRun:
    """Build, place, execute and validate one kernel variant."""
    if kernel not in _BUILDERS:
        raise BenchError(f"unknown kernel {kernel!r}")
    if mode not in KERNEL_MODES[kernel]:
        raise BenchError(f"{kernel} has no mode {mode!r}")
    size = n if n is not None else DEFAULT_SIZES[kernel]
    if mode == "cim" and kernel in _REWRITES:
        setup, report, plan = _rewritten(kernel, size, seed)
        setup = replace(setup, program=report.program)
        rewrites = len(report.rewrites)
    else:
        plan = _PLANNERS[kernel](ArrayConfig(), size)
        setup = _BUILDERS[kernel](plan, mode, size, seed)
        rewrites = 0
    arr = CimArray(plan.config)
    arr.load(setup.inputs)
    res = Cpu(arr, setup.program, memory_latency=latency).run()
    counters = arr.counters.as_dict()
    energy = account(arr.counters)
    result = _fold(arr.read_word(a) for a in setup.outputs)
    if result != setup.reference:
        raise BenchError(
            f"{kernel}/{mode}: result {result:#x} != reference {setup.reference:#x}"
        )
    return KernelRun(
        kernel=kernel, mode=mode, n=size, latency=latency, seed=seed,
        cycles=res.cycles, instructions=res.instructions,
        program_length=len(setup.program), rewrites=rewrites,
        result=result, counters=counters, energy=energy,
    )


def marginal_cycles(kernel: str, mode: str, n: int, latency: int = 1, seed: int = 7) -> int:
    """Per-size cycle difference; cancels fixed program overhead.  A failing
    half-size run raises a BenchError that names its size."""
    full = run_kernel(kernel, mode, n, latency, seed)
    try:
        half = run_kernel(kernel, mode, n // 2, latency, seed)
    except (BenchError, PlanError) as exc:
        raise BenchError(f"the half-size run (n={n // 2}) failed: {exc}") from exc
    return full.cycles - half.cycles


def marginal_speedup(kernel: str, mode: str, n: int | None = None, latency: int = 1,
                     seed: int = 7) -> float:
    size = n if n is not None else DEFAULT_SIZES[kernel]
    base = marginal_cycles(kernel, "base", size, latency, seed)
    fast = marginal_cycles(kernel, mode, size, latency, seed)
    return base / fast


def latency_sweep(kernel: str, mode: str, latencies, n: int | None = None, seed: int = 7):
    """(latency, marginal speedup over base) points."""
    return [(lat, marginal_speedup(kernel, mode, n, lat, seed)) for lat in latencies]


def format_run(run: KernelRun) -> str:
    e = run.energy
    return (
        f"{run.kernel}/{run.mode} n={run.n} latency={run.latency}: "
        f"cycles={run.cycles} instructions={run.instructions} "
        f"energy={e.total:.3f} (read={e.read:.3f} write={e.write:.3f} "
        f"cim={e.cim:.3f} nm={e.nm_corrections:.3f}) result={run.result:#x}"
    )
