"""The four benchmark workloads.

Each workload is built from a seed into plain inputs (construction is part
of set-up), then exposes one *pass* as a list of items.  An item is a
callable that runs one unit of simulator work, checks every output it
produces, and returns a JSON-able record of those outputs.  A check that
fails raises ``CheckFailed``.  Records feed the per-pass digest, so every
pass of one workload and seed must return identical records: items build
any stateful simulator object (arrays, samplers) afresh.

All calls into the simulator go through module attributes (``bench.run_kernel``,
``xform.transform`` ...) so the tracer can wrap them at the names looked up.
"""

from __future__ import annotations

import random
import zlib

from sttcim import bench, cimarray, cpu, device, mapper, xform
from sttcim.cimarray import Addr, ArrayConfig, CimOp, HardError

MASK32 = 0xFFFFFFFF

OUTCOMES = ("clean", "xor_fixed", "fallback", "hard_error", "silent")


class CheckFailed(AssertionError):
    """A simulated output disagreed with the benchmark's own check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sub_seed(seed: int, *tags) -> int:
    """32-bit seed derived from the workload seed and a tag path."""
    return zlib.crc32("/".join(map(str, (seed,) + tags)).encode())


class Workload:
    name = ""
    work_name = ""  # end-to-end throughput metric name
    work_unit = ""
    work_scale = 1.0  # divides work per second into the metric's unit

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list[tuple[str, object]] = []
        self.work_per_pass = 0

    def work(self, records) -> float:
        """Work units in one pass, for the throughput metric."""
        return self.work_per_pass

    def outcome_tally(self, records) -> dict[str, int] | None:
        """Modelled access outcomes over one pass, when the workload
        classifies them itself."""
        return None


# -- kernels -----------------------------------------------------------------

_TINY_KERNEL_N = 64


class Kernels(Workload):
    """Every kernel x mode of the paper's headline table, ideal sensing."""

    name = "kernels"
    work_name, work_unit, work_scale = "sim_kinstr_per_s", "kinstr/s", 1e3

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        for kernel, modes in bench.KERNEL_MODES.items():
            n = _TINY_KERNEL_N if tiny else bench.DEFAULT_SIZES[kernel]
            for mode in modes:
                self.items.append((f"{kernel}/{mode}", self._item(kernel, mode, n)))

    def _item(self, kernel, mode, n):
        def run():
            r = bench.run_kernel(kernel, mode, n=n, latency=1, seed=self.seed)
            # run_kernel validates the result against its Python reference.
            _require(r.instructions > 0 and r.cycles >= r.instructions,
                     f"{kernel}/{mode}: cycles {r.cycles} < instructions {r.instructions}")
            return [kernel, mode, r.n, r.cycles, r.instructions, r.program_length,
                    r.rewrites, r.result, sorted(r.counters.items()),
                    sorted((k, repr(v)) for k, v in r.energy.as_dict().items())]
        return run

    def work(self, records) -> float:
        return sum(rec[4] for rec in records)  # simulated instructions


# -- montecarlo ----------------------------------------------------------------

MC_SCALES = (0.5, 1.0, 1.5, 2.0)
MC_SAMPLES = 1 << 19  # four internal chunks at the default chunk size
_TINY_MC_SAMPLES = 1 << 12


class MonteCarlo(Workload):
    """Variation Monte Carlo at four variation scales."""

    name = "montecarlo"
    work_name, work_unit, work_scale = "mc_msamples_per_s", "Msamples/s", 1e6

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.params = device.DeviceParams()
        n = _TINY_MC_SAMPLES if tiny else MC_SAMPLES
        for i, scale in enumerate(MC_SCALES):
            spec = device.VariationSpec().scaled(scale)
            self.items.append((f"x{scale}", self._item(spec, n, sub_seed(seed, "mc", i))))
        self.work_per_pass = n * len(MC_SCALES)

    def _item(self, spec, n, mc_seed):
        def run():
            rep = device.monte_carlo_failures(self.params, spec, n, mc_seed)
            _require(rep.samples == n, f"samples {rep.samples} != {n}")
            counts = []
            for field in ("read_decision_rate", "cim_decision_rate", "cim_cell_below_read_rate"):
                rate = getattr(rep, field)
                count = round(rate * n)
                _require(0 <= count <= n and count / n == rate,
                         f"{field}={rate!r} is not a whole count over {n} samples")
                counts.append(count)
            return [n, mc_seed, counts, repr(rep.mean_cim_per_cell_current),
                    repr(rep.mean_read_cell_current), repr(rep.margin_low), repr(rep.margin_high)]
        return run


# -- faults --------------------------------------------------------------------

FAULT_OPS = (CimOp.AND, CimOp.OR, CimOp.NAND, CimOp.NOR, CimOp.XOR, CimOp.ADD,
             CimOp.NOT, CimOp.READ)
_TWO_ROW = frozenset(FAULT_OPS[:6])
FAULT_BATCH = 100
FAULT_BATCHES = 9  # per sampler and pass
_TINY_FAULT_BATCH = 16
_TINY_FAULT_BATCHES = 2


def alu(op: CimOp, a: int, b: int) -> int:
    """The benchmark's own reference for one 32-bit access."""
    if op is CimOp.AND:
        return a & b
    if op is CimOp.OR:
        return a | b
    if op is CimOp.NAND:
        return ~(a & b) & MASK32
    if op is CimOp.NOR:
        return ~(a | b) & MASK32
    if op is CimOp.XOR:
        return a ^ b
    if op is CimOp.ADD:
        return a + b  # the array keeps the carry-out at bit 32
    if op is CimOp.NOT:
        return ~a & MASK32
    return a  # READ


def _samplers():
    """(name, array config, sampler factory taking a seed)."""
    return (
        ("injected-ec3ed4", ArrayConfig(code="ec3ed4"),
         lambda s: cimarray.InjectedColumnNoise(p=1e-2, seed=s)),
        ("injected-secded", ArrayConfig(code="secded"),
         lambda s: cimarray.InjectedColumnNoise(p=1e-2, seed=s)),
        ("device-1x", ArrayConfig(),
         lambda s: cimarray.DeviceColumnSampler(variation=device.VariationSpec().scaled(1.0), seed=s)),
        ("device-2x", ArrayConfig(),
         lambda s: cimarray.DeviceColumnSampler(variation=device.VariationSpec().scaled(2.0), seed=s)),
    )


class Faults(Workload):
    """Random operand pairs under four noisy samplers, every access
    classified into one of the five modelled outcomes."""

    name = "faults"
    work_name, work_unit, work_scale = "accesses_per_s", "1/s", 1.0

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        size = _TINY_FAULT_BATCH if tiny else FAULT_BATCH
        batches = _TINY_FAULT_BATCHES if tiny else FAULT_BATCHES
        for name, config, make in _samplers():
            for k in range(batches):
                rng = random.Random(sub_seed(seed, "faults", name, k))
                inputs = [self._access(rng, config, j) for j in range(size)]
                self.items.append((f"{name}/{k}", self._item(
                    config, make, sub_seed(seed, "sampler", name, k), inputs)))
        self.work_per_pass = len(self.items) * size

    @staticmethod
    def _access(rng, config, j):
        bank = rng.randrange(config.banks)
        group = rng.randrange(config.words_per_row)
        row_a, row_b = rng.sample(range(config.data_rows), 2)
        return (FAULT_OPS[j % len(FAULT_OPS)], Addr(bank, row_a, group), Addr(bank, row_b, group),
                rng.getrandbits(32), rng.getrandbits(32))

    @staticmethod
    def _item(config, make_sampler, sampler_seed, inputs):
        def run():
            arr = cimarray.CimArray(config, make_sampler(sampler_seed))
            c = arr.counters
            tally = dict.fromkeys(OUTCOMES, 0)
            values = []
            for op, pa, pb, a, b in inputs:
                arr.write_word(pa, a)
                if op in _TWO_ROW:
                    arr.write_word(pb, b)
                before = (c.corrected_words, c.xor_fixups, c.fallbacks, c.nm_reads)
                try:
                    if op is CimOp.READ:
                        got, accesses = arr.read_word(pa), 1
                    elif op is CimOp.NOT:
                        got, accesses = arr.cim_not(pa)
                    else:
                        got, accesses = arr.cim_word(op, pa, pb)
                except HardError:
                    tally["hard_error"] += 1
                    values.append(None)
                    continue
                corrected, fixups, fallbacks, nm_reads = (
                    after - b4 for after, b4 in
                    zip((c.corrected_words, c.xor_fixups, c.fallbacks, c.nm_reads), before))
                fell_back = fallbacks == 1 and nm_reads == 2 and accesses == 3
                _require(fell_back or (fallbacks == 0 and nm_reads == 0 and accesses == 1),
                         f"{op.name}: inconsistent fallback accounting")
                _require(fixups == 0 or (op is CimOp.XOR and fixups == 1),
                         f"{op.name}: XOR fix-up counted on a non-XOR access")
                _require(op is not CimOp.NOT or corrected == 0,
                         "NOT has no check, yet a correction was counted")
                if got != alu(op, a, b):
                    outcome = "silent"
                elif fell_back:
                    outcome = "fallback"
                elif corrected:
                    outcome = "xor_fixed"
                else:
                    outcome = "clean"
                tally[outcome] += 1
                values.append(got)
            _require(sum(tally.values()) == len(inputs), "an access has no outcome")
            return [[tally[o] for o in OUTCOMES], values, sorted(c.as_dict().items())]
        return run

    def outcome_tally(self, records):
        tally = dict.fromkeys(OUTCOMES, 0)
        for rec in records:
            for o, k in zip(OUTCOMES, rec[0]):
                tally[o] += k
        return tally


# -- rewrite -------------------------------------------------------------------

REWRITE_WINDOWS = (128, 128, 128, 128)
_TINY_REWRITE_WINDOWS = (8, 12)
_MISALIGNED_SLOTS = (2, 5, 8)  # of every ten pairs
# Kernel baselines with eligible windows; the rest have none by design.
KERNEL_REWRITES = {"xorcipher": 1, "blit": 2, "vecsum": 1,
                   "strmatch": 0, "editdist": 0, "saxpy_add": 0}
_BINOPS = ("ADD", "AND", "OR", "XOR")
_PROGRAM_BANKS = 2
# Baselines at a quarter of their default size: the windows are the same,
# and the equivalence runs stay short next to the transforms.
_REWRITE_KERNEL_N = 256


def generate_program(rng: random.Random, config: ArrayConfig, pair_windows: int):
    """Straight-line program of LDW/LDW/op windows plus some LDW/NOT windows.

    Three pairs in every ten are deliberately misaligned (other bank or
    other word group), so the rewriter must refuse them, and every tenth
    pair is followed by an LDW/NOT window.  The layout is fixed so that the
    rewriter's work does not depend on the seed; the seed picks addresses,
    operators and how each misaligned pair misses.  Returns (assembly text,
    windows made, windows the rewriter must take).
    """
    kinds = []
    for j in range(pair_windows):
        kinds.append("misaligned" if j % 10 in _MISALIGNED_SLOTS else "aligned")
        if j % 10 == 9:
            kinds.append("not")
    words = _PROGRAM_BANKS * config.words_per_bank
    lines = []
    for kind in kinds:
        bank = rng.randrange(_PROGRAM_BANKS)
        group = rng.randrange(config.words_per_row)
        row_a, row_b = rng.sample(range(config.data_rows), 2)
        addr_a = Addr(bank, row_a, group).to_linear(config)
        dest = rng.randrange(words)
        if kind == "not":
            lines += [f"ADDI r1, r0, {addr_a}", "LDW r5, 0(r1)", "NOT r7, r5",
                      f"STW r7, {dest}(r0)"]
            continue
        bank_b, group_b = bank, group
        if kind == "misaligned":
            if rng.random() < 0.5:
                bank_b = 1 - bank
            else:
                group_b = (group + rng.randrange(1, config.words_per_row)) % config.words_per_row
        addr_b = Addr(bank_b, row_b, group_b).to_linear(config)
        lines += [f"ADDI r1, r0, {addr_a}", f"ADDI r2, r0, {addr_b}", "LDW r5, 0(r1)",
                  "LDW r6, 0(r2)", f"{rng.choice(_BINOPS)} r7, r5, r6", f"STW r7, {dest}(r0)"]
    lines.append("HALT")
    return "\n".join(lines) + "\n", len(kinds), sum(k != "misaligned" for k in kinds)


def _rewrite_record(report, ok):
    return [cpu.format_program(report.program),
            [[r.index, r.kind, r.line, r.proof] for r in report.rewrites],
            report.instructions_before, report.instructions_after, ok]


class Rewrite(Workload):
    """Load-pair rewriting plus equivalence checking on the kernel
    baselines and on seeded straight-line programs."""

    name = "rewrite"
    work_name, work_unit, work_scale = "windows_per_s", "1/s", 1.0

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        config = ArrayConfig()
        for kernel, expected in KERNEL_REWRITES.items():
            n = _TINY_KERNEL_N if tiny else _REWRITE_KERNEL_N
            self.items.append((f"kernel/{kernel}", self._kernel_item(kernel, n, expected)))
        plan = mapper.plan_type2(config, _PROGRAM_BANKS * config.words_per_bank)
        windows = _TINY_REWRITE_WINDOWS if tiny else REWRITE_WINDOWS
        for i, pair_windows in enumerate(windows):
            text, made, expected = generate_program(
                random.Random(sub_seed(seed, "rewrite", i)), config, pair_windows)
            program = cpu.parse_program(text)
            self.items.append((f"program/{pair_windows}",
                               self._program_item(program, plan, expected)))
            self.work_per_pass += made

    def _kernel_item(self, kernel, n, expected):
        def run():
            original, report, plan = bench.transform_pair(kernel, n=n, seed=self.seed)
            _require(len(report.rewrites) == expected,
                     f"{kernel}: {len(report.rewrites)} rewrites, expected {expected}")
            ok = xform.verify_equivalence(original, report.program, plan, seed=self.seed)
            _require(ok, f"{kernel}: rewritten baseline is not equivalent")
            return [kernel] + _rewrite_record(report, ok)
        return run

    def _program_item(self, program, plan, expected):
        def run():
            report = xform.transform(program, plan)
            _require(len(report.rewrites) == expected,
                     f"{len(report.rewrites)} rewrites, generator made {expected} aligned windows")
            ok = xform.verify_equivalence(program, report.program, plan, seed=self.seed)
            _require(ok, "rewritten program is not equivalent")
            return _rewrite_record(report, ok)
        return run


WORKLOADS = {w.name: w for w in (Kernels, MonteCarlo, Faults, Rewrite)}
