"""Desk-scale simulator and toolchain for an STT-MRAM compute-in-memory
memory: bit-cell electrics and variation Monte Carlo, in-array logic and
addition, error correction tuned for the in-array error shapes, a small CPU
with memory-mapped CiM instructions, a program transform that rewrites
eligible load pairs into in-array operations, and benchmark kernels with
access, cycle and energy accounting.
"""

__version__ = "0.1.0"

from .bench import (
    BenchError,
    KERNEL_MODES,
    KernelRun,
    latency_sweep,
    marginal_speedup,
    run_kernel,
    transform_pair,
)
from .cimarray import (
    Addr,
    ArrayConfig,
    CimArray,
    CimOp,
    CONTROL_TABLE,
    DeviceColumnSampler,
    HardError,
    IdealSampler,
    InjectedColumnNoise,
    SPARE_ALIAS,
)
from .cpu import AsmError, Cpu, CpuFault, Program, format_program, parse_program
from .device import (
    ConfigError,
    CurrentLevels,
    DeviceParams,
    FailureReport,
    VariationSpec,
    cell_current,
    current_levels,
    monte_carlo_failures,
    sense_bit,
)
from .ecc import DecodeResult, DecodeStatus, Ec3Ed4, Secded, make_code
from .energy import EnergyBreakdown, account, event_energy
from .mapper import MapPlan, PlanError, plan_type1, plan_type2, plan_type3
from .xform import transform, verify_equivalence

__all__ = [
    "__version__",
    "Addr",
    "ArrayConfig",
    "AsmError",
    "BenchError",
    "CimArray",
    "CimOp",
    "CONTROL_TABLE",
    "ConfigError",
    "Cpu",
    "CpuFault",
    "CurrentLevels",
    "DecodeResult",
    "DecodeStatus",
    "DeviceColumnSampler",
    "DeviceParams",
    "Ec3Ed4",
    "EnergyBreakdown",
    "FailureReport",
    "HardError",
    "IdealSampler",
    "InjectedColumnNoise",
    "KERNEL_MODES",
    "KernelRun",
    "MapPlan",
    "PlanError",
    "Program",
    "SPARE_ALIAS",
    "Secded",
    "VariationSpec",
    "account",
    "cell_current",
    "current_levels",
    "event_energy",
    "format_program",
    "latency_sweep",
    "make_code",
    "marginal_speedup",
    "monte_carlo_failures",
    "parse_program",
    "plan_type1",
    "plan_type2",
    "plan_type3",
    "run_kernel",
    "sense_bit",
    "transform",
    "transform_pair",
    "verify_equivalence",
]
