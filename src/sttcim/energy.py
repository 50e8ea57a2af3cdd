"""Normalized access-energy model.

All values are unitless multiples of one baseline array read (1.0).  Every
access event is split into six circuit components so reports can show where
the energy goes; the per-event totals are what the benchmark harness sums.

Events:

* baseline_read: plain read, standard ECC decode.
* cim_read: a read issued through the CiM controller path (wider decoder
  and the stronger ECC check).  Near-memory fallback reads are priced at
  this event but accumulated in their own category.
* cim_op: two-row in-array operation (both wordlines, both reference
  stacks, both sense amps, strong ECC on the XOR lane).
* write: ordinary word write.
* special_write: broadcast write that fills a bank's spare row.
* vcim lane increment: marginal cost per additional active lane of a
  vector access beyond the first (shared wordlines and references; extra
  bitline, sense and ECC activity per lane).

Accounting categories: Read, Write, CiM, NMCorrections.  The last one
isolates the cost of error-flow fallbacks so their overhead is visible
next to the useful traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cimarray import AccessCounters

__all__ = [
    "COMPONENTS",
    "EVENT_COMPONENTS",
    "VCIM_LANE_INCREMENT",
    "event_energy",
    "EnergyBreakdown",
    "account",
]

COMPONENTS = ("periphery", "wordline", "bitline", "reference", "sense", "ecc")

EVENT_COMPONENTS: dict[str, dict[str, float]] = {
    "baseline_read": {
        "periphery": 0.16,
        "wordline": 0.12,
        "bitline": 0.44,
        "reference": 0.08,
        "sense": 0.12,
        "ecc": 0.08,
    },
    "cim_read": {
        "periphery": 0.174,
        "wordline": 0.12,
        "bitline": 0.44,
        "reference": 0.08,
        "sense": 0.12,
        "ecc": 0.11,
    },
    "cim_op": {
        "periphery": 0.186,
        "wordline": 0.24,
        "bitline": 0.55,
        "reference": 0.12,
        "sense": 0.11,
        "ecc": 0.11,
    },
    "write": {
        "periphery": 0.35,
        "wordline": 0.15,
        "bitline": 2.40,
        "reference": 0.0,
        "sense": 0.0,
        "ecc": 0.10,
    },
    "special_write": {
        "periphery": 0.40,
        "wordline": 0.15,
        "bitline": 3.85,
        "reference": 0.0,
        "sense": 0.0,
        "ecc": 0.10,
    },
}

VCIM_LANE_INCREMENT: dict[str, float] = {
    "periphery": 0.02,
    "wordline": 0.0,
    "bitline": 0.08,
    "reference": 0.0,
    "sense": 0.04,
    "ecc": 0.01,
}

CATEGORIES = ("Read", "Write", "CiM", "NMCorrections")


def event_energy(event: str) -> float:
    return sum(EVENT_COMPONENTS[event].values())


@dataclass(frozen=True)
class EnergyBreakdown:
    read: float
    write: float
    cim: float
    nm_corrections: float

    @property
    def total(self) -> float:
        return self.read + self.write + self.cim + self.nm_corrections

    def as_dict(self) -> dict[str, float]:
        values = (self.read, self.write, self.cim, self.nm_corrections)
        return {**dict(zip(CATEGORIES, values)), "Total": self.total}


def account(counters: AccessCounters) -> EnergyBreakdown:
    """Price a traffic profile.

    Plain reads bill as baseline reads; near-memory fallback reads bill as
    CiM-path reads under NMCorrections.  Vector ops bill one two-row op
    plus the lane increment for every lane past the first.
    """
    read = counters.reads * event_energy("baseline_read")
    write = (
        counters.writes * event_energy("write")
        + counters.special_writes * event_energy("special_write")
    )
    cim = counters.cim_ops * event_energy("cim_op")
    if counters.vcim_ops:
        cim += counters.vcim_ops * event_energy("cim_op")
        cim += (counters.vcim_lanes - counters.vcim_ops) * sum(VCIM_LANE_INCREMENT.values())
    nm = counters.nm_reads * event_energy("cim_read")
    return EnergyBreakdown(read=read, write=write, cim=cim, nm_corrections=nm)
