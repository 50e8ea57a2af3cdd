"""Bit-cell electrical model and variation Monte Carlo for an STT-MRAM
compute-in-memory array.

A bit-cell is an access transistor in series with a magnetic tunnel junction
(MTJ).  Parallel magnetization stores logic 1 and gives the low resistance
``r_p``; anti-parallel stores logic 0 and gives ``r_ap = r_p * (1 + tmr)``.
A read compares the cell current against a reference current synthesized by
a stack of reference cells; enabling two wordlines on one column makes the
source-line current the sum of the two cell currents, and thresholding that
sum against two reference levels is what the logic modes sense.

Two deliberate simplifications, both load-bearing for the numbers this
module promises:

* Decision model: every enabled cell sees the full read bias, so two-cell
  source-line currents are exact sums of single-cell currents, and reference
  currents are sums over the enabled reference-stack cells.
* Disturb proxy: per-cell current is computed with a shared series
  resistance (``sl_resistance``) in the path.  Splitting the bias across two
  parallel cells then strictly lowers the per-cell current relative to a
  single-cell read.  Only the disturb statistics use this path; decision
  margins stay on the ideal model.

Process variation maps three normal draws per cell onto resistances:

    r_mtj_eff = r_mtj * exp(tox_sensitivity * eps_tox) / (1 + eps_area)
    r_t_eff   = access_resistance * (1 + vt_sensitivity * eps_vt)

with eps_* ~ N(0, sigma_*).  The oxide and area draws are shared between the
parallel and anti-parallel resistance of the same junction.  Draws are pure
functions of (seed, cell index) so chunked evaluation is order-independent.

One function senses a varied column, ``column_decisions``: the ten
comparator decisions of ``IDEAL_DECISIONS``.  The array's device sampler
packs them; the Monte Carlo counts a failure where they differ from it.

The Monte Carlo has two units.  The ``chunk`` argument is the summation
unit: each float mean is the sum of per-chunk sums, so ``chunk`` fixes the
last bits of the margins and mean currents (failure counts are exact
integers and never depend on it).  The block, ``_BLOCK`` samples, is only
the evaluation unit: samples are drawn and evaluated a cache-sized block at
a time, each block writes its per-sample terms into chunk-length arrays,
and each array is summed once per chunk, so the block size changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .streams import unit_normals

__all__ = [
    "ConfigError",
    "DeviceParams",
    "VariationSpec",
    "CurrentLevels",
    "FailureReport",
    "cell_current",
    "current_levels",
    "sense_bit",
    "cell_factors",
    "SENSED_SLOTS",
    "sensed_levels",
    "IDEAL_DECISIONS",
    "column_decisions",
    "monte_carlo_failures",
    "load_device_config",
    "failure_report_csv",
]


class ConfigError(ValueError):
    """Raised for physically meaningless device configurations."""


@dataclass(frozen=True)
class DeviceParams:
    """Nominal electrical parameters of one bit-cell and its references.

    ra_product is the resistance-area product in ohm*um^2, mtj_area in um^2,
    resistances in ohm, read_voltage in volt.  ref_resistance defaults to the
    arithmetic midpoint of r_p and r_ap.  sl_resistance is the shared series
    resistance used only by the read-disturb proxy.
    """

    ra_product: float = 18.0
    tmr: float = 1.24
    mtj_area: float = 0.0016
    access_resistance: float = 3000.0
    read_voltage: float = 0.1
    ref_resistance: float | None = None
    sl_resistance: float = 1500.0

    def __post_init__(self):
        if self.ra_product <= 0 or self.mtj_area <= 0:
            raise ConfigError("ra_product and mtj_area must be positive")
        if self.tmr <= 0:
            raise ConfigError("tmr must be positive")
        if self.access_resistance <= 0 or self.read_voltage <= 0:
            raise ConfigError("access_resistance and read_voltage must be positive")
        if self.sl_resistance < 0:
            raise ConfigError("sl_resistance must be non-negative")
        if self.ref_resistance is not None and self.ref_resistance <= 0:
            raise ConfigError("ref_resistance must be positive")

    @property
    def r_p(self) -> float:
        return self.ra_product / self.mtj_area

    @property
    def r_ap(self) -> float:
        return self.r_p * (1.0 + self.tmr)

    @property
    def r_ref(self) -> float:
        if self.ref_resistance is not None:
            return self.ref_resistance
        return 0.5 * (self.r_p + self.r_ap)


@dataclass(frozen=True)
class VariationSpec:
    """Relative sigmas of the variation sources plus sensitivity knobs.

    tox_sensitivity maps relative oxide-thickness deviation onto
    log-resistance; vt_sensitivity scales the threshold-voltage effect on the
    access resistance.  Defaults are calibrated so CiM decision failures are
    well over an order of magnitude more likely than read failures.
    """

    sigma_tox: float = 0.02
    sigma_area: float = 0.05
    sigma_vt: float = 0.05
    tox_sensitivity: float = 2.0
    vt_sensitivity: float = 1.0

    def __post_init__(self):
        if min(self.sigma_tox, self.sigma_area, self.sigma_vt) < 0:
            raise ConfigError("sigmas must be non-negative")

    @classmethod
    def zero(cls) -> "VariationSpec":
        return cls(sigma_tox=0.0, sigma_area=0.0, sigma_vt=0.0)

    def scaled(self, factor: float) -> "VariationSpec":
        """All three sigmas scaled by one factor; sensitivities unchanged."""
        return replace(
            self,
            sigma_tox=self.sigma_tox * factor,
            sigma_area=self.sigma_area * factor,
            sigma_vt=self.sigma_vt * factor,
        )


@dataclass(frozen=True)
class CurrentLevels:
    """Nominal single-cell, two-cell and reference currents (ampere)."""

    i_p: float
    i_ap: float
    i_pp: float
    i_ap_p: float
    i_apap: float
    i_ref_read: float
    i_ref_or: float
    i_ref_and: float


@dataclass(frozen=True)
class FailureReport:
    """Monte Carlo decision-failure statistics.

    Rates are per-sample probabilities of any wrong decision (over both
    stored states for reads, over all four state combinations for CiM).
    margin_low/margin_high are sample means of the mid-level source-line
    current's distance to the OR and AND references.  Currents in ampere.
    """

    samples: int
    read_decision_rate: float
    cim_decision_rate: float
    mean_cim_per_cell_current: float
    mean_read_cell_current: float
    margin_low: float
    margin_high: float
    cim_cell_below_read_rate: float


def cell_current(r_mtj: float, r_t: float, read_voltage: float) -> float:
    """Current through one enabled cell under the full read bias."""
    if r_mtj <= 0 or r_t <= 0:
        raise ConfigError("resistances must be positive")
    return read_voltage / (r_t + r_mtj)


def sense_bit(i_sl: float, i_ref: float) -> int:
    """Sense-amplifier decision: 1 iff the source-line current exceeds the
    reference.  Ties resolve to 0."""
    return 1 if i_sl > i_ref else 0


def current_levels(params: DeviceParams) -> CurrentLevels:
    """Nominal current levels, validated for sensibility.

    Raises ConfigError unless the single-cell ordering
    i_ap < i_ref_read < i_p and the two-cell ordering
    i_apap < i_ref_or < i_ap_p < i_ref_and < i_pp both hold; outside those
    orderings the logic modes cannot decode.
    """
    v = params.read_voltage
    r_t = params.access_resistance
    i_p = cell_current(params.r_p, r_t, v)
    i_ap = cell_current(params.r_ap, r_t, v)
    i_ref_read = cell_current(params.r_ref, r_t, v)
    levels = CurrentLevels(
        i_p=i_p,
        i_ap=i_ap,
        i_pp=2.0 * i_p,
        i_ap_p=i_p + i_ap,
        i_apap=2.0 * i_ap,
        i_ref_read=i_ref_read,
        i_ref_or=i_ref_read + i_ap,
        i_ref_and=i_ref_read + i_p,
    )
    if not (levels.i_ap < levels.i_ref_read < levels.i_p):
        raise ConfigError("read reference does not separate the stored states")
    if not (levels.i_apap < levels.i_ref_or < levels.i_ap_p < levels.i_ref_and < levels.i_pp):
        raise ConfigError("two-cell levels and references are not interleaved")
    return levels


# Stream layout: each cell consumes three normals (tox, area, vt) at word
# indices cell*3 + (0, 1, 2).  Retry k for non-positive resistances rehashes
# at _RETRY_SHIFTS[k]: distinct nonzero multiples of 2^60, far above any base
# index (a sensed column's draws stay below 2^45 up to access 2^20), so no
# two attempts of a cell share a draw.  The first three, j * 2^62, belong to
# the frozen stream layout: a cell that settles within three retries keeps
# its values.
_DRAWS_PER_CELL = 3
_RETRY_SHIFTS = (1 << 62, 2 << 62, 3 << 62, 1 << 61, 3 << 61, 5 << 61, 7 << 61, 1 << 60)
_MAX_RETRIES = len(_RETRY_SHIFTS)

# A Monte Carlo sample or a sensed column owns eight consecutive cell
# indices: two data cells, then the left reference stack (REF, AP, P), then
# the right stack (REF, AP, P).  Sensing reads six of them: the data cells,
# the left REF and AP cells (read and or-references) and the right REF and P
# cells (and-reference); slots 4 and 6 are never drawn.
CELLS_PER_SAMPLE = 8
SENSED_SLOTS = (0, 1, 2, 3, 5, 7)

# A sensed column's decision table, noise-free: the read reference against
# a stored 0 and 1, then the or- and then the and-reference against the
# two-cell states (a, b) = 00, 01, 10, 11.
IDEAL_DECISIONS = (0, 1, 0, 1, 1, 1, 0, 0, 0, 1)

# Monte Carlo samples evaluated together inside one summation chunk.  At
# 2048 samples a block's 36,864 draws and its temporaries (under 2 MB) stay
# in a core's L2 cache; smaller blocks pay more per-call overhead.
_BLOCK = 2048


def _draw_buffers(size):
    """Normals (drawn in place over their indices) and hash scratch for
    size draws."""
    return np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)


def cell_factors(params, variation, seed, cell_indices, buffers=None):
    """Vectorized variation draws for the given cell indices.

    Returns (mtj_factor, r_t_eff) arrays shaped like cell_indices.  The MTJ
    factor multiplies any nominal junction resistance of that cell; the
    oxide and area draws are common to r_p and r_ap of the cell.  buffers,
    from _draw_buffers, hold the draws instead of fresh arrays.
    """
    idx = np.asarray(cell_indices, dtype=np.uint64)
    # One draw call for all three sources: row k holds word indices cell*3 + k.
    offsets = np.arange(_DRAWS_PER_CELL, dtype=np.uint64).reshape((-1,) + (1,) * idx.ndim)
    size = offsets.size * idx.size
    if buffers is None:
        buffers = _draw_buffers(size)
    # The draw indices are written into the normals buffer and drawn in place.
    eps, scratch = (b[:size].reshape(offsets.shape[:1] + idx.shape) for b in buffers)
    np.multiply(idx, np.uint64(_DRAWS_PER_CELL), out=eps)
    np.add(eps, offsets, out=eps)
    eps = unit_normals(seed, eps, scratch)
    eps_tox, eps_area, eps_vt = eps

    for retry in range(_MAX_RETRIES + 1):
        denom = 1.0 + variation.sigma_area * eps_area
        r_t = params.access_resistance * (1.0 + variation.vt_sensitivity * variation.sigma_vt * eps_vt)
        bad = (denom <= 0.0) | (r_t <= 0.0)
        if not bad.any():
            break
        if retry == _MAX_RETRIES:
            raise ConfigError("variation draws kept producing non-positive resistances")
        # Rehash only the offending cells at a distant index range.
        draws = idx[bad] * np.uint64(_DRAWS_PER_CELL) + offsets.reshape(-1, 1)
        eps[:, bad] = unit_normals(seed, draws + np.uint64(_RETRY_SHIFTS[retry]))

    factor = np.exp(variation.tox_sensitivity * variation.sigma_tox * eps_tox) / denom
    return factor, r_t


def sensed_levels(params, factor, r_t):
    """Series resistances of the data cells and the reference currents.

    factor and r_t are cell_factors of the SENSED_SLOTS cells, one slot per
    row along the first axis.  Returns (r_a, r_b, i_ref_read, i_ref_or,
    i_ref_and): r_a and r_b are each data cell's access plus junction
    resistance, indexed by the stored bit (0 anti-parallel, 1 parallel).
    """
    v = params.read_voltage
    r_p, r_ap, r_ref = params.r_p, params.r_ap, params.r_ref
    r_a = (r_t[0] + r_ap * factor[0], r_t[0] + r_p * factor[0])
    r_b = (r_t[1] + r_ap * factor[1], r_t[1] + r_p * factor[1])
    # Left stack supplies the read and OR references, right stack AND.
    i_ref_read = v / (r_t[2] + r_ref * factor[2])
    i_ref_or = i_ref_read + v / (r_t[3] + r_ap * factor[3])
    i_ref_and = v / (r_t[4] + r_ref * factor[4]) + v / (r_t[5] + r_p * factor[5])
    return r_a, r_b, i_ref_read, i_ref_or, i_ref_and


def column_decisions(params, levels):
    """Comparator decisions of sensed columns from their sensed_levels.

    Returns (decisions, i_sl): one boolean row per IDEAL_DECISIONS entry,
    stacked along a new first axis, and the source-line currents of the
    states (a, b) = 00, 01, 10, 11.
    """
    v = params.read_voltage
    r_a, r_b, i_ref_read, i_ref_or, i_ref_and = levels
    i_a = [v / r for r in r_a]
    i_b = [v / r for r in r_b]
    i_sl = [i_a[a] + i_b[b] for a in (0, 1) for b in (0, 1)]
    rows = [i_a[0] > i_ref_read, i_a[1] > i_ref_read]
    rows += [i > i_ref_or for i in i_sl] + [i > i_ref_and for i in i_sl]
    return np.stack(rows), i_sl


def _disturb_per_cell(v, r_sl, r_self, r_other):
    """Per-cell current of a two-cell access with a shared series resistance.

    Current divider on the parallel pair: strictly below v/(r_sl + r_self),
    the matching single-cell read current, whenever r_sl > 0.
    """
    return v * r_other / (r_sl * (r_self + r_other) + r_self * r_other)


def _sample_block(params, variation, seed, first, terms, buffers):
    """Evaluate the samples first .. first + terms.shape[1] - 1.

    Writes their margin-low, margin-high, CiM-cell and read-cell current
    terms into the four rows of terms and returns the block's (read
    failures, CiM failures, all-below-read) counts.  buffers come from
    _draw_buffers.
    """
    v = params.read_voltage
    r_sl = params.sl_resistance
    m = terms.shape[1]
    # Row k holds sensed slot k of every sample, so each slot is one
    # contiguous row.
    cells = np.arange(first, first + m, dtype=np.uint64) * np.uint64(CELLS_PER_SAMPLE)
    cells = cells + np.array(SENSED_SLOTS, dtype=np.uint64)[:, None]
    factor, r_t = cell_factors(params, variation, seed, cells, buffers=buffers)
    levels = sensed_levels(params, factor, r_t)
    decisions, (_, i_app, i_pap, _) = column_decisions(params, levels)
    # Data cells: both junction states share the cell's draws.
    (tot_a_ap, tot_a_p), (tot_b_ap, tot_b_p), _, i_ref_or, i_ref_and = levels

    # A mode fails where any of its decisions differs from the noise-free one.
    wrong = decisions != np.array(IDEAL_DECISIONS, dtype=bool)[:, None]
    read_fails = int(np.count_nonzero(wrong[:2].any(axis=0)))
    cim_fails = int(np.count_nonzero(wrong[2:].any(axis=0)))

    margin_low, margin_high, cim_cell, read_cell = terms
    mid = 0.5 * (i_pap + i_app)
    np.subtract(mid, i_ref_or, out=margin_low)
    np.subtract(i_ref_and, mid, out=margin_high)

    # Disturb proxy: shared series resistance enters here only.
    read_a_p = v / (r_sl + tot_a_p)
    read_a_ap = v / (r_sl + tot_a_ap)
    read_b_p = v / (r_sl + tot_b_p)
    read_b_ap = v / (r_sl + tot_b_ap)
    np.multiply(0.25, read_a_p + read_a_ap + read_b_p + read_b_ap, out=read_cell)

    combos = (
        (tot_a_p, tot_b_p, read_a_p, read_b_p),
        (tot_a_p, tot_b_ap, read_a_p, read_b_ap),
        (tot_a_ap, tot_b_p, read_a_ap, read_b_p),
        (tot_a_ap, tot_b_ap, read_a_ap, read_b_ap),
    )
    cim_cell.fill(0.0)
    all_below = np.ones(m, dtype=bool)
    for tot_a, tot_b, rd_a, rd_b in combos:
        cur_a = _disturb_per_cell(v, r_sl, tot_a, tot_b)
        cur_b = _disturb_per_cell(v, r_sl, tot_b, tot_a)
        cim_cell += cur_a + cur_b
        all_below &= (cur_a < rd_a) & (cur_b < rd_b)
    cim_cell /= 8.0
    return read_fails, cim_fails, int(np.count_nonzero(all_below))


def monte_carlo_failures(
    params: DeviceParams,
    variation: VariationSpec,
    n: int,
    seed: int,
    chunk: int = 1 << 17,
) -> FailureReport:
    """Estimate read and CiM decision-failure rates over n samples.

    Each sample draws two data cells plus the four reference-stack cells
    sensing enables (references are real cells and vary too).  A read fails
    if either stored state lands on the wrong side of the sensed read
    reference; a CiM access fails if any of the four state combinations
    thresholds wrong against the sensed OR/AND references.  Counts are
    exact integers, so chunked accumulation is order-independent.  Float
    means are summed once per chunk of samples, so chunk fixes their last
    bits; chunk must be positive.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if chunk < 1:
        raise ValueError("chunk must be positive")

    read_fails = 0
    cim_fails = 0
    below = 0
    sums = [0.0, 0.0, 0.0, 0.0]  # margin low, margin high, CiM cell, read cell
    # One set of draw buffers for every block: fresh ones per block would
    # be mapped and faulted in again, block after block.  Two, not three:
    # with a separate index buffer held as well, the benchmark's Monte
    # Carlo passes ran about 11% slower than with fresh arrays.
    buffers = _draw_buffers(_DRAWS_PER_CELL * len(SENSED_SLOTS) * _BLOCK)

    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        terms = np.empty((4, m))
        for lo in range(0, m, _BLOCK):
            hi = min(lo + _BLOCK, m)
            r, c, b = _sample_block(params, variation, seed, start + lo, terms[:, lo:hi],
                                    buffers)
            read_fails += r
            cim_fails += c
            below += b
        for i, row in enumerate(terms):
            sums[i] += float(row.sum())

    sum_margin_low, sum_margin_high, sum_cim_cell, sum_read_cell = sums
    return FailureReport(
        samples=n,
        read_decision_rate=read_fails / n,
        cim_decision_rate=cim_fails / n,
        mean_cim_per_cell_current=sum_cim_cell / n,
        mean_read_cell_current=sum_read_cell / n,
        margin_low=sum_margin_low / n,
        margin_high=sum_margin_high / n,
        cim_cell_below_read_rate=below / n,
    )


def failure_report_csv(report: FailureReport) -> str:
    """Serialize the headline failure statistics (margins in microampere)."""
    return (
        "samples,read_decision_rate,cim_decision_rate,margin_low_uA,margin_high_uA\n"
        f"{report.samples},{report.read_decision_rate!r},{report.cim_decision_rate!r},"
        f"{report.margin_low * 1e6!r},{report.margin_high * 1e6!r}\n"
    )


# Key-value config file support.  Keys follow the datasheet-style naming
# used by the CLI; unknown keys are rejected so typos fail loudly.  Each
# table maps a key to its dataclass field and the divisor that turns the
# file's unit into the field's (percent keys divide by 100).
_PARAM_KEYS = {
    "ra_product_ohm_um2": ("ra_product", 1),
    "tmr_pct": ("tmr", 100),
    "mtj_area_um2": ("mtj_area", 1),
    "access_resistance_ohm": ("access_resistance", 1),
    "read_voltage_v": ("read_voltage", 1),
    "ref_resistance_ohm": ("ref_resistance", 1),
    "sl_resistance_ohm": ("sl_resistance", 1),
}
_VARIATION_KEYS = {
    "tox_sigma_pct": ("sigma_tox", 100),
    "area_sigma_pct": ("sigma_area", 100),
    "vt_sigma_pct": ("sigma_vt", 100),
    "tox_sensitivity": ("tox_sensitivity", 1),
    "vt_sensitivity": ("vt_sensitivity", 1),
}
# mtj_side_nm is the one derived key: it sets mtj_area.
_DEVICE_KEYS = {*_PARAM_KEYS, *_VARIATION_KEYS, "mtj_side_nm"}


def _fields(table, values: dict[str, float]) -> dict[str, float]:
    return {field: values[key] / div for key, (field, div) in table.items() if key in values}


def load_device_config(path) -> tuple[DeviceParams, VariationSpec]:
    """Parse a key=value device config file.

    Unspecified keys keep their defaults.  mtj_side_nm is the square-junction
    edge length and is mutually exclusive with mtj_area_um2.  Every value
    must be a finite number, and the nominal current levels must pass
    ``current_levels``; ConfigError otherwise, naming the file.  A file
    that cannot be read or decoded as UTF-8 is a ConfigError too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _DEVICE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            number = float(val.strip())
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ConfigError(f"{path}:{lineno}: bad number for {key!r}")
        values[key] = number

    params = _fields(_PARAM_KEYS, values)
    side_nm = values.get("mtj_side_nm")
    if side_nm is not None:
        if "mtj_area" in params:
            raise ConfigError(f"{path}: give mtj_side_nm or mtj_area_um2, not both")
        if side_nm <= 0:
            raise ConfigError(f"{path}: mtj_side_nm must be positive")
        side_um = side_nm * 1e-3
        params["mtj_area"] = side_um * side_um
    try:
        device = DeviceParams(**params)
        variation = VariationSpec(**_fields(_VARIATION_KEYS, values))
        current_levels(device)  # the nominal levels must decode
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return device, variation
