"""Bit-cell electrics: frozen current levels, sensing truth tables,
variation statistics and the Monte Carlo failure machinery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri

from sttcim import device
from sttcim.device import (
    ConfigError,
    DeviceParams,
    VariationSpec,
    cell_current,
    cell_factors,
    current_levels,
    failure_report_csv,
    load_device_config,
    monte_carlo_failures,
    sense_bit,
)
from sttcim.streams import seed_state, uniforms, unit_normals

REL = 1e-12


def test_nominal_resistances():
    p = DeviceParams()
    assert p.r_p == pytest.approx(11250.0, rel=REL)
    assert p.r_ap == pytest.approx(25200.0, rel=REL)
    assert p.r_ref == pytest.approx(18225.0, rel=REL)


def test_frozen_current_levels():
    lv = current_levels(DeviceParams())
    assert lv.i_p == pytest.approx(7.017543859649123e-06, rel=REL)
    assert lv.i_ap == pytest.approx(3.546099290780142e-06, rel=REL)
    assert lv.i_pp == pytest.approx(1.4035087719298246e-05, rel=REL)
    assert lv.i_ap_p == pytest.approx(1.0563643150429265e-05, rel=REL)
    assert lv.i_apap == pytest.approx(7.092198581560284e-06, rel=REL)
    assert lv.i_ref_read == pytest.approx(4.711425206124853e-06, rel=REL)
    assert lv.i_ref_or == pytest.approx(8.257524496904995e-06, rel=REL)
    assert lv.i_ref_and == pytest.approx(1.1728969065773976e-05, rel=REL)


def test_level_ordering():
    lv = current_levels(DeviceParams())
    assert lv.i_apap < lv.i_ref_or < lv.i_ap_p < lv.i_ref_and < lv.i_pp
    assert lv.i_ap < lv.i_ref_read < lv.i_p


def test_logic_truth_tables_from_levels():
    lv = current_levels(DeviceParams())
    cases = {
        (1, 1): lv.i_pp,
        (1, 0): lv.i_ap_p,
        (0, 1): lv.i_ap_p,
        (0, 0): lv.i_apap,
    }
    for (a, b), i_sl in cases.items():
        o_or = sense_bit(i_sl, lv.i_ref_or)
        o_and = sense_bit(i_sl, lv.i_ref_and)
        o_nor = 1 - o_or
        o_nand = 1 - o_and
        o_xor = 1 if (o_and == 0 and o_nor == 0) else 0
        assert o_or == (a | b)
        assert o_and == (a & b)
        assert o_nand == 1 - (a & b)
        assert o_nor == 1 - (a | b)
        assert o_xor == (a ^ b)


def test_read_sensing():
    lv = current_levels(DeviceParams())
    assert sense_bit(lv.i_p, lv.i_ref_read) == 1
    assert sense_bit(lv.i_ap, lv.i_ref_read) == 0
    assert sense_bit(lv.i_ref_read, lv.i_ref_read) == 0


def test_cell_current_basics():
    assert cell_current(11250.0, 3000.0, 0.1) == pytest.approx(0.1 / 14250.0, rel=REL)
    with pytest.raises(ConfigError):
        cell_current(-1.0, 3000.0, 0.1)


def test_bad_reference_rejected():
    with pytest.raises(ConfigError):
        current_levels(DeviceParams(ref_resistance=50000.0))
    with pytest.raises(ConfigError):
        current_levels(DeviceParams(ref_resistance=9000.0))


def test_param_validation():
    with pytest.raises(ConfigError):
        DeviceParams(ra_product=0.0)
    with pytest.raises(ConfigError):
        DeviceParams(tmr=-0.5)
    with pytest.raises(ConfigError):
        VariationSpec(sigma_tox=-0.01)


def test_stream_determinism_and_order_independence():
    idx = np.arange(1000, dtype=np.uint64)
    a = uniforms(7, idx)
    b = uniforms(7, idx)
    assert np.array_equal(a, b)
    # Permuted index order returns the same per-index values.
    perm = np.random.default_rng(0).permutation(1000).astype(np.uint64)
    c = uniforms(7, perm)
    assert np.array_equal(c, a[perm])
    assert not np.array_equal(uniforms(8, idx), a)


def test_uniforms_open_interval():
    u = uniforms(123, np.arange(200000, dtype=np.uint64))
    assert float(u.min()) > 0.0
    assert float(u.max()) < 1.0


def test_unit_normals_moments():
    z = unit_normals(2024, np.arange(400000, dtype=np.uint64))
    assert abs(float(z.mean())) < 5e-3
    assert abs(float(z.std()) - 1.0) < 5e-3


def test_sample_cell_statistics():
    p = DeviceParams()
    var = VariationSpec()
    n = 200000
    factor, r_t = cell_factors(p, var, 42, np.arange(n, dtype=np.uint64))
    r_p_eff = p.r_p * factor
    # Lognormal-over-(1+area): median of log should sit near log(r_p).
    assert abs(float(np.median(np.log(r_p_eff))) - math.log(p.r_p)) < 5e-3
    assert abs(float(r_t.mean()) - p.access_resistance) / p.access_resistance < 2e-3
    assert abs(float(r_t.std()) - p.access_resistance * var.sigma_vt) < 5.0


def test_sample_cell_matches_vector_path():
    p = DeviceParams()
    var = VariationSpec()
    batch_factor, batch_r_t = cell_factors(p, var, 9, np.arange(12340, 12350, dtype=np.uint64))
    factor, r_t = cell_factors(p, var, 9, np.array([12345], dtype=np.uint64))
    assert factor.shape == r_t.shape == (1,)
    assert factor[0] == batch_factor[5]
    assert r_t[0] == batch_r_t[5]


@pytest.mark.parametrize("scale", [1.0, 8.0])  # 8x rehashes about 1% of the cells
def test_cell_factors_independent_of_index_order(scale):
    p = DeviceParams()
    var = VariationSpec().scaled(scale)
    idx = np.arange(5000, 25000, dtype=np.uint64)
    factor, r_t = cell_factors(p, var, 11, idx)
    perm = np.random.default_rng(1).permutation(idx.size)
    pfactor, pr_t = cell_factors(p, var, 11, idx[perm].reshape(50, 400))
    assert np.array_equal(pfactor.ravel(), factor[perm])
    assert np.array_equal(pr_t.ravel(), r_t[perm])


def test_retry_shifts_are_distinct_and_far_from_base_draws():
    shifts = device._RETRY_SHIFTS
    assert len(shifts) == device._MAX_RETRIES == 8
    assert len(set(shifts)) == 8 and all(0 < s < 2**64 for s in shifts)
    # The first three are the shifts of the original 2^62 stride, so a cell
    # that settles within three retries keeps its draws.
    assert shifts[:3] == (1 << 62, 2 << 62, 3 << 62)
    # Far above the base draws and from each other: a sensed column's draws
    # stay below 2^45 up to access 2^20.
    ordered = sorted((0, *shifts, 2**64))
    assert min(b - a for a, b in zip(ordered, ordered[1:])) >= 2**60


def test_retries_are_independent_draws():
    # At 30x the default sigmas a cell's draw is bad with p about 0.44.
    # When retries cycled through 4 distinct draws, a 200-cell call raised
    # with p about 1 - (1 - 0.44**4)**200, essentially always; with 9
    # distinct draws it raises with p about 0.11, and not at this seed.
    var = VariationSpec().scaled(30.0)
    factor, r_t = cell_factors(DeviceParams(), var, 0, np.arange(200, dtype=np.uint64))
    assert np.all(r_t > 0) and np.all(np.isfinite(factor)) and np.all(factor > 0)


# Out-of-place stream formulas, kept here as the reference for the in-place
# implementation in sttcim.streams.
_REF_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _ref_mix64(x):
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _ref_hash_words(seed, indices):
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = _ref_mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _REF_GOLDEN)[()]
        return _ref_mix64(state + (idx + np.uint64(1)) * _REF_GOLDEN)


def _ref_uniforms(seed, indices):
    w = _ref_hash_words(seed, indices)
    return (w >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


def _ref_unit_normals(seed, indices):
    return ndtri(_ref_uniforms(seed, indices))


_U64_MAX = 2**64 - 1
_stream_shapes = st.one_of(
    st.tuples(st.integers(0, 40)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.lists(st.integers(1, 4), max_size=2).map(lambda dims: (*dims, 3)),
)
_stream_indices = _stream_shapes.flatmap(lambda shape: arrays(
    np.uint64, shape,
    elements=st.one_of(st.integers(0, _U64_MAX), st.integers(_U64_MAX - 64, _U64_MAX))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(-(2**63), _U64_MAX)),
       indices=_stream_indices)
def test_streams_match_out_of_place_reference(seed, indices):
    before = indices.copy()
    for fn, ref in ((uniforms, _ref_uniforms), (unit_normals, _ref_unit_normals)):
        got, want = fn(seed, indices), ref(seed, indices)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if indices.size:  # one scalar index gives the same value as a numpy scalar
            one = fn(seed, int(indices.flat[0]))
            assert type(one) is type(want.flat[0]) and one == want.flat[0]
    assert np.array_equal(indices, before)  # the in-place pipeline works on its own copy


@pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 - 1, 2**64 + 5])
def test_seed_state_matches_numpy_formula(seed):
    with np.errstate(over="ignore"):
        want = _ref_mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _REF_GOLDEN)[()]
    got = seed_state(seed)
    assert type(got) is np.uint64 and got == want


def test_zero_variation_never_fails():
    rep = monte_carlo_failures(DeviceParams(), VariationSpec.zero(), 10000, seed=1)
    assert rep.read_decision_rate == 0.0
    assert rep.cim_decision_rate == 0.0
    assert rep.cim_cell_below_read_rate == 1.0


def test_column_decisions_at_zero_variation_are_the_noise_free_table():
    p = DeviceParams()
    cells = (np.arange(40, dtype=np.uint64) * np.uint64(device.CELLS_PER_SAMPLE)
             + np.array(device.SENSED_SLOTS, dtype=np.uint64)[:, None])
    factor, r_t = cell_factors(p, VariationSpec.zero(), 3, cells)
    decisions, _ = device.column_decisions(p, device.sensed_levels(p, factor, r_t))
    assert decisions.shape == (10, 40)
    assert decisions.T.tolist() == [[bool(d) for d in device.IDEAL_DECISIONS]] * 40


def test_monte_carlo_draws_through_unit_normals(monkeypatch):
    # Every normal the Monte Carlo draws goes through device.unit_normals:
    # three per sensed cell, six sensed cells per sample (no retries at 1x).
    draws = []
    real = device.unit_normals

    def counting(seed, indices, *rest):
        draws.append(np.size(indices))
        return real(seed, indices, *rest)

    monkeypatch.setattr(device, "unit_normals", counting)
    n = 5000
    monte_carlo_failures(DeviceParams(), VariationSpec(), n, seed=4)
    assert sum(draws) == 3 * len(device.SENSED_SLOTS) * n


def test_monte_carlo_chunk_invariance():
    p = DeviceParams()
    var = VariationSpec()
    a = monte_carlo_failures(p, var, 30000, seed=3, chunk=30000)
    b = monte_carlo_failures(p, var, 30000, seed=3, chunk=1111)
    # Counts are exact; float accumulators only match to rounding.
    assert a.read_decision_rate == b.read_decision_rate
    assert a.cim_decision_rate == b.cim_decision_rate
    assert a.cim_cell_below_read_rate == b.cim_cell_below_read_rate
    assert a.margin_low == pytest.approx(b.margin_low, rel=1e-12)
    assert a.margin_high == pytest.approx(b.margin_high, rel=1e-12)
    assert a.mean_cim_per_cell_current == pytest.approx(b.mean_cim_per_cell_current, rel=1e-12)


def test_monte_carlo_rejects_bad_chunk():
    for chunk in (0, -5):
        with pytest.raises(ValueError, match="chunk must be positive"):
            monte_carlo_failures(DeviceParams(), VariationSpec(), 100, seed=1, chunk=chunk)


# repr of every FailureReport field, recorded with the unblocked per-chunk
# evaluation: n = 2^17 + 777, seed 2024, default chunk and chunk=1111.
_FIELD_PINS = {
    0.5: (
        ("131849", "0.0", "8.34287707908289e-05", "4.529994715194087e-06",
         "4.857806139690612e-06", "2.3054492295305066e-06", "1.165499588982453e-06", "1.0"),
        ("131849", "0.0", "8.34287707908289e-05", "4.529994715194084e-06",
         "4.857806139690614e-06", "2.3054492295305058e-06", "1.1654995889824535e-06", "1.0"),
    ),
    1.0: (
        ("131849", "0.00015168867416514347", "0.04131999484258508", "4.5296531345095094e-06",
         "4.857368895445593e-06", "2.304424743977706e-06", "1.1655972973830113e-06", "1.0"),
        ("131849", "0.00015168867416514347", "0.04131999484258508", "4.529653134509508e-06",
         "4.857368895445594e-06", "2.3044247439777056e-06", "1.165597297383011e-06", "1.0"),
    ),
    2.0: (
        ("131849", "0.0430340768606512", "0.3148905186994213", "4.528669983907457e-06",
         "4.856060071056418e-06", "2.3013224493071743e-06", "1.1655661727924948e-06", "1.0"),
        ("131849", "0.0430340768606512", "0.3148905186994213", "4.528669983907457e-06",
         "4.856060071056416e-06", "2.3013224493071743e-06", "1.165566172792495e-06", "1.0"),
    ),
    8.0: (  # rehashes about 1% of the cells
        ("131849", "0.6020447633277461", "0.9377014615203756", "4.533888043685844e-06",
         "4.858463880295149e-06", "2.2686201610109152e-06", "1.1639836333323565e-06", "1.0"),
        ("131849", "0.6020447633277461", "0.9377014615203756", "4.533888043685843e-06",
         "4.85846388029515e-06", "2.2686201610109144e-06", "1.163983633332357e-06", "1.0"),
    ),
}


@pytest.mark.parametrize("scale", sorted(_FIELD_PINS))
def test_monte_carlo_exact_fields_pinned(scale):
    n = (1 << 17) + 777
    var = VariationSpec().scaled(scale)
    for kwargs, pinned in zip(({}, {"chunk": 1111}), _FIELD_PINS[scale]):
        rep = monte_carlo_failures(DeviceParams(), var, n, seed=2024, **kwargs)
        got = tuple(repr(getattr(rep, f.name)) for f in dataclasses.fields(rep))
        assert got == pinned, kwargs


def test_failure_rates_grow_with_sigma():
    p = DeviceParams()
    rates = []
    for scale in (0.5, 1.0, 1.5):
        rep = monte_carlo_failures(p, VariationSpec().scaled(scale), 200000, seed=5)
        rates.append(rep.cim_decision_rate)
    assert rates[0] < rates[1] < rates[2]


def test_cim_margins_positive_and_tight():
    rep = monte_carlo_failures(DeviceParams(), VariationSpec(), 50000, seed=6)
    assert rep.margin_low > 0.0
    assert rep.margin_high > 0.0
    lv = current_levels(DeviceParams())
    nominal_low = lv.i_ap_p - lv.i_ref_or
    nominal_high = lv.i_ref_and - lv.i_ap_p
    assert rep.margin_low == pytest.approx(nominal_low, rel=0.05)
    assert rep.margin_high == pytest.approx(nominal_high, rel=0.05)


def test_disturb_proxy_always_below_read():
    rep = monte_carlo_failures(DeviceParams(), VariationSpec(), 100000, seed=7)
    assert rep.cim_cell_below_read_rate == 1.0
    assert rep.mean_cim_per_cell_current < rep.mean_read_cell_current


def test_failure_report_csv_roundtrip():
    rep = monte_carlo_failures(DeviceParams(), VariationSpec(), 20000, seed=8)
    text = failure_report_csv(rep)
    header, row, tail = text.split("\n")
    assert header == "samples,read_decision_rate,cim_decision_rate,margin_low_uA,margin_high_uA"
    assert tail == ""
    fields = row.split(",")
    assert int(fields[0]) == 20000
    assert float(fields[1]) == rep.read_decision_rate
    assert float(fields[3]) == pytest.approx(rep.margin_low * 1e6, rel=REL)


def test_load_device_config(tmp_path):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(
        "# sample device\n"
        "ra_product_ohm_um2 = 18\n"
        "tmr_pct = 124\n"
        "mtj_side_nm = 40\n"
        "access_resistance_ohm = 3000\n"
        "read_voltage_v = 0.1\n"
        "tox_sigma_pct = 2\n"
        "area_sigma_pct = 5\n"
        "vt_sigma_pct = 5\n"
    )
    params, var = load_device_config(cfg)
    assert params == DeviceParams()
    assert var == VariationSpec()


def test_load_device_config_sets_every_direct_key(tmp_path):
    # Distinct non-default values, so a key routed to the wrong field or a
    # wrong unit conversion cannot pass.
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "ra_product_ohm_um2 = 12.5\n"
        "tmr_pct = 150\n"
        "mtj_area_um2 = 0.0025\n"
        "access_resistance_ohm = 2500\n"
        "read_voltage_v = 0.15\n"
        "ref_resistance_ohm = 9000\n"
        "sl_resistance_ohm = 1200\n"
        "tox_sigma_pct = 3\n"
        "area_sigma_pct = 6\n"
        "vt_sigma_pct = 4\n"
        "tox_sensitivity = 1.5\n"
        "vt_sensitivity = 0.75\n"
    )
    params, var = load_device_config(cfg)
    assert params == DeviceParams(
        ra_product=12.5, tmr=1.5, mtj_area=0.0025, access_resistance=2500.0,
        read_voltage=0.15, ref_resistance=9000.0, sl_resistance=1200.0,
    )
    assert var == VariationSpec(
        sigma_tox=0.03, sigma_area=0.06, sigma_vt=0.04,
        tox_sensitivity=1.5, vt_sensitivity=0.75,
    )


def test_load_device_config_rejects_unknown_and_duplicate(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volts = 3\n")
    with pytest.raises(ConfigError):
        load_device_config(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("tmr_pct = 100\ntmr_pct = 120\n")
    with pytest.raises(ConfigError):
        load_device_config(dup)
    both = tmp_path / "both.cfg"
    both.write_text("mtj_side_nm = 40\nmtj_area_um2 = 0.0016\n")
    with pytest.raises(ConfigError):
        load_device_config(both)


def test_load_device_config_read_errors_are_config_errors(tmp_path):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match=f"^cannot read {missing}: No such file"):
        load_device_config(missing)
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"tmr_pct = \xff\n")
    with pytest.raises(ConfigError, match="'utf-8' codec can't decode"):
        load_device_config(binary)
