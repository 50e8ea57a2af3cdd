"""Energy model: frozen event totals, component sums, vector lane scaling,
and category accounting."""

import pytest

from sttcim.cimarray import AccessCounters
from sttcim.energy import (
    COMPONENTS,
    EVENT_COMPONENTS,
    VCIM_LANE_INCREMENT,
    account,
    event_energy,
)

REL = 1e-12


def test_event_totals_frozen():
    assert event_energy("baseline_read") == pytest.approx(1.0, rel=REL)
    assert event_energy("cim_read") == pytest.approx(1.044, rel=REL)
    assert event_energy("cim_op") == pytest.approx(1.316, rel=REL)
    assert event_energy("write") == pytest.approx(3.0, rel=REL)
    assert event_energy("special_write") == pytest.approx(4.5, rel=REL)
    assert sum(VCIM_LANE_INCREMENT.values()) == pytest.approx(0.15, rel=REL)


def test_component_coverage():
    for event, comps in EVENT_COMPONENTS.items():
        assert tuple(comps) == COMPONENTS, event
    assert tuple(VCIM_LANE_INCREMENT) == COMPONENTS


def test_relative_event_ordering():
    assert event_energy("baseline_read") < event_energy("cim_read")
    assert event_energy("cim_read") < event_energy("cim_op")
    assert event_energy("write") < event_energy("special_write")
    # One vector op on 8 lanes stays far below 8 scalar ops.
    assert _vcim_energy(8) < 8 * event_energy("cim_op") / 4


def _vcim_energy(lanes):
    """CiM energy of one vector access with the given lane count."""
    return account(AccessCounters(vcim_ops=1, vcim_lanes=lanes)).cim


def test_vcim_energy_values():
    assert _vcim_energy(1) == pytest.approx(1.316, rel=REL)
    assert _vcim_energy(4) == pytest.approx(1.766, rel=REL)
    assert _vcim_energy(8) == pytest.approx(2.366, rel=REL)


def test_account_categories():
    c = AccessCounters(
        reads=10, writes=2, special_writes=1, cim_ops=5,
        vcim_ops=2, vcim_lanes=12, nm_reads=4,
    )
    br = account(c)
    assert br.read == pytest.approx(10 * 1.0, rel=REL)
    assert br.write == pytest.approx(2 * 3.0 + 4.5, rel=REL)
    assert br.cim == pytest.approx(5 * 1.316 + 2 * 1.316 + 10 * 0.15, rel=REL)
    assert br.nm_corrections == pytest.approx(4 * 1.044, rel=REL)
    assert br.total == pytest.approx(br.read + br.write + br.cim + br.nm_corrections, rel=REL)
    d = br.as_dict()
    assert set(d) == {"Read", "Write", "CiM", "NMCorrections", "Total"}


def test_account_empty():
    br = account(AccessCounters())
    assert br.total == 0.0
    assert br.as_dict() == dict.fromkeys(("Read", "Write", "CiM", "NMCorrections", "Total"), 0.0)
