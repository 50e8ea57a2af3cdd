"""Per-layer metrics from a tracer's totals.

Conventions: ``*_calls``, ``steps``, ``draws``, ``cells`` and ``rewrites``
are counts per pass; ``*_s`` is a layer's self time per pass;
``*_us``/``*_ms``/``*_ns`` are per call (or per step, draw or sample) and
are self time unless noted: ``sense_pair_us.*``, ``transform_ms`` and
``parse_ms`` include their callees.  A mean over zero calls reads 0.
"""

from __future__ import annotations

from sttcim.device import CELLS_PER_SAMPLE  # one Monte Carlo sample or one sensed column
from workloads import OUTCOMES


def layer_metrics(tracer, workload, traced) -> dict[str, tuple[float, str]]:
    passes = len(traced.pass_s)
    stats = tracer.stats

    def calls(name):
        return stats[name][0] if name in stats else 0

    def units(name):
        return stats[name][3] if name in stats else 0

    def mean(name, field, scale):
        c = calls(name)
        return stats[name][field] / c / scale if c else 0.0

    def self_s(layer):
        return tracer.layer_self_ns(layer) / passes / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    steps = units("cpu.run")
    m["cpu.steps"] = (steps / passes, "count")
    m["cpu.step_ns"] = (ratio(stats["cpu.run"][2], steps), "ns")
    m["cpu.self_s"] = (self_s("cpu"), "s")
    m["cpu.parse_ms"] = (mean("cpu.parse_program", 1, 1e6), "ms")

    for short, name in (("read", "read_word"), ("write", "write_word"), ("cim_word", "cim_word"),
                        ("cim_not", "cim_not"), ("vcim", "vcim")):
        m[f"cimarray.{short}_calls"] = (calls(f"cimarray.{name}") / passes, "count")
    for short, name in (("read", "read_word"), ("cim_word", "cim_word"), ("vcim", "vcim")):
        m[f"cimarray.{short}_us"] = (mean(f"cimarray.{name}", 2, 1e3), "us")
    for tag in ("ideal", "injected", "device"):
        m[f"cimarray.sense_pair_us.{tag}"] = (mean(f"cimarray.sense_pair.{tag}", 1, 1e3), "us")
    m["cimarray.self_s"] = (self_s("cimarray"), "s")
    done = calls("cimarray.cim_word") - calls("cimarray.cim_word.raised")
    m["cimarray.accesses_per_op"] = (ratio(units("cimarray.cim_word"), done), "accesses/op")
    tally = workload.outcome_tally(traced.records)
    if tally is None:  # the tracer's view of two-row accesses; ideal runs cannot go silent
        tally = {o: calls(f"cimarray.cim_word.{o}") for o in OUTCOMES}
        tally["hard_error"] = calls("cimarray.cim_word.raised")
    total = sum(tally.values())
    for outcome in OUTCOMES:
        m[f"cimarray.outcome.{outcome}"] = (ratio(tally[outcome], total), "ratio")

    for code in ("secded", "ec3ed4"):
        for status in ("clean", "corrected", "detected"):
            name = f"ecc.{code}.decode.{status}"
            m[f"ecc.{code}.decode_us.{status}"] = (mean(name, 2, 1e3), "us")
            m[f"ecc.{code}.decode_calls.{status}"] = (calls(name) / passes, "count")
    encodes = ("ecc.secded.encode", "ecc.ec3ed4.encode")
    m["ecc.encode_us"] = (ratio(sum(stats[e][2] for e in encodes if e in stats),
                                sum(calls(e) for e in encodes)) / 1e3, "us")
    m["ecc.self_s"] = (self_s("ecc"), "s")

    draws = units("streams.uniforms") + units("streams.unit_normals")
    m["streams.draws"] = (draws / passes, "count")
    m["streams.ns_per_draw"] = (ratio(tracer.layer_self_ns("streams"), draws), "ns")
    m["streams.self_s"] = (self_s("streams"), "s")

    cells = units("device.cell_factors")
    m["device.cells"] = (cells / passes, "count")
    m["device.ns_per_sample"] = (
        ratio(tracer.layer_self_ns("device"), cells / CELLS_PER_SAMPLE), "ns")
    m["device.self_s"] = (self_s("device"), "s")

    m["xform.transform_calls"] = (calls("xform.transform") / passes, "count")
    m["xform.transform_ms"] = (mean("xform.transform", 1, 1e6), "ms")
    m["xform.rewrites"] = (units("xform.transform") / passes, "count")
    m["xform.verify_ms"] = (mean("xform.verify_equivalence", 2, 1e6), "ms")
    m["xform.self_s"] = (self_s("xform"), "s")

    for layer in ("mapper", "energy", "bench"):
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    return m
