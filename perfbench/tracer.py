"""Span tracer for the traced benchmark run.

The tracer wraps each layer's public callables at the name its caller looks
up (a class attribute for methods, a module attribute for functions), so
no file of the simulator changes.  Every wrapped call records a span (name,
start, end, parent span) in compact in-memory arrays, and on return adds
its duration and self time (duration minus the time its child spans cover)
to per-name totals.  A span name is ``<layer>.<callable>``; callables that
report a status (decodes, CiM accesses) also count under
``<name>.<status>``.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

from sttcim import bench, cimarray, cpu, device, ecc, xform

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        # name -> [calls, total ns, self ns, counted units]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self._restore: list = []  # callables that undo one wrap each

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, status=None, before=None):
        """Replace owner.attr by a span-recording wrapper.

        count(args, result) gives units of work to add under name;
        status(args, result, state) gives a sub-status to count the call
        under as well, with state = before(args) taken at entry.  A call
        that raises counts under the sub-status "raised".
        """
        fn = getattr(owner, attr)
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, stats = self._stack, self.stats
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            sub = None
            t0 = _clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                sub = "raised"
                raise
            finally:
                t1 = _clock()
                stack.pop()
                span_end[sid] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                keys = [name]
                if sub is None and status is not None:
                    sub = status(args, result, state)
                if sub is not None:
                    keys.append(f"{name}.{sub}")
                for key in keys:
                    s = stats[key]
                    s[0] += 1
                    s[1] += dur
                    s[2] += dur - frame[1]
                if sub != "raised" and count is not None:
                    stats[name][3] += count(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, fn))

    def install(self) -> None:
        for code in (ecc.Ec3Ed4, ecc.Secded):
            tag = code.__name__.lower()
            self.wrap(code, "decode", f"ecc.{tag}.decode",
                      status=lambda args, res, st: _DECODE_STATUS[res.status])
            self.wrap(code, "encode", f"ecc.{tag}.encode")

        arr = cimarray.CimArray
        self.wrap(arr, "read_word", "cimarray.read_word")
        self.wrap(arr, "write_word", "cimarray.write_word")
        self.wrap(arr, "write_spare", "cimarray.write_spare")
        self.wrap(arr, "write_replicated", "cimarray.write_replicated")
        self.wrap(arr, "cim_not", "cimarray.cim_not")
        self.wrap(arr, "vcim", "cimarray.vcim")
        self.wrap(arr, "cim_word", "cimarray.cim_word",
                  count=lambda args, res: res[1],
                  before=lambda args: (args[0].counters.xor_fixups, args[0].counters.fallbacks),
                  status=_cim_word_status)
        for cls, tag in ((cimarray.IdealSampler, "ideal"),
                         (cimarray.InjectedColumnNoise, "injected"),
                         (cimarray.DeviceColumnSampler, "device")):
            self.wrap(cls, "sense_read", f"cimarray.sense_read.{tag}")
            self.wrap(cls, "sense_pair", f"cimarray.sense_pair.{tag}")

        draws = lambda args, res: int(np.size(args[1]))  # noqa: E731
        self.wrap(cimarray, "uniforms", "streams.uniforms", count=draws)
        self.wrap(device, "unit_normals", "streams.unit_normals", count=draws)
        cells = lambda args, res: int(np.size(args[3]))  # noqa: E731
        self.wrap(cimarray, "cell_factors", "device.cell_factors", count=cells)
        self.wrap(device, "cell_factors", "device.cell_factors", count=cells)
        self.wrap(device, "monte_carlo_failures", "device.monte_carlo_failures",
                  count=lambda args, res: res.samples)

        self.wrap(cpu.Cpu, "run", "cpu.run", count=lambda args, res: res.instructions)
        self.wrap(bench, "parse_program", "cpu.parse_program")

        planners = {}
        for plan in ("plan_type1", "plan_type2", "plan_type3"):
            original = getattr(bench, plan)
            self.wrap(bench, plan, f"mapper.{plan}")
            planners[original] = getattr(bench, plan)
        # transform_pair reaches the planners through this table.
        for kernel, fn in list(bench._PLANNERS.items()):
            if fn in planners:
                bench._PLANNERS[kernel] = planners[fn]
                self._restore.append(lambda k=kernel, f=fn: bench._PLANNERS.__setitem__(k, f))

        self.wrap(bench, "account", "energy.account")
        self.wrap(bench, "transform", "xform.transform",
                  count=lambda args, res: len(res.rewrites))
        self.wrap(xform, "transform", "xform.transform",
                  count=lambda args, res: len(res.rewrites))
        self.wrap(xform, "verify_equivalence", "xform.verify_equivalence")
        self.wrap(bench, "run_kernel", "bench.run_kernel")
        self.wrap(bench, "transform_pair", "bench.transform_pair")

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results -------------------------------------------------------------

    def layer_self_ns(self, layer: str) -> int:
        """Self time of every span of one layer (sub-status keys excluded)."""
        return sum(s[2] for key, s in self.stats.items()
                   if key.split(".", 1)[0] == layer and key in self._ids)

    def save(self, path) -> int:
        """Write every recorded span; returns the span count."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            parent=np.frombuffer(self.span_parent, np.int32),
            start_ns=np.frombuffer(self.span_start, np.int64),
            end_ns=np.frombuffer(self.span_end, np.int64))
        return len(self.span_name)


_DECODE_STATUS = {
    ecc.DecodeStatus.CLEAN: "clean",
    ecc.DecodeStatus.CORRECTED: "corrected",
    ecc.DecodeStatus.DETECTED_UNCORRECTABLE: "detected",
}


def _cim_word_status(args, result, state):
    counters = args[0].counters
    fixups, fallbacks = state
    if counters.fallbacks != fallbacks:
        return "fallback"
    if counters.xor_fixups != fixups:
        return "xor_fixed"
    return "clean"
