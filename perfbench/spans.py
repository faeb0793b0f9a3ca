"""Span tracing of ``repro``'s layer boundaries, from outside the program.

:func:`installed` replaces each public function in :data:`BOUNDARIES`
with a wrapper that records one span per call (name, start, end, parent
span, the burst or tick it belongs to, and a work count), and puts every
original back on exit.  Methods are wrapped on the class that defines
them, so calls a subclass makes through ``super()`` are recorded too.

Spans stay in memory until the run ends; :func:`layer_totals` then
reduces them to calls, work counts and self time per boundary, and
:func:`chrome_trace` exports them as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: a span is ``[name, start, end, parent index, op id, count]``
NAME, START, END, PARENT, OP, COUNT = range(6)

#: op id of spans recorded before the first burst or tick
SETUP_OP = -1


@dataclass(frozen=True)
class Boundary:
    """One wrapped function.  ``owner`` is a class in ``module``, or
    ``None`` for a module-level function.  ``count`` names the work
    count the span carries and ``count_from`` where it comes from:
    ``"arg"`` is the length of the first argument, ``"result"`` the
    length of the return value."""

    name: str
    module: str
    owner: str | None
    attr: str
    count: str | None = None
    count_from: str = "result"


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("ovs.pmd.process_batch", "repro.ovs.pmd", "ShardedDatapath",
             "process_batch", "keys", "arg"),
    Boundary("ovs.switch.process_batch", "repro.ovs.switch", "OvsSwitch",
             "process_batch", "keys", "arg"),
    Boundary("ovs.megaflow.lookup_batch", "repro.ovs.megaflow",
             "MegaflowCache", "lookup_batch", "keys"),
    Boundary("ovs.megaflow.insert", "repro.ovs.megaflow", "MegaflowCache",
             "insert"),
    Boundary("ovs.tss.lookup_batch", "repro.ovs.tss", "TupleSpaceSearch",
             "lookup_batch", "keys"),
    Boundary("ovs.tss.remove_if", "repro.ovs.tss", "TupleSpaceSearch",
             "remove_if"),
    Boundary("ovs.upcall.handle", "repro.ovs.upcall", "SlowPath", "handle"),
    # the slow path calls the classifier through its own module's name
    Boundary("ovs.wildcarding.classify", "repro.ovs.upcall", None,
             "classify_with_wildcards"),
    Boundary("ovs.revalidator.sweep", "repro.ovs.revalidator",
             "Revalidator", "sweep"),
    Boundary("vec.switch.process_batch", "repro.vec.engine", "VecSwitch",
             "process_batch", "keys", "arg"),
    Boundary("vec.tss.lookup_batch", "repro.vec.engine",
             "VecTupleSpaceSearch", "lookup_batch", "keys"),
    Boundary("vec.codec.encode", "repro.vec.columnar", "LaneCodec",
             "encode_ints"),
    Boundary("perf.simulator.step", "repro.perf.simulator",
             "DataplaneSimulator", "step"),
    Boundary("runtime.service.snapshot", "repro.runtime.service",
             "ServeService", "snapshot"),
    Boundary("runtime.parallel.process_batch", "repro.runtime.parallel",
             "ParallelDatapath", "process_batch", "keys", "arg"),
    Boundary("runtime.parallel.start", "repro.runtime.parallel",
             "ParallelDatapath", "start"),
    Boundary("cms.compile", "repro.cms.kubernetes", "KubernetesCms",
             "compile", "rules"),
    Boundary("cms.compile", "repro.cms.calico", "CalicoCms", "compile",
             "rules"),
    Boundary("cms.compile", "repro.cms.openstack", "OpenStackCms",
             "compile", "rules"),
    Boundary("attack.covert_keys", "repro.attack.packets",
             "CovertStreamGenerator", "keys", "keys"),
)

#: a span opened directly under ``parent`` is recorded as ``renamed``:
#: the scalar scan the vectorized lookup falls back to via ``super()``
RENAMES = {"ovs.tss.lookup_batch": ("vec.tss.lookup_batch",
                                    "vec.tss.scalar_fallback")}

#: boundaries that take a burst of keys into a datapath
PROCESS_BATCH = frozenset({
    "ovs.pmd.process_batch",
    "ovs.switch.process_batch",
    "vec.switch.process_batch",
    "runtime.parallel.process_batch",
})


class SpanRecorder:
    """Spans in call order plus the stack of open ones.  Single-threaded:
    spans nest strictly, so a span's children never overlap."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: the burst or tick now running; the workload loop sets it
        self.op = SETUP_OP


def _owner(boundary: Boundary):
    module = importlib.import_module(boundary.module)
    return module if boundary.owner is None else getattr(module,
                                                         boundary.owner)


def _wrap(recorder: SpanRecorder, boundary: Boundary, fn):
    name = boundary.name
    rename = RENAMES.get(name)
    count_arg = boundary.count is not None and boundary.count_from == "arg"
    count_result = (boundary.count is not None
                    and boundary.count_from == "result")
    spans = recorder.spans
    stack = recorder.stack
    clock = recorder.clock

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = stack[-1] if stack else -1
        span_name = name
        if rename is not None and parent >= 0 and spans[parent][NAME] == rename[0]:
            span_name = rename[1]
        count = 0
        if count_arg:
            keys = args[1]
            if not hasattr(keys, "__len__"):
                keys = list(keys)  # a one-shot iterable: hand on a copy
                args = (args[0], keys, *args[2:])
            count = len(keys)
        span = [span_name, 0.0, 0.0, parent, recorder.op, count]
        stack.append(len(spans))
        spans.append(span)
        span[START] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = clock()
            stack.pop()
        if count_result:
            span[COUNT] = len(result)
        return result

    return traced


@contextmanager
def installed(recorder: SpanRecorder,
              boundaries: tuple[Boundary, ...] = BOUNDARIES
              ) -> Iterator[SpanRecorder]:
    """Wrap every boundary for the duration of the block; the originals
    are restored on exit, whatever the block raised."""
    saved: list[tuple[object, str, object]] = []
    try:
        for boundary in boundaries:
            owner = _owner(boundary)
            # a KeyError here means the program moved a boundary: the
            # table above must follow it, not silently trace nothing
            original = vars(owner)[boundary.attr]
            saved.append((owner, boundary.attr, original))
            setattr(owner, boundary.attr, _wrap(recorder, boundary,
                                                original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, summed ``count`` and ``self_s`` — each
    span's duration minus the time its child spans cover."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span[NAME],
                                  {"calls": 0, "count": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["count"] += span[COUNT]
        entry["self_s"] += span[END] - span[START] - child_s[index]
    return totals


def outermost_batch_keys(spans: list[list]) -> int:
    """Keys handed to a datapath by callers outside the datapath: the
    ``process_batch`` spans whose parent is not itself one."""
    total = 0
    for span in spans:
        if span[NAME] not in PROCESS_BATCH:
            continue
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] not in PROCESS_BATCH:
            total += span[COUNT]
    return total


def chrome_trace(spans: list[list], node: str) -> dict:
    """The spans as a Chrome trace-event document, through the
    program's own exporter; timestamps are host seconds since the first
    span, and each event's args carry its index, parent, op and count."""
    from repro.obs.trace import TraceRecorder

    recorder = TraceRecorder(capacity=max(1, len(spans)))
    origin = min((span[START] for span in spans), default=0.0)
    for index, span in enumerate(spans):
        recorder.record(
            span[NAME], span[START] - origin, dur=span[END] - span[START],
            node=node, span=index, parent=span[PARENT], op=span[OP],
            count=span[COUNT],
        )
    document = recorder.to_chrome_trace()
    document["otherData"]["clock"] = "host-seconds"
    return document
