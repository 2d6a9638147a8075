"""Spans around the public functions of the timedsessions layers.

A hook replaces a public function with a wrapper that records one span
(name, start, end, parent, item) per call, and rebinds the wrapper under
every module-level name that bound the original, so calls made through
``from .zones import past`` are traced too.  Hooks touch public names only
and never read a module cache: a hook whose target no longer exists is
reported as missing and its metrics are left out.

Spans are kept in memory in flat arrays and written out when the run ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# (module, qualified name, timed).  An untimed hook only counts calls:
# eval_constraint runs about 5,000 times per progress item and is recursive,
# so a span per call would cost more than the evaluation itself.
# The hot DBM helpers (bound_lt, bound_add: about 14,000 calls per
# well-formedness item) are not hooked at all; their time is part of the
# self time of Zone.canonicalize, which calls them.
HOOKS = (
    ("zones", "to_zones", True),
    ("zones", "entails", True),
    ("zones", "past", True),
    ("zones", "future", True),
    ("zones", "reset_constraint", True),
    ("zones", "trajectory_zone", True),
    ("zones", "Zone.canonicalize", True),
    ("sessiontypes", "check_well_formed", True),
    ("sessiontypes", "gamma", True),
    ("sessiontypes", "dual", True),
    ("semantics", "check_progress", True),
    ("semantics", "system_steps", True),
    ("semantics", "admissible_delays", True),
    ("semantics", "qconfig_time", True),
    ("semantics", "is_future_enabled", True),
    ("semantics", "digest_system", True),
    ("semantics", "region_canonical", True),
    ("processes", "run", True),
    ("processes", "resolve_active", True),
    ("processes", "runtime_normalize", True),
    ("processes", "time_step", True),
    ("constraints", "eval_constraint", False),
    ("constraints", "boundary_delays", True),
    ("parser", "parse_type", True),
    ("parser", "parse_spec_file", True),
)

PACKAGE = "timedsessions"
ITEM = "item"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter = Counter()
        self.extra: Dict[str, Counter] = defaultdict(Counter)
        self.missing: List[str] = []
        self.unobserved: set = set()
        # admissible_delays span -> the distinct delays its qconfig_time
        # children tried
        self.delays_tried: Dict[int, set] = defaultdict(set)
        # check_progress span -> which of digest_system and system_steps it
        # called last, to tell a dequeued state's expansion from look-ahead
        self.progress_child: Dict[int, str] = {}
        self._stack: List[int] = []
        self._item = -1
        self.active = True  # off while the benchmark checks a result

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1]

    def parent_span(self) -> int:
        """The span enclosing the current call, or -1."""
        return self._stack[-2] if len(self._stack) > 1 else -1

    def parent_name(self) -> Optional[str]:
        parent = self.parent_span()
        return self.names[self.name[parent]] if parent >= 0 else None

    def run_item(self, item_index: int, fn: Callable[[], object]) -> object:
        self._item = item_index
        span = self.open(self.name_id(ITEM))
        try:
            return fn()
        finally:
            self.close(span)
            self._item = -1

    # -- hooks ---------------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, qualname, timed in HOOKS:
            full = f"{module_name}.{qualname}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner = module
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(full)
                continue
            wrapper = (self._span_wrapper(full, original) if timed
                       else self._count_wrapper(full, original))
            setattr(owner, attr, wrapper)
            if not outer:
                _rebind(original, wrapper)

    def _count_wrapper(self, full: str, original: Callable) -> Callable:
        calls = self.calls
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                calls[full] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    def _span_wrapper(self, full: str, original: Callable) -> Callable:
        name_id = self.name_id(full)
        calls = self.calls
        observe = OBSERVERS.get(full)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            calls[full] += 1
            span = tracer.open(name_id)
            try:
                result = original(*args, **kwargs)
                if observe is not None and full not in tracer.unobserved:
                    try:
                        observe(tracer, tracer.extra[full], args, result)
                    except (AttributeError, IndexError, TypeError):
                        # the hooked function changed shape: drop its
                        # derived counts rather than fail the run
                        tracer.unobserved.add(full)
                return result
            finally:
                tracer.close(span)

        traced.__wrapped__ = original
        return traced

    # -- results ---------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += duration[index]
        out: Dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(self.name):
            out[self.names[name_id]] += duration[index] - child[index]
        return out

    def inclusive_times(self) -> Dict[str, float]:
        """Total inclusive time per span name, counting recursion once."""
        out: Dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(self.name):
            parent = self.parent[index]
            if parent >= 0 and self.name[parent] == name_id:
                continue
            out[self.names[name_id]] += self.end[index] - self.start[index]
        return out

    def per_item(self, name: str) -> Counter:
        """Number of spans with this name under each item."""
        if name not in self._name_ids:
            return Counter()
        wanted = self._name_ids[name]
        return Counter(item for item, name_id in zip(self.item, self.name)
                       if name_id == wanted)

    def write(self, path) -> None:
        """Write every span as gzipped TSV; times in microseconds from the
        first span, names as indices into the header's name table."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# names\t" + "\t".join(self.names) + "\n")
            out.write("span\tparent\titem\tname\tstart_us\tduration_us\n")
            for index in range(len(self.start)):
                start = self.start[index]
                out.write(f"{index}\t{self.parent[index]}\t{self.item[index]}\t"
                          f"{self.name[index]}\t{(start - origin) * 1e6:.1f}\t"
                          f"{(self.end[index] - start) * 1e6:.1f}\n")


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every module-level name bound to original at wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == PACKAGE
                                  or module_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# -- observers: counts taken from a hooked call's arguments and result ---------

def _zones_out(tracer, extra, args, result):
    extra["zones_out"] += len(result)


def _wf_verdict(tracer, extra, args, result):
    extra["accepted"] += bool(result.verdict)


def _states(tracer, extra, args, result):
    extra["states"] += result.states_visited
    tracer.progress_child.pop(tracer.current(), None)


def _digested(tracer, extra, args, result):
    if tracer.parent_name() == "semantics.check_progress":
        tracer.progress_child[tracer.parent_span()] = "digest"


def _successors(tracer, extra, args, result):
    """Count all successors, and apart those of the expansion of a dequeued
    state: check_progress digests each state it takes off its frontier and
    then calls system_steps on it, so a system_steps call it makes right
    after a digest_system call expands a state and its successors are looked
    up among the visited ones.  The look-ahead calls that follow (does some
    successor have a tau step?) are not looked up and are left out."""
    extra["successors"] += len(result)
    if tracer.parent_name() == "semantics.check_progress":
        parent = tracer.parent_span()
        if tracer.progress_child.get(parent) == "digest":
            extra["successors_expanded"] += len(result)
        tracer.progress_child[parent] = "steps"


def _admitted(tracer, extra, args, result):
    extra["admitted"] += len(result)
    extra["tried"] += len(tracer.delays_tried.pop(tracer.current(), ()))


def _time_premise(tracer, extra, args, result):
    reason = result[1]
    if reason is not None:
        extra[f"rejected_{reason}"] += 1
    if tracer.parent_name() == "semantics.admissible_delays":
        tracer.delays_tried[tracer.parent_span()].add(args[1])


def _steps(tracer, extra, args, result):
    extra["steps"] += len(result.trace)


OBSERVERS = {
    "zones.to_zones": _zones_out,
    "sessiontypes.check_well_formed": _wf_verdict,
    "semantics.check_progress": _states,
    "semantics.system_steps": _successors,
    "semantics.digest_system": _digested,
    "semantics.admissible_delays": _admitted,
    "semantics.qconfig_time": _time_premise,
    "processes.run": _steps,
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics, named <module>.<function>.<stat>.

    A metric whose hook target is missing is left out.  A ratio whose base
    is zero on this workload reads 0.
    """
    selfs = tracer.self_times()
    inclusive = tracer.inclusive_times()
    calls = tracer.calls
    extra = tracer.extra
    hooked = {f"{m}.{q}" for m, q, _ in HOOKS} - set(tracer.missing)
    derived = {"calls", "self_s"}
    out: Dict[str, float] = {}

    def put(metric: str, value: float) -> None:
        name, stat = metric.rsplit(".", 1)
        if name in hooked and (stat in derived or name not in tracer.unobserved):
            out[metric] = value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in ("zones.to_zones", "zones.entails", "zones.Zone.canonicalize",
                 "zones.trajectory_zone", "sessiontypes.check_well_formed",
                 "semantics.system_steps", "semantics.qconfig_time",
                 "semantics.is_future_enabled", "semantics.digest_system",
                 "processes.run", "constraints.eval_constraint",
                 "constraints.boundary_delays"):
        put(f"{name}.calls", calls[name])
    for name in ("zones.to_zones", "zones.entails", "zones.past",
                 "zones.future", "zones.reset_constraint",
                 "zones.Zone.canonicalize", "sessiontypes.check_well_formed",
                 "sessiontypes.gamma", "sessiontypes.dual",
                 "semantics.check_progress", "semantics.system_steps",
                 "semantics.admissible_delays", "semantics.qconfig_time",
                 "semantics.is_future_enabled", "semantics.digest_system",
                 "semantics.region_canonical", "processes.run",
                 "processes.resolve_active", "processes.runtime_normalize",
                 "processes.time_step", "constraints.boundary_delays",
                 "parser.parse_type", "parser.parse_spec_file"):
        put(f"{name}.self_s", selfs.get(name, 0.0))

    put("zones.to_zones.zones_out", extra["zones.to_zones"]["zones_out"])
    wf = "sessiontypes.check_well_formed"
    put(f"{wf}.accept_ratio", ratio(extra[wf]["accepted"], calls[wf]))
    progress = "semantics.check_progress"
    states = extra[progress]["states"]
    put(f"{progress}.states", states)
    steps = "semantics.system_steps"
    put(f"{steps}.successors", extra[steps]["successors"])
    delays = "semantics.admissible_delays"
    put(f"{delays}.admit_ratio",
        ratio(extra[delays]["admitted"], extra[delays]["tried"]))
    qtime = "semantics.qconfig_time"
    put(f"{qtime}.rejected_persistency", extra[qtime]["rejected_persistency"])
    put(f"{qtime}.rejected_urgency", extra[qtime]["rejected_urgency"])
    if {progress, steps, "semantics.digest_system"} <= hooked - tracer.unobserved:
        examined = extra[steps]["successors_expanded"]
        out["semantics.memo_hit_ratio"] = (1 - states / examined
                                           if examined else 0.0)
    run = "processes.run"
    run_steps = extra[run]["steps"]
    put(f"{run}.steps", run_steps)
    put(f"{run}.step_us", ratio(inclusive.get(run, 0.0) * 1e6, run_steps))
    return out
