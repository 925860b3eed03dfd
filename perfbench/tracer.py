"""Traced-run recorder for the benchmark.

Spans are recorded from the benchmark's side: every public function of the
traced spintomo modules is replaced by a timing wrapper in each module
namespace that holds it (``spintomo.cli.heisenberg_history``,
``spintomo.estimator.heisenberg_history``, ``spintomo.dynamics.expm``,
``spintomo.rand.normal_at``, ...), so calls are caught where they are looked
up. :meth:`Recorder.installed` puts the wrappers in place and restores the
original objects on exit; nothing inside the package changes.

A span holds its name, start, end, parent span, op id and thread. Each
thread keeps its own stack of open calls, because the sweep pool runs tasks
on worker threads; a call that opens on an empty worker stack takes the
innermost open span of the thread that installed the recorder as parent.
Functions called more than about 10k times per op (coordinate maps, noise
draws, small checks) are folded into per-op counters instead of spans.

Self time is a span's duration minus the time its children cover: the sum of
same-thread children, plus the union of the intervals of children running
on other threads. Spans stay in memory until :meth:`Recorder.write_jsonl`.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import sys
import threading
from dataclasses import asdict, dataclass
from time import perf_counter

# Modules whose public functions are traced. control_design is left out, and
# the benchmark opens one span per CLI invocation itself instead of tracing cli.
TRACED_MODULES = (
    "config",
    "spin_algebra",
    "dynamics",
    "measurement",
    "rand",
    "estimator",
    "metrics",
    "wigner",
    "serialize",
)

# Helpers called once per number written or per noise draw; their time stays
# in the caller's self time, which keeps the tracing overhead small.
UNTRACED = {"serialize.format_float", "rand.stream", "rand.check_seed"}

# Called well over 10k times per op on some workload: counters, not spans.
AGGREGATED = {
    "spin_algebra.state_to_coords",
    "spin_algebra.coords_to_state",
    "spin_algebra.is_hermitian",
    "spin_algebra.check_density_matrix",
    "spin_algebra.clebsch_gordan",
    "rand.normal_at",
}


@dataclass
class Span:
    id: int
    name: str
    op: int
    thread: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # same-thread children
    self_s: float = 0.0
    cross: bool = False  # opened on a worker thread below a span of another thread

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    """Open aggregated call: collects the time of its children."""

    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


def _public_functions(module) -> dict[str, object]:
    short = module.__name__.rsplit(".", 1)[1]
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = {}
    for n in names:
        obj = getattr(module, n)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[f"{short}.{n}"] = obj
    return found


def traced_functions() -> dict[str, object]:
    """Qualified name -> original function, for every traced public function."""
    found = {}
    for short in TRACED_MODULES:
        found.update(_public_functions(sys.modules[f"spintomo.{short}"]))
    found["dynamics.expm"] = sys.modules["spintomo.dynamics"].expm
    for name in UNTRACED:
        found.pop(name, None)
    return found


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list | None = None
        self._counter_sets: list[dict] = []
        self._lock = threading.Lock()

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.counters = {}
            with self._lock:
                self._counter_sets.append(self._local.counters)
        return stack

    def _parent_span(self, stack: list) -> tuple[Span | None, bool]:
        own = stack
        cross = False
        if not own and self._main_stack is not None and own is not self._main_stack:
            own, cross = self._main_stack, True
        for frame in reversed(own):
            if isinstance(frame, Span):
                return frame, cross
        return None, cross

    # -- wrappers -----------------------------------------------------------

    def _wrap_span(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_counter(self, name: str, fn):
        rec = self

        def counted(*args, **kwargs):
            stack = rec._stack()
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dur
                entry = rec._local.counters.get(name)
                if entry is None:
                    entry = rec._local.counters[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame.child_s

        counted.__wrapped__ = fn
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper in all spintomo modules."""
        originals = traced_functions()
        wrappers = {
            id(fn): (self._wrap_counter if name in AGGREGATED else self._wrap_span)(name, fn)
            for name, fn in originals.items()
        }
        patches = []
        for modname, module in list(sys.modules.items()):
            if modname != "spintomo" and not modname.startswith("spintomo."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and not attr.startswith("__"):
                    patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._main_stack = self._stack()
        try:
            yield
        finally:
            for module, attr, value in patches:
                setattr(module, attr, value)
            self._main_stack = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body: a traced call, a CLI call or an op."""
        stack = self._stack()
        parent, cross = self._parent_span(stack)
        span = Span(
            id=next(self._ids),
            name=name,
            op=self.op,
            thread=threading.current_thread().name,
            parent=parent.id if parent is not None else None,
            start=perf_counter(),
            cross=cross,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += span.end - span.start
            self.spans.append(span)

    # -- per-op results -----------------------------------------------------

    def take_counters(self) -> dict[str, list]:
        """Merge and reset the aggregated counters of every thread."""
        merged: dict[str, list] = {}
        with self._lock:
            sets = list(self._counter_sets)
        for counters in sets:
            for name, (calls, total, own) in list(counters.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            counters.clear()
        return merged

    def finish_op(self, op: int) -> list[Span]:
        """Compute self times for the spans of ``op`` and return them."""
        spans = [s for s in self.spans if s.op == op]
        by_id = {s.id: s for s in spans}
        cross_children: dict[int, list[Span]] = {}
        for s in spans:
            if s.cross and s.parent in by_id:
                cross_children.setdefault(s.parent, []).append(s)
        for s in spans:
            covered = s.child_s + union_length(
                [(c.start, c.end) for c in cross_children.get(s.id, ())]
            )
            s.self_s = s.duration - covered
        return spans

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                row = asdict(s)
                row["layer"] = s.layer
                fh.write(json.dumps(row) + "\n")


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
