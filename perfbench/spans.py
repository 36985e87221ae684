"""In-memory span recording around calls into the program's layers.

A :class:`Tracer` patches the public entry points of each layer
(functions in their modules' namespaces, methods on their classes) with
thin wrappers that record one span per call: layer name, start, end, the
enclosing span on the same thread.  Nothing inside ``src/`` changes; the
patches are installed for a traced run and removed afterwards.

Self time of a span is its duration minus the time its direct children
(on the same thread) cover.  Spans on different threads overlap freely,
so per-layer self times may add up to more than the wall clock; the
``other`` row is the part of the wall clock no span covered at all.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Records spans and counters; owns the patches it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``layer``; returns (result, seconds)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(layer, 0.0, 0.0, parent))
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = self.spans[index]
            span.start, span.end = start, end
        return result, end - start

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching ------------------------------------------------------
    def patch(self, owner, name: str, replacement) -> None:
        """Replace ``owner.name`` until :meth:`restore`."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap(self, owner, name: str, layer, after: Optional[Callable] = None) -> None:
        """Wrap ``owner.name`` (a class method or a module function).

        ``layer`` is a span name or a callable ``(args) -> name``;
        ``after(args, result, seconds)`` sees every completed call.
        """
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = layer(args) if callable(layer) else layer
            result, seconds = tracer.call(span_name, original, *args, **kwargs)
            if after is not None:
                after(args, result, seconds)
            return result

        self.patch(owner, name, wrapper)

    def wrap_everywhere(self, module_name: str, name: str, layer,
                        after: Optional[Callable] = None) -> None:
        """Wrap a function in its module and in every loaded module that
        imported it by name (``from module import name``)."""
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        self.wrap(module, name, layer, after)
        wrapper = getattr(module, name)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if other is module or not isinstance(namespace, dict):
                continue
            if namespace.get(name) is original:
                self.patch(other, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting -----------------------------------------------------
    def mark(self) -> int:
        """Position to pass to :meth:`layer_table` for spans after now."""
        return len(self.spans)

    def layer_table(self, mark: int, wall: float) -> Dict[str, dict]:
        """Per-layer self time and calls since ``mark``, plus ``other``."""
        spans = self.spans[mark:]
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: Dict[str, dict] = {}
        for index, span in enumerate(spans, start=mark):
            row = table.setdefault(span.layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += span.end - span.start - child_time.get(index, 0.0)
            row["calls"] += 1
        table["other"] = {"self_s": max(0.0, wall - _covered(spans)), "calls": 0}
        return table

    def inclusive(self, mark: int, layer: str) -> float:
        """Wall time during which some ``layer`` span (since ``mark``) was open."""
        return _covered([s for s in self.spans[mark:] if s.layer == layer])


def _covered(spans: List[Span]) -> float:
    """Wall time during which at least one span was open."""
    total = 0.0
    cursor = None
    for start, end in sorted((s.start, s.end) for s in spans):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


class VMKinds:
    """Classifies each VM by what was attached to it before ``run``."""

    def __init__(self) -> None:
        self._kinds = weakref.WeakKeyDictionary()

    def mark(self, vm, kind: str) -> None:
        if self._kinds.get(vm) != "hooked":  # an analysis outranks a recorder
            self._kinds[vm] = kind

    def kind(self, vm) -> str:
        return self._kinds.get(vm, "plain")


def render_table(title: str, table: Dict[str, dict], wall: float) -> str:
    """Fixed-width per-layer table: self time, share of wall, calls."""
    lines = [f"-- per-layer self time: {title} (wall {wall:.3f} s) --",
             f"{'layer':<40} {'self_s':>10} {'%wall':>7} {'calls':>8}"]
    rows = sorted(((name, row) for name, row in table.items() if name != "other"),
                  key=lambda item: -item[1]["self_s"])
    rows.append(("other", table["other"]))
    for name, row in rows:
        share = 100.0 * row["self_s"] / wall if wall else 0.0
        lines.append(f"{name:<40} {row['self_s']:>10.4f} {share:>6.1f}% {row['calls']:>8}")
    return "\n".join(lines)
