"""External-function escape hatch (paper sections 3.3 and 4.3).

ALDA bodies may call external functions for behaviours the language
cannot express (loops, indirection).  The registry maps names to Python
callables with signature ``fn(runtime, *args) -> int``; the callable may
bill costs through ``runtime.meter`` and may allocate simulated metadata
through ``runtime.space``.

The default registry ships the vector-clock kit FastTrack needs (vector
clocks are exactly the "rare looping behaviour" the paper routes through
this hatch) plus small numeric helpers.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ExternalFunctionError

_EPOCH_TID_BITS = 8
_EPOCH_TID_MASK = (1 << _EPOCH_TID_BITS) - 1


class VectorClockArena:
    """Arena of vector clocks addressed by integer handles.

    Handle 0 is reserved as "no clock".  Each clock owns a simulated
    address range so joins and copies generate metadata cache traffic
    proportional to the clock width, like the paper's FastTrack
    discussion (section 2.2) requires.
    """

    def __init__(self, meter, space, max_threads: int = 64) -> None:
        self.meter = meter
        self.space = space
        self.max_threads = max_threads
        self._clocks: List[Dict[int, int]] = [dict()]  # handle 0: unused
        self._bases: List[int] = [0]

    def new(self) -> int:
        handle = len(self._clocks)
        self._clocks.append({})
        self._bases.append(self.space.reserve(self.max_threads * 4, label="vc"))
        self.meter.footprint(self.max_threads * 4)
        self.meter.cycles(4)
        return handle

    def _clock(self, handle: int) -> Dict[int, int]:
        if handle <= 0 or handle >= len(self._clocks):
            raise ExternalFunctionError(f"bad vector-clock handle {handle}")
        return self._clocks[handle]

    def _touch_entry(self, handle: int, tid: int) -> None:
        self.meter.touch(self._bases[handle] + (tid % self.max_threads) * 4, 4)

    def get(self, handle: int, tid: int) -> int:
        clock = self._clock(handle)
        self._touch_entry(handle, tid)
        return clock.get(tid, 0)

    def set(self, handle: int, tid: int, value: int) -> None:
        clock = self._clock(handle)
        self._touch_entry(handle, tid)
        clock[tid] = value

    def tick(self, handle: int, tid: int) -> int:
        clock = self._clock(handle)
        self._touch_entry(handle, tid)
        clock[tid] = clock.get(tid, 0) + 1
        return clock[tid]

    def join(self, dst: int, src: int) -> None:
        """dst := dst ⊔ src — the full-vector-clock slow path."""
        source = self._clock(src)
        destination = self._clock(dst)
        self.meter.cycles(2 * max(1, len(source)))
        for tid, value in source.items():
            self._touch_entry(src, tid)
            self._touch_entry(dst, tid)
            if value > destination.get(tid, 0):
                destination[tid] = value

    def copy(self, dst: int, src: int) -> None:
        source = self._clock(src)
        self.meter.cycles(max(1, len(source)))
        for tid in source:
            self._touch_entry(src, tid)
            self._touch_entry(dst, tid)
        self._clocks[dst] = dict(source)

    def leq(self, left: int, right: int) -> bool:
        a, b = self._clock(left), self._clock(right)
        self.meter.cycles(2 * max(1, len(a)))
        return all(value <= b.get(tid, 0) for tid, value in a.items())


def epoch_make(tid: int, clock: int) -> int:
    return (clock << _EPOCH_TID_BITS) | (tid & _EPOCH_TID_MASK)


def epoch_tid(epoch: int) -> int:
    return epoch & _EPOCH_TID_MASK


def epoch_clock(epoch: int) -> int:
    return epoch >> _EPOCH_TID_BITS


class ExternalRegistry:
    """Name -> external function table consulted by compiled handlers."""

    def __init__(self) -> None:
        self._functions: Dict[str, Callable] = {}

    def register(self, name: str, fn: Callable) -> None:
        self._functions[name] = fn

    def names(self):
        return tuple(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def function(self, name: str) -> Callable:
        fn = self._functions.get(name)
        if fn is None:
            raise ExternalFunctionError(
                f"call to unregistered external function {name!r}"
            )
        return fn

    def call(self, runtime, name: str, *args: int) -> int:
        result = self.function(name)(runtime, *args)
        return 0 if result is None else int(result)


def default_externals() -> ExternalRegistry:
    """Registry with the vector-clock kit and numeric helpers installed.

    The arena is created lazily on first use and cached on the analysis
    runtime, so unrelated analyses pay nothing for it.
    """
    registry = ExternalRegistry()

    def arena(runtime) -> VectorClockArena:
        existing = getattr(runtime, "_vc_arena", None)
        if existing is None:
            existing = VectorClockArena(runtime.meter, runtime.space)
            runtime._vc_arena = existing
        return existing

    registry.register("vc_new", lambda rt: arena(rt).new())
    registry.register("vc_get", lambda rt, h, t: arena(rt).get(h, t))
    registry.register("vc_set", lambda rt, h, t, v: arena(rt).set(h, t, v))
    registry.register("vc_tick", lambda rt, h, t: arena(rt).tick(h, t))
    registry.register("vc_join", lambda rt, d, s: arena(rt).join(d, s))
    registry.register("vc_copy", lambda rt, d, s: arena(rt).copy(d, s))
    registry.register("vc_leq", lambda rt, a, b: 1 if arena(rt).leq(a, b) else 0)
    registry.register(
        "epoch_leq_vc",
        lambda rt, e, h: 1 if epoch_clock(e) <= arena(rt).get(h, epoch_tid(e)) else 0,
    )
    registry.register("epoch_make", lambda rt, t, c: epoch_make(t, c))
    registry.register("epoch_tid", lambda rt, e: epoch_tid(e))
    registry.register("epoch_clock", lambda rt, e: epoch_clock(e))
    registry.register("min", lambda rt, a, b: min(a, b))
    registry.register("max", lambda rt, a, b: max(a, b))
    return registry
