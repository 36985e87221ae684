"""Directly indexed array map for small, bounded key domains.

Used when a key's domain is statically limited via ALDA's ``number``
specifier (e.g. ``tid := threadid : 4`` or ``lid := lockid : 256``): the
whole table is committed up front and a lookup is one indexed access.

Keys that are naturally dense small ints (thread ids) index directly.
Keys drawn from sparse spaces (lock *addresses* behind a bounded
``lockid`` domain) go through a :class:`KeyInterner`, mirroring how real
detectors such as ThreadSanitizer bound their lock tables; interner
overflow wraps and is counted rather than crashing the run.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.runtime.metadata import SlotRanges


class KeyInterner:
    """Dense renaming of sparse keys into ``[0, domain)``."""

    def __init__(self, meter, space, domain: int, name: str = "intern") -> None:
        self.meter = meter
        self.domain = domain
        self.table_base = space.reserve(max(64, domain * 16), label=f"{name}-table")
        self.meter.footprint(domain * 16)
        self._ids: Dict[int, int] = {}
        self.overflowed = 0

    def intern(self, key: int) -> int:
        # One hashed probe into the interning table.
        meter = self.meter
        meter.profile.instr_cycles += 2
        meter.touch(self.table_base + (hash(key) % self.domain) * 16, 16)
        dense = self._ids.get(key)
        if dense is None:
            dense = len(self._ids)
            if dense >= self.domain:
                self.overflowed += 1
                dense = dense % self.domain
            self._ids[key] = dense
        return dense

    def __len__(self) -> int:
        return len(self._ids)


class ArrayMap(SlotRanges):
    """key -> record map over a fixed ``domain``-entry table."""

    def __init__(
        self,
        meter,
        space,
        value_bytes: int,
        domain: int,
        make_values: Callable[[], list],
        interner: Optional[KeyInterner] = None,
        name: str = "array",
    ) -> None:
        if domain <= 0:
            raise ValueError("ArrayMap domain must be positive")
        self.meter = meter
        self.value_bytes = value_bytes
        self.domain = domain
        self.granularity = 1
        self._make_values = make_values
        self.interner = interner
        self.base = space.reserve(domain * value_bytes, label=f"{name}-table")
        self.meter.footprint(domain * value_bytes)
        self._data: Dict[int, list] = {}

    def lookup(self, key: int) -> Tuple[int, list]:
        if self.interner is not None:
            key = self.interner.intern(key)
        elif key >= self.domain or key < 0:
            key = key % self.domain
        self.meter.profile.instr_cycles += 1
        storage = self._data.get(key)
        if storage is None:
            storage = self._data[key] = self._make_values()
        return self.base + key * self.value_bytes, storage

    def slots_in_range(self, key: int, n_bytes: int) -> Iterator[Tuple[int, list]]:
        # Bounded-domain maps are keyed by ids, not addresses: a "range"
        # over n bytes means the single containing entry.
        yield self.lookup(key)

    def __len__(self) -> int:
        return len(self._data)
