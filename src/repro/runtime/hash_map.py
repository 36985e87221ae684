"""Generic chained hash map — the *unselected* baseline structure.

The paper (section 3.2.2) argues a hash map is a poor choice for
address-sized key domains: per-entry overhead, poor locality, and an
extra dependent access per probe.  ALDAcc therefore never picks it when
shadow memory, a page table, or an array map applies; it is kept as the
structure used when data-structure selection is disabled (the ablation
where the paper reports non-trivial benchmarks running out of memory).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

from repro.runtime.metadata import SlotRanges

_BUCKETS = 1 << 16
_ENTRY_OVERHEAD = 24  # key + next pointer + allocator header


class HashMap(SlotRanges):
    """key -> record map with modelled bucket + entry traffic."""

    def __init__(
        self,
        meter,
        space,
        value_bytes: int,
        granularity: int,
        make_values: Callable[[], list],
        name: str = "hashmap",
    ) -> None:
        self.meter = meter
        self.space = space
        self.value_bytes = value_bytes
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._make_values = make_values
        self._name = name
        self.bucket_base = space.reserve(_BUCKETS * 8, label=f"{name}-buckets")
        self.meter.footprint(_BUCKETS * 8)
        self._entries: Dict[int, Tuple[int, list]] = {}

    def _slot(self, index: int) -> Tuple[int, list]:
        # Hash, probe the bucket array, then chase the entry pointer.
        self.meter.cycles(3)
        bucket = (index * 0x9E3779B97F4A7C15) & (_BUCKETS - 1)
        self.meter.touch(self.bucket_base + bucket * 8, 8)
        entry = self._entries.get(index)
        if entry is None:
            entry_bytes = self.value_bytes + _ENTRY_OVERHEAD
            address = self.space.reserve(entry_bytes, align=16, label=f"{self._name}-entry")
            self.meter.footprint(entry_bytes)
            entry = (address + _ENTRY_OVERHEAD, self._make_values())
            self._entries[index] = entry
        self.meter.touch(entry[0] - _ENTRY_OVERHEAD, 8)  # entry header (key check)
        return entry

    def lookup(self, key: int) -> Tuple[int, list]:
        return self._slot(key >> self._shift)

    def slots_in_range(self, key: int, n_bytes: int) -> Iterator[Tuple[int, list]]:
        first = key >> self._shift
        last = (key + n_bytes - 1) >> self._shift
        for index in range(first, last + 1):
            yield self._slot(index)

    def __len__(self) -> int:
        return len(self._entries)
