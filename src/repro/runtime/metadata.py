"""Metadata address space, field layout, and the coalesced-map container.

A :class:`CoalescedMap` is the runtime realization of ALDAcc's *map
coalescing* (paper section 5.2): one or more ALDA-level maps with the same
key type share one underlying mapping structure, with each original map
becoming a *field* at a fixed byte offset inside the shared value record.
Because fields of one record live at adjacent simulated addresses, looking
up a second field after the first is an L1 hit — the co-location effect
the paper optimizes for.

An uncoalesced map is simply a :class:`CoalescedMap` with one field, so
handler code generation is uniform across optimization levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.vm.memory import AddressSpace

Slot = Tuple[int, list]  # (simulated value-record address, field storage)


class MetadataSpace:
    """Bump allocator for simulated metadata addresses.

    Tracks *virtual* reservation separately from committed bytes: shadow
    memory reserves its whole span up front (cheap virtual memory in the
    paper), while page tables reserve pages on demand.
    """

    #: stride between independently created spaces (see :meth:`fresh`)
    STRIDE = 1 << 42
    _fresh_count = 0

    def __init__(self, base: int = AddressSpace.METADATA_BASE) -> None:
        self._cursor = base
        self.virtual_bytes = 0
        self.labels: List[Tuple[str, int, int]] = []

    @classmethod
    def fresh(cls) -> "MetadataSpace":
        """A space disjoint from every previously created one.

        Disjointness keeps several runtimes sharing one cache simulator
        from aliasing each other's metadata lines.
        """
        base = AddressSpace.METADATA_BASE + cls._fresh_count * cls.STRIDE
        cls._fresh_count += 1
        return cls(base)

    def reserve(self, n_bytes: int, align: int = 64, label: str = "") -> int:
        if n_bytes <= 0:
            raise ValueError("reservation must be positive")
        mask = align - 1
        self._cursor = (self._cursor + mask) & ~mask
        base = self._cursor
        self._cursor += n_bytes
        self.virtual_bytes += n_bytes
        self.labels.append((label, base, n_bytes))
        return base


@dataclass(frozen=True)
class FieldSpec:
    """One ALDA-level map folded into a coalesced value record."""

    name: str
    offset: int
    size: int
    kind: str  # "int" | "set" | "handle"
    default_factory: Callable[[], object]

    def default(self) -> object:
        return self.default_factory()


class SlotRanges:
    """Range fold/fill over ``slots_in_range`` for structures whose slots
    are not one contiguous run (page tables, hash maps, array maps).

    A compiled range operation over adjacent slots is a vectorized sweep,
    not N dependent loads: each contiguous run of field addresses is
    billed as one wide access, after the structure's own per-slot
    traffic.  :class:`repro.runtime.shadow_memory.ShadowMemory`, whose
    range is always one run, has a bulk version of both instead.
    """

    def fold_range(self, key: int, n_bytes: int, field_index: int,
                   offset: int, size: int) -> int:
        """OR of field ``field_index`` over the slots of ``[key, key+n)``."""
        slots = list(self.slots_in_range(key, n_bytes))
        folded = 0
        for _, storage in slots:
            folded |= storage[field_index]
        self._bill_runs(slots, offset, size)
        return folded

    def fill_range(self, key: int, n_bytes: int, field_index: int,
                   offset: int, size: int, value) -> None:
        """Set field ``field_index`` of every slot of ``[key, key+n)``."""
        slots = list(self.slots_in_range(key, n_bytes))
        copyable = hasattr(value, "copy")
        for _, storage in slots:
            storage[field_index] = value.copy() if copyable else value
        self._bill_runs(slots, offset, size)

    def _bill_runs(self, slots: List[Slot], offset: int, size: int) -> None:
        if not slots:
            return
        touch, stride = self.meter.touch, self.value_bytes
        start = prev = slots[0][0]
        for address, _ in slots[1:]:
            if address != prev + stride:
                touch(start + offset, prev - start + size)
                start = address
            prev = address
        touch(start + offset, prev - start + size)


class CoalescedMap:
    """Key -> record-of-fields mapping over a selected backing structure.

    ``impl`` is one of :class:`repro.runtime.shadow_memory.ShadowMemory`,
    :class:`repro.runtime.page_table.PageTableMap`,
    :class:`repro.runtime.array_map.ArrayMap` or
    :class:`repro.runtime.hash_map.HashMap` — all provide ``lookup(key)``,
    ``fold_range`` and ``fill_range``.

    Generated handler code binds the per-field accessors once per attach
    (``loaders[i](slot)``, ``storers[i](slot, value)``): each bills the
    field's cache access and returns or sets the value in one call.
    """

    #: counter for memo identities
    _next_mid = 0

    def __init__(
        self,
        name: str,
        impl,
        fields: Sequence[FieldSpec],
        meter,
        sync=None,
        memo: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.impl = impl
        self.fields = list(fields)
        self.meter = meter
        self.sync = sync
        #: Cross-handler lookup memo (cleared per event by the runtime):
        #: the mechanism behind lookup coalescing when several handlers at
        #: one insertion point access the same group under the same key.
        self.memo = memo
        #: Optional per-field dynamic access counters (profiling runs for
        #: profile-guided optimization fill these; None in normal runs).
        #: They count accessor calls: a field access the generated code
        #: turned into a register hit (lookup reduction on) calls none, so
        #: training compiles with lookup reduction off.
        self.access_counts: Optional[dict] = None
        CoalescedMap._next_mid += 1
        self._mid = CoalescedMap._next_mid
        self._index = {field.name: position for position, field in enumerate(self.fields)}
        self.lookup = self._bind_lookup()
        self.loaders = [self._bind_access(i, store=False) for i in range(len(self.fields))]
        self.storers = [self._bind_access(i, store=True) for i in range(len(self.fields))]

    @property
    def value_bytes(self) -> int:
        return self.impl.value_bytes

    def field_index(self, name: str) -> int:
        return self._index[name]

    # ------------------------------------------------------------------
    # point operations
    # ------------------------------------------------------------------
    def _bind_lookup(self) -> Callable[[int], Slot]:
        """``lookup(key)``: resolve the slot for ``key``, billing the
        structure's lookup cost.

        This is the operation ALDAcc's CSE hoists: handler code generated
        with lookup reduction calls it once per distinct key per event,
        and the per-event memo makes repeats across handlers free.
        """
        impl_lookup = self.impl.lookup
        sync_enter = self.sync.enter if self.sync is not None else None
        memo = self.memo
        if memo is None:
            if sync_enter is None:
                return impl_lookup

            def lookup(key: int) -> Slot:
                sync_enter(key)
                return impl_lookup(key)

            return lookup
        memo_get = memo.get
        mid = self._mid

        def lookup(key: int) -> Slot:
            memo_key = (mid, key)
            slot = memo_get(memo_key)
            if slot is None:
                if sync_enter is not None:
                    sync_enter(key)
                slot = memo[memo_key] = impl_lookup(key)
            return slot

        return lookup

    def _bind_access(self, field_index: int, store: bool):
        """The loader or storer of one field.

        With lookup reduction on, repeated accesses to the same cache
        line within one event are register hits: the generated code
        holds the looked-up record in locals (paper section 5.4), so
        only the first access of each line is billed.  Line keys share
        the event memo as positive ints (slot keys are ``(mid, key)``
        tuples, sync stripe keys negative ints).
        """
        cmap = self
        name = self.fields[field_index].name
        offset = self.fields[field_index].offset
        size = self.fields[field_index].size
        touch = self.meter.touch
        memo = self.memo

        # The billing lines are repeated in both closures on purpose: one
        # Python call per field access is the point of binding them.
        if store:
            def storer(slot: Slot, value) -> None:
                counts = cmap.access_counts
                if counts is not None:
                    counts[name] = counts.get(name, 0) + 1
                slot[1][field_index] = value
                address = slot[0] + offset
                if memo is not None:
                    line = address >> 6
                    if line in memo:
                        return
                    memo[line] = True
                touch(address, size)

            return storer

        def loader(slot: Slot):
            counts = cmap.access_counts
            if counts is not None:
                counts[name] = counts.get(name, 0) + 1
            address = slot[0] + offset
            if memo is not None:
                line = address >> 6
                if line in memo:
                    return slot[1][field_index]
                memo[line] = True
            touch(address, size)
            return slot[1][field_index]

        return loader

    def load(self, slot: Slot, field_index: int):
        return self.loaders[field_index](slot)

    def store(self, slot: Slot, field_index: int, value) -> None:
        self.storers[field_index](slot, value)

    def get(self, key: int, field_index: int = 0):
        return self.load(self.lookup(key), field_index)

    def set(self, key: int, field_index: int, value) -> None:
        self.store(self.lookup(key), field_index, value)

    # ------------------------------------------------------------------
    # range operations (ALDA's map.set(k, v, n) / map.get(k, n))
    # ------------------------------------------------------------------
    def load_range(self, key: int, n_bytes: int, field_index: int) -> int:
        """Fold integer field values over [key, key+n_bytes) with OR.

        This is MemorySanitizer's ``addr2label.get(ptr, s)``: a load is
        poisoned if *any* covered granule is poisoned.
        """
        if n_bytes <= 0:
            return 0
        if self.sync is not None:
            self.sync.enter(key)
        field = self.fields[field_index]
        counts = self.access_counts
        if counts is not None:
            counts[field.name] = counts.get(field.name, 0) + 1
        return self.impl.fold_range(key, n_bytes, field_index, field.offset, field.size)

    def store_range(self, key: int, n_bytes: int, field_index: int, value) -> None:
        if n_bytes <= 0:
            return
        if self.sync is not None:
            self.sync.enter(key)
        field = self.fields[field_index]
        counts = self.access_counts
        if counts is not None:
            counts[field.name] = counts.get(field.name, 0) + 1
        self.impl.fill_range(key, n_bytes, field_index, field.offset, field.size, value)
