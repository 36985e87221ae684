"""Offset-based shadow memory (paper sections 3.2.2 and 5.3).

The fastest address-keyed mapping: ``slot = base + (addr >> g) * value_bytes``
— one shift, one multiply, one memory access.  The price is address-space
reservation proportional to the whole program address space; ALDAcc only
selects it when the *shadow factor* (metadata bytes per program byte after
granularity) is at most the threshold (default 3).

Committed footprint is billed per touched 4 KiB shadow page, mirroring
demand paging of a large virtual reservation.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.vm.memory import AddressSpace

_PAGE = 4096

#: End of program-visible address space that shadow mappings must cover.
PROGRAM_SPACE_END = AddressSpace.STACK_BASE + 64 * AddressSpace.STACK_STRIDE


class ShadowMemory:
    """Directly indexed shadow of the program address space."""

    def __init__(
        self,
        meter,
        space,
        value_bytes: int,
        granularity: int,
        make_values: Callable[[], list],
        name: str = "shadow",
    ) -> None:
        if granularity not in (1, 2, 4, 8):
            raise ValueError(f"unsupported granularity {granularity}")
        if not 0 < value_bytes <= _PAGE:
            # bulk ranges commit every page between their end slots
            raise ValueError(f"shadow value size {value_bytes} out of range")
        self.meter = meter
        self.value_bytes = value_bytes
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._make_values = make_values
        span = (PROGRAM_SPACE_END >> self._shift) * value_bytes
        self.base = space.reserve(span, align=_PAGE, label=f"{name}-span")
        self._data: Dict[int, list] = {}
        self._touched_pages = set()

    def lookup(self, key: int) -> Tuple[int, list]:
        self.meter.profile.instr_cycles += 1  # shift+add address arithmetic
        index = key >> self._shift
        address = self.base + index * self.value_bytes
        if address >> 12 not in self._touched_pages:
            self._commit(address, address)
        storage = self._data.get(index)
        if storage is None:
            storage = self._data[index] = self._make_values()
        return address, storage

    # -- bulk ranges: one contiguous run of slots, one wide access -------
    # fold_range and fill_range are on every MemorySanitizer load and
    # store, so each does its address arithmetic and billing inline.
    def _commit(self, start: int, end: int) -> None:
        """Bill the footprint of the shadow pages ``[start, end]`` spans."""
        touched = self._touched_pages
        for page in range(start >> 12, (end >> 12) + 1):
            if page not in touched:
                touched.add(page)
                self.meter.footprint(_PAGE)

    def fold_range(self, key: int, n_bytes: int, field_index: int,
                   offset: int, size: int) -> int:
        """OR of field ``field_index`` over the slots of ``[key, key+n)``,
        billed as one access spanning the whole run."""
        self.meter.profile.instr_cycles += 1  # shift+add address arithmetic
        first = key >> self._shift
        last = (key + n_bytes - 1) >> self._shift
        if last < first:
            return 0
        start = self.base + first * self.value_bytes
        end = self.base + last * self.value_bytes
        if end >> 12 != start >> 12 or start >> 12 not in self._touched_pages:
            self._commit(start, end)
        data, make_values = self._data, self._make_values
        folded = 0
        for index in range(first, last + 1):
            storage = data.get(index)
            if storage is None:
                storage = data[index] = make_values()
            folded |= storage[field_index]
        self.meter.touch(start + offset, end - start + size)
        return folded

    def fill_range(self, key: int, n_bytes: int, field_index: int,
                   offset: int, size: int, value) -> None:
        """Set field ``field_index`` of every slot of ``[key, key+n)``,
        billed as one access spanning the whole run."""
        self.meter.profile.instr_cycles += 1  # shift+add address arithmetic
        first = key >> self._shift
        last = (key + n_bytes - 1) >> self._shift
        if last < first:
            return
        start = self.base + first * self.value_bytes
        end = self.base + last * self.value_bytes
        if end >> 12 != start >> 12 or start >> 12 not in self._touched_pages:
            self._commit(start, end)
        data, make_values = self._data, self._make_values
        copyable = hasattr(value, "copy")
        for index in range(first, last + 1):
            storage = data.get(index)
            if storage is None:
                storage = data[index] = make_values()
            storage[field_index] = value.copy() if copyable else value
        self.meter.touch(start + offset, end - start + size)

    def __len__(self) -> int:
        return len(self._data)
