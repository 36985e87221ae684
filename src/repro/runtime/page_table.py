"""Two-level page-table map for address-sized key domains.

ALDAcc selects this over offset shadow memory when the shadow factor
exceeds the threshold (paper section 5.3): it commits memory only for
populated pages at the cost of one extra dependent access (the directory
walk) on every lookup.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

from repro.runtime.metadata import SlotRanges

#: bytes of metadata committed per data page (an OS page), independent of
#: the value size — fat records get fewer entries per page, like a real
#: chunked shadow map (Umbra-style), not a fixed entry count
_PAGE_BYTES = 4096
_MIN_PAGE_ENTRIES = 64
_DIR_SPAN = 8 * 1024 * 1024  # directory entries are 8-byte pointers
_DIR_ENTRIES = _DIR_SPAN // 8


class PageTableMap(SlotRanges):
    """key -> record map with on-demand page allocation."""

    def __init__(
        self,
        meter,
        space,
        value_bytes: int,
        granularity: int,
        make_values: Callable[[], list],
        name: str = "pagetable",
    ) -> None:
        if granularity not in (1, 2, 4, 8):
            raise ValueError(f"unsupported granularity {granularity}")
        self.meter = meter
        self._profile = meter.profile
        self._touch = meter.touch
        self.space = space
        self.value_bytes = value_bytes
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._make_values = make_values
        self._name = name
        self.page_entries = max(_MIN_PAGE_ENTRIES, _PAGE_BYTES // value_bytes)
        self.dir_base = space.reserve(_DIR_SPAN, label=f"{name}-dir")
        self.meter.footprint(_DIR_SPAN // 1024)  # sparse directory commit
        self._pages: Dict[int, Tuple[int, Dict[int, list]]] = {}

    def lookup(self, key: int, cycles: int = 2) -> Tuple[int, list]:
        """Index split, directory walk and slot fetch in one call: two
        dependent directory accesses (root entry, then the second-level
        entry) before the data page itself.  ``cycles`` is the index
        arithmetic; a range bills it once for all its slots."""
        self._profile.instr_cycles += cycles
        top, low = divmod(key >> self._shift, self.page_entries)
        touch = self._touch
        touch(self.dir_base + (top % 512) * 8, 8)
        touch(self.dir_base + 4096 + (top % _DIR_ENTRIES) * 8, 8)
        page = self._pages.get(top)
        if page is None:
            page = self._new_page(top)
        storage = page[1].get(low)
        if storage is None:
            storage = page[1][low] = self._make_values()
        return page[0] + low * self.value_bytes, storage

    def _new_page(self, top: int) -> Tuple[int, Dict[int, list]]:
        page_bytes = self.page_entries * self.value_bytes
        base = self.space.reserve(page_bytes, label=f"{self._name}-page")
        self.meter.footprint(page_bytes)
        page = self._pages[top] = (base, {})
        return page

    def slots_in_range(self, key: int, n_bytes: int) -> Iterator[Tuple[int, list]]:
        self._profile.instr_cycles += 2
        first = key >> self._shift
        last = (key + n_bytes - 1) >> self._shift
        for index in range(first, last + 1):
            yield self.lookup(index << self._shift, cycles=0)

    @property
    def committed_pages(self) -> int:
        return len(self._pages)

    def __len__(self) -> int:
        return sum(len(entries) for _, entries in self._pages.values())
