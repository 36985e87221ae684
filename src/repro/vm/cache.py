"""Two-level set-associative cache simulator.

Both the subject program's memory traffic and the analysis's metadata
traffic flow through one shared :class:`CacheSim`.  This is what makes the
paper's layout optimizations *measurable* here: co-locating two metadata
values on one line turns the second access into an L1 hit, and an
eliminated lookup performs no access at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of the two cache levels plus DRAM."""

    line_bytes: int = 64
    l1_bytes: int = 32 * 1024
    l1_assoc: int = 8
    l2_bytes: int = 256 * 1024
    l2_assoc: int = 8
    l1_hit_cycles: int = 1
    l2_hit_cycles: int = 10
    dram_cycles: int = 60


@dataclass(slots=True)
class CacheStats:
    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    dram_fills: int = 0

    @property
    def l1_miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.l1_hits / self.accesses


class _Level:
    """One set-associative LRU level."""

    __slots__ = ("n_sets", "assoc", "sets")

    def __init__(self, total_bytes: int, assoc: int, line_bytes: int) -> None:
        self.n_sets = max(1, total_bytes // (line_bytes * assoc))
        self.assoc = assoc
        self.sets: Dict[int, List[int]] = {}

    def access(self, line: int) -> bool:
        """Touch ``line``; return True on hit.  On miss the line is filled."""
        index = line % self.n_sets
        ways = self.sets.get(index)
        if ways is None:
            self.sets[index] = [line]
            return False
        if ways[-1] == line:
            return True  # already MRU: remove+append would be a no-op
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        ways.append(line)
        if len(ways) > self.assoc:
            del ways[0]
        return False


class CacheSim:
    """Shared cache hierarchy; ``access`` returns the cycle cost."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self._line_shift = self.config.line_bytes.bit_length() - 1
        self.l1 = _Level(self.config.l1_bytes, self.config.l1_assoc, self.config.line_bytes)
        self.l2 = _Level(self.config.l2_bytes, self.config.l2_assoc, self.config.line_bytes)
        self.stats = CacheStats()
        self._l1_cycles = self.config.l1_hit_cycles
        self._l2_cycles = self.config.l2_hit_cycles
        self._dram_cycles = self.config.dram_cycles

    def access(self, address: int, size: int = 8) -> int:
        """Access ``size`` bytes at ``address``; returns total cycles."""
        shift = self._line_shift
        first = address >> shift
        last = (address + (size if size > 1 else 1) - 1) >> shift
        stats = self.stats
        if first == last:  # the overwhelmingly common, line-local case
            stats.accesses += 1
            if self.l1.access(first):
                stats.l1_hits += 1
                return self._l1_cycles
            if self.l2.access(first):
                stats.l2_hits += 1
                return self._l2_cycles
            stats.dram_fills += 1
            return self._dram_cycles
        return self._access_lines(first, last)

    def _access_lines(self, first: int, last: int) -> int:
        """Access every line in ``[first, last]``; returns total cycles."""
        stats = self.stats
        cycles = 0
        for line in range(first, last + 1):
            stats.accesses += 1
            if self.l1.access(line):
                stats.l1_hits += 1
                cycles += self._l1_cycles
            elif self.l2.access(line):
                stats.l2_hits += 1
                cycles += self._l2_cycles
            else:
                stats.dram_fills += 1
                cycles += self._dram_cycles
        return cycles

    def metadata_touch(self, profile) -> Callable[..., None]:
        """A fused ``touch(address, size=8)`` for analysis metadata traffic.

        Same LRU state, statistics and cycle costs as :meth:`access`,
        billed to ``profile.instr_cycles`` with one
        ``profile.metadata_ops`` per call.  A line-local access — nearly
        every metadata access — runs entirely inside this one closure:
        the L1 MRU check, an L1 hit deeper in the set, and the miss
        fall-through to L2 and DRAM.  Only a line-crossing access makes
        a second call.  ``cache.stats`` is re-read on every call, so
        :meth:`reset_stats` stays honoured.
        """
        cache = self
        shift = self._line_shift
        offset_mask = self.config.line_bytes - 1
        line_bytes = self.config.line_bytes
        l1_sets, n1, assoc1 = self.l1.sets, self.l1.n_sets, self.l1.assoc
        l2_sets, n2, assoc2 = self.l2.sets, self.l2.n_sets, self.l2.assoc
        l1_get, l2_get = l1_sets.get, l2_sets.get
        l1_cycles, l2_cycles = self._l1_cycles, self._l2_cycles
        dram_cycles = self._dram_cycles
        access_lines = self._access_lines

        def touch(address: int, size: int = 8) -> None:
            line = address >> shift
            if (address & offset_mask) + size > line_bytes:  # crosses a line
                profile.instr_cycles += access_lines(
                    line, (address + size - 1) >> shift
                )
                profile.metadata_ops += 1
                return
            stats = cache.stats
            stats.accesses += 1
            profile.metadata_ops += 1
            index = line % n1
            ways = l1_get(index)
            if ways is None:
                l1_sets[index] = [line]
            elif ways[-1] == line:
                stats.l1_hits += 1
                profile.instr_cycles += l1_cycles
                return
            elif line in ways:
                ways.remove(line)
                ways.append(line)
                stats.l1_hits += 1
                profile.instr_cycles += l1_cycles
                return
            else:
                ways.append(line)
                if len(ways) > assoc1:
                    del ways[0]
            index = line % n2
            ways = l2_get(index)
            if ways is None:
                l2_sets[index] = [line]
            elif ways[-1] == line:
                stats.l2_hits += 1
                profile.instr_cycles += l2_cycles
                return
            elif line in ways:
                ways.remove(line)
                ways.append(line)
                stats.l2_hits += 1
                profile.instr_cycles += l2_cycles
                return
            else:
                ways.append(line)
                if len(ways) > assoc2:
                    del ways[0]
            stats.dram_fills += 1
            profile.instr_cycles += dram_cycles

        return touch

    def reset_stats(self) -> None:
        self.stats = CacheStats()
