"""Run profiles: the cycle accounting behind "normalized overhead".

One :class:`Profile` is produced per VM run.  Total simulated cycles
decompose into three buckets:

* ``base_cycles`` — one cycle per interpreted instruction plus small fixed
  costs (calls, thread operations);
* ``mem_cycles`` — memory-hierarchy cycles for the subject program's own
  loads/stores, from the cache simulator;
* ``instr_cycles`` — everything the analysis adds: handler dispatch,
  handler body operations, and metadata-structure traffic (which also goes
  through the same cache simulator and is included here).

``overhead = instrumented.cycles / uninstrumented.cycles`` is the metric
plotted in the paper's Figures 3-5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.vm.cache import CacheStats


@dataclass
class Profile:
    instructions: int = 0
    base_cycles: int = 0
    mem_cycles: int = 0
    instr_cycles: int = 0
    handler_calls: int = 0
    metadata_ops: int = 0
    metadata_bytes: int = 0
    heap_peak_bytes: int = 0
    reports: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    #: per-event-kind handler invocation counts, for diagnostics
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.base_cycles + self.mem_cycles + self.instr_cycles

    def count_event(self, kind: str) -> None:
        self.events[kind] = self.events.get(kind, 0) + 1

    def overhead_vs(self, baseline: "Profile") -> float:
        """Normalized overhead of this (instrumented) run vs a clean run."""
        if baseline.cycles == 0:
            raise ValueError("baseline profile has zero cycles")
        return self.cycles / baseline.cycles


class CostMeter:
    """Shared cost sink handed to runtime metadata structures.

    Every metadata operation calls back into one meter so that handler and
    data-structure costs land in ``Profile.instr_cycles`` and metadata
    memory traffic flows through the same cache simulator as the program's.

    ``touch(address, size=8)`` is a metadata memory access, cache-modelled
    and billed to the analysis.  It is the cache's fused closure
    (:meth:`repro.vm.cache.CacheSim.metadata_touch`): one Python call per
    simulated access.  Hot structures bind it (and ``profile``) once and
    bill ``profile.instr_cycles`` directly instead of calling ``cycles``.
    """

    __slots__ = ("profile", "cache", "touch")

    def __init__(self, profile: Profile, cache) -> None:
        self.profile = profile
        self.cache = cache
        self.touch = cache.metadata_touch(profile)

    def cycles(self, n: int) -> None:
        self.profile.instr_cycles += n

    def footprint(self, n_bytes: int) -> None:
        self.profile.metadata_bytes += n_bytes
