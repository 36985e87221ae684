"""Profile-guided metadata grouping — the paper's stated future work.

Section 3.2.1: "the compiler conservatively assumes all branches will
occur.  In cases where the branch is rarely or never taken, this may
cause the compiler to falsely group together metadata.  We are
interested in exploring improving this behavior through profile-guided
optimizations as future work."

This module implements that loop:

1. :func:`profile_analysis` compiles the analysis with coalescing
   disabled (so per-ALDA-map behaviour is observable), runs it on a
   training workload, and collects dynamic access counts per map;
2. passing the resulting :class:`AccessProfile` to
   :func:`repro.compiler.pipeline.compile_analysis` refines coalescing:
   maps whose *measured* access frequency is a small fraction of their
   group's hottest member are split into their own group, keeping the
   hot record lean even when the static analysis would have fattened it
   (e.g. metadata only touched on an error path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.alda.types import MapInfo

#: a member is split out of its group when its dynamic access count is
#: below this fraction of the group's hottest member
DEFAULT_COLD_FRACTION = 0.05


@dataclass
class AccessProfile:
    """Dynamic per-map access counts from one or more training runs."""

    counts: Dict[str, int] = field(default_factory=dict)
    training_runs: int = 0

    def merge(self, counts: Dict[str, int]) -> None:
        for name, count in counts.items():
            self.counts[name] = self.counts.get(name, 0) + count
        self.training_runs += 1

    def count(self, map_name: str) -> int:
        return self.counts.get(map_name, 0)

    def split_cold_members(
        self,
        members: List[MapInfo],
        cold_fraction: float = DEFAULT_COLD_FRACTION,
    ) -> List[List[MapInfo]]:
        """Partition one static group into [hot members] + singleton colds.

        Untrained maps (never observed) count as cold: if the training
        run never touched them, co-locating them buys nothing.
        """
        if len(members) <= 1:
            return [members]
        hottest = max(self.count(member.name) for member in members)
        if hottest == 0:
            return [members]
        hot: List[MapInfo] = []
        partitions: List[List[MapInfo]] = []
        for member in members:
            if self.count(member.name) >= hottest * cold_fraction:
                hot.append(member)
            else:
                partitions.append([member])
        if hot:
            partitions.insert(0, hot)
        return partitions


def profile_analysis(
    program,
    module_factory,
    extern=None,
    input_lines=None,
    options=None,
    profile: Optional[AccessProfile] = None,
) -> AccessProfile:
    """Run one training execution and collect dynamic map-access counts.

    ``module_factory`` builds a fresh training module (a workload's
    ``make_module`` or any callable returning a Module).  Pass an
    existing ``profile`` to accumulate over several training workloads.
    """
    from dataclasses import replace

    from repro.compiler.pipeline import CompileOptions, compile_analysis
    from repro.vm.interpreter import Interpreter

    options = options or CompileOptions()
    # Coalescing off so each ALDA-level map is individually observable;
    # lookup reduction off so every field access calls its accessor (the
    # generated code turns dominated accesses into uncounted register
    # hits).  Neither changes which accesses the handlers make.
    training = compile_analysis(
        program, replace(options, coalesce=False, cse=False)
    )
    vm = Interpreter(
        module_factory(),
        extern=extern,
        input_lines=input_lines,
        track_shadow=training.needs_shadow,
    )
    runtime = training.attach(vm)
    counts: Dict[str, int] = {}
    for coalesced in runtime.maps:
        coalesced.access_counts = counts
    vm.run()

    profile = profile or AccessProfile()
    profile.merge(counts)
    return profile
