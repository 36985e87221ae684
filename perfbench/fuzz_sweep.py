"""Workload ``fuzz-sweep``: the ``repro.fuzz`` differential oracle.

Each case is a freshly generated module run through the default 9-cell
matrix (three backends, three elision tiers, partitioned replay, the
serve path), so VM compile/bind, ``staticpass`` and recording run cold
on every case.  Case seeds are a block derived from ``--seed``; each
case's size is pinned to ``EVENTS`` generated events so that cases are
comparable across seed blocks.  Cases run until ``--seconds`` have
passed and at least ``MIN_CASES`` have completed.

Correctness: any outcome other than ``MATCH`` is a failed case.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from common import HostClock, Metrics, median
from figures_inline import clear_vm_caches

NAME = "fuzz-sweep"
IMPORTS = ("repro.fuzz.oracle", "repro.fuzz.gen", "repro.exec.pool")
EVENTS = 250
#: enough cases for a steady rate and p75 over seed blocks
MIN_CASES = 80
TAIL_Q = 75.0
TINY_CASES = 2
TINY_EVENTS = 150
#: case seeds for one --seed: SEED_STRIDE * seed + 0, 1, 2, ...
SEED_STRIDE = 100_000
#: the set-up warm-up case (no --seed >= 0 reaches it)
WARMUP_CASE_SEED = -1


class Bench:
    def __init__(self, seed: int, seconds: float, expected: dict, tiny: bool,
                 scratch) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.scratch = scratch
        self.events = TINY_EVENTS if tiny else EVENTS
        self.attempted = 0
        self.failures: List[str] = []
        self._oracles = 0

    def _oracle(self):
        from repro.fuzz.oracle import Oracle

        self._oracles += 1
        return Oracle(store_root=str(self.scratch.sub(f"fuzz-store-{self._oracles}")))

    def _params(self, index: int):
        from repro.fuzz.gen import sample_params

        return sample_params(SEED_STRIDE * self.seed + index, events=self.events)

    # -- set-up -------------------------------------------------------------
    def setup(self, repeats: int) -> Dict[str, float]:
        from repro.exec.pool import ANALYSIS_SPECS, build_analysis
        from repro.fuzz.gen import TARGET_SPECS, sample_params

        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for spec in TARGET_SPECS:
                ANALYSIS_SPECS[spec]()
            samples.append(time.perf_counter() - start)
        for spec in TARGET_SPECS:
            build_analysis(spec)
        # A warm-up case outside every seed block starts an oracle's
        # embedded daemon and finishes lazy imports; it is the same case
        # for every --seed, so set-up time does not depend on the seed.
        # Caches are cleared again so measured cases stay cold.
        warmup = sample_params(WARMUP_CASE_SEED, events=self.events)
        warmups = []
        for _ in range(repeats):
            start = time.perf_counter()
            with self._oracle() as oracle:
                oracle.run_case(warmup)
            warmups.append(time.perf_counter() - start)
            clear_vm_caches()
        return {"analysis_compile_s": median(samples), "oracle_warmup_s": median(warmups)}

    # -- measurement --------------------------------------------------------
    def measure(self, like: Optional[dict] = None) -> dict:
        """Run the seed block; with ``like``, exactly as many cases as it ran."""
        from repro.fuzz import OUTCOME_MATCH

        clear_vm_caches()
        cases = len(like["latencies"]) if like is not None else None
        clock = HostClock()
        latencies: List[float] = []
        floor = TINY_CASES if self.tiny else MIN_CASES
        started = time.perf_counter()
        with self._oracle() as oracle:
            index = 0
            while True:
                if cases is not None:
                    if index >= cases:
                        break
                elif index >= floor and (self.tiny or time.perf_counter() - started
                                         >= self.seconds):
                    break
                params = self._params(index)
                start = time.perf_counter()
                outcome = oracle.run_case(params)
                latencies.append(time.perf_counter() - start)
                clock.sample()
                self.attempted += 1
                if outcome.outcome != OUTCOME_MATCH:
                    self.failures.append(
                        f"case seed {params.seed}: {outcome.outcome} {outcome.detail}")
                index += 1
            elapsed = time.perf_counter() - started - sum(clock.samples)
        return {"latencies": latencies, "clock": clock, "elapsed": elapsed}

    def e2e(self, result: dict, generic: Metrics, named: Metrics) -> None:
        ms = [1e3 * s for s in result["latencies"]]
        rate = len(ms) / sum(result["latencies"])
        named.set("fuzz.cases_per_s", rate, "1/s", len(ms))
        named.set("fuzz.case_p50_ms", median(ms), "ms", len(ms))
        named.tail(f"fuzz.case_p{TAIL_Q:g}_ms", ms, TAIL_Q, "ms")
        normal_ms = result["clock"].normalize(ms)
        generic.set("ops_per_s", 1e3 * len(ms) / sum(normal_ms), "1/s", len(ms))
        generic.set("p50_ms", median(normal_ms), "ms", len(ms))
        generic.tail("tail_ms", normal_ms, TAIL_Q, "ms")

    def traced_wall(self, result: dict) -> float:
        return sum(result["clock"].normalize(result["latencies"]))

    def layer_extra(self, result: dict) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass
