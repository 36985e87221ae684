"""Workload ``figures-inline``: Figures 3, 4 and 5 on the harness inline path.

One pass runs ``figure3``, ``figure4`` and ``figure5`` (compiled backend,
scale 1) exactly as ``python -m repro.harness fig3|fig4|fig5`` does.  The
VM's process-wide caches are cleared before each pass, so every pass
starts as cold as a fresh command.  The figures print one line per
workload row in verbose mode; the time between those lines is the row
latency, so per-row percentiles need no hook into the program.

Correctness: every measurement's cycles, overhead and report count must
equal ``expected.json``, which ``make_expected.py`` generated with the
independent reference interpreter.  Each figure must also print exactly
one line per workload row of ``expected.json``; otherwise the row
latencies would not be row latencies, and the figure counts as failed.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional

from common import HostClock, Metrics, median

NAME = "figures-inline"
#: what set-up imports (timed in fresh interpreters, see common.import_seconds)
IMPORTS = ("repro.harness.figures",)
#: row-latency percentile reported as the tail (47 rows per pass)
TAIL_Q = 75.0


class _RowClock:
    """A stdout stand-in that times each row (one printed line) and runs
    a host-speed calibration unit between rows, outside the row times."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.rows: List[float] = []
        self.calibration_s = 0.0
        self._pending = ""
        self._start = time.perf_counter()

    def write(self, text: str) -> int:
        self._pending += text
        while "\n" in self._pending:
            _line, self._pending = self._pending.split("\n", 1)
            self.rows.append(time.perf_counter() - self._start)
            self.calibration_s += self.clock.sample()
            self._start = time.perf_counter()
        return len(text)

    def flush(self) -> None:
        pass


def _compile_all() -> None:
    """Every analysis the three figures compile."""
    from repro.analyses import eraser, fasttrack, msan, taint, uaf
    from repro.compiler import CompileOptions, combine_sources, compile_analysis

    msan.compile_()
    eraser.compile_()
    compile_analysis(eraser.SOURCE, eraser.OPTIONS.ds_only())
    for module in (fasttrack, uaf, taint):
        module.compile_()
    combined = combine_sources([m.SOURCE for m in (eraser, fasttrack, uaf, taint)])
    compile_analysis(combined, CompileOptions(granularity=8, analysis_name="combined"))


def clear_vm_caches() -> None:
    from repro.staticpass.elide import clear_staticpass_cache
    from repro.vm.bytecode import clear_bytecode_cache
    from repro.vm.compile import clear_compile_cache

    clear_compile_cache()
    clear_bytecode_cache()
    clear_staticpass_cache()


def bench_row(record: dict) -> dict:
    keys = ("workload", "label", "baseline_cycles", "instrumented_cycles",
            "overhead", "n_reports")
    return {key: record[key] for key in keys}


class Bench:
    def __init__(self, seed: int, seconds: float, expected: dict, tiny: bool,
                 scratch) -> None:
        self.seconds = seconds
        self.expected = expected["figures"]
        self.tiny = tiny
        self.attempted = 0
        self.failures: List[str] = []

    # -- set-up -------------------------------------------------------------
    def setup(self, repeats: int) -> Dict[str, float]:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            _compile_all()
            samples.append(time.perf_counter() - start)
        return {"analysis_compile_s": median(samples)}

    # -- one pass -------------------------------------------------------------
    def _figures(self):
        from repro.harness.figures import figure3, figure4, figure5

        if self.tiny:
            return [("figure4", figure4)]
        return [("figure3", figure3), ("figure4", figure4), ("figure5", figure5)]

    def _check(self, name: str, bench: List[dict], lines: int) -> None:
        expected = self.expected.get(name, [])
        rows = len({record["workload"] for record in expected})
        self.attempted += 1
        if lines != rows:
            self.failures.append(f"{name}: printed {lines} lines for {rows} workload rows")
        got = [bench_row(record) for record in bench]
        self.attempted += max(len(expected), len(got))
        for index in range(max(len(expected), len(got))):
            want = expected[index] if index < len(expected) else None
            have = got[index] if index < len(got) else None
            if want != have:
                self.failures.append(f"{name} row {index}: expected {want}, got {have}")

    def one_pass(self, clock: HostClock) -> Dict[str, object]:
        clear_vm_caches()
        rows: List[float] = []
        per_figure: Dict[str, float] = {}
        for name, figure in self._figures():
            rowclock = _RowClock(clock)
            begin = time.perf_counter()
            with contextlib.redirect_stdout(rowclock):
                data = figure(verbose=True)
            per_figure[name] = time.perf_counter() - begin - rowclock.calibration_s
            rows.extend(rowclock.rows)
            self._check(name, data.bench, len(rowclock.rows))
        return {"wall_s": sum(per_figure.values()), "rows": rows, "per_figure": per_figure}

    # -- measurement --------------------------------------------------------
    def measure(self, like: Optional[dict] = None) -> dict:
        """``like``: an earlier result whose work to repeat (traced re-run)."""
        clock = HostClock()
        passes = []
        started = time.perf_counter()
        while not passes or (like is None and time.perf_counter() - started < self.seconds):
            passes.append(self.one_pass(clock))
        rows = [latency for p in passes for latency in p["rows"]]
        walls = [p["wall_s"] for p in passes]
        elapsed = time.perf_counter() - started - sum(clock.samples)
        return {"walls": walls, "rows": rows, "passes": passes, "clock": clock,
                "elapsed": elapsed}

    def e2e(self, result: dict, generic: Metrics, named: Metrics) -> None:
        walls, rows = result["walls"], result["rows"]
        named.set("figures.wall_s", median(walls), "s", len(walls))
        for name in result["passes"][0]["per_figure"]:
            named.set(f"figures.{name}_s",
                      median([p["per_figure"][name] for p in result["passes"]]),
                      "s", len(walls))
        rows_ms = [1e3 * r for r in rows]
        named.set("figures.row_p50_ms", median(rows_ms), "ms", len(rows))
        named.tail(f"figures.row_p{TAIL_Q:g}_ms", rows_ms, TAIL_Q, "ms")
        normal_ms = result["clock"].normalize(rows_ms)
        generic.set("ops_per_s", 1e3 * len(rows) / sum(normal_ms), "1/s", len(rows))
        generic.set("p50_ms", median(normal_ms), "ms", len(rows))
        generic.tail("tail_ms", normal_ms, TAIL_Q, "ms")

    def traced_wall(self, result: dict) -> float:
        return sum(result["clock"].normalize(result["rows"]))

    def layer_extra(self, result: dict) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass
