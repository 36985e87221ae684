"""Self-tests of the benchmark at its smallest size.

    python3 -m pytest perfbench -q

Each workload runs in-process at its tiny size; the tests check that
every metric is emitted with its unit (or as ``unmeasured`` with a
reason), that a tampered expected value is counted as a failed
operation, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from run import E2E_UNITS  # noqa: E402

common.use_source_tree()

#: the end-to-end metrics each workload reports under its own names
NAMED = {
    "figures-inline": {"figures.wall_s": "s"},
    "serve-replay": {"serve.cold_rps": "1/s", "serve.cold_p50_ms": "ms",
                     "serve.cold_p90_ms": "ms", "serve.hit_rps": "1/s",
                     "serve.hit_p50_ms": "ms", "serve.hit_p99_ms": "ms"},
    "fuzz-sweep": {"fuzz.cases_per_s": "1/s"},
}


def _run(workload: str, trace: int, expected: dict = None) -> dict:
    if expected is None:
        expected = json.loads(common.EXPECTED.read_text())
    return run.run_workload(workload, seed=3, seconds=1, trace=bool(trace), tiny=True,
                            expected=expected)


def _check_entry(entry: dict, unit: str) -> None:
    assert entry["unit"] == unit
    if entry["value"] == "unmeasured":
        assert entry["reason"]
    else:
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(NAMED))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(capsys, workload, trace):
    report = _run(workload, trace)
    run._print_report(report)
    printed = capsys.readouterr().out
    line = run._result_line(report, bool(trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    assert set(line["metrics"]) == set(units)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == units[name]
        if not trace:
            assert entry["value"] == "unmeasured" or entry["value"] > 0

    for name, unit in NAMED[workload].items():
        _check_entry(report["named"][name], unit)
    for name, unit in E2E_UNITS.items():
        _check_entry(report["metrics"][name], unit)
    header = report["header"]
    for key in ("git_revision", "host", "cpu_count", "cpu_affinity", "python", "seed"):
        assert key in header
    if trace:
        for name, unit in PER_LAYER_UNITS.items():
            _check_entry(report["layers"][name], unit)
        assert "other" in report["tables"]["measure"]["rows"]
        assert report["layers"]["bench.tracing_overhead"]["value"] > 0
        assert "per-layer self time" in printed


def test_tampered_expected_value_fails():
    expected = json.loads(common.EXPECTED.read_text())
    expected["figures"]["figure4"][0]["instrumented_cycles"] += 1
    report = _run("figures-inline", 0, expected)
    line = run._result_line(report, False)
    assert line["correct"] is False
    assert line["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures-inline",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
