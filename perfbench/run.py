"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures-inline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all               # every workload, one command

``--trace 0`` measures the end-to-end metrics with no spans installed.
``--trace 1`` runs set-up with spans, measures once without them, then
repeats the same work with spans at every layer boundary; it prints the
per-layer self-time tables and the tracing overhead (traced wall over
untraced wall) and reports the per-layer metrics.

``--workload all`` runs each workload in a child process of its own, so
each pays its own imports and has its own peak RSS, and merges their
results under ``<workload>/<metric>`` names.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report
(run header, metrics under their workload-specific names, failures,
tables) is written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

import argparse
import faulthandler
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import common
from common import OUT, Metrics, Scratch, import_seconds, median, peak_rss_mb, run_header

WORKLOADS = ("figures-inline", "serve-replay", "fuzz-sweep")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
#: repetitions of each set-up step except trace recording (median is reported)
SETUP_REPEATS = 5
#: per workload; a run must end within 180 s
DEADLINE_S = 175
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
             "p50_ms": "ms", "tail_ms": "ms"}


def _bench_module(name: str):
    import figures_inline
    import fuzz_sweep
    import serve_replay

    return {"figures-inline": figures_inline, "serve-replay": serve_replay,
            "fuzz-sweep": fuzz_sweep}[name]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 expected: dict) -> dict:
    """Set up, measure and check one workload; returns its report."""
    from layers import LayerProbe

    module = _bench_module(name)
    scratch = Scratch()
    bench = module.Bench(seed, seconds, expected, tiny, scratch)
    probe = LayerProbe() if trace else None
    report: Dict[str, object] = {"header": run_header(name, seed, seconds, trace)}
    repeats = 1 if trace else SETUP_REPEATS
    import_s = median([import_seconds(module.IMPORTS) for _ in range(repeats)])
    try:
        if probe is not None:
            probe.install()
            counters0 = probe.counters()
        setup_begin = time.perf_counter()
        parts = bench.setup(repeats)
        setup_wall = time.perf_counter() - setup_begin
        setup = {"import_s": import_s, **parts}
        if probe is not None:
            probe.uninstall()
            counters1 = probe.counters()
            setup_table = probe.tracer.layer_table(0, setup_wall)

        result = bench.measure()
        generic, named = Metrics(), Metrics()
        host_factor = result["clock"].factor()
        generic.set("setup_s", sum(setup.values()) / host_factor, "s")
        bench.e2e(result, generic, named)

        if probe is not None:
            counters2 = probe.counters()
            probe.install()
            mark = probe.tracer.mark()
            traced = bench.measure(like=result)
            probe.uninstall()
            counters3 = probe.counters()
            traced_wall = bench.traced_wall(traced)
            untraced_wall = bench.traced_wall(result)
            table = probe.tracer.layer_table(mark, traced["elapsed"])
            extra = bench.layer_extra(traced)
            extra["bench.tracing_overhead"] = traced_wall / untraced_wall
            delta = {key: counters1[key] - counters0[key] + counters3[key] - counters2[key]
                     for key in counters0}
            layers = probe.layer_metrics(delta, extra)
            report["tables"] = {"setup": {"wall_s": setup_wall, "rows": setup_table},
                                "measure": {"wall_s": traced["elapsed"], "rows": table}}
            report["tracing_overhead"] = {"traced_s": traced_wall,
                                          "untraced_s": untraced_wall}
    finally:
        if probe is not None:
            probe.uninstall()
        bench.close()
        scratch.close()

    generic.set("peak_rss_mb", peak_rss_mb(include_children=name == "serve-replay"), "MB")
    generic.values = {key: generic.values[key] for key in E2E_UNITS}
    report.update(setup=setup, host_factor=host_factor, named=named.values,
                  metrics=generic.values,
                  attempted=bench.attempted, failed=len(bench.failures),
                  failures=bench.failures)
    if probe is not None:
        report["layers"] = layers.values
    return report


def _print_report(report: dict) -> None:
    from spans import render_table

    header = report["header"]
    print(f"== perfbench {header['workload']}  seed={header['seed']}  "
          f"seconds={header['seconds']}  trace={int(header['trace'])} ==")
    print("run header: " + json.dumps(header, sort_keys=True))
    print("set-up (s): " + ", ".join(f"{k}={v:.4f}" for k, v in report["setup"].items()))
    print(f"host factor: {report['host_factor']:.4f} (calibration unit time / reference)")
    for title, key in (("end-to-end metrics (raw wall clock on this host)", "named"),
                       ("benchmark metrics (BENCHMARK.json names, see perfbench/README.md)",
                        "metrics")):
        print(f"{title}:")
        print("\n".join(Metrics(report[key]).render()))
    if "tables" in report:
        for phase, table in report["tables"].items():
            print(render_table(f"{header['workload']} {phase}", table["rows"],
                               table["wall_s"]))
        overhead = report["tracing_overhead"]
        print(f"tracing overhead: {overhead['traced_s']:.4f} s traced / "
              f"{overhead['untraced_s']:.4f} s untraced = "
              f"{overhead['traced_s'] / overhead['untraced_s']:.4f}x")
        print("per-layer metrics:")
        print("\n".join(Metrics(report["layers"]).render()))
    print(f"correctness: attempted={report['attempted']} failed={report['failed']}")
    for failure in report["failures"][:10]:
        print(f"  FAILED {failure}")


def _result_line(report: dict, trace: bool) -> dict:
    """The final JSON object of one workload's run."""
    metrics = {}
    for name, entry in (report["layers"] if trace else report["metrics"]).items():
        value = entry["value"]
        if trace and value == "unmeasured":
            value = 0  # per-layer: the report above carries the reason
        metrics[name] = {"value": value, "unit": entry["unit"]}
    failed = report["failed"]
    return {"correct": failed == 0, "attempted": report["attempted"], "failed": failed,
            "metrics": metrics}


def _run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own child process; their final lines merged
    under ``<workload>/<metric>`` names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S + 5)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        line = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for metric, entry in line["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    return merged


def _pin_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0``.

    String hashing is randomised per process, and dict layout and speed
    with it (about +-6% on one figure pass); pinning it lets runs compare.
    Simulated results do not depend on it.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    _pin_hash_seed()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.use_source_tree()
    if args.workload == "all":
        print(json.dumps(_run_all(args.seed, args.seconds, args.trace)))
        return 0
    expected = json.loads(common.EXPECTED.read_text())
    # A hung daemon or worker must not outlive the run: dump every
    # thread's stack and exit non-zero instead.
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          False, expected)
    _print_report(report)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(_result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
