"""Regenerate ``expected.json``, the benchmark's correctness oracle.

Every value comes from the reference backend (the independent
object-walking interpreter), never from the backend under test::

    python3 perfbench/make_expected.py

Simulated cycles and reports are part of the reproduced result and must
not change; regenerate only when a change to them is intended.
"""

import json
import sys

import common
from figures_inline import bench_row
from serve_replay import SPECS


def main() -> int:
    common.use_source_tree()
    from repro.exec.pool import ANALYSIS_SPECS
    from repro.harness.figures import figure3, figure4, figure5
    from repro.harness.runner import measure_overhead
    from repro.workloads import fig5_workloads

    figures = {}
    for name, figure in (("figure3", figure3), ("figure4", figure4), ("figure5", figure5)):
        figures[name] = [bench_row(record) for record in figure(backend="reference").bench]
        print(f"{name}: {len(figures[name])} measurements", flush=True)

    serve = {}
    for name, workload in fig5_workloads().items():
        serve[name] = {}
        for spec in SPECS:
            result = measure_overhead(workload, ANALYSIS_SPECS[spec], backend="reference")
            serve[name][spec] = {"instrumented_cycles": result.instrumented_cycles,
                                 "n_reports": len(result.reports)}
        print(f"serve {name}: {len(SPECS)} specs", flush=True)

    common.EXPECTED.write_text(json.dumps({
        "generated_with": "backend=reference, scale=1",
        "figures": figures,
        "serve": serve,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
