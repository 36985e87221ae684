"""Differential tests: reference vs closure-compiled vs bytecode backend.

The contract (see ``src/repro/vm/compile.py`` and
``src/repro/vm/bytecode``) is *bit-identical observable state*: every
:class:`~repro.vm.profile.Profile` field (cycle counters, cache stats,
event counts, metadata bytes), every report (message, location,
backtrace), and the recorded trace bytes must match between
``Interpreter(module, backend="reference")``, the default compiled
backend, and the optimizing bytecode backend.  These tests sweep every
bundled workload against every bundled analysis spec, so any semantic
drift in the generated code fails loudly here before it can skew a
figure.  The full bytecode matrix is marked ``bytecode`` and runs in
its own CI job; the unmarked tests keep one-workload smoke coverage of
all three backends in the default run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import pathlib

import pytest

from repro.exec.pool import ANALYSIS_SPECS, build_analysis
from repro.vm import Interpreter
from repro.workloads import ALL

SPECS = ["plain"] + sorted(ANALYSIS_SPECS)

#: Compiled-backend observables of every workload x spec pair, recorded
#: before the cost model's wall-clock rewrites (fused touch, register
#: hits, bulk ranges).  The backends share the runtime, cache simulator
#: and generated handlers, so backend agreement alone cannot catch a
#: drift there; this file can.  Regenerate only from a commit whose
#: cycles are known right: ``PYTHONPATH=src python -m tests.vm.test_backends``.
GOLDEN = pathlib.Path(__file__).parent / "golden" / "observables.json"

#: profile-guided training runs pinned in the golden file
PGO_WORKLOAD = "radix"
PGO_ANALYSES = ("eraser", "fasttrack")


def _observe(workload, spec: str, backend: str):
    """Run one workload/spec pair; return everything observable."""
    module = workload.make_module(1)
    vm = Interpreter(
        module,
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
        track_shadow=(spec != "plain"),
        backend=backend,
    )
    if spec != "plain":
        build_analysis(spec).attach(vm)
    profile = vm.run()
    return dataclasses.asdict(profile), list(vm.reporter), vm._fire_seq


def _golden_record(observed) -> dict:
    """The pinned summary of one compiled-backend observation."""
    profile, reports, seq = observed
    blob = json.dumps(
        [profile, [dataclasses.asdict(report) for report in reports], seq],
        sort_keys=True,
    )
    return {
        "instructions": profile["instructions"],
        "base_cycles": profile["base_cycles"],
        "mem_cycles": profile["mem_cycles"],
        "instr_cycles": profile["instr_cycles"],
        "cache": profile["cache"],
        "metadata_ops": profile["metadata_ops"],
        "metadata_bytes": profile["metadata_bytes"],
        "handler_calls": profile["handler_calls"],
        "reports": len(reports),
        "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
    }


def _pgo_counts(analysis: str) -> dict:
    import importlib

    from repro.compiler.profile_guided import profile_analysis

    source = importlib.import_module(f"repro.analyses.{analysis}").SOURCE
    workload = ALL[PGO_WORKLOAD]
    profile = profile_analysis(
        source,
        lambda: workload.make_module(1),
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
    )
    return dict(sorted(profile.counts.items()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(ALL))
def test_profiles_bit_identical(name, golden):
    """All analysis specs on one workload: profiles, reports, event seq,
    and the compiled backend against the committed golden observables."""
    workload = ALL[name]
    for spec in SPECS:
        reference = _observe(workload, spec, "reference")
        compiled = _observe(workload, spec, "compiled")
        assert reference[0] == compiled[0], f"{name}/{spec}: profile differs"
        assert reference[1] == compiled[1], f"{name}/{spec}: reports differ"
        assert reference[2] == compiled[2], f"{name}/{spec}: event seq differs"
        assert _golden_record(compiled) == golden["runs"][f"{name}/{spec}"], (
            f"{name}/{spec}: observables drifted from the golden file"
        )


@pytest.mark.parametrize("analysis", PGO_ANALYSES)
def test_pgo_access_counts_golden(analysis, golden):
    """Profile-guided training counts every field access the handlers
    make: none may become an uncounted register hit."""
    assert _pgo_counts(analysis) == golden["pgo"][analysis]


def test_figure3_table_identical_across_backends():
    from repro.harness.figures import figure3

    reference = figure3(backend="reference")
    compiled = figure3(backend="compiled")
    assert reference.rows == compiled.rows
    assert reference.summary == compiled.summary


def test_figure4_table_identical_across_backends():
    from repro.harness.figures import figure4

    reference = figure4(backend="reference")
    compiled = figure4(backend="compiled")
    assert reference.rows == compiled.rows
    assert reference.summary == compiled.summary


def test_recorded_trace_bytes_identical():
    """The recorder wraps cache.access and hooks everything; the generated
    backends must drive it through the same accesses and events, in the
    same order, yielding byte-identical trace files.  Partitioned replay
    coverage rides on this: all backends produce the same v2 container,
    so one replay covers every backend."""
    from repro.trace import record_workload

    workload = ALL["radix"]
    streams = {}
    for backend in ("reference", "compiled", "bytecode"):
        buffer = io.BytesIO()
        record_workload(workload, 1, buffer, backend=backend)
        streams[backend] = buffer.getvalue()
    assert streams["reference"] == streams["compiled"]
    assert streams["reference"] == streams["bytecode"]


def test_compile_cache_hit_on_identical_module_text():
    from repro.vm.compile import (
        clear_compile_cache,
        compile_cache_stats,
        compile_module,
        ir_digest,
    )

    clear_compile_cache()
    first = ALL["radix"].make_module(1)
    second = ALL["radix"].make_module(1)  # distinct objects, same text
    assert first is not second
    compile_module(first)
    assert compile_cache_stats() == {"hits": 0, "misses": 1, "entries": 1}
    cached = compile_module(second)
    stats = compile_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert cached.digest == ir_digest(second)


def test_unknown_backend_rejected():
    module = ALL["radix"].make_module(1)
    with pytest.raises(ValueError, match="backend"):
        Interpreter(module, backend="jit")


def test_bytecode_cache_hit_on_identical_module_text():
    """Stage 1 of the bytecode backend (the optimizer pipeline) is
    memoized process-wide, like the closure backend's compile cache —
    this is the ``vm.compile.bytecode`` tier in serve stats."""
    from repro.vm.bytecode import (
        bytecode_cache_stats,
        clear_bytecode_cache,
        compile_bytecode,
    )

    clear_bytecode_cache()
    first = ALL["radix"].make_module(1)
    second = ALL["radix"].make_module(1)  # distinct objects, same text
    assert first is not second
    compile_bytecode(first)
    assert bytecode_cache_stats() == {"hits": 0, "misses": 1, "entries": 1}
    compile_bytecode(second)
    stats = bytecode_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_bytecode_smoke_one_workload_all_specs():
    """Unmarked fast path: keep one-workload bytecode coverage in the
    default test run (the full matrix is behind ``-m bytecode``)."""
    workload = ALL["gcc"]
    for spec in SPECS:
        reference = _observe(workload, spec, "reference")
        bytecode = _observe(workload, spec, "bytecode")
        assert reference == bytecode, f"gcc/{spec}: bytecode drift"


# ----------------------------------------------------------------------
# full bytecode differential matrix (dedicated CI job: -m bytecode)
# ----------------------------------------------------------------------
@pytest.mark.bytecode
@pytest.mark.parametrize("name", sorted(ALL))
def test_bytecode_profiles_bit_identical(name):
    """All analysis specs on one workload: reference vs bytecode."""
    workload = ALL[name]
    for spec in SPECS:
        reference = _observe(workload, spec, "reference")
        bytecode = _observe(workload, spec, "bytecode")
        assert reference[0] == bytecode[0], f"{name}/{spec}: profile differs"
        assert reference[1] == bytecode[1], f"{name}/{spec}: reports differ"
        assert reference[2] == bytecode[2], f"{name}/{spec}: event seq differs"


@pytest.mark.bytecode
@pytest.mark.parametrize("name", sorted(ALL))
def test_bytecode_elision_bit_identical(name):
    """With elision active, reference and bytecode must still agree on
    every observable (mirrors tests/staticpass/test_elision_equivalence)."""
    import inspect

    workload = ALL[name]
    for spec in sorted(ANALYSIS_SPECS):
        observed = {}
        for backend in ("reference", "bytecode"):
            module = workload.make_module(1)
            vm = Interpreter(
                module,
                extern=workload.make_extern(),
                input_lines=list(workload.input_lines),
                track_shadow=True,
                backend=backend,
            )
            analysis = build_analysis(spec)
            if "elide" in inspect.signature(analysis.attach).parameters:
                analysis.attach(vm, elide=True)
            else:
                analysis.attach(vm)
            profile = vm.run()
            observed[backend] = (
                dataclasses.asdict(profile), list(vm.reporter), vm._fire_seq
            )
        assert observed["reference"] == observed["bytecode"], (
            f"{name}/{spec}: elided bytecode drift"
        )


@pytest.mark.bytecode
def test_bytecode_figure3_table_identical():
    from repro.harness.figures import figure3

    reference = figure3(backend="reference")
    bytecode = figure3(backend="bytecode")
    assert reference.rows == bytecode.rows
    assert reference.summary == bytecode.summary


@pytest.mark.bytecode
def test_bytecode_figure4_table_identical():
    from repro.harness.figures import figure4

    reference = figure4(backend="reference")
    bytecode = figure4(backend="bytecode")
    assert reference.rows == bytecode.rows
    assert reference.summary == bytecode.summary


@pytest.mark.bytecode
def test_bytecode_recorded_trace_partitioned_replay(tmp_path):
    """A trace recorded under the bytecode backend is byte-identical to
    the reference recording, and partitioned replay of it matches
    monolithic replay (the most segmented bundled trace, 2 shards)."""
    import dataclasses as dc

    from repro.partition import replay_partitioned
    from repro.trace import record_workload
    from repro.trace.format import DEFAULT_SEGMENT_TARGET
    from repro.trace.replayer import TraceReplayer
    from repro.trace.store import TraceStore, module_digest

    workload = ALL["sort"]
    reference = io.BytesIO()
    record_workload(
        workload, 1, reference, backend="reference",
        segment_target_bytes=DEFAULT_SEGMENT_TARGET,
        meta={"module_digest": module_digest(workload, 1)},
    )
    store = TraceStore(tmp_path)
    store.get_or_record(workload, 1, backend="bytecode")
    path = store.trace_path(workload, 1)
    assert path.read_bytes() == reference.getvalue()
    replayer = TraceReplayer(store.open_path(path))
    mono_profile, mono_reporter = replayer.replay(
        [build_analysis("eraser.full")]
    )
    profile, reporter, stats = replay_partitioned(
        store, path, ["eraser.full"], 2
    )
    assert dc.asdict(profile) == dc.asdict(mono_profile)
    assert list(reporter) == list(mono_reporter)
    assert stats["records"] > 0


def test_backend_survives_exceptions_identically():
    """A faulting program must raise the same error with the same
    profile totals on both backends (the raising instruction is
    counted)."""
    from repro.errors import MemoryFault
    from repro.ir import parse_module

    text = """
module faulting

func main() {
entry:
  %p = const 0
  %v = load [%p], 8
  ret %v
}
"""
    outcomes = {}
    for backend in ("reference", "compiled", "bytecode"):
        vm = Interpreter(parse_module(text), backend=backend)
        with pytest.raises(MemoryFault):
            vm.run()
        outcomes[backend] = (vm.profile.instructions, vm.profile.base_cycles)
    assert outcomes["reference"] == outcomes["compiled"]
    assert outcomes["reference"] == outcomes["bytecode"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "runs": {
            f"{name}/{spec}": _golden_record(_observe(ALL[name], spec, "compiled"))
            for name in sorted(ALL)
            for spec in SPECS
        },
        "pgo": {analysis: _pgo_counts(analysis) for analysis in PGO_ANALYSES},
    }, indent=1, sort_keys=True) + "\n")
