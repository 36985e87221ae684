"""Which calls into the program count as which layer, and the per-layer
metrics derived from the spans and from counts the program returns.

Span names (rows of the per-layer table):

==================  ==================================================
``alda``            ``parse_program`` / ``check_program`` (front end)
``compiler``        ``compile_analysis`` minus its front end
``vm.bind``         ``Interpreter(...)`` and every analysis ``attach``
``vm.run.plain``    ``Interpreter.run`` with nothing attached
``vm.run.hooked``   ``Interpreter.run`` with an analysis attached
``vm.run.recording`` ``Interpreter.run`` under the trace recorder
``trace.record``    ``record_workload`` minus the VM work inside it
``trace.reader``    ``TraceReader(...)`` (container parse + digest check)
``trace.replay``    ``TraceReplayer.replay`` (decode + settle)
``trace.store``     ``TraceStore.ingest`` / ``TraceStore.load_result``
``serve.client``    ``ServeClient.submit_digest_first`` (client side)
``staticpass``      ``elision_mask`` / ``analyze_elision``
``partition``       ``replay_partitioned``
``fuzz.case``       ``Oracle.run_case`` minus its cells
``fuzz.cell.<c>``   one matrix cell of a case, minus the layers above
``fuzz.gen``        ``synthetic_workload`` / ``generate`` (module generation)
==================  ==================================================
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Dict

from common import Metrics
from spans import Tracer, VMKinds

#: Every per-layer metric, with its unit (the ``per_layer`` list).
PER_LAYER_UNITS: Dict[str, str] = {
    "alda.frontend_ms": "ms",
    "compiler.compile_ms": "ms",
    "vm.bind_ms": "ms",
    "vm.compile_cache_misses": "count",
    "vm.bytecode_cache_misses": "count",
    "vm.plain_run_s": "s",
    "vm.plain_ns_per_instr": "ns",
    "vm.instructions": "count",
    "instr.hooked_extra_s": "s",
    "instr.ns_per_handler_call": "ns",
    "instr.ns_per_metadata_op": "ns",
    "instr.handler_calls": "count",
    "instr.metadata_ops": "count",
    "trace.record_s": "s",
    "trace.bytes": "bytes",
    "trace.decode_ms": "ms",
    "trace.settle_ms": "ms",
    "trace.ingest_ms": "ms",
    "trace.load_result_ms": "ms",
    "exec.pool_overhead_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "serve.single_flight_hits": "count",
    "serve.busy_total": "count",
    "serve.worker_restarts": "count",
    "staticpass.mask_ms": "ms",
    "staticpass.elided_ratio": "ratio",
    "fuzz.gen_ms": "ms",
    "fuzz.modules_generated": "count",
    "fuzz.cell.reference-off-mono-inline_ms": "ms",
    "fuzz.cell.compiled-off-mono-inline_ms": "ms",
    "fuzz.cell.bytecode-off-mono-inline_ms": "ms",
    "fuzz.cell.compiled-intra-mono-inline_ms": "ms",
    "fuzz.cell.compiled-inter-mono-inline_ms": "ms",
    "fuzz.cell.bytecode-inter-mono-inline_ms": "ms",
    "fuzz.cell.compiled-off-p2-inline_ms": "ms",
    "fuzz.cell.compiled-off-p4-inline_ms": "ms",
    "fuzz.cell.compiled-off-mono-serve_ms": "ms",
    "bench.tracing_overhead": "ratio",
}


def cell_layer(cell_name: str) -> str:
    return "fuzz.cell." + cell_name.replace("/", "-")


def cache_counters() -> Dict[str, int]:
    """Process-wide cache/elision counters the program already keeps."""
    from repro.staticpass import staticpass_stats
    from repro.vm.bytecode import bytecode_cache_stats
    from repro.vm.compile import compile_cache_stats

    sp = staticpass_stats()
    return {
        "vm.compile_cache_misses": compile_cache_stats()["misses"],
        "vm.bytecode_cache_misses": bytecode_cache_stats()["misses"],
        "sites_considered": sp["sites_considered"],
        "sites_elided": sp["sites_elided"],
    }


#: cache-clearing functions, and the counters each one zeroes
_CLEARS = (
    ("repro.vm.compile", "clear_compile_cache", ("vm.compile_cache_misses",)),
    ("repro.vm.bytecode", "clear_bytecode_cache", ("vm.bytecode_cache_misses",)),
    ("repro.staticpass.elide", "clear_staticpass_cache",
     ("sites_considered", "sites_elided")),
)


class LayerProbe:
    """Installs spans at every layer boundary and accumulates the counts
    each layer's calls return (``Profile`` fields, trace sizes)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.kinds = VMKinds()
        #: wall seconds of the latest plain run per module name
        self._plain_s: Dict[str, float] = {}
        #: counter values banked just before a traced run cleared them
        self._banked: Dict[str, int] = defaultdict(int)

    def counters(self) -> Dict[str, int]:
        """:func:`cache_counters`, plus whatever traced clears zeroed."""
        return {key: value + self._banked[key] for key, value in cache_counters().items()}

    def _banking(self, original, keys):
        def clear(*args, **kwargs):
            current = cache_counters()
            for key in keys:
                self._banked[key] += current[key]
            return original(*args, **kwargs)
        return clear

    # -- callbacks on completed calls ------------------------------------
    def _mark_hooked(self, args, _result, _seconds) -> None:
        self.kinds.mark(args[1], "hooked")

    def _mark_recording(self, args, _result, _seconds) -> None:
        self.kinds.mark(args[1], "recording")

    def _run_layer(self, args) -> str:
        return "vm.run." + self.kinds.kind(args[0])

    def _after_run(self, args, profile, seconds) -> None:
        vm = args[0]
        kind = self.kinds.kind(vm)
        count = self.tracer.count
        count("vm.instructions", profile.instructions)
        name = vm.module.name
        if kind == "plain":
            self._plain_s[name] = seconds
            count("vm.plain_run_s", seconds)
            count("vm.plain_instructions", profile.instructions)
        elif kind == "hooked":
            count("instr.handler_calls", profile.handler_calls)
            count("instr.metadata_ops", profile.metadata_ops)
            plain = self._plain_s.get(name)
            if plain is not None:
                count("instr.paired_runs")
                count("instr.hooked_extra_s", seconds - plain)
                count("instr.paired_handler_calls", profile.handler_calls)
                count("instr.paired_metadata_ops", profile.metadata_ops)

    def _after_record(self, args, _meta, _seconds) -> None:
        fileobj = args[2]
        self.tracer.count("trace.bytes", fileobj.tell())

    def _after_synthetic(self, _args, _workload, _seconds) -> None:
        self.tracer.count("fuzz.modules_generated")

    # -- patches ------------------------------------------------------------
    def install(self) -> None:
        from repro.baselines import HandTunedEraser, HandTunedMSan
        from repro.compiler.pipeline import CompiledAnalysis
        from repro.fuzz.oracle import Oracle
        from repro.serve.client import ServeClient
        from repro.trace.format import TraceReader
        from repro.trace.recorder import TraceRecorder
        from repro.trace.replayer import TraceReplayer
        from repro.trace.store import TraceStore
        from repro.vm.interpreter import Interpreter
        import repro.compiler.pipeline as pipeline
        import repro.partition.runner as partition_runner
        import repro.staticpass as staticpass
        import repro.staticpass.elide as elide

        t = self.tracer
        t.wrap(pipeline, "parse_program", "alda")
        t.wrap(pipeline, "check_program", "alda")
        t.wrap_everywhere("repro.compiler.pipeline", "compile_analysis", "compiler")
        t.wrap(Interpreter, "__init__", "vm.bind")
        t.wrap(Interpreter, "run", self._run_layer, self._after_run)
        for cls in (CompiledAnalysis, HandTunedEraser, HandTunedMSan):
            t.wrap(cls, "attach",
                   lambda args: "vm.bind" if isinstance(args[1], Interpreter)
                   else "trace.replay",
                   self._mark_hooked)
        t.wrap(TraceRecorder, "attach", "trace.record", self._mark_recording)
        t.wrap_everywhere("repro.trace.recorder", "record_workload", "trace.record",
                          self._after_record)
        t.wrap(TraceReader, "__init__", "trace.reader")
        t.wrap(TraceReplayer, "replay", "trace.replay")
        t.wrap(TraceStore, "ingest", "trace.store.ingest")
        t.wrap(TraceStore, "load_result", "trace.store.load_result")
        t.wrap(ServeClient, "submit_digest_first", "serve.client")
        t.wrap(elide, "elision_mask", "staticpass")
        t.wrap(staticpass, "analyze_elision", "staticpass")
        t.wrap(partition_runner, "replay_partitioned", "partition")
        t.wrap(Oracle, "run_case", "fuzz.case")
        t.wrap(Oracle, "_run_cell", lambda args: cell_layer(args[3].name))
        t.wrap_everywhere("repro.fuzz.gen", "generate", "fuzz.gen")
        t.wrap_everywhere("repro.fuzz.gen", "synthetic_workload", "fuzz.gen",
                          self._after_synthetic)
        for module_name, name, keys in _CLEARS:
            module = importlib.import_module(module_name)
            t.patch(module, name, self._banking(getattr(module, name), keys))

    def uninstall(self) -> None:
        self.tracer.restore()

    # -- derived metrics ----------------------------------------------------
    def layer_metrics(self, counter_delta: Dict[str, int],
                      extra: Dict[str, float]) -> Metrics:
        """Per-layer metrics over every recorded span.

        ``counter_delta`` is how far :meth:`counters` moved while spans
        were installed; ``extra`` carries values a workload measured
        itself (serve's decode/settle split, STATS counters).  A metric
        neither produced is reported unmeasured with a reason.
        """
        t = self.tracer
        table = t.layer_table(0, 0.0)
        counts = t.counts

        def inclusive_ms(layer: str) -> float:
            return 1e3 * t.inclusive(0, layer)

        def self_s(layer: str) -> float:
            return table.get(layer, {"self_s": 0.0})["self_s"]

        def has(layer: str) -> bool:
            return layer in table

        values: Dict[str, float] = {}
        if has("alda"):
            values["alda.frontend_ms"] = inclusive_ms("alda")
        if has("compiler"):
            values["compiler.compile_ms"] = 1e3 * self_s("compiler")
        if has("vm.bind"):
            values["vm.bind_ms"] = 1e3 * self_s("vm.bind")
        for name in ("vm.compile_cache_misses", "vm.bytecode_cache_misses"):
            values[name] = counter_delta[name]
        if counts["vm.instructions"]:
            values["vm.instructions"] = counts["vm.instructions"]
        if counts["vm.plain_instructions"]:
            values["vm.plain_run_s"] = counts["vm.plain_run_s"]
            values["vm.plain_ns_per_instr"] = (
                1e9 * counts["vm.plain_run_s"] / counts["vm.plain_instructions"])
        if counts["instr.handler_calls"] or has("vm.run.hooked"):
            values["instr.handler_calls"] = counts["instr.handler_calls"]
            values["instr.metadata_ops"] = counts["instr.metadata_ops"]
        if counts["instr.paired_runs"]:
            extra_s = counts["instr.hooked_extra_s"]
            values["instr.hooked_extra_s"] = extra_s
            if counts["instr.paired_handler_calls"]:
                values["instr.ns_per_handler_call"] = (
                    1e9 * extra_s / counts["instr.paired_handler_calls"])
            if counts["instr.paired_metadata_ops"]:
                values["instr.ns_per_metadata_op"] = (
                    1e9 * extra_s / counts["instr.paired_metadata_ops"])
        if has("trace.record"):
            values["trace.record_s"] = inclusive_ms("trace.record") / 1e3
            values["trace.bytes"] = counts["trace.bytes"]
        if has("trace.store.ingest"):
            values["trace.ingest_ms"] = inclusive_ms("trace.store.ingest")
        if has("trace.store.load_result"):
            values["trace.load_result_ms"] = inclusive_ms("trace.store.load_result")
        if has("staticpass"):
            values["staticpass.mask_ms"] = inclusive_ms("staticpass")
            considered = counter_delta["sites_considered"]
            if considered:
                values["staticpass.elided_ratio"] = counter_delta["sites_elided"] / considered
        if has("fuzz.gen"):
            values["fuzz.gen_ms"] = inclusive_ms("fuzz.gen")
            values["fuzz.modules_generated"] = counts["fuzz.modules_generated"]
        for layer in table:
            if layer.startswith("fuzz.cell."):
                values[layer + "_ms"] = inclusive_ms(layer)
        values.update(extra)

        metrics = Metrics()
        for name, unit in PER_LAYER_UNITS.items():
            if name in values:
                metrics.set(name, values[name], unit)
            else:
                metrics.unmeasured(name, unit, _why_unmeasured(name))
        return metrics


def _why_unmeasured(name: str) -> str:
    if name in ("instr.handler_calls", "instr.metadata_ops"):
        return "no hooked VM run in this process (pool workers run them)"
    if name.startswith("instr."):
        return "no hooked run paired with a plain run of the same module"
    if name == "vm.plain_ns_per_instr" or name == "vm.plain_run_s":
        return "no plain (uninstrumented) VM run in this workload"
    if name == "staticpass.elided_ratio":
        return "no elision sites considered"
    return "not exercised, or not counted, on this workload"
