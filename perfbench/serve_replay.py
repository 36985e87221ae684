"""Workload ``serve-replay``: a ``repro.serve`` daemon under closed-loop load.

Set-up records the 15 ``fig5_workloads()`` traces once and starts an
in-thread daemon with 2 pool workers on a fresh store.  Two client
threads then drive it in a closed loop (each waits for its reply before
sending the next request), as harness batches do:

* ``cold``: every (trace, spec) pair once, in an order drawn from the
  seed, in chunks of ``COLD_CHUNK``.  Each is a digest probe, a trace
  upload on the first request per trace, a replay on a pool worker and a
  result-cache write.
* ``hit``: the same pairs again, drawn from the seed, for half of
  ``--seconds`` in five windows: result-cache reads plus framing.

Between chunks and windows both clients have finished, so no request is
in flight, and the main thread times calibration units there.  The
daemon runs in this process: units timed while a request is in flight
would share the GIL with its trace parse, ingest and result writes, slow
down with them and cancel part of their regression.  The BENCHMARK.json
metrics are ``serve.cold_rps`` (``ops_per_s``), ``serve.hit_p50_ms``
(``p50_ms``) and ``serve.cold_p90_ms`` (``tail_ms``), each request time
divided by the host factor of the pauses around its chunk or window.

Correctness: every reply's cycles and report count must equal
``expected.json`` (inline runs on the reference interpreter).  A traced
run also replays every pair in-process and checks it against the same
values; that replay gives the decode/settle split.
"""

from __future__ import annotations

import io
import random
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import CALIBRATION_REF_S, HostClock, Metrics, median, percentile

NAME = "serve-replay"
IMPORTS = ("repro.serve.server", "repro.serve.client", "repro.trace", "repro.workloads",
           "repro.exec.pool")
#: replay specs per trace: Figure 5's five plus Figure 4's two other series
SPECS = ("eraser.full", "fasttrack.alda", "uaf.alda", "taint.alda", "fig5.combined",
         "eraser.ds_only", "eraser.handtuned")
TINY_TRACES = ("memcached", "radiosity")
TINY_SPECS = ("eraser.full", "uaf.alda")
CLIENTS = 2
WORKERS = 2
MIN_HITS = 1000
HIT_WINDOWS = 5
#: cold pairs between two calibration pauses
COLD_CHUNK = 15
#: calibration units timed at each pause (about 0.17 s)
PAUSE_UNITS = 10


class Bench:
    def __init__(self, seed: int, seconds: float, expected: dict, tiny: bool,
                 scratch) -> None:
        self.seed = seed
        self.seconds = seconds
        self.expected = expected["serve"]
        self.tiny = tiny
        self.scratch = scratch
        self.specs = TINY_SPECS if tiny else SPECS
        self.traces: Dict[str, Tuple[str, bytes]] = {}  # workload -> (digest, bytes)
        self.attempted = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()
        self._server = None
        self._servers_started = 0

    # -- set-up -------------------------------------------------------------
    def _start_server(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import ServeConfig, serve_in_thread

        self._servers_started += 1
        root = self.scratch.sub(f"serve-store-{self._servers_started}")
        handle = serve_in_thread(ServeConfig(workers=WORKERS, store_root=str(root)))
        try:
            with ServeClient(("127.0.0.1", handle.port)) as client:
                client.ping()
        except BaseException:
            handle.stop()
            raise
        return handle

    def setup(self, repeats: int) -> Dict[str, float]:
        from repro.exec.pool import ANALYSIS_SPECS, analysis_fingerprint
        from repro.trace import record_workload
        from repro.workloads import fig5_workloads
        compile_samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for spec in self.specs:
                ANALYSIS_SPECS[spec]()
            compile_samples.append(time.perf_counter() - start)
        for spec in self.specs:  # warm the daemon's per-process analysis cache
            analysis_fingerprint(spec)

        start = time.perf_counter()
        workloads = fig5_workloads()
        names = TINY_TRACES if self.tiny else tuple(workloads)
        for name in names:
            buffer = io.BytesIO()
            meta = record_workload(workloads[name], 1, buffer)
            self.traces[name] = (meta["digest"], buffer.getvalue())
        record_s = time.perf_counter() - start

        start_samples = []
        for index in range(repeats):
            start = time.perf_counter()
            handle = self._start_server()
            start_samples.append(time.perf_counter() - start)
            if index < repeats - 1:
                handle.stop()
            else:
                self._server = handle
        return {"analysis_compile_s": median(compile_samples),
                "trace_record_s": record_s, "server_start_s": median(start_samples)}

    # -- traffic --------------------------------------------------------------
    def _pairs(self) -> List[Tuple[str, str]]:
        return [(name, spec) for name in self.traces for spec in self.specs]

    def _check(self, phase: str, name: str, spec: str, reply: dict) -> bool:
        want = self.expected[name][spec]
        record = reply["result"]
        have = {"instrumented_cycles": record["instrumented_cycles"],
                "n_reports": record["n_reports"]}
        if have != want:
            self._fail(f"{phase} {name} x {spec}: expected {want}, got {have}")
            return False
        return True

    def _fail(self, message: str) -> None:
        with self._lock:
            self.failures.append(message)

    def _drive(self, port: int, next_pair, phase: str) -> Tuple[List[float], List[dict]]:
        """Run CLIENTS closed-loop threads until ``next_pair`` returns None."""
        from repro.serve.client import ServeClient

        latencies: List[float] = []
        replies: List[dict] = []
        attempted = [0]

        def client_loop(index: int) -> None:
            with ServeClient(("127.0.0.1", port)) as client:
                while True:
                    pair = next_pair(index)
                    if pair is None:
                        return
                    name, spec = pair
                    digest, data = self.traces[name]
                    start = time.perf_counter()
                    try:
                        reply = client.submit_digest_first(spec, digest, data)
                    except Exception as exc:  # noqa: BLE001 - counted as a failed request
                        self._fail(f"{phase} {name} x {spec}: {type(exc).__name__}: {exc}")
                        with self._lock:
                            attempted[0] += 1
                        continue
                    elapsed = time.perf_counter() - start
                    ok = self._check(phase, name, spec, reply)
                    with self._lock:
                        attempted[0] += 1
                        if ok:
                            latencies.append(elapsed)
                            replies.append(reply)

        threads = [threading.Thread(target=client_loop, args=(i,), name=f"client-{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150.0)
            if thread.is_alive():
                raise RuntimeError(f"{phase} client thread did not finish")
        self.attempted += attempted[0]
        return latencies, replies

    def measure(self, like: Optional[dict] = None) -> dict:
        """``like``: an earlier result whose work to repeat (traced re-run)."""
        handle = self._server or self._start_server()
        self._server = None
        try:
            pairs = self._pairs()
            order = list(pairs)
            random.Random(self.seed).shuffle(order)
            cursor_lock = threading.Lock()
            # Calibration runs only in pauses, where no request is in
            # flight; each chunk of cold pairs and each hit window is
            # normalized by the pauses on either side of it.
            clock = HostClock()
            factor = self._pause(clock)
            cold: List[float] = []
            cold_factors: List[float] = []
            cold_wall = cold_normal_wall = 0.0
            start = time.perf_counter()
            for first in range(0, len(order), COLD_CHUNK):
                cursor = iter(order[first:first + COLD_CHUNK])

                def next_cold(_index, cursor=cursor):
                    with cursor_lock:
                        return next(cursor, None)

                chunk_start = time.perf_counter()
                latencies, _ = self._drive(handle.port, next_cold, "cold")
                chunk_wall = time.perf_counter() - chunk_start
                before, factor = factor, self._pause(clock)
                local = (before + factor) / 2.0
                cold_wall += chunk_wall
                cold_normal_wall += chunk_wall / local
                cold.extend(latencies)
                cold_factors.extend([local] * len(latencies))

            # Hits run in windows, each with fresh client threads and
            # connections: a window's rate depends on where the threads
            # land, and averaging windows steadies it.
            window = self.seconds / 2.0 / HIT_WINDOWS
            hits: List[float] = []
            hit_factors: List[float] = []
            hit_replies: List[dict] = []
            hit_wall = 0.0
            for index in range(HIT_WINDOWS):
                pickers = [random.Random((self.seed * HIT_WINDOWS + index) * CLIENTS + i)
                           for i in range(CLIENTS)]
                window_start = time.perf_counter()
                floor = MIN_HITS / HIT_WINDOWS
                sent = [0]

                def next_hit(client):
                    with cursor_lock:
                        if (time.perf_counter() - window_start >= window
                                and sent[0] >= floor):
                            return None
                        sent[0] += 1
                    return pickers[client].choice(pairs)

                latencies, replies = self._drive(handle.port, next_hit, "hit")
                hit_wall += time.perf_counter() - window_start
                before, factor = factor, self._pause(clock)
                hits.extend(latencies)
                hit_factors.extend([(before + factor) / 2.0] * len(latencies))
                hit_replies.extend(replies)
            for reply in hit_replies:
                if not reply.get("cached"):
                    self._fail("hit phase reply was not served from the result cache")
                    break
            from repro.serve.client import ServeClient

            with ServeClient(("127.0.0.1", handle.port)) as client:
                stats = client.stats()
        finally:
            handle.stop()
        return {"cold": cold, "cold_factors": cold_factors, "cold_wall": cold_wall,
                "cold_normal_wall": cold_normal_wall, "hits": hits,
                "hit_factors": hit_factors, "hit_wall": hit_wall, "stats": stats,
                "clock": clock,
                "elapsed": time.perf_counter() - start - sum(clock.samples[PAUSE_UNITS:])}

    @staticmethod
    def _pause(clock: HostClock) -> float:
        """Time the calibration units of one pause; returns their host factor."""
        clock.sample(PAUSE_UNITS)
        return statistics.fmean(clock.samples[-PAUSE_UNITS:]) / CALIBRATION_REF_S

    # -- reporting ----------------------------------------------------------
    def e2e(self, result: dict, generic: Metrics, named: Metrics) -> None:
        cold = [1e3 * s for s in result["cold"]]
        hits = [1e3 * s for s in result["hits"]]
        named.set("serve.cold_rps", len(cold) / result["cold_wall"], "1/s", len(cold))
        named.set("serve.cold_p50_ms", median(cold), "ms", len(cold))
        named.tail("serve.cold_p90_ms", cold, 90.0, "ms")
        named.set("serve.hit_rps", len(hits) / result["hit_wall"], "1/s", len(hits))
        named.set("serve.hit_p50_ms", median(hits), "ms", len(hits))
        named.tail("serve.hit_p99_ms", hits, 99.0, "ms")
        # The gated three are the steadiest of the above on a shared host:
        # the cold p50 falls between per-trace latency clusters, so the
        # request order moves it, and host stalls swing the hit rate.
        # Each is host-normalized by its chunk's or window's pauses.
        generic.set("ops_per_s", len(cold) / result["cold_normal_wall"], "1/s", len(cold))
        generic.set("p50_ms", median([h / f for h, f in zip(hits, result["hit_factors"])]),
                    "ms", len(hits))
        generic.tail("tail_ms", [c / f for c, f in zip(cold, result["cold_factors"])],
                     90.0, "ms")

    def traced_wall(self, result: dict) -> float:
        return result["cold_normal_wall"]

    def layer_extra(self, result: dict) -> Dict[str, float]:
        """In-process replay of every pair (decode/settle split, and a
        second correctness check), plus the daemon's STATS counters."""
        from repro.exec.pool import build_analysis
        from repro.trace import TraceReader, TraceReplayer

        decode_ms = settle_ms = 0.0
        inprocess_ms: List[float] = []
        for name, (_digest, data) in self.traces.items():
            replayer = TraceReplayer(TraceReader(data))
            first_spec = self.specs[0]
            start = time.perf_counter()
            replayer.replay([build_analysis(first_spec)])
            first = time.perf_counter() - start
            trace_decode = None
            for spec in self.specs:
                start = time.perf_counter()
                profile, reporter = replayer.replay([build_analysis(spec)])
                settle = time.perf_counter() - start
                if trace_decode is None:
                    trace_decode = first - settle
                    decode_ms += 1e3 * trace_decode
                settle_ms += 1e3 * settle
                inprocess_ms.append(1e3 * (trace_decode + settle))
                self.attempted += 1
                have = {"instrumented_cycles": profile.cycles, "n_reports": len(list(reporter))}
                if have != self.expected[name][spec]:
                    self._fail(f"in-process replay {name} x {spec}: expected "
                               f"{self.expected[name][spec]}, got {have}")

        stats = result["stats"]
        counters, gauges = stats["counters"], stats["gauges"]
        histograms = stats["histograms"]
        extra = {
            "trace.decode_ms": decode_ms,
            "trace.settle_ms": settle_ms,
            "serve.cache_hits": counters.get("cache_hits", 0),
            "serve.cache_misses": counters.get("cache_misses", 0),
            "serve.single_flight_hits": counters.get("single_flight_hits", 0),
            "serve.busy_total": counters.get("busy_total", 0),
            "serve.worker_restarts": gauges.get("worker_restarts", 0),
        }
        replay_hist = histograms.get("latency_replay_ms", {})
        if replay_hist.get("count"):
            extra["exec.pool_overhead_ms"] = replay_hist["p50"] - median(inprocess_ms)
        cached_hist = histograms.get("latency_cached_ms", {})
        if cached_hist.get("count") and result["hits"]:
            extra["serve.wire_ms"] = (1e3 * percentile(result["hits"], 50.0)
                                      - cached_hist["p50"])
        return extra

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
