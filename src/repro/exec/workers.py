"""Long-lived worker processes with crash *and hang* detection.

:class:`PersistentWorkerPool` replaces the batch-scoped
``multiprocessing.Pool`` the executor originally used.  Workers survive
across submissions, so everything a worker memoizes per process —
compiled analyses (:func:`repro.exec.pool.build_analysis`), decoded
trace replayers — stays warm for the pool's whole lifetime.  That is
what makes a resident analysis daemon (:mod:`repro.serve`) pay compile
and decode costs once instead of per request.

Tasks are addressed by dotted path (``"pkg.mod:function"``) and resolved
with :mod:`importlib` inside the worker, so any module — including ones
the parent imported after the pool could have been designed — can
contribute tasks without a central registry.  Payloads and results cross
the process boundary by pickling over a per-worker ``Pipe``.

Failure model:

* a task that *raises* is reported back and re-raised in the caller as
  :class:`TaskError` — the worker stays alive;
* a worker that *dies* mid-call (segfault, ``os._exit``, OOM kill)
  surfaces as :class:`WorkerCrashError` on exactly the in-flight call,
  and the pool respawns a fresh worker before the next submission —
  one poisoned request never takes the pool down;
* a worker whose task *hangs* is caught by the watchdog: each worker
  runs its task on a job thread and sends per-job **heartbeats** over
  the pipe while the task runs, and the parent enforces an optional
  ``hang_timeout`` — an overdue or silent worker is killed and the call
  raises :class:`WorkerHangError` (a :class:`WorkerCrashError`
  subclass, so crash-handling callers heal hangs for free);
* a background **reaper** (optional, ``reaper_interval``) respawns
  workers that died while idle — e.g. OOM-killed between requests —
  so pool capacity recovers without waiting for the next crash-y call;
* respawning itself is **rate-limited**: each replacement past a small
  free allowance pays an exponential backoff sleep, and once the pool
  has respawned ``max_respawns_per_window`` times inside
  ``respawn_window`` seconds, further replacements raise
  :class:`WorkerRespawnStorm` instead of spawning — a deterministic
  crasher (the kind :mod:`repro.fuzz` finds) degrades the pool with a
  typed error rather than fork-bombing the host indefinitely;
* a respawn that races :meth:`PersistentWorkerPool.close` (a hung
  call's thread healing its worker while the pool shuts down) raises
  :class:`WorkerPoolClosed` instead of spawning into a closed pool.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import queue
import stat
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence


class TaskError(RuntimeError):
    """A task function raised inside the worker (worker survived)."""


class WorkerCrashError(RuntimeError):
    """The worker process died while executing a task."""


class WorkerHangError(WorkerCrashError):
    """The watchdog killed a worker whose task exceeded ``hang_timeout``
    (or that stopped heartbeating entirely)."""


class WorkerRespawnStorm(WorkerCrashError):
    """The pool hit its respawn rate limit and refused to replace yet
    another dead worker (``max_respawns_per_window`` respawns inside
    ``respawn_window`` seconds).  The dead handle stays in rotation, so
    pool capacity is unchanged; the storm clears on its own once the
    window slides past the burst."""


class WorkerPoolClosed(WorkerCrashError):
    """A dead worker could not be replaced because the pool is closing:
    no fresh worker is ever spawned into a closed pool."""


#: Respawns inside the window that pay no backoff sleep; isolated
#: crashes stay as cheap to heal as they were before rate limiting.
_RESPAWN_BACKOFF_FREE = 4


#: Wire tag for heartbeat messages (worker -> parent, between results).
_HEARTBEAT = "hb"


def resolve_task(path: str) -> Callable:
    """Resolve ``"pkg.mod:function"`` to the callable it names."""
    module_name, sep, func_name = path.partition(":")
    if not sep or not module_name or not func_name:
        raise ValueError(f"task path must look like 'pkg.mod:function', got {path!r}")
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def _run_task(resolved: Dict[str, Callable], task_path: str, payload: Any,
              box: dict) -> None:
    """Execute one task on the worker's job thread; box the reply."""
    try:
        func = resolved.get(task_path)
        if func is None:
            func = resolved[task_path] = resolve_task(task_path)
        result = func(payload)
    except BaseException as exc:  # noqa: BLE001 - report, don't die
        box["reply"] = (False, f"{type(exc).__name__}: {exc}\n"
                               f"{traceback.format_exc()}")
    else:
        box["reply"] = (True, result)


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close socket fds a fork leaked into this worker.

    A fork-started worker inherits every fd its parent had open.  When
    the parent is a network server respawning a crashed worker
    mid-traffic, that includes *accepted client connections* (and the
    listening socket): the leaked duplicate keeps the kernel's refcount
    on the connection above zero, so the server's later ``close()``
    never emits FIN/RST and the peer blocks until its own timeout.  A
    worker needs exactly one inherited channel — its pipe — so every
    other inherited socket gets closed here, first thing.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):
        return  # no /proc (non-Linux): accept the leak rather than guess
    for fd in fds:
        if fd <= 2 or fd == keep_fd:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(conn, heartbeat_interval: float = 0.5) -> None:
    """Worker request loop: recv (task_path, payload), send (ok, value).

    Each task runs on a daemon job thread while this loop sends
    ``(_HEARTBEAT, elapsed)`` frames every ``heartbeat_interval``
    seconds — the parent can tell a slow job (heartbeats flowing) from
    a wedged process (silence) and a hung job (heartbeats past the
    deadline), and kill accordingly.
    """
    _close_inherited_sockets(conn.fileno())
    resolved: Dict[str, Callable] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent closed its end: clean shutdown
        if message is None:
            return
        task_path, payload = message
        box: dict = {}
        job = threading.Thread(
            target=_run_task, args=(resolved, task_path, payload, box),
            daemon=True,
        )
        started = time.monotonic()
        job.start()
        while True:
            job.join(heartbeat_interval)
            if not job.is_alive():
                break
            try:
                conn.send((_HEARTBEAT, time.monotonic() - started))
            except (OSError, BrokenPipeError):
                return  # parent gone
        try:
            conn.send(box["reply"])
        except (OSError, BrokenPipeError):
            return


class _WorkerHandle:
    """One worker process plus the parent's end of its pipe."""

    def __init__(self, ctx, heartbeat_interval: float = 0.5) -> None:
        self.heartbeat_interval = heartbeat_interval
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, heartbeat_interval),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: monotonic start of the in-flight job (None when idle); the
        #: pool's reaper reads this to spot overdue jobs from outside.
        self.job_started: Optional[float] = None
        # close() and a respawning call thread may both stop one handle.
        self._stop_lock = threading.Lock()
        self._stopped = False

    def call(self, task_path: str, payload: Any,
             hang_timeout: Optional[float] = None) -> Any:
        """Run one task; enforce ``hang_timeout`` via heartbeats.

        A worker that exceeds the deadline — or sends nothing at all
        for several heartbeat intervals — is killed here and reported
        as :class:`WorkerHangError`.
        """
        silence_grace = max(self.heartbeat_interval * 6, 3.0)
        self.job_started = time.monotonic()
        deadline = (None if hang_timeout is None
                    else self.job_started + hang_timeout)
        try:
            try:
                self.conn.send((task_path, payload))
                while True:
                    if deadline is None:
                        ready = self.conn.poll(silence_grace)
                        overdue = False
                    else:
                        remaining = deadline - time.monotonic()
                        overdue = remaining <= 0
                        ready = (False if overdue else
                                 self.conn.poll(min(remaining, silence_grace)))
                    if not ready:
                        if overdue or hang_timeout is not None:
                            raise _HangDetected(
                                "job deadline exceeded" if overdue
                                else "worker stopped heartbeating"
                            )
                        continue  # no deadline set: keep waiting forever
                    message = self.conn.recv()
                    if message[0] == _HEARTBEAT:
                        continue
                    ok, value = message
                    break
            except _HangDetected as hang:
                elapsed = time.monotonic() - self.job_started
                self.kill()
                raise WorkerHangError(
                    f"worker {self._describe()} hung ({hang}; "
                    f"{elapsed:.1f}s elapsed) and was killed"
                ) from None
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise WorkerCrashError(
                    f"worker {self._describe()} died mid-task"
                ) from exc
        finally:
            self.job_started = None
        if not ok:
            raise TaskError(value)
        return value

    def _describe(self) -> str:
        # Concurrent stop() may have reaped and close()d the process
        # object; pid/exitcode raise ValueError then.
        try:
            return f"pid {self.process.pid} (exitcode {self.process.exitcode})"
        except ValueError:
            return "(already reaped)"

    @property
    def alive(self) -> bool:
        try:
            return self.process.is_alive()
        except ValueError:
            return False  # process object closed after reaping

    def kill(self) -> None:
        """Hard-kill the worker process (watchdog path)."""
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass

    def stop(self, timeout: float = 2.0) -> None:
        """Shut the worker down, escalating politely: close -> SIGTERM
        -> SIGKILL, and always reap — a worker that survives two join
        timeouts must not linger as a zombie.  Idempotent: only the
        first of several concurrent callers does the work."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
            self._stop(timeout)

    def _stop(self, timeout: float) -> None:
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            # SIGKILL cannot be caught: the join is bounded only to
            # survive a pathological scheduler, not an unkillable child.
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:
            pass
        if not self.process.is_alive():
            self.process.close()


class _HangDetected(Exception):
    """Internal: watchdog tripped inside ``_WorkerHandle.call``."""


class PersistentWorkerPool:
    """A fixed-size pool of long-lived workers, safe for threaded callers.

    ``call`` borrows an idle worker (blocking while all are busy),
    runs one task on it, and returns it.  A crashed worker is replaced
    transparently; the ``restarts`` counter records every replacement so
    operators can see flapping workers in the serve metrics, and
    ``hangs`` counts watchdog kills specifically.

    ``hang_timeout`` (seconds per job) arms the watchdog;
    ``reaper_interval`` starts a background thread that respawns
    workers found dead while idle and hard-kills busy workers running
    past the hang deadline (a backstop for callers that abandoned their
    call thread).  Both default to off, preserving batch semantics.

    Respawning is rate-limited: past ``_RESPAWN_BACKOFF_FREE`` recent
    respawns each replacement sleeps an exponentially growing backoff
    (``respawn_backoff_base`` doubling up to ``respawn_backoff_max``),
    and once ``max_respawns_per_window`` respawns land inside
    ``respawn_window`` seconds the pool raises
    :class:`WorkerRespawnStorm` instead — the counter is
    ``respawn_storms``.  ``max_respawns_per_window=None`` disables the
    hard cap (backoff still applies).
    """

    def __init__(self, size: int, start_method: Optional[str] = None,
                 heartbeat_interval: float = 0.5,
                 hang_timeout: Optional[float] = None,
                 reaper_interval: Optional[float] = None,
                 respawn_window: float = 30.0,
                 max_respawns_per_window: Optional[int] = 64,
                 respawn_backoff_base: float = 0.01,
                 respawn_backoff_max: float = 0.5) -> None:
        if size < 1:
            raise ValueError("pool needs at least one worker")
        if respawn_window <= 0:
            raise ValueError("respawn_window must be positive")
        if max_respawns_per_window is not None and max_respawns_per_window < 1:
            raise ValueError("max_respawns_per_window must be >= 1 or None")
        self._ctx = multiprocessing.get_context(start_method)
        self.size = size
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.respawn_window = respawn_window
        self.max_respawns_per_window = max_respawns_per_window
        self.respawn_backoff_base = respawn_backoff_base
        self.respawn_backoff_max = respawn_backoff_max
        self._respawn_times: Deque[float] = deque()
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self.restarts = 0
        self.hangs = 0
        self.reaped = 0
        self.respawn_storms = 0
        self._workers: List[_WorkerHandle] = [
            self._spawn() for _ in range(size)
        ]
        for worker in self._workers:
            self._idle.put(worker)
        self._reaper_stop = threading.Event()
        self._reaper: Optional[threading.Thread] = None
        if reaper_interval:
            self._reaper = threading.Thread(
                target=self._reap_loop, args=(reaper_interval,),
                name="worker-pool-reaper", daemon=True,
            )
            self._reaper.start()

    def _spawn(self) -> _WorkerHandle:
        return _WorkerHandle(self._ctx, self.heartbeat_interval)

    # -- submission ----------------------------------------------------
    def call(self, task_path: str, payload: Any) -> Any:
        """Run one task on an idle worker; blocks while all are busy."""
        if self._closed:
            raise RuntimeError("pool is closed")
        worker = self._idle.get()
        if not worker.alive:
            # Died while idle (OOM kill, external SIGKILL): heal
            # transparently instead of failing this unrelated call.
            try:
                worker = self._respawn(worker)
            except (WorkerRespawnStorm, WorkerPoolClosed):
                self._idle.put(worker)  # dead handle back: capacity constant
                raise
        try:
            return worker.call(task_path, payload,
                               hang_timeout=self.hang_timeout)
        except WorkerHangError:
            with self._lock:
                self.hangs += 1
            # A storm here replaces the hang error on the caller, but it
            # is still a WorkerCrashError, and the dead handle goes back
            # in rotation via the finally below.
            worker = self._respawn(worker)
            raise
        except WorkerCrashError:
            worker = self._respawn(worker)
            raise
        finally:
            self._idle.put(worker)

    def map(self, task_path: str, payloads: Sequence[Any]) -> List[Any]:
        """Run one task over many payloads, ``self.size`` at a time.

        Results come back in payload order; the first failure propagates
        after in-flight tasks finish (ThreadPoolExecutor semantics).
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if len(payloads) == 1 or self.size == 1:
            return [self.call(task_path, payload) for payload in payloads]
        with ThreadPoolExecutor(max_workers=self.size) as executor:
            futures = [
                executor.submit(self.call, task_path, payload)
                for payload in payloads
            ]
            return [future.result() for future in futures]

    # -- lifecycle -----------------------------------------------------
    def _respawn_admit(self) -> int:
        """Charge one respawn against the rate limit; returns how many
        respawns the sliding window already held (for backoff sizing)."""
        now = time.monotonic()
        while (self._respawn_times
               and now - self._respawn_times[0] > self.respawn_window):
            self._respawn_times.popleft()
        recent = len(self._respawn_times)
        if (self.max_respawns_per_window is not None
                and recent >= self.max_respawns_per_window):
            self.respawn_storms += 1
            raise WorkerRespawnStorm(
                f"{recent} worker respawns in the last "
                f"{self.respawn_window:.0f}s (limit "
                f"{self.max_respawns_per_window}); refusing to respawn — "
                f"a deterministic crasher is likely spinning the pool"
            )
        self._respawn_times.append(now)
        return recent

    def _refuse_if_closed(self, dead: _WorkerHandle) -> None:
        """Called under ``_lock``: a closing pool gets no fresh worker.
        ``close()`` snapshotted ``dead`` with the rest and reaps it."""
        if self._closed:
            raise WorkerPoolClosed(
                f"worker {dead._describe()} died while the pool was "
                f"closing; not respawned"
            )

    def _respawn(self, dead: _WorkerHandle) -> _WorkerHandle:
        with self._lock:
            self._refuse_if_closed(dead)
            recent = self._respawn_admit()
            self.restarts += 1
        # Exponential backoff past the free allowance, slept *outside*
        # the lock so a crash burst slows respawning without freezing
        # counters and unrelated respawns behind one sleeper.
        if recent >= _RESPAWN_BACKOFF_FREE:
            time.sleep(min(
                self.respawn_backoff_max,
                self.respawn_backoff_base * 2 ** (recent - _RESPAWN_BACKOFF_FREE),
            ))
        with self._lock:
            # close() may have run during the backoff sleep.
            self._refuse_if_closed(dead)
            try:
                dead.stop(timeout=0.5)
            except (OSError, ValueError):
                pass
            fresh = self._spawn()
            try:
                self._workers[self._workers.index(dead)] = fresh
            except ValueError:
                self._workers.append(fresh)
            return fresh

    def _reap_loop(self, interval: float) -> None:
        while not self._reaper_stop.wait(interval):
            if self._closed:
                return
            self.reap_once()

    def reap_once(self) -> int:
        """One reaper sweep; returns how many workers were acted on.

        Respawns workers that died while idle, and kills busy workers
        whose job is past ``hang_timeout`` plus a grace period (their
        blocked caller then observes the death and heals the pool).
        """
        acted = 0
        # Idle sweep: drain the queue, replace the dead, put all back.
        idle: List[_WorkerHandle] = []
        try:
            while True:
                idle.append(self._idle.get_nowait())
        except queue.Empty:
            pass
        for worker in idle:
            if worker.alive:
                self._idle.put(worker)
            else:
                try:
                    fresh = self._respawn(worker)
                except (WorkerRespawnStorm, WorkerPoolClosed):
                    self._idle.put(worker)  # keep the dead handle queued
                    continue
                self._idle.put(fresh)
                with self._lock:
                    self.reaped += 1
                acted += 1
        # Busy sweep: hard-kill overdue jobs (backstop; the in-flight
        # call normally trips its own deadline first).
        if self.hang_timeout is not None:
            grace = max(self.heartbeat_interval * 6, 3.0)
            now = time.monotonic()
            for worker in list(self._workers):
                started = worker.job_started
                if (started is not None
                        and now - started > self.hang_timeout + grace):
                    worker.kill()
                    with self._lock:
                        self.reaped += 1
                    acted += 1
        return acted

    @property
    def alive_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    def close(self) -> None:
        # Snapshot and clear under the lock: a concurrent _respawn either
        # finished (its fresh worker is in the snapshot) or will see
        # _closed and refuse.
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            self._workers.clear()
        self._reaper_stop.set()
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
        for worker in workers:
            try:
                worker.stop()
            except (OSError, ValueError):
                pass

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
