"""Stress test for the pool's close/respawn/reaper race.

``close()`` used to walk the worker list without the pool lock while a
call thread whose worker died was respawning it: ``stop()`` then ran
twice on one handle (``process.close()`` twice raises an untyped
``AttributeError``) and a fresh worker could be spawned into the closed
pool.  These tests rerun the close-vs-respawn scenarios many times with
a tiny interpreter switch interval (and, where the platform allows, on
one core) so thread interleavings that used to lose the race come up
often.  Every run must end with only typed errors on the calling
thread and no pool child left alive.
"""

import multiprocessing
import os
import random
import signal
import sys
import threading
import time

import pytest

from repro.exec.workers import (
    PersistentWorkerPool,
    WorkerCrashError,
    WorkerPoolClosed,
)

CRASH = "repro.exec.testing:crash"
HANG = "repro.exec.testing:hang"
PID = "repro.exec.testing:pid"


@pytest.fixture
def racy():
    """Switch threads as often as the interpreter allows, on one core."""
    previous = sys.getswitchinterval()
    affinity = None
    if hasattr(os, "sched_getaffinity"):
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(affinity)})
    sys.setswitchinterval(1e-6)
    try:
        yield random.Random(1234)
    finally:
        sys.setswitchinterval(previous)
        if affinity is not None:
            os.sched_setaffinity(0, affinity)


def _new_children(before) -> set:
    return {child.pid for child in multiprocessing.active_children()} - before


def _race_close(pool, task, delay) -> dict:
    """Run ``task`` on a thread, close the pool after ``delay``."""
    outcome = {}

    def submit():
        try:
            outcome["value"] = pool.call(task, None)
        except WorkerCrashError as exc:  # includes hang, storm, closed
            outcome["error"] = exc
        except RuntimeError as exc:  # "pool is closed" before borrowing
            outcome["closed"] = exc
        except BaseException as exc:  # noqa: BLE001 - the bug under test
            outcome["untyped"] = exc

    thread = threading.Thread(target=submit, daemon=True)
    thread.start()
    time.sleep(delay)
    pool.close()
    thread.join(15.0)
    assert not thread.is_alive()
    return outcome


def _assert_clean(outcome, before) -> None:
    assert "untyped" not in outcome, repr(outcome["untyped"])
    deadline = time.monotonic() + 5.0
    while _new_children(before) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _new_children(before), "a worker outlived close()"


def test_close_racing_crash_respawn(racy):
    before = {child.pid for child in multiprocessing.active_children()}
    for _ in range(25):
        pool = PersistentWorkerPool(1, heartbeat_interval=0.01)
        outcome = _race_close(pool, CRASH, racy.uniform(0.0, 0.02))
        _assert_clean(outcome, before)
        assert pool._workers == []


def test_close_racing_watchdog_respawn(racy):
    before = {child.pid for child in multiprocessing.active_children()}
    for _ in range(12):
        pool = PersistentWorkerPool(1, heartbeat_interval=0.01,
                                    hang_timeout=0.05)
        outcome = _race_close(pool, HANG, racy.uniform(0.03, 0.08))
        _assert_clean(outcome, before)
        assert "value" not in outcome  # a hung task never returns


def test_close_racing_reaper(racy):
    before = {child.pid for child in multiprocessing.active_children()}
    for _ in range(20):
        pool = PersistentWorkerPool(2, heartbeat_interval=0.01,
                                    reaper_interval=0.001)
        victim = pool.call(PID, None)
        os.kill(victim, signal.SIGKILL)
        time.sleep(racy.uniform(0.0, 0.01))
        pool.close()
        _assert_clean({}, before)


def test_respawn_after_close_is_refused_typed():
    pool = PersistentWorkerPool(1, heartbeat_interval=0.01)
    (dead,) = pool._workers
    pool.close()
    with pytest.raises(WorkerPoolClosed):
        pool._respawn(dead)
    assert issubclass(WorkerPoolClosed, WorkerCrashError)
    assert pool._workers == []


def test_stop_is_idempotent_across_threads(racy):
    pool = PersistentWorkerPool(1, heartbeat_interval=0.01)
    (worker,) = pool._workers
    errors = []

    def stop():
        try:
            worker.stop(timeout=0.5)
        except BaseException as exc:  # noqa: BLE001 - the bug under test
            errors.append(exc)

    threads = [threading.Thread(target=stop) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert errors == []
    assert not worker.alive
    pool.close()
