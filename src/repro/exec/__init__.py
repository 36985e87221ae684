"""Parallel batch execution for the harness.

:mod:`repro.exec.pool` shards (workload x analysis x options) jobs
across worker processes.  Each unique (workload, scale) pair is
interpreted and recorded exactly once (via :mod:`repro.trace`); every
job then *replays* that trace through its analysis, and replay results
are cached on disk keyed by (trace digest, analysis fingerprint) so
repeated invocations are pure cache hits.
"""

from repro.exec.pool import (
    ANALYSIS_SPECS,
    JobResult,
    JobSpec,
    analysis_fingerprint,
    build_analysis,
    run_batch,
)
from repro.exec.workers import (
    PersistentWorkerPool,
    TaskError,
    WorkerCrashError,
    WorkerHangError,
    WorkerPoolClosed,
)

__all__ = [
    "ANALYSIS_SPECS",
    "JobResult",
    "JobSpec",
    "PersistentWorkerPool",
    "TaskError",
    "WorkerCrashError",
    "WorkerHangError",
    "WorkerPoolClosed",
    "analysis_fingerprint",
    "build_analysis",
    "run_batch",
]
