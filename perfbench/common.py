"""Shared plumbing: paths, run header, percentiles, metrics, memory."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
#: scratch space for stores and temp files; inside the checkout, gitignored
WORK = ROOT / ".perfbench_work"
#: per-run reports and traced-run span dumps; inside the checkout, gitignored
OUT = ROOT / ".perfbench_out"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``; fail without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC} "
                         "(run from the root of a full checkout)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_seconds(modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter takes to import ``modules`` from ``src``.

    Imports happen once per process, so set-up times them in child
    interpreters, where they can be repeated and a median taken.
    """
    code = ("import sys, time\nsys.path.insert(0, sys.argv[1])\nstart = time.perf_counter()\n"
            + "".join(f"import {module}\n" for module in modules)
            + "print(time.perf_counter() - start)\n")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return float(out)


class Scratch:
    """A private work directory under :data:`WORK`; also ``tempfile``'s
    default while it exists, so nothing the program creates lands outside
    the checkout."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK))
        self._previous = tempfile.tempdir
        tempfile.tempdir = str(self.path)

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def close(self) -> None:
        tempfile.tempdir = self._previous
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK.rmdir()  # only succeeds once no concurrent run uses it
        except OSError:
            pass


# -- run header --------------------------------------------------------
def _git_revision() -> Dict[str, str]:
    if not (ROOT / ".git").exists():
        return {"value": "unmeasured", "reason": "checkout is not a git repository"}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        return {"value": rev}
    except (OSError, subprocess.SubprocessError):
        return {"value": "unmeasured", "reason": "git rev-parse failed"}


def source_digest() -> str:
    """sha256 over ``src/**/*.py`` (path + bytes): identifies the program
    even where no git metadata exists."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def run_header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": _git_revision(),
        "source_digest": source_digest(),
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
    }


# -- statistics ----------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def min_samples(q: float) -> int:
    """Samples needed for percentile ``q`` to have ten beyond it."""
    return int(round(10 * 100.0 / (100.0 - q)))


# -- host speed ----------------------------------------------------------
#: mean calibration-unit time on the reference host (2-CPU VM, Python 3.11)
CALIBRATION_REF_S = 0.017
#: samples on each side that set a unit's local host factor
LOCAL_WINDOW = 2


def calibration_unit() -> int:
    """A fixed pure-Python unit of dict traffic, independent of the program.

    Its time tracks how fast the host runs Python code right now; it
    allocates no containers, so the program's heap does not change it.
    """
    table: Dict[int, int] = {}
    total = 0
    for i in range(60_000):
        table[i & 65535] = i
        total += table.get((i * 7) & 65535, 0)
    return total


class HostClock:
    """Samples :func:`calibration_unit` between units of measured work.

    A shared host's speed drifts by tens of percent over minutes.  Each
    unit's time is divided by the host factor around it (the local mean
    unit time over the reference), which cancels the drift; raw values
    are kept too.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> float:
        """Run the unit ``times`` times; returns the seconds spent."""
        spent = 0.0
        for _ in range(times):
            start = time.perf_counter()
            calibration_unit()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            spent += elapsed
        return spent

    def factor(self) -> float:
        return statistics.fmean(self.samples) / CALIBRATION_REF_S

    def normalize(self, durations: Sequence[float]) -> List[float]:
        """Divide each duration by the host factor around it.

        ``durations[i]`` is the unit of work measured just before sample
        ``i``; its factor is the mean of the samples within
        ``LOCAL_WINDOW`` of it, so drift within a run is cancelled too.
        """
        if len(durations) != len(self.samples):
            raise ValueError("one calibration sample per measured unit")
        out = []
        for index, duration in enumerate(durations):
            window = self.samples[max(0, index - LOCAL_WINDOW):index + LOCAL_WINDOW + 1]
            out.append(duration * CALIBRATION_REF_S / statistics.fmean(window))
        return out


# -- metrics -----------------------------------------------------------
@dataclass
class Metrics:
    """Named metrics with units; a value may be ``unmeasured`` with a reason."""

    values: Dict[str, dict] = field(default_factory=dict)

    def set(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        entry = {"value": value, "unit": unit}
        if samples is not None:
            entry["samples"] = samples
        self.values[name] = entry

    def unmeasured(self, name: str, unit: str, reason: str) -> None:
        self.values[name] = {"value": "unmeasured", "unit": unit, "reason": reason}

    def tail(self, name: str, samples: Sequence[float], q: float, unit: str) -> None:
        """Percentile ``q`` of ``samples``, or unmeasured with too few."""
        need = min_samples(q)
        if len(samples) < need:
            self.unmeasured(name, unit, f"p{q:g} needs >= {need} samples, got {len(samples)}")
        else:
            self.set(name, percentile(samples, q), unit, len(samples))

    def render(self) -> List[str]:
        lines = []
        for name, entry in self.values.items():
            if entry["value"] == "unmeasured":
                lines.append(f"  {name:<36} unmeasured ({entry['reason']})")
                continue
            samples = f"  (n={entry['samples']})" if "samples" in entry else ""
            value = entry["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<36} {text} {entry['unit']}{samples}")
        return lines


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process, plus the largest reaped child."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0
