"""Statistics, resource readings and provenance for the benchmark.

Nothing here imports the library under test: these helpers describe the host
and the benchmark process, so they work (and are tested) without ``src/``.
"""

from __future__ import annotations

import math
import os
import pickle
import platform
import resource
import time
from pathlib import Path

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Refuses (``ValueError``) when fewer than ``MIN_TAIL`` samples lie beyond
    the percentile's rank, because such a tail says more about a few outliers
    than about the distribution.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    beyond = n - math.ceil(q / 100.0 * n)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need at least {MIN_TAIL}"
        )
    return float(np.percentile(np.asarray(values, dtype=float), q))


def samples_for(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile has ``MIN_TAIL`` beyond it."""
    n = MIN_TAIL
    while n - math.ceil(q / 100.0 * n) < MIN_TAIL:
        n += 1
    return n


def median(values) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(values, dtype=float)))


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_stat_fields(pid: int) -> list[str] | None:
    """Fields 3 onwards of ``/proc/<pid>/stat`` (after the command name), or ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    return stat.rsplit(")", 1)[-1].split()


def peak_rss_of_mb(pids) -> float:
    """Summed peak resident memory (``VmHWM``) of the live processes ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_seconds(pids) -> float:
    """User plus system CPU seconds the live processes ``pids`` have used."""
    ticks = 0
    for pid in pids:
        fields = _proc_stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def bytes_written() -> int:
    """Bytes this process has passed to ``write`` calls (``/proc/self/io`` wchar)."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise OSError("/proc/self/io has no wchar line")


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def shm_segments() -> set[str]:
    """Python shared-memory blocks currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def live_children() -> list[int]:
    """PIDs of processes whose parent is this process."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat_fields(int(entry))
            if fields is not None and len(fields) > 1 and fields[1] == me:  # ppid
                found.append(int(entry))
    return found


def tracker_pid() -> int | None:
    """PID of the shared-memory resource tracker, if this process started one."""
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker._pid


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker.

    On exit the tracker unlinks every segment still registered with it, so
    read ``shm_segments()`` before calling this, or a leak goes unseen.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


#: Reference duration of :func:`calibration_loop`.  The benchmark's times are
#: wall seconds rescaled to a host on which that loop takes this long.
CALIBRATION_REF_S = 0.003

_CAL_A = np.linspace(-1.0, 1.0, 50)
_CAL_B = np.linspace(1.0, -1.0, 50)
_CAL_ROWS = [(i, np.full(20, i / 100.0), 1.0) for i in range(100)]


def calibration_loop() -> float:
    """Seconds of a fixed loop with the library's mix of work.

    Small numpy dot products and row updates plus scalar float arithmetic, as
    in the per-row IGD kernels, then pickling rows of small arrays, as in the
    WAL and checkpoint writers.  Timed next to every job, it tracks how fast
    the host runs that kind of code at that moment, so that job times can be
    rescaled to a fixed host speed (see ``CALIBRATION_REF_S``).
    """
    x = _CAL_B.copy()
    start = time.perf_counter()
    total = 0.0
    for _ in range(400):
        d = float(_CAL_A.dot(x))
        x += (1e-9 * d) * _CAL_A
        total += 1.0 / (1.0 + d * d)
    for _ in range(2):
        pickle.loads(pickle.dumps(_CAL_ROWS, protocol=pickle.HIGHEST_PROTOCOL))
    return time.perf_counter() - start


def ref_scale(before: float, after: float) -> float:
    """Factor rescaling wall seconds timed between two calibrations to the reference host."""
    return 2.0 * CALIBRATION_REF_S / (before + after)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git`` (no subprocess), or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int) -> dict:
    """Host and software facts recorded with every result."""
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": median([calibration_loop() for _ in range(21)]),
        "git_commit": git_commit(root),
        "seed": seed,
    }
