"""Measurement helpers used by the benchmark worker.

Everything here observes the program from outside: wall clocks around public
calls, Spark's own status store, the kernel's peak-RSS counter, and
temporary wrappers installed at the module attribute each caller looks up.
"""
from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

perf = time.perf_counter


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values)


def p99(values) -> float:
    """99th percentile; callers keep at least 1000 samples so that ten lie
    beyond it."""
    return statistics.quantiles(values, n=100)[98]


# -- memory -------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Reset this process's VmHWM so a later read covers only what follows,
    where the kernel allows it."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (VmHWM, else ru_maxrss)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- call tracing ---------------------------------------------------------------

@dataclass
class CallStats:
    """Calls made through one wrapped name, their total time and how many
    returned True."""

    calls: int = 0
    seconds: float = 0.0
    trues: int = 0


@contextmanager
def wrapped(owner, attr: str, stats: CallStats):
    """Replace ``owner.attr`` by a counting, timing wrapper for the duration
    of the block and restore the original afterwards."""
    orig = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        t0 = perf()
        result = orig(*args, **kwargs)
        stats.seconds += perf() - t0
        stats.calls += 1
        stats.trues += result is True
        return result

    setattr(owner, attr, wrapper)
    try:
        yield stats
    finally:
        setattr(owner, attr, orig)


@contextmanager
def wall_span(out: dict):
    """Record the block's wall time as ``out["wall_s"]``."""
    t0 = perf()
    yield out
    out["wall_s"] = perf() - t0


# -- Spark counters -------------------------------------------------------------

#: Counters reported for every measured public Spark call.
SPARK_FIELDS = (
    "wall_s",
    "spark_jobs",
    "spark_tasks",
    "shuffle_read_bytes",
    "shuffle_write_bytes",
    "executor_busy_s",
    "jvm_gc_s",
    "driver_share",
)


class SparkCounters:
    """Deltas of Spark's status store around a block of driver code.

    Tasks, executor time, GC time and shuffle bytes come from the executor
    summaries (cumulative, so deltas are exact once the listener bus is
    drained). Jobs are counted as the delta of the highest job id, because
    the store keeps only ``spark.ui.retainedJobs`` jobs and the size of the
    job list can shrink.
    """

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.jsc = self.sc._jsc.sc()
        self.cores = self.sc.defaultParallelism

    def _snapshot(self) -> dict:
        self.jsc.listenerBus().waitUntilEmpty()
        snap = {"tasks": 0, "busy_ms": 0, "gc_ms": 0, "read": 0, "write": 0}
        it = self.jsc.statusStore().executorList(True).iterator()
        while it.hasNext():
            e = it.next()
            snap["tasks"] += e.totalTasks()
            snap["busy_ms"] += e.totalDuration()
            snap["gc_ms"] += e.totalGCTime()
            snap["read"] += e.totalShuffleRead()
            snap["write"] += e.totalShuffleWrite()
        snap["job"] = max(self.sc.statusTracker().getJobIdsForGroup(None), default=-1)
        return snap

    @contextmanager
    def measure(self, out: dict):
        """Fill ``out`` with :data:`SPARK_FIELDS` for the enclosed block; the
        wall time excludes the status-store reads."""
        before = self._snapshot()
        t0 = perf()
        yield out
        wall = perf() - t0
        after = self._snapshot()
        busy = (after["busy_ms"] - before["busy_ms"]) / 1000
        out.update(
            wall_s=wall,
            spark_jobs=after["job"] - before["job"],
            spark_tasks=after["tasks"] - before["tasks"],
            shuffle_read_bytes=after["read"] - before["read"],
            shuffle_write_bytes=after["write"] - before["write"],
            executor_busy_s=busy,
            jvm_gc_s=(after["gc_ms"] - before["gc_ms"]) / 1000,
            driver_share=1 - busy / (wall * self.cores),
        )
