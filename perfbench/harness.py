"""Shared pieces of the repository benchmark: statistics, metric records,
per-layer timing wrappers, the stage table and the exact-repeat count check.

Nothing here imports :mod:`repro` at module level: ``run.py`` puts the
checkout's ``src`` on ``sys.path`` first and refuses to run without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: checkpoint directories, server
#: traces and the exact-repeat count records.  Listed in ``.gitignore``.
WORK_ROOT = ROOT / ".perfbench-work"

#: Every end-to-end metric, in report order, with its unit.
END_TO_END_UNITS = {
    "objects_per_s": "obj/s",
    "update_latency_p50_ms": "ms",
    "update_latency_p95_ms": "ms",
    "deadline_miss_frac": "frac",
    "error_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric, in report order, with its unit.  A workload
#: reports 0 for a layer it does not exercise.
PER_LAYER_UNITS = {
    "sweep.calls": "count",
    "sweep.rects": "count",
    "sweep.python_s": "s",
    "sweep.numpy_s": "s",
    "sweep.numpy_share": "frac",
    "core.settle_s": "s",
    "core.events_processed": "count",
    "core.cells_searched": "count",
    "core.search_trigger_ratio": "frac",
    "core.sweeps_per_kobj": "1/kobj",
    "windows.observe_s": "s",
    "windows.events": "count",
    "service.push_many_s": "s",
    "service.route_s": "s",
    "service.publish_s": "s",
    "service.updates": "count",
    "service.pairs": "count",
    "remote.scatter_s": "s",
    "remote.rpc_retries": "count",
    "remote.rpc_timeouts": "count",
    "remote.heartbeat_misses": "count",
    "state.checkpoints": "count",
    "state.checkpoint_s": "s",
    "state.checkpoint_bytes": "bytes",
    "server.ack_p50_ms": "ms",
    "server.bytes_in": "bytes",
    "server.bytes_out": "bytes",
    "server.wire_encode_s": "s",
    "server.wire_decode_s": "s",
    "server.max_queue_depth": "count",
    "server.ingest_rejected": "count",
    "ingest.reordered": "count",
    "ingest.late_dropped": "count",
    "ingest.peak_buffered": "count",
    "ingest.reorder_s": "s",
    "obs.trace_overhead_frac": "frac",
    "unattributed_s": "s",
    "bench.generator_late_p95_ms": "ms",
}

#: Counts that must repeat exactly for one seed on one version of the code.
EXACT_REPEAT_COUNTS = (
    "sweep.calls",
    "sweep.rects",
    "core.cells_searched",
    "core.events_processed",
    "state.checkpoints",
)


#: ``fanout_remote`` and ``served_open_loop`` run their measured span this
#: many times (``exact_taxi`` sets its own count), each pass from a fresh
#: set-up over identical inputs.  A chunk's latency is its fastest pass:
#: other tenants of a shared host slow a pass down in stretches, and the
#: fastest pass is the steadiest estimate of the program's own cost.
PASSES = 3


class CheckFailed(Exception):
    """An output check failed: the run is reported as incorrect."""


class RunInvalid(Exception):
    """The run could not measure what it claims (e.g. an open loop that
    fell behind its schedule); no number from it may be recorded."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return percentile(values, 0.5)


def fastest_per_chunk(passes) -> list:
    """Element-wise minimum of equally long per-chunk latency lists."""
    return [min(values) for values in zip(*passes)]


def smoothed_frac(hits: int, total: int) -> float:
    """Rule-of-succession rate estimate ``(hits + 1) / (total + 2)``.

    The raw share is 0 on a clean run, and a metric that reads 0 has no
    relative spread or bound; the estimate stays positive, moves with
    every extra hit, and the raw counts are reported beside it.
    """
    return (hits + 1) / (total + 2)


def end_to_end_metrics(
    *,
    objects: int,
    wall_s: float,
    latencies_s,
    misses: int,
    samples: int,
    failed: int,
    attempted: int,
    setup_times_s,
    peak_rss_mb: float,
) -> dict:
    if len(latencies_s) < 200:
        raise RunInvalid(
            f"only {len(latencies_s)} latency samples; a run needs >= 200"
        )
    return {
        "objects_per_s": objects / wall_s,
        "update_latency_p50_ms": percentile(latencies_s, 0.50) * 1e3,
        "update_latency_p95_ms": percentile(latencies_s, 0.95) * 1e3,
        "deadline_miss_frac": smoothed_frac(misses, samples),
        "error_frac": smoothed_frac(failed, attempted),
        "setup_s": median(setup_times_s),
        "peak_rss_mb": peak_rss_mb,
    }


def metric_records(values: dict, units: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every name in ``units`` (0 if absent)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


# ----------------------------------------------------------------------
# Host and process facts
# ----------------------------------------------------------------------
def host_record() -> dict:
    from repro.core.sweep_backends import available_backends, resolve_crossover

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backends": list(available_backends()),
        "auto_crossover": resolve_crossover(),
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def child_pids() -> list[int]:
    """Live direct children of this process."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def work_dir(name: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class CpuGate:
    """Holds each timed step of a single-threaded workload until one of the
    process's CPUs runs at full speed, and pins the process to it.

    On a shared host each vCPU switches, a few seconds at a time, between
    full speed and about 1.6x slower (a co-tenant busy on the same physical
    core), and how much of a run fell in slow stretches moved
    ``exact_taxi``'s throughput by half between runs.  :meth:`wait` times a
    fixed loop of about 1 ms on each allowed CPU in turn until one runs
    within ``SLACK`` of the fastest probe seen.  It gives up after
    ``MAX_PROBES``, and for good once the run has spent ``BUDGET_S`` in
    probes, so that a run on a host slow for minutes still ends in time;
    such steps are timed anyway and counted in ``unsteady``.  Only the
    benchmark runs the probe, outside the timed region; the program's code
    is untouched.
    """

    SLACK = 1.25
    MAX_PROBES = 200
    CALIBRATION_PROBES = 100
    BUDGET_S = 15.0

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probes = 0
        self.unsteady = 0
        self.best = math.inf
        self.spent_s = 0.0
        for attempt in range(self.CALIBRATION_PROBES):
            self._probe_on(self.cpus[attempt % len(self.cpus)])

    @staticmethod
    def _loop() -> float:
        started = perf_counter()
        total = 0
        for value in range(20000):
            total += value * value % 7
        return perf_counter() - started

    def _probe_on(self, cpu: int) -> bool:
        os.sched_setaffinity(0, {cpu})
        elapsed = self._loop()
        self.probes += 1
        self.best = min(self.best, elapsed)
        return elapsed <= self.SLACK * self.best

    def wait(self) -> None:
        started = perf_counter()
        try:
            if self.spent_s < self.BUDGET_S:
                current = os.sched_getaffinity(0)
                start = self.cpus.index(min(current)) if len(current) == 1 else 0
                for attempt in range(self.MAX_PROBES):
                    if self._probe_on(self.cpus[(start + attempt) % len(self.cpus)]):
                        return
            self.unsteady += 1
        finally:
            self.spent_s += perf_counter() - started

    def release(self) -> None:
        """Let the process run on all its CPUs again."""
        os.sched_setaffinity(0, self.cpus)

    def note(self) -> str:
        return (
            f"cpu gate: {self.probes} probes in {self.spent_s:.1f} s, best "
            f"{self.best * 1e3:.3f} ms, {self.unsteady} steps timed without a "
            f"full-speed CPU"
        )


# ----------------------------------------------------------------------
# Per-layer timing from the benchmark's side of each call
# ----------------------------------------------------------------------
class LayerClock:
    """Busy seconds and call counts per layer, accumulated by wrappers."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def wrap(self, owner, method: str, key: str, on_result=None) -> None:
        """Shadow ``owner.method`` with a timed instance attribute.

        ``on_result(result)`` (optional) runs outside the timed region, so
        a wrapper can count what the call produced.
        """
        inner = getattr(owner, method)
        seconds, calls = self.seconds, self.calls
        seconds.setdefault(key, 0.0)
        calls.setdefault(key, 0)

        def timed(*args, **kwargs):
            started = perf_counter()
            result = inner(*args, **kwargs)
            seconds[key] += perf_counter() - started
            calls[key] += 1
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, method, timed)


class TimedSweepBackend:
    """Delegating sweep backend that times each sweep by the kernel
    :meth:`AdaptiveSweepBackend.select` names, and counts sweeps and rects.

    Passed to ``make_detector(..., backend=...)``; it forwards every sweep
    to the shipped ``auto`` instance unchanged.
    """

    name = "auto"

    def __init__(self, inner) -> None:
        self.inner = inner
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.rects = 0
        self.seconds = {"python": 0.0, "numpy": 0.0}

    def select(self, n_rects: int):
        return self.inner.select(n_rects)

    def sweep(self, rects, alpha, current_length, past_length):
        kernel = self.inner.select(len(rects)).name
        started = perf_counter()
        result = self.inner.sweep(rects, alpha, current_length, past_length)
        self.seconds[kernel] += perf_counter() - started
        self.calls += 1
        self.rects += len(rects)
        return result

    def total_seconds(self) -> float:
        return sum(self.seconds.values())


def sweep_layer(backend: TimedSweepBackend, objects: int) -> dict:
    python_s = backend.seconds.get("python", 0.0)
    numpy_s = backend.seconds.get("numpy", 0.0)
    total = python_s + numpy_s
    return {
        "sweep.calls": backend.calls,
        "sweep.rects": backend.rects,
        "sweep.python_s": python_s,
        "sweep.numpy_s": numpy_s,
        "sweep.numpy_share": numpy_s / total if total else 0.0,
        "core.sweeps_per_kobj": backend.calls * 1000.0 / objects,
    }


def stage_totals(stage_stats: dict, since: dict | None = None) -> dict:
    """``{stage: (count, total_seconds)}`` from a recorder's aggregates,
    minus those of an earlier ``since`` snapshot of the same recorder."""
    since = since or {}
    totals = {}
    for stage, record in stage_stats.items():
        base = since.get(stage, {"count": 0, "total_seconds": 0.0})
        totals[stage] = (
            int(record["count"] - base["count"]),
            float(record["total_seconds"] - base["total_seconds"]),
        )
    return totals


def print_stage_table(
    workload: str, layers: dict, self_times: dict, stages: dict, wall_s: float
) -> None:
    """The traced run's per-layer table, its self-time split of the wall
    time, and the program's own stage totals."""
    print(f"== {workload}: wall {wall_s:.6f} s = layer self time + unattributed")
    for layer, seconds in self_times.items():
        print(f"  {layer:<22} {seconds:>12.6f} s {seconds / wall_s:>8.1%}")
    unattributed = layers["unattributed_s"]
    print(f"  {'unattributed':<22} {unattributed:>12.6f} s {unattributed / wall_s:>8.1%}")
    print(f"== {workload}: per-layer metrics (traced run)")
    for name, unit in PER_LAYER_UNITS.items():
        value = layers.get(name, 0.0)
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {shown:>18} {unit}")
    if stages:
        print(f"== {workload}: repro.obs stage totals")
        print(f"  {'stage':<20} {'count':>10} {'total_s':>12} {'share':>8}")
        for stage, (count, total) in sorted(stages.items()):
            share = total / wall_s if wall_s else 0.0
            print(f"  {stage:<20} {count:>10} {total:>12.6f} {share:>8.1%}")


# ----------------------------------------------------------------------
# Exact-repeat counts
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Content hash of the program and benchmark sources in this checkout."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat_counts(workload: str, seed: int, seconds: int, counts: dict) -> None:
    """Compare counts with an earlier run of the same code, seed and size.

    The first run records them; any later run that reads different values
    fails, naming the drifting counts.
    """
    record_dir = WORK_ROOT / "counts"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = record_dir / f"{workload}-s{seed}-t{seconds}-{source_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        drift = {
            name: (earlier.get(name), value)
            for name, value in counts.items()
            if earlier.get(name) != value
        }
        if drift:
            raise CheckFailed(f"exact-repeat counts drifted (earlier, now): {drift}")
        return
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(record)
