"""``exact_taxi``: the library path on the paper's core problem.

One exact Cell-CSPOT (``ccs``) query with the paper's default Taxi query
(rectangle = 1/1000 of the extent per side, 300 s window, alpha = 0.5) over
``scaled_stream(taxi)``, driven through ``SurgeMonitor.push_many`` and
``result()`` once per chunk: a closed loop in one process on one thread.
Cell bounds and SL-CSPOT sweeps do almost all of the work here, so sweep
pruning and kernel changes show on this workload; the service, wire and
remote layers play no part.
"""

from __future__ import annotations

from time import perf_counter

from harness import (
    CheckFailed,
    CpuGate,
    LayerClock,
    RunInvalid,
    TimedSweepBackend,
    end_to_end_metrics,
    fastest_per_chunk,
    median,
    peak_rss_mb,
    stage_totals,
    sweep_layer,
)

CHUNK = 32
#: This workload's own pass count (``harness.PASSES`` is for the others):
#: with each chunk timed on a full-speed CPU (``harness.CpuGate``) two
#: passes already agree within a few percent, and the time a third would
#: take buys more segments instead.
PASSES = 2
#: Independent streams (segments) per nominal second of ``--seconds``, each
#: from its own sub-seed.  Hotspot layout sets a segment's cost (its swept
#: rectangles vary by about 20% between sub-seeds), so a run measures many
#: to keep runs with different seeds comparable.  The work of a run is fixed
#: by the seed and ``--seconds`` (so counts repeat exactly and every commit
#: does the same work); at this commit the passes of a 20-second run
#: measure about 12 s in total on a 2-CPU host.
SEGMENTS_PER_SECOND = 0.5
#: Background objects per segment stream.  This fixes where
#: ``scaled_stream`` plants its bursts: the second one runs from about 610 s
#: to 681 s, whatever the seed.
STREAM_OBJECTS = 7173
#: Warm-up fills both windows (2 x 300 s), then runs the first
#: ``LEAD_IN_CHUNKS`` chunks of the burst's approach untimed: they cost a
#: few ms each, and with them in the sample the median chunk fell between
#: the cheap lead-in and the burst, where it jumped with the seed.
WARMUP_STREAM_SECONDS = 600.0
LEAD_IN_CHUNKS = 12
#: Measured chunks per segment: they run to about 685 s, past the burst's
#: end while its objects are still in the current window, so each segment's
#: measured span holds the expensive part of the workload.
CHUNKS_PER_SEGMENT = 40
#: A chunk answered later than this misses its deadline.
LATENCY_LIMIT_MS = 2000.0
SCORE_TOLERANCE = 1e-9
#: Chunks (by index in a segment) whose results are checked: one mid-burst
#: and the last (see :func:`verify`).
CHECKED_CHUNKS = (CHUNKS_PER_SEGMENT // 2 - 1, CHUNKS_PER_SEGMENT - 1)


def make_inputs(seed: int, seconds: int):
    """The query and, per segment, its warm-up prefix and measured chunks."""
    from repro.datasets import TAXI_PROFILE, default_query_for_profile, scaled_stream

    query = default_query_for_profile(TAXI_PROFILE)
    n_segments = max(1, round(SEGMENTS_PER_SECOND * seconds))
    measured = CHUNKS_PER_SEGMENT * CHUNK
    segments = []
    for index in range(n_segments):
        stream = scaled_stream(
            TAXI_PROFILE, STREAM_OBJECTS, seed=seed * n_segments + index
        )
        warm = LEAD_IN_CHUNKS * CHUNK + next(
            position
            for position, obj in enumerate(stream)
            if obj.timestamp >= WARMUP_STREAM_SECONDS
        )
        if len(stream) - warm < measured:
            raise RunInvalid("generated stream is shorter than the measured span")
        chunks = [
            stream[start : start + CHUNK]
            for start in range(warm, warm + measured, CHUNK)
        ]
        segments.append((stream[:warm], chunks))
    return query, segments


def build_monitor(query, backend):
    from repro import SurgeMonitor, make_detector

    return SurgeMonitor(query, algorithm=make_detector("ccs", query, backend=backend))


def detector_counts(detector) -> dict:
    stats = detector.stats
    return {
        "events_processed": stats.events_processed,
        "cells_searched": stats.cells_searched,
        "events_triggering_search": stats.events_triggering_search,
        "rectangles_swept": stats.rectangles_swept,
    }


def warm_up(monitors, segments) -> None:
    """Fill every segment monitor's windows (untimed, same on every commit)."""
    for monitor, (warmup, _) in zip(monitors, segments):
        monitor.push_many(warmup)
        monitor.result()


def measure(monitors, segments, gate):
    """The closed loop over every segment's measured chunks, each chunk
    timed once ``gate`` has found a full-speed CPU.

    Returns the per-chunk latencies, each segment's results after its
    ``CHECKED_CHUNKS`` with the window states they answer for, and the
    detectors' operation counts over the measured chunks.
    """
    latencies, samples = [], []
    counts = {}
    for monitor, (_, chunks) in zip(monitors, segments):
        before = detector_counts(monitor.detector)
        for index, chunk in enumerate(chunks):
            gate.wait()
            started = perf_counter()
            monitor.push_many(chunk)
            result = monitor.result()
            latencies.append(perf_counter() - started)
            if index in CHECKED_CHUNKS:
                samples.append((result, monitor.window_state()))
        for name, value in detector_counts(monitor.detector).items():
            counts[name] = counts.get(name, 0) + value - before[name]
    return latencies, samples, counts


def verify(query, samples) -> None:
    """Every checked result must be the snapshot optimum.

    The reported region is re-scored by brute force over the live windows
    (``core/brute.py``), and its score must equal the optimum of one
    full-snapshot SL-CSPOT sweep, which uses no cells, bounds or adaptive
    dispatch.  That sweep runs on the numpy kernel where it is available
    (about 0.2 s a snapshot); on the first segment's last result the
    pure-Python reference kernel (about 1 s) must agree with it as well.
    (The exhaustive ``best_region_brute_force`` is cubic and out of reach
    at the ~4k live objects of this workload.)
    """
    from repro.core.brute import score_of_region
    from repro.core.sweep_backends import LabeledRect, available_backends
    from repro.core.sweepline import sweep_bursty_point

    fast = "numpy" if "numpy" in available_backends() else "python"
    for index, (result, state) in enumerate(samples):
        if result is None:
            raise CheckFailed(f"exact_taxi: checked result {index} is missing")
        rects = [
            LabeledRect(o.x, o.y, o.x + query.rect_width, o.y + query.rect_height,
                        o.weight, in_current)
            for objects, in_current in ((state.current, True), (state.past, False))
            for o in objects
            if query.accepts(o.x, o.y)
        ]
        kernels = (fast, "python") if index == len(CHECKED_CHUNKS) - 1 else (fast,)
        scores = {
            f"snapshot optimum ({kernel} kernel)": sweep_bursty_point(
                rects, query.alpha, query.current_length, query.past_length,
                backend=kernel,
            ).score
            for kernel in kernels
        }
        scores["brute-force score of the reported region"] = score_of_region(
            result.region, state.current, state.past, query
        )[0]
        tolerance = SCORE_TOLERANCE * max(1.0, abs(result.score))
        for name, score in scores.items():
            if abs(score - result.score) > tolerance:
                raise CheckFailed(
                    f"exact_taxi: checked result {index} has score "
                    f"{result.score!r}; {name} {score!r}"
                )


def results_of(samples) -> list:
    return [result for result, _ in samples]


def run(seed: int, seconds: int, trace: bool) -> dict:
    gate = CpuGate()
    try:
        outcome = gated_run(seed, seconds, trace, gate)
    finally:
        gate.release()
    outcome["notes"] = [gate.note()]
    return outcome


def gated_run(seed: int, seconds: int, trace: bool, gate: CpuGate) -> dict:
    from repro.core.sweep_backends import get_backend
    from repro.obs.tracer import Tracer, install

    setup_times, passes = [], []
    for _ in range(PASSES):
        gate.wait()
        started = perf_counter()
        query, segments = make_inputs(seed, seconds)
        monitors = [build_monitor(query, "auto") for _ in segments]
        setup_times.append(perf_counter() - started)
        warm_up(monitors, segments)
        passes.append(measure(monitors, segments, gate))
        del monitors
    rss = peak_rss_mb()
    objects = sum(len(chunk) for _, chunks in segments for chunk in chunks)
    _, first_samples, first_counts = passes[0]
    verify(query, first_samples)
    for _, samples, counts in passes[1:]:
        if results_of(samples) != results_of(first_samples) or counts != first_counts:
            raise CheckFailed("exact_taxi: passes over identical inputs disagree")
    latencies = fastest_per_chunk([latencies for latencies, _, _ in passes])
    misses = sum(1 for value in latencies if value * 1e3 > LATENCY_LIMIT_MS)
    outcome = {
        "attempted": len(latencies),
        "failed": 0,
        "end_to_end": end_to_end_metrics(
            objects=objects,
            wall_s=sum(latencies),
            latencies_s=latencies,
            misses=misses,
            samples=len(latencies),
            failed=0,
            attempted=len(latencies),
            setup_times_s=setup_times,
            peak_rss_mb=rss,
        ),
    }
    if not trace:
        return outcome

    # Traced pass: same inputs, fresh monitors, every layer timed from here.
    backend = TimedSweepBackend(get_backend("auto"))
    monitors = [build_monitor(query, backend) for _ in segments]
    warm_up(monitors, segments)
    backend.reset()
    clock = LayerClock()
    events = [0]

    def count_events(batch) -> None:
        events[0] += len(batch.events)

    for monitor in monitors:
        clock.wrap(monitor.windows, "observe_batch", "windows", on_result=count_events)
        clock.wrap(monitor.detector, "apply_events", "core")
        clock.wrap(monitor.detector, "result", "core")
    tracer = Tracer(enabled=True)
    install(tracer)
    try:
        traced_latencies, traced_samples, counts = measure(monitors, segments, gate)
    finally:
        install(None)
    if results_of(traced_samples) != results_of(first_samples):
        raise CheckFailed("exact_taxi: the traced pass changed a result")
    traced_wall = sum(traced_latencies)
    processed = counts["events_processed"]
    layers = sweep_layer(backend, objects)
    sweep_s = backend.total_seconds()
    core_self = clock.seconds["core"] - sweep_s
    untraced_wall = median([sum(latencies) for latencies, _, _ in passes])
    layers.update(
        {
            "core.settle_s": core_self,
            "core.events_processed": processed,
            "core.cells_searched": counts["cells_searched"],
            "core.search_trigger_ratio": (
                counts["events_triggering_search"] / processed if processed else 0.0
            ),
            "windows.observe_s": clock.seconds["windows"],
            "windows.events": events[0],
            "obs.trace_overhead_frac": 1.0 - untraced_wall / traced_wall,
        }
    )
    outcome.update(
        {
            "layers": layers,
            "self_times": {
                "streams.windows": clock.seconds["windows"],
                "core": core_self,
                "core.sweep_backends": sweep_s,
            },
            "stages": stage_totals(tracer.stage_stats()),
            "traced_wall_s": traced_wall,
            "pass_counts": (first_counts, counts),
        }
    )
    return outcome
