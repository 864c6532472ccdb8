"""``fanout_remote``: multi-tenant fan-out over remote shards.

An in-process ``SurgeService`` coordinator with ``executor="remote"``
(2 spawned worker processes, 2 shards, shared plan on) runs 64
``make_query_grid(group_aligned=True)`` approximate (``gaps``) queries with
keyword routing over a keyword-tagged taxi stream, in a closed loop; the
benchmark calls ``SurgeService.checkpoint()`` every 64 chunks.  Routing,
shared window groups, the pickle-over-TCP remote wire and checkpoint writes
do the work and no sweep runs, so sweep and pruning changes must predict no
change here.  It is the only workload that uses both CPUs, and it puts
checkpoint writes beside ingest in the service layer.
"""

from __future__ import annotations

import shutil
from time import perf_counter

from harness import (
    PASSES,
    CheckFailed,
    LayerClock,
    RunInvalid,
    child_pids,
    dir_bytes,
    end_to_end_metrics,
    fastest_per_chunk,
    median,
    peak_rss_mb,
    stage_totals,
    work_dir,
)

CHUNK = 96
#: Chunks per pass per nominal second of ``--seconds`` (fixed work, as in
#: ``exact_taxi``); a 20-second run measures about 17 s at this commit.
CHUNKS_PER_SECOND = 10
N_QUERIES = 64
WORKERS = 2
SHARDS = 2
CHECKPOINT_EVERY = 64
#: Warm-up fills both windows of the longest query (2 x 600 s).
WARMUP_STREAM_SECONDS = 1200.0
LATENCY_LIMIT_MS = 2000.0
#: Shard-side stages that run inside a worker for each chunk.
SHARD_STAGES = ("route.bucket", "window.observe", "settle")


def make_inputs(seed: int, n_chunks: int):
    from repro.datasets import TAXI_PROFILE, attach_keywords, scaled_stream
    from repro.service import make_query_grid

    measured = n_chunks * CHUNK
    stream = attach_keywords(
        scaled_stream(TAXI_PROFILE, measured + 4000, seed=seed), seed=seed
    )
    warm = next(
        index
        for index, obj in enumerate(stream)
        if obj.timestamp >= WARMUP_STREAM_SECONDS
    )
    if len(stream) - warm < measured:
        raise RunInvalid("generated stream is shorter than the measured span")
    chunks = [
        stream[start : start + CHUNK]
        for start in range(warm, warm + measured, CHUNK)
    ]
    specs = make_query_grid(
        N_QUERIES,
        base_rect=(TAXI_PROFILE.default_rect_width, TAXI_PROFILE.default_rect_height),
        base_window=TAXI_PROFILE.default_window_seconds,
        algorithm="gaps",
        group_aligned=True,
    )
    return specs, stream[:warm], chunks


def open_service(specs, tracer=None):
    from repro import SurgeService

    return SurgeService(
        specs,
        shards=SHARDS,
        executor="remote",
        executor_options={"workers": WORKERS, "spawn_workers": WORKERS},
        tracer=tracer,
    )


def closed_loop(service, chunks, checkpoint_dir, on_chunk=None):
    """Push every chunk; returns latencies and each chunk's results."""
    latencies = []
    answers = []
    for index, chunk in enumerate(chunks):
        started = perf_counter()
        updates = service.push_many(chunk)
        if (index + 1) % CHECKPOINT_EVERY == 0:
            service.checkpoint(checkpoint_dir)
        latencies.append(perf_counter() - started)
        answers.append([(update.query_id, update.result) for update in updates])
        if on_chunk is not None:
            on_chunk()
    return latencies, answers


def reference(specs, warmup, chunks):
    """Per-chunk results, final results and top-k of an in-process serial run."""
    from repro import SurgeService

    with SurgeService(specs, shards=1, executor="serial") as service:
        service.push_many(warmup)
        answers = [
            [(update.query_id, update.result) for update in service.push_many(chunk)]
            for chunk in chunks
        ]
        return answers, service.results(), service.top_k()


def verify(expected, answers, results, top_k) -> None:
    ref_answers, ref_results, ref_top_k = expected
    for index, (want, got) in enumerate(zip(ref_answers, answers)):
        if want != got:
            raise CheckFailed(f"fanout_remote: chunk {index} results differ from serial")
    if len(answers) != len(ref_answers):
        raise CheckFailed("fanout_remote: chunk count differs from serial")
    if results != ref_results:
        raise CheckFailed("fanout_remote: final results differ from serial")
    if top_k != ref_top_k:
        raise CheckFailed("fanout_remote: final top-k lists differ from serial")


def detector_counts(directory) -> dict:
    """Operation counters summed over the detectors and window groups of the
    latest checkpoint in ``directory`` (shared ones counted once)."""
    from repro.state.recovery import SHARD_SNAPSHOT_KIND, read_manifest
    from repro.state.snapshot import read_snapshot

    counts = {"events": 0, "cells": 0, "triggering": 0, "window_events": 0}
    for name in read_manifest(directory).shard_files:
        _, shard = read_snapshot(directory / name, expected_kind=SHARD_SNAPSHOT_KIND)
        detectors, windows = set(), set()
        for pipeline in shard.pipelines.values():
            monitor = pipeline.monitor
            stats = monitor.detector.stats
            if id(monitor.detector) not in detectors:
                detectors.add(id(monitor.detector))
                counts["events"] += stats.events_processed
                counts["cells"] += stats.cells_searched
                counts["triggering"] += stats.events_triggering_search
            if id(monitor.windows) not in windows:
                windows.add(id(monitor.windows))
                counts["window_events"] += stats.events_processed
    return counts


def measured_pass(service, warmup, chunks, checkpoint_dir):
    """Warm up untimed, checkpoint, then run the measured closed loop."""
    service.push_many(warmup)
    service.checkpoint(checkpoint_dir)
    pairs_before = service.stats().object_query_pairs
    latencies, answers = closed_loop(service, chunks, checkpoint_dir)
    counts = {
        "updates": sum(len(chunk_answers) for chunk_answers in answers),
        "pairs": service.stats().object_query_pairs - pairs_before,
    }
    return latencies, answers, counts, service.results(), service.top_k()


def run(seed: int, seconds: int, trace: bool) -> dict:
    n_chunks = CHUNKS_PER_SECOND * seconds
    scratch = work_dir("fanout")
    try:
        setup_times, passes, rss = [], [], 0.0
        for index in range(PASSES):
            started = perf_counter()
            specs, warmup, chunks = make_inputs(seed, n_chunks)
            service = open_service(specs)
            setup_times.append(perf_counter() - started)
            with service:
                passes.append(
                    measured_pass(service, warmup, chunks, scratch / f"pass{index}")
                )
                # The coordinator and its spawned workers are the system.
                rss = max(
                    rss, peak_rss_mb() + sum(peak_rss_mb(pid) for pid in child_pids())
                )
        objects = sum(len(chunk) for chunk in chunks)
        expected = reference(specs, warmup, chunks)
        for _, answers, counts, results, top_k in passes:
            verify(expected, answers, results, top_k)
            if counts != passes[0][2]:
                raise CheckFailed("fanout_remote: passes over identical inputs disagree")
        latencies = fastest_per_chunk([latencies for latencies, *_ in passes])
        misses = sum(1 for value in latencies if value * 1e3 > LATENCY_LIMIT_MS)
        # Chunks ingested, plus one result delivery per query per chunk.
        attempted = len(chunks) * (1 + N_QUERIES)
        outcome = {
            "attempted": attempted,
            "failed": 0,
            "end_to_end": end_to_end_metrics(
                objects=objects,
                wall_s=sum(latencies),
                latencies_s=latencies,
                misses=misses,
                samples=len(latencies),
                failed=0,
                attempted=attempted,
                setup_times_s=setup_times,
                peak_rss_mb=rss,
            ),
        }
        if trace:
            untraced_wall = median([sum(latencies) for latencies, *_ in passes])
            outcome.update(
                traced_pass(specs, warmup, chunks, scratch, untraced_wall, expected)
            )
            outcome["pass_counts"] = (passes[0][2], outcome.pop("traced_counts"))
        return outcome
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def traced_pass(specs, warmup, chunks, scratch, untraced_wall, expected) -> dict:
    from repro.obs.tracer import Tracer

    objects = sum(len(chunk) for chunk in chunks)
    tracer = Tracer(enabled=True)
    checkpoints = scratch / "traced"
    critical = {stage: 0.0 for stage in SHARD_STAGES}
    scatter = [0.0]

    def account_chunk() -> None:
        # Per chunk, the busier shard lane is the one the coordinator waited
        # for: its stage time is the workers' share of the critical path.
        # A scatter inside a checkpoint span is checkpoint work (state).
        spans = tracer.drain_spans()
        checkpoint_spans = [
            (start, start + duration)
            for stage, start, duration, *_ in spans
            if stage == "checkpoint"
        ]
        lanes: dict[str, dict[str, float]] = {}
        for stage, start, duration, lane, _chunk, _meta in spans:
            if stage == "remote.scatter":
                if not any(low <= start <= high for low, high in checkpoint_spans):
                    scatter[0] += duration
            elif stage in critical and lane is not None:
                per_lane = lanes.setdefault(lane, dict.fromkeys(SHARD_STAGES, 0.0))
                per_lane[stage] += duration
        if lanes:
            busiest = max(lanes.values(), key=lambda per: sum(per.values()))
            for stage, seconds in busiest.items():
                critical[stage] += seconds

    with open_service(specs, tracer=tracer) as service:
        clock = LayerClock()
        service.push_many(warmup)
        service.checkpoint(checkpoints)
        start_counts = detector_counts(checkpoints)
        tracer.drain_spans()
        stages_before = tracer.stage_stats()
        remote_before = service.distributed_stats()
        pairs_before = service.stats().object_query_pairs
        bytes_before = dir_bytes(checkpoints)
        updates = [0]

        def count_updates(result) -> None:
            updates[0] += len(result)

        clock.wrap(service, "push_many", "push_many", on_result=count_updates)
        clock.wrap(service, "checkpoint", "checkpoint")
        latencies, answers = closed_loop(
            service, chunks, checkpoints, on_chunk=account_chunk
        )
        wall = sum(latencies)
        push_many_s = clock.seconds["push_many"]
        checkpoint_s = clock.seconds["checkpoint"]
        checkpoints_taken = clock.calls["checkpoint"]
        checkpoint_bytes = dir_bytes(checkpoints) - bytes_before
        remote_after = service.distributed_stats()
        pairs = service.stats().object_query_pairs - pairs_before
        stages = stage_totals(tracer.stage_stats(), since=stages_before)
        service.checkpoint(checkpoints)
        end_counts = detector_counts(checkpoints)
        results, top_k = service.results(), service.top_k()
    verify(expected, answers, results, top_k)

    delta = {key: end_counts[key] - start_counts[key] for key in end_counts}

    def stage_seconds(stage: str) -> float:
        return stages.get(stage, (0, 0.0))[1]

    # Self times along the coordinator's critical path: the service layer
    # is push_many minus the scatter it waits on, the distributed layer is
    # the scatter minus the busier worker's stage time, and that worker's
    # route/window/settle time belongs to its own layers.
    critical_s = sum(critical.values())
    self_times = {
        "service": push_many_s - scatter[0] + critical["route.bucket"],
        "distributed": scatter[0] - critical_s,
        "streams.windows": critical["window.observe"],
        "core": critical["settle"],
        "state": checkpoint_s,
    }
    layers = {
        "core.settle_s": stage_seconds("settle"),
        "core.events_processed": delta["events"],
        "core.cells_searched": delta["cells"],
        "core.search_trigger_ratio": (
            delta["triggering"] / delta["events"] if delta["events"] else 0.0
        ),
        "windows.observe_s": stage_seconds("window.observe"),
        "windows.events": delta["window_events"],
        "service.push_many_s": push_many_s,
        "service.route_s": stage_seconds("route.bucket"),
        "service.publish_s": stage_seconds("bus.publish"),
        "service.updates": updates[0],
        "service.pairs": pairs,
        "remote.scatter_s": scatter[0],
        "remote.rpc_retries": remote_after["rpc_retries"] - remote_before["rpc_retries"],
        "remote.rpc_timeouts": remote_after["rpc_timeouts"] - remote_before["rpc_timeouts"],
        "remote.heartbeat_misses": (
            remote_after["heartbeat_misses"] - remote_before["heartbeat_misses"]
        ),
        "state.checkpoints": checkpoints_taken,
        "state.checkpoint_s": checkpoint_s,
        "state.checkpoint_bytes": checkpoint_bytes,
        "obs.trace_overhead_frac": 1.0 - untraced_wall / wall,
    }
    return {
        "layers": layers,
        "self_times": self_times,
        "stages": stages,
        "traced_wall_s": wall,
        "traced_counts": {"updates": updates[0], "pairs": pairs},
    }
