"""``served_open_loop``: the deployed path, fed on a fixed schedule.

``repro serve --listen`` runs in a subprocess with its defaults (serial
executor, 1 shard, shared plan) plus ``--max-lateness`` and a small
``--chunk-size`` (so a run yields at least 200 chunk samples).  About ten
queries are registered over the wire — a ``gaps`` grid, one ``ccs`` and one
``kccs`` (k = 3), the paper's three solution families — and a keyword-tagged
taxi stream with 5% bounded disorder is fed at one fixed rate, about half
of what the seed commit sustains on a 2-CPU host.  One ingest connection
pipelines its sends without waiting for acks (acks arrive only after
processing) and one subscriber connection receives the result frames: an
open loop.  Freshness is what a user feels, and only this workload
exercises the server (frame codec, engine queue), the watermark reorder
buffer and queueing under a stall.

A chunk's latency runs from the time its last object was due to be sent
until the subscriber holds that chunk's last result frame.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from time import perf_counter

from harness import (
    PASSES,
    ROOT,
    CheckFailed,
    RunInvalid,
    end_to_end_metrics,
    median,
    peak_rss_mb,
    percentile,
    stage_totals,
    work_dir,
)

#: Objects per second fed to the server.
RATE = 340.0
#: Objects per ingest frame (so frames go out every BATCH / RATE seconds).
BATCH = 4
#: The server's ``--chunk-size``: one latency sample per chunk.
CHUNK = 16
MAX_LATENESS = 2.0
DISORDER_FRACTION = 0.05
MAX_DISORDER = 1.0
WARMUP_STREAM_SECONDS = 600.0
N_GRID_QUERIES = 8
LATENCY_LIMIT_MS = 1500.0
#: The run is invalid when the generator's p95 lateness exceeds this ...
GENERATOR_LATE_LIMIT_MS = 20.0
#: ... or the unacknowledged backlog grew by more than this many frames.
BACKLOG_GROWTH_LIMIT = 25
#: How long to wait for the tail of acks and result frames.
DRAIN_TIMEOUT_S = 60.0
SUBSCRIPTION_SIZE = 1 << 16
#: Unacknowledged warm-up frames allowed in flight (keeps both directions'
#: socket buffers from filling up while the warm-up is pipelined).
WARMUP_WINDOW = 32
#: Each of the ``PASSES`` open-loop passes (each on a fresh server) sends
#: this share of ``--seconds`` worth of objects at ``RATE`` (not
#: ``1 / PASSES``: a pass must yield >= 200 chunks on its own), so a
#: 20-second run measures 30 s.
PASS_SHARE = 0.5
LENGTH = struct.Struct(">I")


def make_specs():
    from repro.datasets import TAXI_PROFILE, default_query_for_profile
    from repro.service import QuerySpec, make_query_grid

    grid = make_query_grid(
        N_GRID_QUERIES,
        base_rect=(TAXI_PROFILE.default_rect_width, TAXI_PROFILE.default_rect_height),
        base_window=TAXI_PROFILE.default_window_seconds,
        algorithm="gaps",
        group_aligned=True,
    )
    # Keyword-routed like the grid: an unfiltered kccs re-runs its greedy
    # top-k over every live object at each chunk (~0.1 s on a 2-CPU host),
    # which would cap the served chunk rate far below 200 chunks per run.
    exact = QuerySpec("ccs", default_query_for_profile(TAXI_PROFILE),
                      algorithm="ccs", keyword="traffic", backend="auto")
    topk = QuerySpec("kccs", default_query_for_profile(TAXI_PROFILE, k=3),
                     algorithm="kccs", keyword="food", backend="auto")
    # The server sees each spec after a JSON round trip; so does the reference.
    return [QuerySpec.from_dict(spec.to_dict()) for spec in grid + [exact, topk]]


def make_inputs(seed: int, seconds: int):
    from repro.datasets import TAXI_PROFILE, attach_keywords, scaled_stream
    from repro.server.protocol import encode_frame, encode_object
    from repro.streams.faults import FaultInjector

    measured = int(RATE * seconds * PASS_SHARE)
    clean = attach_keywords(
        scaled_stream(TAXI_PROFILE, measured + 4000, seed=seed), seed=seed
    )
    arrivals = FaultInjector(
        clean, seed=seed, disorder_fraction=DISORDER_FRACTION, max_disorder=MAX_DISORDER
    ).materialize()
    warm = next(
        index for index, obj in enumerate(arrivals)
        if obj.timestamp >= WARMUP_STREAM_SECONDS
    )
    if len(arrivals) - warm < measured:
        raise RunInvalid("generated stream is shorter than the measured span")
    arrivals = arrivals[: warm + measured]
    batches = [arrivals[i : i + BATCH] for i in range(0, len(arrivals), BATCH)]
    frames = [
        encode_frame({"type": "ingest", "objects": [encode_object(o) for o in batch]})
        for batch in batches
    ]
    warm_batches = -(-warm // BATCH)
    return make_specs(), batches, frames, warm_batches


def _die_with_parent() -> None:
    """In the child: get SIGTERM if the benchmark dies without stopping it."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """``repro serve --listen`` in a subprocess plus the two connections."""

    def __init__(self, scratch, trace_dir=None) -> None:
        command = [
            sys.executable, "-c", "from repro.cli import main; raise SystemExit(main())",
            "serve", "--listen", "127.0.0.1:0",
            "--max-lateness", str(MAX_LATENESS), "--chunk-size", str(CHUNK),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.stderr = open(scratch / f"server-{time.monotonic_ns()}.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.stderr,
            preexec_fn=_die_with_parent,
        )
        self.ingest = self.subscriber = None
        try:
            host, port = self._endpoint()
            self.ingest = socket.create_connection((host, port), timeout=60)
            self.subscriber = socket.create_connection((host, port), timeout=60)
            for sock in (self.ingest, self.subscriber):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.stop()
            raise

    def _endpoint(self):
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + 120
        line = b""
        while not line.endswith(b"\n"):
            if time.monotonic() > deadline or not selector.select(timeout=1.0):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("server did not report its endpoint")
                continue
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("server exited before listening")
            line += chunk
        selector.close()
        text = line.decode().strip()
        if not text.startswith("listening on "):
            raise RuntimeError(f"unexpected server banner {text!r}")
        host, port = text[len("listening on "):].split()[0].rsplit(":", 1)
        return host, int(port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        for sock in (self.ingest, self.subscriber):
            if sock is not None:
                sock.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.stderr.close()


def request(sock, frame: dict) -> dict:
    """Blocking request/reply on a connection no other thread reads."""
    from repro.server.protocol import encode_frame

    sock.sendall(encode_frame(frame))
    return read_reply(sock)


def read_reply(sock) -> dict:
    return json.loads(read_exactly(sock, LENGTH.unpack(read_exactly(sock, 4))[0]))


def read_exactly(sock, n: int) -> bytes:
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return bytes(data)


class Receiver(threading.Thread):
    """Reads both connections, stamping each complete frame on arrival.

    Bodies are kept raw and decoded after the run, so the receiving side
    stays cheap while the server is under load.
    """

    def __init__(self, server: Server) -> None:
        super().__init__(name="perfbench-receiver", daemon=True)
        self.sockets = {server.ingest: "ingest", server.subscriber: "results"}
        self.frames = {"ingest": [], "results": []}
        self.bytes_received = 0
        self.stopping = threading.Event()
        self.error: BaseException | None = None

    def run(self) -> None:
        selector = selectors.DefaultSelector()
        buffers = {}
        for sock, name in self.sockets.items():
            selector.register(sock, selectors.EVENT_READ, name)
            buffers[name] = bytearray()
        try:
            while not self.stopping.is_set():
                for key, _ in selector.select(timeout=0.05):
                    data = key.fileobj.recv(1 << 16)
                    arrived = perf_counter()
                    if not data:
                        raise ConnectionError(f"server closed the {key.data} connection")
                    self.bytes_received += len(data)
                    buffer = buffers[key.data]
                    buffer += data
                    while len(buffer) >= 4:
                        size = LENGTH.unpack_from(buffer)[0]
                        if len(buffer) < 4 + size:
                            break
                        self.frames[key.data].append((arrived, bytes(buffer[4 : 4 + size])))
                        del buffer[: 4 + size]
        except BaseException as exc:  # reported by the main thread
            self.error = exc
        finally:
            selector.close()

    def wait_for(self, name: str, count: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while len(self.frames[name]) < count:
            if self.error is not None:
                raise self.error
            if time.monotonic() > deadline:
                return False
            time.sleep(0.002)
        return True


def warm_up(server, frames) -> int:
    """Feed the warm-up frames closed-loop (before anyone subscribes, so no
    result frames are produced); returns the chunks it dispatched."""
    reply = None
    for index, frame in enumerate(frames):
        server.ingest.sendall(frame)
        if index >= WARMUP_WINDOW:
            reply = read_reply(server.ingest)
    for _ in range(min(WARMUP_WINDOW, len(frames))):
        reply = read_reply(server.ingest)
    if reply is None or reply.get("type") != "ack":
        raise RunInvalid(f"the server did not acknowledge the warm-up: {reply}")
    return reply["chunk_offset"]


def subscribe(server) -> None:
    reply = request(server.subscriber, {
        "type": "subscribe", "maxsize": SUBSCRIPTION_SIZE, "policy": "drop_oldest",
        "block_timeout": None, "queries": None, "name": "perfbench",
    })
    if reply.get("type") != "ack":
        raise RunInvalid(f"subscription failed: {reply}")


def open_loop(server, receiver, measured, warm_chunks, n_queries):
    """Send the measured frames on the fixed schedule (an open loop)."""
    from repro.server.protocol import encode_frame

    def ask(frame):
        expected = len(receiver.frames["ingest"]) + 1
        server.ingest.sendall(encode_frame(frame))
        if not receiver.wait_for("ingest", expected, DRAIN_TIMEOUT_S):
            raise RunInvalid(f"no reply to {frame['type']!r}")
        return json.loads(receiver.frames["ingest"][expected - 1][1])

    before = ask({"type": "stats"})["stats"]
    acks_before = len(receiver.frames["ingest"])
    backlog_start = 0  # every warm-up frame was acknowledged above
    interval = BATCH / RATE
    dues, lateness = [], []
    max_backlog = 0
    bytes_sent = 0
    start = perf_counter() + 0.05
    for index, frame in enumerate(measured):
        due = start + index * interval
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = perf_counter()
        server.ingest.sendall(frame)
        bytes_sent += len(frame)
        dues.append(due)
        lateness.append(sent - due)
        backlog = index + 1 - (len(receiver.frames["ingest"]) - acks_before)
        max_backlog = max(max_backlog, backlog)
    backlog_end = len(measured) - (len(receiver.frames["ingest"]) - acks_before)
    acked = receiver.wait_for("ingest", acks_before + len(measured), DRAIN_TIMEOUT_S)
    if not acked:
        raise RunInvalid("the server did not acknowledge every ingest frame")
    last_ack = json.loads(receiver.frames["ingest"][-1][1])
    # Undelivered results are counted as misses and failures later.
    receiver.wait_for(
        "results", (last_ack["chunk_offset"] - warm_chunks) * n_queries, DRAIN_TIMEOUT_S
    )
    after = ask({"type": "stats"})["stats"]
    results = ask({"type": "results"})["results"]
    return {
        "dues": dues,
        "lateness": lateness,
        "backlog_start": backlog_start,
        "backlog_end": backlog_end,
        "max_backlog": max_backlog,
        "bytes_sent": bytes_sent,
        "acks": receiver.frames["ingest"][acks_before : acks_before + len(measured)],
        "warm_chunks": warm_chunks,
        "chunks": last_ack["chunk_offset"],
        "stats_before": before,
        "stats_after": after,
        "results": results,
        "start": start,
    }


def serve_once(server, frames, warm_batches, n_queries):
    """The rest of a started server's lifetime: warm up, measure, stop."""
    receiver = Receiver(server)
    try:
        warm_chunks = warm_up(server, frames[:warm_batches])
        subscribe(server)
        receiver.start()
        outcome = open_loop(server, receiver, frames[warm_batches:], warm_chunks, n_queries)
        outcome["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        receiver.stopping.set()
        receiver.join(timeout=30)
        server.stop()
    if receiver.error is not None and not isinstance(receiver.error, ConnectionError):
        raise receiver.error
    outcome["frames"] = receiver.frames["results"]
    outcome["bytes_received"] = receiver.bytes_received
    return outcome


def start_server(specs, scratch, trace_dir=None) -> Server:
    server = Server(scratch, trace_dir)
    try:
        for spec in specs:
            reply = request(server.ingest, {"type": "register", "spec": spec.to_dict()})
            if reply.get("type") != "ack":
                raise RunInvalid(f"registration of {spec.query_id} failed: {reply}")
    except BaseException:
        server.stop()
        raise
    return server


def reference(specs, batches):
    """Per-chunk results and final results of an in-process serial service
    fed the same arrival sequence with the same lateness and chunking."""
    from repro import SurgeService

    per_chunk = {}
    with SurgeService(specs, max_lateness=MAX_LATENESS) as service:
        for batch in batches:
            for updates in service.feed(batch, CHUNK):
                per_chunk[updates[0].chunk_index] = {
                    update.query_id: update.result for update in updates
                }
        return per_chunk, service.results()


def analyse(outcome, expected, batches, warm_batches, n_queries):
    """Check every delivered frame against the reference and time each
    measured chunk: ``{chunk: latency}``, ``None`` for an undelivered one."""
    from repro.server.protocol import decode_result

    per_chunk, final = expected
    if set(per_chunk) != set(range(outcome["chunks"])):
        raise CheckFailed("served_open_loop: chunks dispatched differ from the reference")
    if set(outcome["results"]) != set(final):
        raise CheckFailed("served_open_loop: the served query set differs")
    for query_id, record in outcome["results"].items():
        if decode_result(record) != final[query_id]:
            raise CheckFailed(f"served_open_loop: final result of {query_id} differs")
    arrivals: dict[int, list[float]] = {}
    for arrived, body in outcome["frames"]:
        frame = json.loads(body)
        if frame.get("type") != "result":
            continue
        chunk = frame["chunk_index"]
        if decode_result(frame["result"]) != per_chunk[chunk][frame["query_id"]]:
            raise CheckFailed(
                f"served_open_loop: chunk {chunk} result of {frame['query_id']} differs"
            )
        arrivals.setdefault(chunk, []).append(arrived)

    # Chunk k holds objects k*CHUNK .. of the sorted arrival sequence (the
    # reorder buffer releases exactly that order when nothing is dropped).
    due_of = {}
    for due, batch in zip(outcome["dues"], batches[warm_batches:]):
        for obj in batch:
            due_of[obj.object_id] = due
    released = sorted(
        (obj for batch in batches for obj in batch),
        key=lambda o: (o.timestamp, o.object_id),
    )
    latencies = {}
    for chunk in range(outcome["warm_chunks"], outcome["chunks"]):
        members = released[chunk * CHUNK : (chunk + 1) * CHUNK]
        member_dues = [due_of[o.object_id] for o in members if o.object_id in due_of]
        if not member_dues:
            continue  # held back during warm-up, released by the first send
        times = arrivals.get(chunk, [])
        latencies[chunk] = (
            max(times) - max(member_dues) if len(times) == n_queries else None
        )
    outcome["delivered"] = sum(
        min(len(arrivals.get(chunk, [])), n_queries)
        for chunk in range(outcome["warm_chunks"], outcome["chunks"])
    )
    outcome["expected"] = (outcome["chunks"] - outcome["warm_chunks"]) * n_queries
    outcome["wall"] = max(max(times) for times in arrivals.values()) - outcome["start"]
    return latencies


def pass_counts(outcome) -> dict:
    before, after = outcome["stats_before"], outcome["stats_after"]
    return {
        "ingest_frames": len(outcome["acks"]),
        "chunks": outcome["chunks"],
        "result_frames": outcome["delivered"],
        "reordered": after["ingest"]["reordered"] - before["ingest"]["reordered"],
    }


def schedule_note(outcome) -> str:
    lateness = outcome["lateness"]
    return (
        f"generator lateness p95 {percentile(lateness, 0.95) * 1e3:.3f} ms, "
        f"max {max(lateness) * 1e3:.3f} ms; unacknowledged frames at start "
        f"{outcome['backlog_start']}, at end {outcome['backlog_end']}, "
        f"max {outcome['max_backlog']}"
    )


def check_validity(outcome) -> None:
    late_p95 = percentile(outcome["lateness"], 0.95) * 1e3
    if late_p95 > GENERATOR_LATE_LIMIT_MS:
        raise RunInvalid(
            f"generator fell behind its schedule: p95 lateness {late_p95:.1f} ms"
        )
    growth = outcome["backlog_end"] - outcome["backlog_start"]
    if growth > BACKLOG_GROWTH_LIMIT:
        raise RunInvalid(
            f"server backlog grew from {outcome['backlog_start']} to "
            f"{outcome['backlog_end']} unacknowledged frames"
        )


def run(seed: int, seconds: int, trace: bool) -> dict:
    scratch = work_dir("served")
    try:
        setup_times, outcomes = [], []
        for _ in range(PASSES):
            started = perf_counter()
            specs, batches, frames, warm_batches = make_inputs(seed, seconds)
            server = start_server(specs, scratch)
            setup_times.append(perf_counter() - started)
            outcomes.append(serve_once(server, frames, warm_batches, len(specs)))
            check_validity(outcomes[-1])
        expected = reference(specs, batches)
        n_queries = len(specs)
        per_pass = [
            analyse(outcome, expected, batches, warm_batches, n_queries)
            for outcome in outcomes
        ]
        counts = [pass_counts(outcome) for outcome in outcomes]
        if any(count != counts[0] for count in counts):
            raise CheckFailed("served_open_loop: passes over identical inputs disagree")
        latencies, misses = [], 0
        for chunk in per_pass[0]:
            delivered = [p[chunk] for p in per_pass if p[chunk] is not None]
            if not delivered:
                misses += 1
                continue
            latencies.append(min(delivered))
            if latencies[-1] * 1e3 > LATENCY_LIMIT_MS:
                misses += 1
        attempted = failed = 0
        for outcome in outcomes:
            ingest_failed = sum(1 for _, body in outcome["acks"] if b'"type":"ack"' not in body)
            attempted += len(outcome["acks"]) + n_queries + outcome["expected"]
            failed += ingest_failed + outcome["expected"] - outcome["delivered"]
        objects = sum(len(batch) for batch in batches[warm_batches:])
        result = {
            "attempted": attempted,
            "failed": failed,
            "notes": [f"pass {i}: {schedule_note(o)}" for i, o in enumerate(outcomes)],
            "end_to_end": end_to_end_metrics(
                objects=objects,
                wall_s=min(outcome["wall"] for outcome in outcomes),
                latencies_s=latencies,
                misses=misses,
                samples=len(per_pass[0]),
                failed=failed,
                attempted=attempted,
                setup_times_s=setup_times,
                peak_rss_mb=max(outcome["peak_rss_mb"] for outcome in outcomes),
            ),
        }
        if trace:
            untraced_rate = objects / median([outcome["wall"] for outcome in outcomes])
            result.update(
                traced_pass(specs, batches, frames, warm_batches, scratch,
                            untraced_rate, expected)
            )
            result["notes"].append("traced pass: " + result.pop("traced_note"))
            result["pass_counts"] = (counts[0], result.pop("traced_counts"))
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def traced_pass(specs, batches, frames, warm_batches, scratch, untraced_rate,
                expected) -> dict:
    server = start_server(specs, scratch, trace_dir=scratch / "trace")
    outcome = serve_once(server, frames, warm_batches, len(specs))
    check_validity(outcome)
    analyse(outcome, expected, batches, warm_batches, len(specs))
    objects = sum(len(batch) for batch in batches[warm_batches:])
    wall = outcome["wall"]
    delivered = outcome["delivered"]
    before, after = outcome["stats_before"], outcome["stats_after"]
    stages = stage_totals(after.get("stages", {}), since=before.get("stages", {}))

    def seconds(stage: str) -> float:
        return stages.get(stage, (0, 0.0))[1]

    def counter(section: str, name: str) -> int:
        return after[section][name] - before[section][name]

    python_s, numpy_s = seconds("sweep.python"), seconds("sweep.numpy")
    sweep_s = python_s + numpy_s
    sweep_calls = stages.get("sweep.python", (0, 0))[0] + stages.get("sweep.numpy", (0, 0))[0]
    ack_latencies = [
        arrived - due for (arrived, _), due in zip(outcome["acks"], outcome["dues"])
    ]
    layers = {
        "sweep.calls": sweep_calls,
        "sweep.python_s": python_s,
        "sweep.numpy_s": numpy_s,
        "sweep.numpy_share": numpy_s / sweep_s if sweep_s else 0.0,
        "core.settle_s": seconds("settle") - sweep_s,
        "core.sweeps_per_kobj": sweep_calls * 1000.0 / objects,
        "windows.observe_s": seconds("window.observe"),
        "service.route_s": seconds("route.bucket"),
        "service.publish_s": seconds("bus.publish"),
        "service.updates": delivered,
        "service.pairs": counter("service", "object_query_pairs"),
        "server.ack_p50_ms": percentile(ack_latencies, 0.5) * 1e3,
        "server.bytes_in": outcome["bytes_sent"],
        "server.bytes_out": outcome["bytes_received"],
        "server.wire_encode_s": seconds("wire.encode"),
        "server.wire_decode_s": seconds("wire.decode"),
        "server.max_queue_depth": outcome["max_backlog"],
        "server.ingest_rejected": after["ingest_rejected"] - before["ingest_rejected"],
        "ingest.reordered": counter("ingest", "reordered"),
        "ingest.late_dropped": counter("ingest", "late_dropped"),
        "ingest.peak_buffered": after["ingest"]["peak_buffered"],
        "ingest.reorder_s": seconds("ingest.reorder"),
        "obs.trace_overhead_frac": 1.0 - (objects / wall) / untraced_rate,
        "bench.generator_late_p95_ms": percentile(outcome["lateness"], 0.95) * 1e3,
    }
    # Server-side busy time per layer; the remainder of the open loop's wall
    # time is idle capacity, queueing and time outside every span.
    self_times = {
        "streams.watermark": seconds("ingest.reorder"),
        "service": seconds("route.bucket") + seconds("bus.publish"),
        "streams.windows": seconds("window.observe"),
        "core": seconds("settle") - sweep_s,
        "core.sweep_backends": sweep_s,
        "server": seconds("wire.encode") + seconds("wire.decode"),
    }
    return {
        "layers": layers,
        "self_times": self_times,
        "stages": stages,
        "traced_wall_s": wall,
        "traced_counts": pass_counts(outcome),
        "traced_note": schedule_note(outcome),
    }
