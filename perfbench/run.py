"""The repository benchmark: one command, three workloads, per-layer tracing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact_taxi --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` sets ``--seconds 20``; much shorter runs yield fewer than
the 200 latency samples a run needs and are reported invalid.

Workloads (see each module's docstring for why it was chosen):

``exact_taxi``
    library path, one exact ``ccs`` query, closed loop, one thread;
``fanout_remote``
    64 ``gaps`` queries on an in-process ``SurgeService`` with the remote
    executor (2 spawned workers, 2 shards), closed loop, checkpoint every
    64 chunks;
``served_open_loop``
    ``repro serve --listen`` in a subprocess fed on a fixed schedule over
    TCP, one ingest and one subscriber connection.

The seed makes the inputs; ``--seconds`` sizes a fixed amount of work (each
workload module states how long it measures at this commit), so every
commit does the same work and the exact-repeat counts can be compared.
Each workload runs its measured span in several passes, each from a fresh
set-up over identical inputs, and a chunk's latency is its fastest pass
(see ``harness.PASSES``; ``exact_taxi`` also times each chunk only on a
full-speed CPU, see ``harness.CpuGate``); ``setup_s`` is the median of the
run's timed set-ups.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs
the workload untraced and then traced, prints the per-layer table and
reports the per-layer metrics.  Every run checks the program's outputs; a
failed check or an invalid run prints ``"correct": false`` with no metrics
and exits 1.  The last line of standard output is the JSON result whenever
the benchmark runs at all; it refuses to (exit 2, no result) without the
program sources in the checkout or with one of ``FORBIDDEN_ENV`` set.

The two fractions ``deadline_miss_frac`` and ``error_frac`` are reported
as ``(hits + 1) / (samples + 2)`` so that they are never 0; ``attempted``
and ``failed`` carry the raw counts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact_taxi", "fanout_remote", "served_open_loop")

#: Each of these changes the program being measured, so none may be set.
FORBIDDEN_ENV = (
    "REPRO_SWEEP_BACKEND",
    "REPRO_SWEEP_CROSSOVER",
    "REPRO_TRACE",
    "REPRO_LOG_JSON",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind (and stop the processes a workload started) on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    offending = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if offending:
        print(
            f"refusing to run: {', '.join(offending)} set; each changes the "
            f"program being measured",
            file=sys.stderr,
        )
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"refusing to run: no program sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    module = __import__(args.workload)
    print("host " + json.dumps(harness.host_record(), sort_keys=True))
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
        for line in outcome.get("notes", ()):
            print(f"{args.workload}: {line}")
        if args.trace:
            untraced, traced = outcome["pass_counts"]
            if untraced != traced:
                raise harness.CheckFailed(
                    f"counts differ between the untraced and traced passes: "
                    f"{untraced} vs {traced}"
                )
            outcome["layers"]["unattributed_s"] = outcome["traced_wall_s"] - sum(
                outcome["self_times"].values()
            )
            counts = {
                name: outcome["layers"].get(name, 0)
                for name in harness.EXACT_REPEAT_COUNTS
            }
            counts.update(traced)
            harness.check_repeat_counts(
                args.workload, args.seed, args.seconds, counts
            )
    except (harness.CheckFailed, harness.RunInvalid) as exc:
        kind = "check failed" if isinstance(exc, harness.CheckFailed) else "invalid run"
        print(f"{args.workload}: {kind}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.trace:
        harness.print_stage_table(
            args.workload,
            outcome["layers"],
            outcome["self_times"],
            outcome["stages"],
            outcome["traced_wall_s"],
        )
        metrics = harness.metric_records(outcome["layers"], harness.PER_LAYER_UNITS)
    else:
        metrics = harness.metric_records(
            outcome["end_to_end"], harness.END_TO_END_UNITS
        )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
