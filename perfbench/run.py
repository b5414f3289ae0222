"""Run one benchmark workload and print its result as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload igd_serial_dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is the separate traced run: it alternates traced and untraced jobs and prints
the per-layer metrics (and writes every span to ``.perfbench_out/``).  The
last line of standard output is the result object; the lines before it hold
the provenance, the workload details and, when traced, the layer report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_layers import PER_LAYER  # noqa: E402
from bench_spans import Tracer  # noqa: E402
from bench_stats import (  # noqa: E402
    live_children,
    provenance,
    shm_segments,
    stop_resource_tracker,
    tracker_pid,
)
from bench_workloads import END_TO_END, Outcome, run_igd, run_ingest  # noqa: E402

WORKLOADS = ("igd_serial_dense", "igd_parallel_nolock", "ingest_sql_refresh")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, tracer, workdir: Path):
    if name == "ingest_sql_refresh":
        return run_ingest(seed, seconds, workdir=workdir, tracer=tracer)
    return run_igd(seed, seconds, parallel=name == "igd_parallel_nolock", tracer=tracer)


def finish(outcome: Outcome, shm_before: set[str]) -> None:
    """Count leftover ``/dev/shm`` segments or child processes as a failure,
    then stop the resource tracker.

    The readings come first: a stopping tracker unlinks every segment still
    registered with it, which would hide a leak of the library's pages.
    """
    leaked = sorted(shm_segments() - shm_before)
    children = sorted(set(live_children()) - {tracker_pid()})
    outcome.check(
        not leaked and not children,
        f"left behind /dev/shm segments {leaked} and child processes {children}",
    )
    stop_resource_tracker()


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if overrides:
        print(f"refusing to run: {', '.join(overrides)} set; unset every REPRO_* "
              "variable so the library runs its defaults", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    shm_before = shm_segments()
    tracer = Tracer() if args.trace else None
    result = run_workload(args.workload, args.seed, args.seconds, tracer, workdir)
    outcome = result.outcome
    finish(outcome, shm_before)

    print(json.dumps({"provenance": provenance(ROOT, args.seed)}))
    print(json.dumps({"details": result.details, "failures": outcome.messages}))
    if tracer is None:
        values = result.end_to_end
        units = END_TO_END
    else:
        trace_file = workdir / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps([vars(span) for span in tracer.spans], default=float))
        print(json.dumps({
            "trace_report": result.trace_report,
            "spans": str(trace_file.relative_to(ROOT)),
        }))
        values = result.per_layer
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
