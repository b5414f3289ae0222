"""Fast checks of the benchmark's own machinery (a few seconds in total)."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from bench_layers import PER_LAYER  # noqa: E402
from bench_spans import Span, Tracer, coverage, self_times  # noqa: E402
from bench_stats import percentile, samples_for  # noqa: E402
from bench_workloads import END_TO_END, IGDShape, run_igd  # noqa: E402

#: Small enough that 100 jobs take about a second; the larger steps reach
#: the target tolerance on this few rows.
TINY = IGDShape(rows=500, dim=5, alpha0=0.2, decay=0.5)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

    untraced = run_igd(3, 0.0, parallel=False, shape=TINY)
    assert set(untraced.end_to_end) == set(END_TO_END)
    traced = run_igd(3, 0.0, parallel=False, tracer=Tracer(), shape=replace(TINY, min_jobs=20))
    assert set(traced.per_layer) == set(PER_LAYER)
    assert untraced.outcome.failed == 0 and traced.outcome.failed == 0


def test_traced_run_restores_every_wrapped_function():
    from repro.core.driver import BismarckRunner, compile_pass
    from repro.db import engine
    from repro.db.shared_memory import ChunkPageSet

    before = (BismarckRunner.train, compile_pass, engine.parse, ChunkPageSet.__dict__["publish"])
    run_igd(3, 0.0, parallel=False, tracer=Tracer(), shape=replace(TINY, min_jobs=20))
    from repro.core import driver

    after = (BismarckRunner.train, driver.compile_pass, engine.parse, ChunkPageSet.__dict__["publish"])
    assert before == after


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("bench.job", 0.0, 10.0, parent=None, job="j"),
        Span("kernel.a", 1.0, 4.0, parent=0, job="j"),
        Span("cache.b", 3.0, 6.0, parent=0, job="j"),  # overlaps kernel.a
        Span("wal.c", 2.0, 3.0, parent=1, job="j"),
        Span("table.d", 9.5, 11.0, parent=0, job="j"),  # ends after its parent
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.5, 2.0, 3.0, 1.0, 1.5])
    # Layers cover 2 + 3 + 1 + 1.5 of the job's 10 seconds.
    assert coverage(spans, "bench.job", ["j"]) == pytest.approx(0.75)
    assert coverage(spans, "bench.job", ["other"]) == 0.0


def test_tracer_nests_spans_and_records_counts():
    clock = iter(range(100)).__next__
    tracer = Tracer(clock=clock)

    def inner(x):
        return x * 2

    traced_inner = tracer.traced(inner, "kernel.inner",
                                 after=lambda args, kwargs, result, state: {"out": result})
    with tracer.unit("bench.job", "j1"):
        assert traced_inner(4) == 8
    job, kernel = tracer.spans
    assert (job.name, job.parent, job.job) == ("bench.job", None, "j1")
    assert (kernel.parent, kernel.job, kernel.counts) == (0, "j1", {"out": 8})
    assert tracer.job is None


def test_percentile_refuses_a_short_tail():
    assert samples_for(90) == 100
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_corrupted_objective_counts_as_failed(monkeypatch):
    from repro.tasks.logistic_regression import LogisticRegressionTask

    original = LogisticRegressionTask.batch_loss
    calls = {"n": 0}

    def corrupted(self, model, batch):
        calls["n"] += 1
        value = original(self, model, batch)
        # Call 1 is the first set-up's warm-up epoch; calls 5-7 are job 1's epochs.
        return value * 3.0 if 5 <= calls["n"] <= 7 else value

    monkeypatch.setattr(LogisticRegressionTask, "batch_loss", corrupted)
    result = run_igd(3, 0.0, parallel=False, shape=TINY)
    assert result.outcome.failed == 1
    assert "job-1" in result.outcome.messages[0]


#: Leaks a shared-memory block, then runs the benchmark's end-of-run check.
LEAK_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from multiprocessing import shared_memory
from bench_stats import shm_segments
from bench_workloads import Outcome
from run import finish

before = shm_segments()
block = shared_memory.SharedMemory(create=True, size=4096)
outcome = Outcome()
finish(outcome, before)
print(json.dumps({"name": block.name, "failed": outcome.failed, "messages": outcome.messages}))
"""


def test_leaked_shared_memory_counts_as_failed():
    # In a child process: stopping the resource tracker there unlinks the
    # leaked block and leaves this process's tracker alone.
    run = subprocess.run(
        [sys.executable, "-c", LEAK_SCRIPT, str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["failed"] == 1
    assert report["name"] in report["messages"][0]
    assert not Path("/dev/shm", report["name"]).exists()
