"""Which library functions are traced, and the per-layer metrics built from them.

Layers are named after the library's modules.  Every span wraps a public
function (or a module function where another module binds it by name, which
is where it must be patched).  Seconds are self time; counts come from span
counters or from public attributes the workload samples around each job.
Every per-layer value is a mean per traced unit of work: a training job on
the ``igd_*`` workloads, one ingest round on ``ingest_sql_refresh`` — except
the two ``trace.*`` ratios and ``process_backend.idle_cpu_s``, which is per
yardstick reading.
"""

from __future__ import annotations

from bench_spans import Span, coverage, totals

#: name -> unit of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = {
    "driver.train.s": "s",
    "driver.partial_fit.s": "s",
    "driver.self.s": "s",
    "pass_plan.compile.calls": "count",
    "pass_plan.train.s": "s",
    "pass_plan.loss.s": "s",
    "executor.run_aggregate.s": "s",
    "cache.decode.s": "s",
    "cache.hit_ratio": "ratio",
    "cache.decoded_rows": "rows",
    "cache.extensions": "count",
    "chunk_plan.resolve.s": "s",
    "chunk_plan.gathered_rows": "rows",
    "kernel.igd_chunk.s": "s",
    "kernel.igd_chunk.rows": "rows",
    "kernel.batch_loss.s": "s",
    "kernel.gradient_step.calls": "count",
    "process_backend.pool_run.s": "s",
    "process_backend.pool_run.calls": "count",
    "process_backend.ensure_loaded.s": "s",
    "process_backend.bytes_shipped": "B",
    "process_backend.page_fallbacks": "count",
    "process_backend.idle_cpu_s": "s",
    "shared_memory.publish.s": "s",
    "shared_memory.page_bytes": "B",
    "shared_memory.arena_alloc.calls": "count",
    "supervisor.respawns": "count",
    "supervisor.degradations": "count",
    "table.insert.s": "s",
    "table.rows_inserted": "rows",
    "wal.append.s": "s",
    "wal.records": "count",
    "wal.bytes": "B",
    "wal.flush.s": "s",
    "checkpoint.write.s": "s",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "B",
    "checkpoint.recover.s": "s",
    "checkpoint.records_replayed": "count",
    "parser.parse.s": "s",
    "parser.calls": "count",
    "frontend.self.s": "s",
    "frontend.save_model.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Public attributes sampled around each traced unit (summed deltas).
ATTRIBUTE_COUNTS = (
    "cache.hits",
    "cache.lookups",
    "cache.decoded_rows",
    "cache.extensions",
    "process_backend.bytes_shipped",
    "process_backend.page_fallbacks",
    "supervisor.respawns",
    "supervisor.degradations",
)

#: Spans that must fire at least once in a traced run of each workload; a
#: zero count means a wrapper missed its target, which is a benchmark error.
REQUIRED_SPANS = {
    "igd_serial_dense": (
        "driver.train", "pass_plan.compile", "pass_plan.train", "pass_plan.loss",
        "executor.run_aggregate", "cache.decode", "chunk_plan.resolve",
        "kernel.igd_chunk", "kernel.batch_loss",
    ),
    "igd_parallel_nolock": (
        "driver.train", "pass_plan.compile", "pass_plan.train", "pass_plan.loss",
        "cache.decode", "process_backend.pool_run", "process_backend.ensure_loaded",
        "shared_memory.publish", "shared_memory.arena_alloc",
    ),
    "ingest_sql_refresh": (
        "driver.train", "driver.partial_fit", "pass_plan.compile", "pass_plan.train",
        "pass_plan.loss", "cache.decode", "kernel.igd_chunk", "table.insert",
        "wal.append", "wal.flush", "checkpoint.write", "checkpoint.recover",
        "parser.parse", "frontend.lrtrain", "frontend.save_model",
    ),
}


def _steps(args, kwargs, result, state) -> dict:
    history = result.history
    return {"steps": history[-1].gradient_steps if history else 0}


def _plan_span(args, kwargs) -> str:
    return "pass_plan." + args[1].kind


def _gather_before(args, kwargs):
    cache = kwargs["cache"] if "cache" in kwargs else args[3]
    return cache, cache.derived_misses


def _gather_after(args, kwargs, result, state) -> dict:
    cache, misses_before = state
    order = kwargs.get("row_order")
    gathered = (
        result is not None and order is not None and cache.derived_misses > misses_before
    )
    return {"rows": len(order) if gathered else 0}


def program_patches() -> list[tuple]:
    """``(owner, attribute, span name, before, after)`` for every traced function."""
    from repro.core import driver as core_driver
    from repro.core.driver import BismarckRunner
    from repro.db import engine as engine_module
    from repro.db.chunk_plan import ChunkPlan
    from repro.db.checkpoint import CheckpointManager
    from repro.db.executor import Executor
    from repro.db.pass_plan import (
        ProcessBackend,
        SegmentedBackend,
        SerialBackend,
        SharedMemoryBackend,
    )
    from repro.db.process_backend import ProcessWorkerPool
    from repro.db.shared_memory import ChunkPageSet, SharedMemoryArena
    from repro.db.table import Table
    from repro.db.wal import WriteAheadLog
    from repro.frontend import train as frontend_train
    from repro.tasks.base import ExampleCache
    from repro.tasks.logistic_regression import LogisticRegressionTask

    return [
        (BismarckRunner, "train", "driver.train", None, _steps),
        (BismarckRunner, "partial_fit", "driver.partial_fit", None, _steps),
        # Bound by name in the driver, so patched there.
        (core_driver, "compile_pass", "pass_plan.compile", None, None),
        *[
            (backend, "run", _plan_span, None, None)
            for backend in (SerialBackend, SharedMemoryBackend, SegmentedBackend, ProcessBackend)
        ],
        (Executor, "run_aggregate", "executor.run_aggregate", None, None),
        (ExampleCache, "batches_for", "cache.decode", None, None),
        (ExampleCache, "examples_for", "cache.decode", None, None),
        (ChunkPlan, "resolve", "chunk_plan.resolve", _gather_before, _gather_after),
        (LogisticRegressionTask, "igd_chunk", "kernel.igd_chunk", None,
         lambda args, kwargs, result, state: {"rows": args[2].length}),
        (LogisticRegressionTask, "batch_loss", "kernel.batch_loss", None, None),
        (ProcessWorkerPool, "run", "process_backend.pool_run", None, None),
        (ProcessWorkerPool, "ensure_loaded", "process_backend.ensure_loaded", None, None),
        (ChunkPageSet, "publish", "shared_memory.publish", None,
         lambda args, kwargs, result, state: {"bytes": result.nbytes}),
        (SharedMemoryArena, "allocate", "shared_memory.arena_alloc", None, None),
        (SharedMemoryArena, "allocate_from", "shared_memory.arena_alloc", None, None),
        (Table, "insert", "table.insert", None,
         lambda args, kwargs, result, state: {"rows": 1}),
        (Table, "insert_many", "table.insert", None,
         lambda args, kwargs, result, state: {"rows": result}),
        (WriteAheadLog, "append", "wal.append", None,
         lambda args, kwargs, result, state: {"bytes": args[0].position()[1] - result[1]}),
        (WriteAheadLog, "flush", "wal.flush", None, None),
        (CheckpointManager, "write", "checkpoint.write", None,
         lambda args, kwargs, result, state: {"bytes": result.stat().st_size}),
        # Bound by name in the engine, so patched there.
        (engine_module, "recover_database", "checkpoint.recover", None,
         lambda args, kwargs, result, state: {"replayed": result.records_replayed}),
        (engine_module, "parse", "parser.parse", None, None),
        # Bound by name in the frontend's training module.
        (frontend_train, "save_model", "frontend.save_model", None, None),
    ]


def attribute_counts(db, pool=None) -> dict:
    """Current values of the public counters behind the per-layer counts."""
    cache = db.executor.example_cache
    events = db.recovery_events()
    stats = pool.transport_stats if pool is not None else {}
    return {
        "cache.hits": cache.hits,
        "cache.lookups": cache.hits + cache.misses + cache.extensions,
        "cache.decoded_rows": cache.decoded_rows,
        "cache.extensions": cache.extensions,
        "process_backend.bytes_shipped": (
            stats.get("pages_bytes_shipped", 0) + stats.get("pickle_bytes_shipped", 0)
        ),
        "process_backend.page_fallbacks": stats.get("page_fallbacks", 0),
        "supervisor.respawns": sum(
            1 for event in events if getattr(event, "respawned", False)
        ),
        "supervisor.degradations": sum(1 for event in events if hasattr(event, "to_backend")),
    }


def add_delta(accumulated: dict, before: dict, after: dict) -> None:
    for key in ATTRIBUTE_COUNTS:
        accumulated[key] = accumulated.get(key, 0) + after[key] - before[key]


def missing_spans(workload: str, spans: list[Span]) -> list[str]:
    fired = {span.name for span in spans}
    return [name for name in REQUIRED_SPANS[workload] if name not in fired]


def per_layer_metrics(
    spans: list[Span],
    jobs: list[str],
    unit_name: str,
    attributes: dict,
    measured: dict[str, float],
) -> dict[str, float]:
    """Per-layer values, each a mean per traced unit of work.

    ``measured`` holds the figures taken outside the spans: ``trace.overhead``
    and ``process_backend.idle_cpu_s``.
    """
    units = len(jobs)
    if units == 0:
        raise ValueError("no traced units of work")
    t = totals(spans, jobs)
    lookups = attributes.get("cache.lookups", 0)
    raw = {
        "driver.train.s": t.inclusive_of("driver.train"),
        "driver.partial_fit.s": t.inclusive_of("driver.partial_fit"),
        "driver.self.s": t.self_of("driver.train", "driver.partial_fit"),
        "pass_plan.compile.calls": t.calls_of("pass_plan.compile"),
        "pass_plan.train.s": t.self_of("pass_plan.train"),
        "pass_plan.loss.s": t.self_of("pass_plan.loss"),
        "executor.run_aggregate.s": t.self_of("executor.run_aggregate"),
        "cache.decode.s": t.self_of("cache.decode"),
        "cache.decoded_rows": attributes.get("cache.decoded_rows", 0),
        "cache.extensions": attributes.get("cache.extensions", 0),
        "chunk_plan.resolve.s": t.self_of("chunk_plan.resolve"),
        "chunk_plan.gathered_rows": t.count_of("chunk_plan.resolve", "rows"),
        "kernel.igd_chunk.s": t.self_of("kernel.igd_chunk"),
        "kernel.igd_chunk.rows": t.count_of("kernel.igd_chunk", "rows"),
        "kernel.batch_loss.s": t.self_of("kernel.batch_loss"),
        "kernel.gradient_step.calls": (
            t.count_of("driver.train", "steps") + t.count_of("driver.partial_fit", "steps")
        ),
        "process_backend.pool_run.s": t.self_of("process_backend.pool_run"),
        "process_backend.pool_run.calls": t.calls_of("process_backend.pool_run"),
        "process_backend.ensure_loaded.s": t.self_of("process_backend.ensure_loaded"),
        "process_backend.bytes_shipped": attributes.get("process_backend.bytes_shipped", 0),
        "process_backend.page_fallbacks": attributes.get("process_backend.page_fallbacks", 0),
        "shared_memory.publish.s": t.self_of("shared_memory.publish"),
        "shared_memory.page_bytes": t.count_of("shared_memory.publish", "bytes"),
        "shared_memory.arena_alloc.calls": t.calls_of("shared_memory.arena_alloc"),
        "supervisor.respawns": attributes.get("supervisor.respawns", 0),
        "supervisor.degradations": attributes.get("supervisor.degradations", 0),
        "table.insert.s": t.self_of("table.insert"),
        "table.rows_inserted": t.count_of("table.insert", "rows"),
        "wal.append.s": t.self_of("wal.append"),
        "wal.records": t.calls_of("wal.append"),
        "wal.bytes": t.count_of("wal.append", "bytes"),
        "wal.flush.s": t.self_of("wal.flush"),
        "checkpoint.write.s": t.self_of("checkpoint.write"),
        "checkpoint.writes": t.calls_of("checkpoint.write"),
        "checkpoint.bytes": t.count_of("checkpoint.write", "bytes"),
        "checkpoint.recover.s": t.self_of("checkpoint.recover"),
        "checkpoint.records_replayed": t.count_of("checkpoint.recover", "replayed"),
        "parser.parse.s": t.self_of("parser.parse"),
        "parser.calls": t.calls_of("parser.parse"),
        "frontend.self.s": t.self_of("frontend.lrtrain"),
        "frontend.save_model.s": t.self_of("frontend.save_model"),
    }
    metrics = {name: float(value) / units for name, value in raw.items()}
    metrics["cache.hit_ratio"] = attributes.get("cache.hits", 0) / lookups if lookups else 0.0
    metrics["trace.coverage"] = coverage(spans, unit_name, jobs)
    metrics.update(measured)
    return {name: metrics[name] for name in PER_LAYER}


def layer_table(spans: list[Span], jobs: list[str]) -> list[tuple[str, float]]:
    """(layer, self seconds per unit) sorted by self time, largest first."""
    units = max(len(jobs), 1)
    layers = totals(spans, jobs).layer_self()
    return sorted(
        ((layer, seconds / units) for layer, seconds in layers.items()),
        key=lambda item: -item[1],
    )
