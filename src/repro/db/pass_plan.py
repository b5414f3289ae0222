"""Backend-neutral pass compilation: every per-epoch pass becomes a PassPlan.

Bismarck's thesis is that one aggregate architecture serves every analytics
task; this module is the layer that makes the *execution* side of that claim
real.  Every pass the driver or the experiment harness runs per epoch —

* the **gradient epoch** (IGD as a UDA),
* the **loss/objective** pass behind the stopping rule,
* the **accuracy/metric** evaluation passes, and
* **generic** (non-task) SQL aggregates —

compiles to a small :class:`PassPlan` (pass kind, table + version snapshot,
WHERE / row-order, execution mode, parallel width, merge contract), and a
single :class:`ExecutionBackend` protocol executes the plan on any of the
four backends: serial, in-process shared-memory (the cooperative epoch
simulation), segmented pure-UDA, or the forked
:class:`~repro.db.process_backend.ProcessWorkerPool`.  The driver's old
spec×backend ``if/elif`` ladder collapses into ``compile_pass(...)`` +
``backend.run(plan)``, and — because loss/accuracy/generic passes ride the
same plans — a ``backend="process"`` run parallelises the *whole* training
loop, not just the gradient pass.

Merge contract (what makes plans backend-portable):

* a plan is **mergeable** when its aggregate provides ``merge``; partial
  states always merge **left-to-right in partition order** and only then
  ``terminate`` — every backend implements exactly this order, which is what
  makes a process run bit-for-bit its serial counterpart;
* **chunk-partitioned** plans additionally require the aggregate to declare
  ``chunk_partitionable`` (scalar reductions: loss, accuracy): whole cached
  chunks are dealt round-robin to workers and consumed vectorized;
* every other mergeable pass (IGD epochs, filtered or ordered scalar
  passes) partitions its visit ordinals — round-robin over the composed
  WHERE + row-order sequence, the same layout the segmented engine gives
  shared-nothing segments — and each partition **gathers its ordinals out of
  the cached chunk list** and folds ``transition_chunk``;
* passes the chunk plane cannot serve (no decoding task, a task without
  batches, unbatchable columns) fold **raw rows** instead, shipping the
  picklable argument expression (plus any scalar UDFs it references).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import ExecutionError, WorkerDiedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.model import Model
    from ..core.proximal import ProximalOperator
    from ..core.stepsize import StepSizeSchedule
    from ..tasks.base import Task
    from .aggregates import UserDefinedAggregate
    from .engine import Database
    from .expressions import Expression
    from .parallel import SegmentedDatabase
    from .table import Table

PASS_KINDS = ("train", "loss", "accuracy", "generic")


@dataclass
class TrainEpochContext:
    """Everything a training-epoch plan carries beyond the aggregate pass.

    The shared-memory backends do not run the UDA protocol at all — they race
    workers on one shared model — so the plan keeps the raw ingredients
    (task, model, schedule, proximal, epoch bookkeeping, parallelism spec)
    alongside the aggregate factory that the UDA backends use.
    """

    task: "Task"
    model: "Model"
    schedule: "StepSizeSchedule"
    proximal: "ProximalOperator"
    epoch: int = 0
    step_offset: int = 0
    spec: Any = None
    batch_size: int = 1
    #: Per-segment visit orders for the segmented (pure-UDA) backend; the
    #: plan-level ``row_order`` covers the single-table backends.
    segment_row_orders: "Sequence[Sequence[int] | None] | None" = None


@dataclass
class PassPlan:
    """One compiled, backend-neutral pass over one table."""

    kind: str
    table: "Table"
    #: Table version snapshotted at compile time.  Backends re-validate the
    #: snapshot before running: append-only deltas (per the table's version
    #: ledger) refresh the plan to the current version, while rewrites —
    #: which invalidate the cached chunk plane — are refused.
    version: int = 0
    #: Row count snapshotted at compile time and refreshed by
    #: :meth:`revalidate` on append-only deltas.
    num_rows: int = 0
    factory: "Callable[[], UserDefinedAggregate] | None" = None
    argument: "Expression | None" = None
    where: "Expression | None" = None
    row_order: "Sequence[int] | None" = None
    execution: str = "auto"
    #: Requested parallel width.  1 compiles to a plain serial pass; the
    #: effective width is never more than the number of partitionable items.
    workers: int = 1
    mergeable: bool = True
    #: True when the aggregate declared ``chunk_partitionable`` (scalar
    #: reduction) — parallel backends deal whole cached chunks to workers.
    chunk_partitionable: bool = False
    #: Compute dtype of the chunk plane for this pass: ``"float64"`` (the
    #: bit-for-bit default) or ``"float32"`` (opt-in, halves chunk bytes).
    #: Backends install it on the executor for the duration of the pass.
    compute_dtype: str = "float64"
    train: TrainEpochContext | None = None

    def revalidate(self) -> "PassPlan":
        """Refresh the plan's version snapshot across append-only deltas.

        A plan compiled at version *v* can keep running at *v+k* when the
        table's ledger shows every intervening mutation appended rows at the
        tail: the cached chunk plane extends rather than invalidates, so the
        plan only needs its version and row-count snapshots re-taken — no
        recompilation.  A rewrite delta (shuffle, cluster, truncate, or a
        range the ledger no longer covers) raises :class:`ExecutionError`
        naming the mutating operation recorded in the ledger.
        """
        delta = self.table.classify_delta(self.version)
        if delta.is_same:
            return self
        if delta.is_append:
            self.version = self.table.version
            self.num_rows = len(self.table)
            return self
        operation = delta.op or "unknown"
        raise ExecutionError(
            f"stale PassPlan: table {self.table.name!r} was rewritten by "
            f"{operation!r} (plan compiled at version {self.version}, table "
            f"now at version {self.table.version}); appends revalidate "
            "automatically but physical rewrites require recompiling the pass"
        )

    def check_version(self) -> None:
        """Backend entry point: revalidate, absorbing append-only deltas."""
        self.revalidate()

    def describe(self) -> str:
        width = f"x{self.workers}" if self.workers > 1 else ""
        return f"{self.kind}({self.table.name}@v{self.version}){width}"


def compile_pass(
    kind: str,
    table: "Table",
    factory: "Callable[[], UserDefinedAggregate] | None",
    *,
    argument: "Expression | None" = None,
    where: "Expression | None" = None,
    row_order: "Sequence[int] | None" = None,
    execution: str = "auto",
    workers: int = 1,
    compute_dtype: str = "float64",
    train: TrainEpochContext | None = None,
) -> PassPlan:
    """Compile one pass to a backend-neutral plan.

    Probes one aggregate instance from ``factory`` for its merge contract
    (``supports_merge``, ``chunk_partitionable``); the probe is cheap — the
    factories build configuration-only objects.
    """
    if kind not in PASS_KINDS:
        raise ExecutionError(f"unknown pass kind {kind!r}; expected one of {PASS_KINDS}")
    if execution not in ("per_tuple", "chunked", "auto"):
        raise ExecutionError(f"unknown execution mode {execution!r}")
    if workers <= 0:
        raise ExecutionError("pass workers must be positive")
    if compute_dtype not in ("float64", "float32"):
        raise ExecutionError(
            f"unknown compute dtype {compute_dtype!r}; expected 'float64' or 'float32'"
        )
    if kind == "train" and train is None:
        raise ExecutionError("train passes require a TrainEpochContext")
    mergeable = True
    chunk_partitionable = False
    if factory is not None:
        probe = factory()
        mergeable = probe.supports_merge
        chunk_partitionable = bool(
            getattr(probe, "chunk_partitionable", False) and probe.supports_chunks
        )
    return PassPlan(
        kind=kind,
        table=table,
        version=table.version,
        num_rows=len(table),
        factory=factory,
        argument=argument,
        where=where,
        row_order=row_order,
        execution=execution,
        workers=workers,
        mergeable=mergeable,
        chunk_partitionable=chunk_partitionable,
        compute_dtype=compute_dtype,
        train=train,
    )


@contextmanager
def _pass_compute_dtype(executor: Any, plan: PassPlan):
    """Install the plan's compute dtype on the executor for one pass.

    The executor attribute is what the chunk-plan resolution (and through it
    the cache and the process backend's payload keys) reads; restoring it on
    exit keeps a float32 pass from leaking its dtype into unrelated passes
    on the same engine.
    """
    previous = getattr(executor, "compute_dtype", "float64")
    executor.compute_dtype = plan.compute_dtype
    try:
        yield executor
    finally:
        executor.compute_dtype = previous


# ---------------------------------------------------------------------------
# The backend protocol and its four implementations
# ---------------------------------------------------------------------------
class ExecutionBackend:
    """Executes compiled pass plans.  ``run`` returns the pass value —
    ``(model, steps)`` for train plans, the aggregate result otherwise."""

    name = "backend"

    def run(self, plan: PassPlan) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _steps_taken(model: "Model", step_offset: int, fallback: int) -> int:
    steps = int(model.metadata.get("gradient_steps", fallback)) - step_offset
    return max(steps, 0)


class SerialBackend(ExecutionBackend):
    """Runs plans in this process on the engine's executor.

    Multi-partition mergeable plans run the *reference partitioned pass* —
    the identical partition layout, per-item operations and left-to-right
    merge the process backend uses — sequentially, which is what gives every
    parallel backend an in-process bit-for-bit counterpart.
    """

    name = "serial"

    def __init__(self, engine: "Database"):
        self.engine = engine

    def run(self, plan: PassPlan) -> Any:
        plan.check_version()
        with _pass_compute_dtype(self.engine.executor, plan) as executor:
            return self._run(executor, plan)

    def _run(self, executor: Any, plan: PassPlan) -> Any:
        if plan.kind == "train":
            context = plan.train
            model = executor.run_aggregate(
                plan.table,
                plan.factory(),
                where=plan.where,
                row_order=plan.row_order,
                execution=plan.execution,
            )
            return model, _steps_taken(model, context.step_offset, len(plan.table))
        if plan.workers > 1 and plan.mergeable and plan.execution != "per_tuple":
            instance = plan.factory()
            if (
                instance.chunk_partitionable
                and instance.supports_chunks
                and plan.where is None
                and plan.row_order is None
            ):
                from .executor import _CHUNKS_UNSUPPORTED

                outcome = executor.run_chunk_partitioned(
                    plan.table, instance, plan.workers
                )
                if outcome is not _CHUNKS_UNSUPPORTED:
                    return outcome
            return executor.run_row_partitioned(
                plan.table,
                instance,
                plan.workers,
                where=plan.where,
                row_order=plan.row_order,
                argument=plan.argument,
                execution=plan.execution,
            )
        return executor.run_aggregate(
            plan.table,
            plan.factory(),
            plan.argument,
            where=plan.where,
            row_order=plan.row_order,
            execution=plan.execution,
        )


class SharedMemoryBackend(ExecutionBackend):
    """The cooperative in-process shared-memory epoch (deterministic traces)."""

    name = "shared_memory"

    def __init__(self, engine: "Database"):
        self.engine = engine

    def run(self, plan: PassPlan) -> Any:
        from .shared_memory import run_shared_memory_epoch

        plan.check_version()
        if plan.kind != "train":
            raise ExecutionError(
                "the shared-memory epoch backend only executes train plans; "
                "evaluation passes compile to the serial or process backends"
            )
        context = plan.train
        executor = self.engine.executor
        cache = None if plan.execution == "per_tuple" else executor.example_cache
        return run_shared_memory_epoch(
            plan.table,
            context.task,
            context.model,
            context.schedule,
            spec=context.spec,
            epoch=context.epoch,
            step_offset=context.step_offset,
            proximal=context.proximal,
            arena=self.engine.shared_memory,
            charge_per_tuple=executor._charge_overhead,
            cache=cache,
            row_order=plan.row_order,
        )


class SegmentedBackend(ExecutionBackend):
    """Shared-nothing segments merged by the aggregate's ``merge`` function.

    ``process=True`` runs each segment in its own OS worker (bit-for-bit the
    in-process result — same partitions, same merge order).
    """

    name = "segmented"

    def __init__(self, database: "SegmentedDatabase", *, process: bool = False):
        self.database = database
        self.process = process

    def run(self, plan: PassPlan) -> Any:
        """Run the plan; process-backed segment runs degrade.

        Pure-UDA segment passes are deterministic (shared-nothing partitions,
        left-to-right merge), so after a supervised pool respawns its
        casualties the segmented engine simply re-runs the pass bit-for-bit;
        once the respawn budget is exhausted, the run degrades to the
        in-process segmented engine — the same partitions on one core — with
        a DegradationEvent.
        """
        if not self.process:
            return self._run(plan, "in_process")
        engine = _engine_of(self.database)
        if getattr(engine, "process_degraded", False):
            return self._degrade(
                plan, reason="process backend degraded earlier in this run"
            )
        try:
            return self._run(plan, "process")
        except WorkerDiedError as error:
            engine.mark_process_degraded()
            return self._degrade(plan, reason=str(error))

    def _degrade(self, plan: PassPlan, *, reason: str) -> Any:
        from .supervisor import DegradationEvent

        _engine_of(self.database).record_recovery_event(
            DegradationEvent(
                plan_kind=plan.kind,
                from_backend="segmented_process",
                to_backend="segmented",
                reason=reason,
            )
        )
        return self._run(plan, "in_process")

    def _run(self, plan: PassPlan, backend: str) -> Any:
        plan.check_version()
        with _pass_compute_dtype(_engine_of(self.database).executor, plan):
            return self._run_segments(plan, backend)

    def _run_segments(self, plan: PassPlan, backend: str) -> Any:
        if plan.kind == "train":
            context = plan.train
            outcome = self.database.run_parallel_aggregate(
                plan.table.name,
                plan.factory,
                segment_row_orders=context.segment_row_orders,
                execution=plan.execution,
                backend=backend,
            )
            model: "Model" = outcome.value
            return model, _steps_taken(model, context.step_offset, len(plan.table))
        outcome = self.database.run_parallel_aggregate(
            plan.table.name,
            plan.factory,
            plan.argument,
            where=plan.where,
            execution=plan.execution,
            backend=backend,
        )
        return outcome.value


class ProcessBackend(ExecutionBackend):
    """Runs plans on the engine's persistent forked worker pool.

    Train plans with a shared-memory spec race real OS workers on the
    mmap-shared model; every other plan fans out over the pool with the
    partition strategy the plan's merge contract picks (whole chunks,
    gathered chunk parts or raw rows) and merges partials left-to-right —
    bit-for-bit the
    :class:`SerialBackend` reference of the same plan.

    Self-healing: the engine's pools are supervised, so worker death or a
    blown reply deadline surfaces as a *recoverable*
    :class:`~repro.db.errors.WorkerDiedError` after the pool respawned the
    casualties — this backend then retries the pass.  Retry semantics follow
    the plan's determinism contract: mergeable aggregate passes re-run
    bit-for-bit (nothing was mutated — the aborted partials were discarded),
    while racy shared-memory train epochs restore the model from a snapshot
    taken at epoch start, so a retried epoch never trains on the half-written
    model the failed attempt raced on.  When the respawn budget is exhausted
    (``recoverable=False``) the pass walks the degradation ladder — train
    plans fall back to the cooperative shared-memory backend, then serial;
    evaluation plans fall straight to serial — emitting a structured
    :class:`~repro.db.supervisor.DegradationEvent` instead of raising, and
    the engine's sticky ``process_degraded`` flag routes every later plan of
    the run down the ladder immediately rather than rebuilding (and
    re-losing) a pool each epoch.
    """

    name = "process"

    def __init__(self, engine: "Database"):
        self.engine = engine

    def run(self, plan: PassPlan) -> Any:
        plan.check_version()
        if plan.execution == "per_tuple":
            raise ExecutionError(
                "the process backend serves passes from the cached chunk "
                "plane and cannot replay the per-tuple engine protocol"
            )
        if getattr(self.engine, "process_degraded", False):
            return self._degrade(
                plan, reason="process backend degraded earlier in this run"
            )
        snapshot = None
        if plan.kind == "train":
            # Racy shared-memory epochs mutate the mmap'd model in place; a
            # retried epoch must start from the epoch-start model, not from
            # whatever the aborted attempt half-wrote.
            snapshot = plan.train.model.as_flat_vector()
        while True:
            try:
                return self._execute(plan)
            except WorkerDiedError as error:
                # The aborted epoch's scratch segment is freed by the runner's
                # finally, but sweep defensively: a retry re-allocates under
                # the same logical name and must find it free.
                self.engine.shared_memory.sweep_orphans()
                if snapshot is not None:
                    plan.train.model.load_flat_vector(snapshot)
                if error.recoverable:
                    continue  # the pool healed itself; re-run the pass
                self.engine.mark_process_degraded()
                return self._degrade(plan, reason=str(error))

    def _execute(self, plan: PassPlan) -> Any:
        with _pass_compute_dtype(self.engine.executor, plan) as executor:
            return self._execute_with(executor, plan)

    def _execute_with(self, executor: Any, plan: PassPlan) -> Any:
        if plan.kind == "train":
            from .process_backend import run_process_shared_memory_epoch
            from .shared_memory import SharedMemoryParallelism

            context = plan.train
            if not isinstance(context.spec, SharedMemoryParallelism):
                raise ExecutionError(
                    "process train plans require a SharedMemoryParallelism "
                    "spec; pure-UDA process epochs run on the segmented "
                    "backend with process=True"
                )
            return run_process_shared_memory_epoch(
                plan.table,
                context.task,
                context.model,
                context.schedule,
                spec=context.spec,
                pool=self.engine.process_pool(context.spec.workers),
                arena=self.engine.shared_memory,
                cache=executor.example_cache,
                epoch=context.epoch,
                step_offset=context.step_offset,
                proximal=context.proximal,
                row_order=plan.row_order,
                charge_per_worker=executor._charge_overhead,
            )
        from .process_backend import run_process_aggregate

        return run_process_aggregate(
            executor,
            plan.table,
            plan.factory(),
            pool=self.engine.process_pool(plan.workers),
            where=plan.where,
            row_order=plan.row_order,
            workers=plan.workers,
            argument=plan.argument,
            execution=plan.execution,
        )

    def _degrade(self, plan: PassPlan, *, reason: str) -> Any:
        """Walk the ladder: train → shared_memory → serial; else → serial."""
        from .supervisor import DegradationEvent

        engine = self.engine
        if plan.kind == "train":
            engine.record_recovery_event(
                DegradationEvent(
                    plan_kind=plan.kind,
                    from_backend="process",
                    to_backend="shared_memory",
                    reason=reason,
                )
            )
            try:
                return SharedMemoryBackend(engine).run(plan)
            except ExecutionError as error:
                engine.record_recovery_event(
                    DegradationEvent(
                        plan_kind=plan.kind,
                        from_backend="shared_memory",
                        to_backend="serial",
                        reason=str(error),
                    )
                )
                return SerialBackend(engine).run(plan)
        engine.record_recovery_event(
            DegradationEvent(
                plan_kind=plan.kind,
                from_backend="process",
                to_backend="serial",
                reason=reason,
            )
        )
        return SerialBackend(engine).run(plan)


# ---------------------------------------------------------------------------
# Backend resolution (the driver's former if/elif ladder, as data)
# ---------------------------------------------------------------------------
def _engine_of(database: "Database | SegmentedDatabase") -> "Database":
    from .parallel import SegmentedDatabase

    return database.master if isinstance(database, SegmentedDatabase) else database


def epoch_backend(database: "Database | SegmentedDatabase", spec: Any) -> ExecutionBackend:
    """The backend that executes a training-epoch plan under ``spec``."""
    from ..core.parallel import PureUDAParallelism
    from .parallel import SegmentedDatabase
    from .shared_memory import SharedMemoryParallelism

    if isinstance(spec, SharedMemoryParallelism):
        engine = _engine_of(database)
        if spec.backend == "process":
            return ProcessBackend(engine)
        return SharedMemoryBackend(engine)
    if isinstance(spec, PureUDAParallelism):
        if not isinstance(database, SegmentedDatabase):
            raise TypeError(
                "pure-UDA parallelism requires a SegmentedDatabase "
                "(shared-nothing segments)"
            )
        return SegmentedBackend(database, process=spec.backend == "process")
    return SerialBackend(_engine_of(database))


def evaluation_backend(
    database: "Database | SegmentedDatabase", spec: Any
) -> tuple[ExecutionBackend, int]:
    """(backend, workers) for the loss/accuracy passes of a run under ``spec``.

    Process-backed training runs evaluate on the same worker pool (the whole
    loop parallelises); in-process runs keep the serial vectorized evaluation
    — on one core the chunked kernels already win, and the deterministic
    figures pin their exact values.
    """
    from ..core.parallel import PureUDAParallelism
    from .parallel import SegmentedDatabase
    from .shared_memory import SharedMemoryParallelism

    engine = _engine_of(database)
    if isinstance(spec, SharedMemoryParallelism) and spec.backend == "process":
        return ProcessBackend(engine), spec.workers
    if isinstance(spec, PureUDAParallelism) and spec.backend == "process":
        workers = (
            database.num_segments if isinstance(database, SegmentedDatabase) else 1
        )
        return ProcessBackend(engine), max(workers, 1)
    return SerialBackend(engine), 1
