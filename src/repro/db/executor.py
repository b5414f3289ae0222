"""Query executor: scans, filters, ordering, limits and aggregation.

The executor is deliberately simple — a pipeline of generators over the heap
table — but it implements the two things Bismarck depends on faithfully:

* sequential scans return rows in physical (heap) order, so clustering and
  shuffling of the table are visible to any aggregate run over it; and
* aggregation runs any :class:`~repro.db.aggregates.UserDefinedAggregate`
  through the standard ``initialize / transition / terminate`` protocol, one
  tuple at a time, exactly like the IGD aggregate in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .aggregates import (
    AggregateRegistry,
    UserDefinedAggregate,
    fold_chunks,
    fold_rows,
    merge_partial_states,
)
from .chunk_plan import ChunkPlan
from .errors import ExecutionError
from .expressions import Expression, FunctionCall, Star
from .parser import OrderBy, SelectItem, SelectStatement
from .table import DEFAULT_CHUNK_SIZE, Table
from .types import Row, Schema

#: Sentinel returned by the chunked fast path when it cannot serve a request
#: (non-batchable aggregate/task/table) and per-tuple execution must run.
_CHUNKS_UNSUPPORTED = object()


@dataclass
class QueryResult:
    """Result of executing a statement."""

    columns: list[str]
    rows: list[tuple]
    #: Wall-clock execution time in seconds (used by the experiment harness).
    elapsed_seconds: float = 0.0
    #: Number of tuples read from base tables during execution.
    tuples_scanned: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def scalar(self) -> Any:
        """Return the single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"scalar() called on a {len(self.rows)}x"
                f"{len(self.rows[0]) if self.rows else 0} result"
            )
        return self.rows[0][0]

    def column(self, name_or_index: str | int) -> list:
        """Materialise one output column."""
        if isinstance(name_or_index, str):
            try:
                index = self.columns.index(name_or_index)
            except ValueError:
                raise ExecutionError(f"no output column named {name_or_index!r}") from None
        else:
            index = name_or_index
        return [row[index] for row in self.rows]

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class Executor:
    """Executes parsed SELECT statements and programmatic aggregations."""

    def __init__(
        self,
        aggregates: AggregateRegistry,
        functions: dict[str, Callable] | None = None,
        *,
        per_tuple_overhead: float = 0.0,
        model_passing_overhead: float = 0.0,
        rng: np.random.Generator | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_entries: int = 32,
    ):
        self.aggregates = aggregates
        # Keep a reference to the caller's registry (not a copy): functions
        # registered after the executor is built must remain visible.
        self.functions = functions if functions is not None else {}
        #: Rows per columnar chunk on the batch-at-a-time aggregation path.
        self.chunk_size = chunk_size
        #: Bound on retained ExampleCache entries (LRU by last touch).
        self.cache_entries = cache_entries
        #: Compute dtype of the chunk plane's dense feature payloads:
        #: ``"float64"`` (bit-for-bit default) or ``"float32"`` (opt-in —
        #: halves page bytes; the model stays float64).  Set per pass by the
        #: plan backends from :attr:`~repro.db.pass_plan.PassPlan.compute_dtype`.
        self.compute_dtype = "float64"
        self._example_cache = None  # built lazily (avoids a db<->tasks import cycle)
        #: Simulated fixed cost charged per tuple fed to an aggregate; the
        #: engine personalities use this to model per-engine differences
        #: (Tables 2 and 3 in the paper).  Charged as busy-wait-free arithmetic
        #: accumulation (not sleep) so results are deterministic.
        self.per_tuple_overhead = per_tuple_overhead
        #: Extra per-tuple cost charged when the aggregate's state (the model)
        #: must be serialised across the engine's function-call boundary; the
        #: charge is scaled by the aggregate's ``state_passing_units``.
        self.model_passing_overhead = model_passing_overhead
        #: Optional sink for DegradationEvent records emitted when a
        #: process-backed pass falls back in-process (the owning Database
        #: points this at its recovery log).
        self.on_degradation: Callable | None = None
        self.rng = rng or np.random.default_rng()

    # ---------------------------------------------------------------- SELECT
    def execute_select(self, statement: SelectStatement, table: Table | None) -> QueryResult:
        start = time.perf_counter()
        if statement.table is None:
            result = self._execute_tableless(statement)
        elif statement.has_aggregates:
            result = self._execute_aggregate_select(statement, table)
        else:
            result = self._execute_plain_select(statement, table)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    def _execute_tableless(self, statement: SelectStatement) -> QueryResult:
        columns: list[str] = []
        values: list[Any] = []
        for i, item in enumerate(statement.items):
            if isinstance(item.expression, Star):
                raise ExecutionError("'*' requires a FROM clause")
            columns.append(item.alias or _default_name(item, i))
            values.append(item.expression.evaluate(None, self.functions))
        return QueryResult(columns=columns, rows=[tuple(values)])

    def _row_source(self, statement: SelectStatement, table: Table) -> tuple[Iterable[Row], int]:
        rows: Iterable[Row] = table.scan()
        scanned = len(table)
        if statement.where is not None:
            predicate = statement.where
            rows = (
                row for row in rows if bool(predicate.evaluate(row, self.functions))
            )
        return rows, scanned

    def _apply_order_limit(
        self, rows: Iterable[Row], order_by: OrderBy | None, limit: int | None
    ) -> list[Row]:
        if order_by is not None:
            materialized = list(rows)
            if order_by.random:
                permutation = self.rng.permutation(len(materialized))
                materialized = [materialized[i] for i in permutation]
            else:
                materialized.sort(
                    key=lambda row: order_by.expression.evaluate(row, self.functions),
                    reverse=order_by.descending,
                )
            rows = materialized
        if limit is not None:
            limited: list[Row] = []
            for row in rows:
                if len(limited) >= limit:
                    break
                limited.append(row)
            return limited
        return list(rows)

    def _execute_plain_select(self, statement: SelectStatement, table: Table) -> QueryResult:
        if table is None:
            raise ExecutionError("SELECT with FROM requires a table")
        rows, scanned = self._row_source(statement, table)
        ordered = self._apply_order_limit(rows, statement.order_by, statement.limit)

        star_only = len(statement.items) == 1 and isinstance(statement.items[0].expression, Star)
        if star_only:
            columns = list(table.schema.column_names)
            output = [row.values for row in ordered]
            return QueryResult(columns=columns, rows=output, tuples_scanned=scanned)

        columns = [
            item.alias or _default_name(item, i) for i, item in enumerate(statement.items)
        ]
        output = []
        for row in ordered:
            output.append(
                tuple(item.expression.evaluate(row, self.functions) for item in statement.items)
            )
        return QueryResult(columns=columns, rows=output, tuples_scanned=scanned)

    def _execute_aggregate_select(self, statement: SelectStatement, table: Table) -> QueryResult:
        if table is None:
            raise ExecutionError("aggregate query requires a table")
        if any(item.aggregate_name is None for item in statement.items):
            raise ExecutionError(
                "mixing aggregate and non-aggregate select items without GROUP BY "
                "is not supported"
            )
        rows, scanned = self._row_source(statement, table)
        ordered = self._apply_order_limit(rows, statement.order_by, None)

        instances: list[UserDefinedAggregate] = []
        arguments: list[Expression] = []
        for item in statement.items:
            instances.append(self.aggregates.create(item.aggregate_name))
            arguments.append(item.aggregate_argument or Star())

        states = [instance.initialize() for instance in instances]
        passing_units = max(instance.state_passing_units for instance in instances)
        overhead_sink = 0.0
        for row in ordered:
            overhead_sink += self._charge_overhead(passing_units)
            for i, instance in enumerate(instances):
                value = row if instance.wants_row else self._aggregate_input(arguments[i], row)
                states[i] = instance.transition(states[i], value)
        results = tuple(
            instance.terminate(state) for instance, state in zip(instances, states)
        )
        columns = [
            item.alias or _default_name(item, i) for i, item in enumerate(statement.items)
        ]
        result = QueryResult(columns=columns, rows=[results], tuples_scanned=scanned)
        # Keep the accumulated overhead reachable so it cannot be optimised out.
        result.overhead_sink = overhead_sink  # type: ignore[attr-defined]
        return result

    def _aggregate_input(self, argument: Expression, row: Row) -> Any:
        if isinstance(argument, Star):
            return row
        return argument.evaluate(row, self.functions)

    def _charge_overhead(self, state_passing_units: float = 0.0) -> float:
        """Simulate a per-tuple engine cost with a small arithmetic loop.

        Returns the accumulated value so callers can keep it live.  The amount
        of work scales linearly with ``per_tuple_overhead`` plus
        ``model_passing_overhead * state_passing_units`` (abstract cost units;
        1.0 unit ~ a few hundred float multiplies).
        """
        cost = self.per_tuple_overhead + self.model_passing_overhead * state_passing_units
        if cost <= 0:
            return 0.0
        iterations = int(cost * 64)
        sink = 1.0
        for i in range(iterations):
            sink = sink * 1.0000001 + 1e-9 * i
        return sink

    # ------------------------------------------------------- programmatic API
    @property
    def example_cache(self):
        """The executor's per-(table, version, task) decoded-example cache."""
        if self._example_cache is None:
            from ..tasks.base import ExampleCache

            self._example_cache = ExampleCache(self.cache_entries)
        return self._example_cache

    def chunk_plan(
        self,
        table: Table,
        instance: UserDefinedAggregate,
        *,
        where: Expression | None = None,
        row_order: Sequence[int] | None = None,
    ) -> ChunkPlan | None:
        """Resolve the backend-neutral chunk plan for one aggregate pass.

        ``where`` is served by a selection vector cached once per (table,
        version, predicate); ``row_order`` by a vectorized gather over the
        cached batches — neither forces per-tuple execution any more.
        """
        return ChunkPlan.resolve(
            table,
            instance.chunk_decoder,
            self.example_cache,
            self.chunk_size,
            where=where,
            row_order=row_order,
            functions=self.functions,
            dtype=self.compute_dtype,
        )

    def consume_chunk_plan(
        self, table: Table, instance: UserDefinedAggregate, plan: ChunkPlan
    ) -> Any:
        """initialize + transition_chunk over a plan, returning the raw state.

        The single chunk-consumption loop shared by the serial path and the
        segmented backend: per-tuple engine overhead (tuple formation, UDA
        call, model passing) is charged once per chunk — the function-call
        boundary is crossed per batch, which is the entire reason vectorized
        execution wins — and the pass counts as one logical scan even when
        served from the cache.
        """
        table.scan_count += 1
        state = instance.initialize()
        overhead_sink = 0.0
        for batch in plan:
            overhead_sink += self._charge_overhead(instance.state_passing_units)
            state = instance.transition_chunk(state, batch)
        if overhead_sink < 0:  # pragma: no cover - keeps the sink live
            raise ExecutionError("overhead accumulator underflow")
        return state

    def run_chunk_partitioned(
        self,
        table: Table,
        instance: UserDefinedAggregate,
        workers: int,
    ) -> Any:
        """Serial reference for a chunk-partitioned scalar pass.

        Runs the same partition contract as the process backend — worker ``w``
        consumes cached chunks ``w::width`` in ascending order, partial states
        merge left-to-right — sequentially in this process, so a process run
        of the same plan is bit-for-bit this result.  Returns the sentinel
        ``_CHUNKS_UNSUPPORTED`` when no chunk plan resolves.
        """
        plan = self.chunk_plan(table, instance)
        if plan is None:
            return _CHUNKS_UNSUPPORTED
        batches = plan.batches
        width = max(1, min(workers, len(batches)) if batches else 1)
        table.scan_count += 1
        states = []
        for worker in range(width):
            self._charge_overhead(instance.state_passing_units)
            states.append(fold_chunks(instance, batches[worker::width]))
        return merge_partial_states(instance, states)

    def partition_batches(
        self, table: Table, instance: UserDefinedAggregate, execution: str = "auto"
    ) -> list | None:
        """The cached chunk list a partitioned pass gathers its parts from.

        ``None`` (no decoding task, a task without batches, unbatchable
        columns, no gather kernels) means partitions fold raw rows; under
        ``execution="chunked"`` that raises instead.  The serial reference
        runner and the process backend both choose here, so they agree.
        """
        from .chunk_plan import can_gather

        batches = None
        if instance.supports_chunks:
            batches = self.example_cache.batches_for(
                table, instance.chunk_decoder, self.chunk_size, dtype=self.compute_dtype
            )
        if batches is not None and can_gather(batches):
            return batches
        if execution == "chunked":
            raise ExecutionError(
                f"aggregate {type(instance).__name__} cannot run chunked over "
                f"table {table.name!r} (unsupported aggregate, task or column types)"
            )
        return None

    def run_row_partitioned(
        self,
        table: Table,
        instance: UserDefinedAggregate,
        workers: int,
        *,
        where: Expression | None = None,
        row_order: Sequence[int] | None = None,
        argument: Expression | None = None,
        execution: str = "auto",
    ) -> Any:
        """Serial reference for a row-partitioned mergeable pass.

        The visit ordinals (WHERE + row order composed exactly like the chunk
        plane) split round-robin by position; each partition gathers its
        ordinals out of the cached chunk list and folds ``transition_chunk``,
        or folds ``transition`` over raw rows when :meth:`partition_batches`
        finds no chunk list; partials merge left-to-right.  Same partitions,
        float operations and merge order as the process backend —
        bit-for-bit.
        """
        from .chunk_plan import gather_batches, resolve_ordinals, split_round_robin

        ordinals = resolve_ordinals(table, self.example_cache, self.functions, where, row_order)
        if ordinals is None:
            ordinals = np.arange(len(table), dtype=np.intp)
        width = max(1, min(workers, ordinals.shape[0]) if ordinals.shape[0] else 1)
        batches = self.partition_batches(table, instance, execution)
        rows = table.to_rows() if batches is None else None
        table.scan_count += 1
        states = []
        for part in split_round_robin(ordinals, width):
            self._charge_overhead(instance.state_passing_units)
            if batches is not None:
                states.append(
                    fold_chunks(instance, gather_batches(batches, part, self.chunk_size))
                )
            else:
                states.append(fold_rows(instance, rows, part, argument, self.functions))
        return merge_partial_states(instance, states)

    def _run_aggregate_chunked(
        self,
        table: Table,
        instance: UserDefinedAggregate,
        *,
        where: Expression | None = None,
        row_order: Sequence[int] | None = None,
    ) -> Any:
        """Batch-at-a-time aggregation over cached columnar example batches."""
        plan = self.chunk_plan(table, instance, where=where, row_order=row_order)
        if plan is None:
            return _CHUNKS_UNSUPPORTED
        return instance.terminate(self.consume_chunk_plan(table, instance, plan))

    def run_aggregate(
        self,
        table: Table,
        aggregate: UserDefinedAggregate | str,
        argument: Expression | str | None = None,
        *,
        where: Expression | None = None,
        row_order: Sequence[int] | None = None,
        execution: str = "per_tuple",
        backend: str = "in_process",
        process_pool=None,
        process_workers: int | None = None,
    ) -> Any:
        """Run a single aggregate over a table without going through SQL.

        ``row_order`` optionally specifies the tuple visit order (a permutation
        of row ordinals) — this is how the ordering policies express
        shuffle-once / shuffle-always without physically rewriting the table.

        ``execution`` picks the code path: ``"per_tuple"`` (the default, the
        paper's tuple-at-a-time UDA protocol), ``"chunked"`` (batch-at-a-time
        over cached columnar examples; raises if the aggregate/table cannot
        chunk), or ``"auto"`` (chunked when possible, silent per-tuple
        fallback).  WHERE filters ride the chunk plane through a selection
        vector cached once per (table, version, predicate); explicit row
        orders through a vectorized gather over the cached batches — both
        produce bit-for-bit the per-tuple models.

        ``backend`` selects who performs the pass: ``"in_process"`` (the
        default) runs in this process; ``"process"`` fans a mergeable
        aggregate out over a :class:`ProcessWorkerPool` of real OS workers
        (round-robin ordinal partitions, deterministic left-to-right merge —
        bit-for-bit a segmented run with as many segments as pool workers).
        ``process_pool`` supplies the pool; if omitted an ephemeral pool of
        one worker per core is used for the call.
        """
        if execution not in ("per_tuple", "chunked", "auto"):
            raise ExecutionError(f"unknown execution mode {execution!r}")
        if backend not in ("in_process", "process"):
            raise ExecutionError(f"unknown execution backend {backend!r}")
        instance = (
            self.aggregates.create(aggregate) if isinstance(aggregate, str) else aggregate
        )
        if isinstance(argument, str):
            from .expressions import ColumnRef

            argument = ColumnRef(argument)
        if backend == "process":
            if execution == "per_tuple":
                raise ExecutionError(
                    "the process backend serves passes from the cached chunk "
                    "plane and cannot replay the per-tuple engine protocol; "
                    "pass execution='auto' or 'chunked' with backend='process'"
                )
            from .process_backend import (
                ProcessWorkerPool,
                default_process_workers,
                run_process_aggregate,
            )

            from .errors import WorkerDiedError

            try:
                if process_pool is not None:
                    # Retry recoverable worker deaths: a supervised pool has
                    # already respawned the casualties and replayed payloads,
                    # so re-running the (deterministic, mergeable) pass is
                    # both safe and bit-for-bit.  Non-recoverable errors fall
                    # through to the in-process ladder below.
                    while True:
                        try:
                            return run_process_aggregate(
                                self, table, instance, pool=process_pool,
                                where=where, row_order=row_order,
                                workers=process_workers, argument=argument,
                                execution=execution,
                            )
                        except WorkerDiedError as error:
                            if not error.recoverable:
                                raise
                else:
                    with ProcessWorkerPool(default_process_workers()) as pool:
                        return run_process_aggregate(
                            self, table, instance, pool=pool,
                            where=where, row_order=row_order,
                            workers=process_workers, argument=argument,
                            execution=execution,
                        )
            except WorkerDiedError as error:
                # Degrade to the in-process path rather than failing the
                # query: the pass is mergeable and deterministic, so the
                # serial result is the same value the pool would have
                # produced.  Structured event instead of an exception.
                if self.on_degradation is not None:
                    from .supervisor import DegradationEvent

                    self.on_degradation(
                        DegradationEvent(
                            plan_kind="aggregate",
                            from_backend="process",
                            to_backend="in_process",
                            reason=str(error),
                        )
                    )
                return self.run_aggregate(
                    table, instance, argument, where=where, row_order=row_order,
                    execution=execution, backend="in_process",
                )
        if execution != "per_tuple":
            if instance.supports_chunks:
                outcome = self._run_aggregate_chunked(
                    table, instance, where=where, row_order=row_order
                )
                if outcome is not _CHUNKS_UNSUPPORTED:
                    return outcome
            if execution == "chunked":
                raise ExecutionError(
                    f"aggregate {type(instance).__name__} cannot run chunked over "
                    f"table {table.name!r} (unsupported aggregate, task or column types)"
                )
        argument_expression: Expression | None = argument

        state = instance.initialize()
        overhead_sink = 0.0
        if row_order is None:
            row_iter: Iterable[Row] = table.scan()
        else:
            # One logical scan per ordered pass: row_at random access does not
            # touch the statistics itself, but shuffle-always/MRS-style ordered
            # passes read every tuple and must show up in the scan counts the
            # overhead/scalability experiments report.
            table.scan_count += 1
            row_iter = (table.row_at(i) for i in row_order)
        for row in row_iter:
            if where is not None and not bool(where.evaluate(row, self.functions)):
                continue
            overhead_sink += self._charge_overhead(instance.state_passing_units)
            if instance.wants_row or argument_expression is None:
                value: Any = row
            else:
                value = argument_expression.evaluate(row, self.functions)
            state = instance.transition(state, value)
        result = instance.terminate(state)
        if overhead_sink < 0:  # pragma: no cover - keeps the sink live
            raise ExecutionError("overhead accumulator underflow")
        return result


def _default_name(item: SelectItem, index: int) -> str:
    expression = item.expression
    if item.aggregate_name is not None:
        return item.aggregate_name
    if isinstance(expression, FunctionCall):
        return expression.name.lower()
    from .expressions import ColumnRef

    if isinstance(expression, ColumnRef):
        return expression.name
    return f"column{index}"
