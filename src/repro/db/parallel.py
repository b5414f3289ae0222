"""Segmented (shared-nothing) parallel engine, modelled on the paper's "DBMS B".

A :class:`SegmentedDatabase` wraps a catalog of tables that are round-robin
partitioned across ``num_segments`` segments.  Aggregates that provide a
``merge`` function are executed independently on every segment and the partial
states are merged before ``terminate`` — exactly the "pure UDA" parallelism of
Section 3.3.  One segment loop serves both backends: ``backend="in_process"``
runs the segment passes one after another in this process, and
``backend="process"`` runs each segment on its own worker of the master
engine's :class:`~repro.db.process_backend.ProcessWorkerPool`.  Either way each
segment folds its own cached chunks (or raw rows, where the chunk plane cannot
serve the pass) and the partials merge left-to-right through
:func:`~repro.db.aggregates.merge_partial_states`, so the two backends return
bit-for-bit the same value.  The engine records per-segment tuple counts and
charges the personality's model-passing cost per segment so the experiment
harness can report both measured per-epoch times and modelled speed-ups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .aggregates import UserDefinedAggregate, merge_partial_states
from .chunk_plan import resolve_ordinals
from .engine import DBMS_B, Database, EnginePersonality
from .errors import ExecutionError, UnknownTableError, WorkerDiedError
from .expressions import Expression
from .table import Table
from .types import ColumnType, Schema


@dataclass
class ParallelAggregateResult:
    """Result of a segmented aggregate run, with per-segment accounting."""

    value: Any
    per_segment_tuples: list[int]
    num_segments: int
    #: Number of merge() calls performed to combine the partial states.
    merges: int

    @property
    def total_tuples(self) -> int:
        return sum(self.per_segment_tuples)

    @property
    def max_segment_tuples(self) -> int:
        return max(self.per_segment_tuples) if self.per_segment_tuples else 0


class SegmentedDatabase:
    """A shared-nothing parallel database with round-robin partitioned tables."""

    def __init__(
        self,
        num_segments: int | None = None,
        personality: EnginePersonality | str = DBMS_B,
        *,
        seed: int | None = None,
        recovery: "object | None" = None,
        faults: "Sequence | None" = None,
        path: "object | None" = None,
        durability: "object | None" = None,
        crashes: "Sequence | None" = None,
        payload_transport: "str | None" = None,
    ):
        self.master = Database(
            personality,
            seed=seed,
            recovery=recovery,
            faults=faults,
            path=path,
            durability=durability,
            crashes=crashes,
            payload_transport=payload_transport,
        )
        if num_segments is not None and num_segments <= 0:
            raise ExecutionError("num_segments must be positive")
        segments = num_segments if num_segments is not None else self.master.personality.default_segments
        self.num_segments = segments
        self._segment_tables: dict[str, list[Table]] = {}
        #: Master-table version each segment set currently reflects, so
        #: :meth:`redistribute` can classify the delta since the last sync and
        #: extend segments in place on append-only mutations.
        self._segment_versions: dict[str, int] = {}
        # Durability only lives on the master: segment tables are derived
        # state, reconstructible from the master heap, so crash recovery
        # restores the master catalog and this loop re-partitions it —
        # per-segment table identity (names, round-robin placement) is a pure
        # function of the master, hence preserved across the crash.
        for key, table in self.master.tables.items():
            self._segment_tables[key] = table.partition(self.num_segments)
            self._segment_versions[key] = table.version

    @classmethod
    def open(
        cls,
        path,
        num_segments: int | None = None,
        personality: EnginePersonality | str = DBMS_B,
        **kwargs,
    ) -> "SegmentedDatabase":
        """Open/recover a durable segmented database (see ``Database.open``)."""
        return cls(num_segments, personality, path=path, **kwargs)

    @property
    def recovery_report(self):
        return self.master.recovery_report

    @property
    def crash_injector(self):
        return self.master.crash_injector

    def checkpoint(self, **kwargs):
        """Checkpoint the master catalog (segments are derived state)."""
        return self.master.checkpoint(**kwargs)

    def training_state(self, name: str):
        return self.master.training_state(name)

    def clear_training_state(self, name: str) -> None:
        self.master.clear_training_state(name)

    # -------------------------------------------------------------- catalog
    @property
    def personality(self) -> EnginePersonality:
        return self.master.personality

    def create_table(
        self, name: str, columns: Sequence[tuple[str, ColumnType | str]] | Schema
    ) -> Table:
        table = self.master.create_table(name, columns)
        self._segment_tables[name.lower()] = table.partition(self.num_segments)
        self._segment_versions[name.lower()] = table.version
        return table

    def load_table(self, table: Table, *, replace: bool = False) -> None:
        """Register an already-populated table and distribute it to segments."""
        self.master.register_table(table, replace=replace)
        self._segment_tables[table.name.lower()] = table.partition(self.num_segments)
        self._segment_versions[table.name.lower()] = table.version

    def insert(self, table_name: str, rows) -> int:
        """Insert rows on the master and extend (or rebuild) the segments.

        Appends route through the incremental path in :meth:`redistribute`:
        the existing segment tables are extended in place, so their example
        caches and any resident worker payloads survive the insert.
        """
        count = self.master.insert(table_name, rows)
        self.redistribute(table_name)
        return count

    def table(self, name: str) -> Table:
        return self.master.table(name)

    def segments_of(self, name: str) -> list[Table]:
        try:
            return self._segment_tables[name.lower()]
        except KeyError:
            raise UnknownTableError(name) from None

    def redistribute(self, name: str) -> None:
        """Bring the segment tables back in sync with the master copy.

        Consults the master's version ledger: when every mutation since the
        last sync appended rows at the tail, the new rows are round-robin
        *appended* to the existing segment tables — row ``g`` goes to segment
        ``g % num_segments``, exactly where a full re-partition would put it,
        so incremental extension and rebuild produce identical segments while
        extension keeps the segment ``Table`` objects (and everything keyed on
        them: example-cache entries, resident worker payloads) alive.
        Physical rewrites fall back to a full re-partition.
        """
        table = self.master.table(name)
        key = name.lower()
        segments = self._segment_tables.get(key)
        synced = self._segment_versions.get(key)
        if segments is not None and synced is not None:
            delta = table.classify_delta(synced)
            if delta.is_same:
                return
            if delta.is_append:
                self._extend_segments(segments, table, delta.base_rows)
                self._segment_versions[key] = table.version
                return
        self._segment_tables[key] = table.partition(self.num_segments)
        self._segment_versions[key] = table.version

    def _extend_segments(self, segments: list[Table], table: Table, base_rows: int) -> None:
        """Append the master rows ``[base_rows, len)`` to their home segments."""
        buckets: list[list[tuple]] = [[] for _ in segments]
        for offset, values in enumerate(table.tail_values(base_rows)):
            buckets[(base_rows + offset) % len(segments)].append(values)
        for segment, rows in zip(segments, buckets):
            if rows:
                segment.insert_many(rows)

    # ------------------------------------------------------------ registration
    def register_aggregate(self, name: str, factory: Callable[[], UserDefinedAggregate]) -> None:
        self.master.register_aggregate(name, factory)

    def register_function(self, name: str, func: Callable) -> None:
        self.master.register_function(name, func)

    # ------------------------------------------------------------- execution
    def execute(self, sql: str):
        """Execute SQL against the master copy (non-aggregate paths)."""
        return self.master.execute(sql)

    def run_parallel_aggregate(
        self,
        table_name: str,
        aggregate_factory: Callable[[], UserDefinedAggregate],
        argument: Expression | str | None = None,
        *,
        where: Expression | None = None,
        segment_row_orders: Sequence[Sequence[int]] | None = None,
        execution: str = "auto",
        backend: str = "in_process",
    ) -> ParallelAggregateResult:
        """Run a UDA independently on every segment and merge the results.

        ``segment_row_orders`` optionally gives an explicit visit order per
        segment (used by the logical ordering policies).  The aggregate must
        support ``merge``; otherwise the call degrades to a single-segment run
        on the master copy, mirroring how an RDBMS falls back to serial
        aggregation for non-algebraic aggregates.  The fallback honours
        ``segment_row_orders`` only when there is exactly one segment (whose
        layout matches the master row for row); with several segments the
        per-segment orders cannot be replayed serially and the call raises
        rather than silently training in stored heap order.

        ``execution`` selects the per-segment code path, with the same
        contract as :meth:`Executor.run_aggregate`: ``"auto"`` (the default)
        serves each segment from its own cached columnar chunks whenever the
        aggregate and task support it, falling back to per-tuple; ``"per_tuple"``
        forces the paper's tuple-at-a-time protocol; ``"chunked"`` raises if
        any segment cannot chunk.  Unlike the serial
        :meth:`Executor.run_aggregate` — whose ``"per_tuple"`` default is kept
        as the paper's reference protocol — this entry point defaults to the
        chunk plane; callers measuring per-tuple engine overhead (Tables 2-3)
        must pass ``execution="per_tuple"`` explicitly.

        ``backend`` selects who runs the per-segment work: ``"in_process"``
        (the default) performs the segment passes sequentially in this
        process; ``"process"`` runs each segment in its own OS worker from
        the master engine's persistent pool, where it gathers the segment's
        visit order out of the segment's cached chunk list (or folds raw
        rows when the chunk plane cannot serve the aggregate; ``"per_tuple"``
        is refused).  The partitioning, per-chunk float operations and
        left-to-right merge are identical, so for a fixed seed and segment
        count the two backends produce **bit-for-bit the same model** — the
        pure-UDA determinism contract.
        """
        if execution not in ("per_tuple", "chunked", "auto"):
            raise ExecutionError(f"unknown execution mode {execution!r}")
        if backend not in ("in_process", "process"):
            raise ExecutionError(f"unknown execution backend {backend!r}")
        segments = self.segments_of(table_name)
        probe = aggregate_factory()
        if not probe.supports_merge or self.num_segments == 1:
            # The single-segment layout matches the master copy row for row,
            # so its visit order applies directly; multi-segment orders are
            # segment-local and cannot be replayed on the master fallback, so
            # refusing beats silently training in stored heap order.
            order = None
            if segment_row_orders is not None:
                if self.num_segments > 1:
                    raise ExecutionError(
                        f"aggregate {type(probe).__name__} does not support merge; "
                        "the serial fallback cannot honour per-segment row orders"
                    )
                order = segment_row_orders[0]
            value = self.master.executor.run_aggregate(
                self.master.table(table_name), probe, argument,
                where=where, row_order=order, execution=execution,
            )
            return ParallelAggregateResult(
                value=value,
                per_segment_tuples=[len(self.master.table(table_name))],
                num_segments=1,
                merges=0,
            )
        if backend == "process" and execution == "per_tuple":
            raise ExecutionError(
                "the process backend serves segments from the cached chunk "
                "plane and cannot replay the per-tuple engine protocol; use "
                "the in-process backend for per-tuple runs"
            )
        if isinstance(argument, str):
            from .expressions import ColumnRef

            argument = ColumnRef(argument)
        executor = self.master.executor
        instances = [aggregate_factory() for _ in segments]
        states: list[Any] = []
        parts = []
        for index, (segment, instance) in enumerate(zip(segments, instances)):
            order = segment_row_orders[index] if segment_row_orders is not None else None
            if backend == "process":
                ordinals = resolve_ordinals(
                    segment, executor.example_cache, executor.functions, where, order
                )
                segment.scan_count += 1
                executor._charge_overhead(instance.state_passing_units)
                parts.append((segment, instance, ordinals))
            else:
                states.append(
                    self._run_segment(instance, segment, argument, where, order, execution)
                )
        if parts:
            from .process_backend import run_partitioned_uda

            while True:
                try:
                    states = run_partitioned_uda(
                        executor, self.master.process_pool(len(segments)), parts,
                        argument=argument, execution=execution,
                    )
                    break
                except WorkerDiedError as error:
                    # A supervised pool has respawned its casualties and
                    # replayed their payloads; the deterministic pass re-runs.
                    if not error.recoverable:
                        raise
        return ParallelAggregateResult(
            value=merge_partial_states(instances[0], states),
            per_segment_tuples=[len(segment) for segment in segments],
            num_segments=len(segments),
            merges=len(states) - 1,
        )

    def _run_segment(
        self,
        instance: UserDefinedAggregate,
        segment: Table,
        argument: Expression | None,
        where: Expression | None,
        row_order: Sequence[int] | None,
        execution: str = "auto",
    ) -> Any:
        """Run initialize+transition over one segment, returning the raw state.

        On the chunked path the segment keeps its own example cache entries —
        keyed by the segment table's (name, version, task) exactly like the
        master table's — in the master executor's shared :class:`ExampleCache`,
        so partitioned epochs decode each segment once per redistribution
        instead of once per tuple per epoch.
        """
        executor = self.master.executor
        if execution != "per_tuple":
            if instance.supports_chunks:
                plan = executor.chunk_plan(
                    segment, instance, where=where, row_order=row_order
                )
                if plan is not None:
                    return executor.consume_chunk_plan(segment, instance, plan)
            if execution == "chunked":
                raise ExecutionError(
                    f"aggregate {type(instance).__name__} cannot run chunked over "
                    f"segment {segment.name!r} (unsupported aggregate, task or column types)"
                )
        state = instance.initialize()
        if row_order is None:
            rows = segment.scan()
        else:
            # Ordered per-tuple passes count one logical scan, like scan().
            segment.scan_count += 1
            rows = (segment.row_at(i) for i in row_order)
        for row in rows:
            if where is not None and not bool(where.evaluate(row, executor.functions)):
                continue
            executor._charge_overhead(instance.state_passing_units)
            if instance.wants_row or argument is None:
                value: Any = row
            else:
                value = argument.evaluate(row, executor.functions)
            state = instance.transition(state, value)
        return state

    # ------------------------------------------------------------------ misc
    def close_process_pools(self) -> None:
        """Reap the master engine's process-backend worker pools."""
        self.master.close_process_pools()

    def close(self) -> None:
        """Release the master engine's OS resources (pools, arena).  Idempotent."""
        self.master.close()

    def __enter__(self) -> "SegmentedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shuffle_table(self, name: str, *, seed: int | None = None) -> None:
        """Shuffle the master copy and redistribute segments."""
        rng = np.random.default_rng(seed)
        self.master.table(name).shuffle(rng)
        self.redistribute(name)

    def __repr__(self) -> str:
        return (
            f"SegmentedDatabase(personality={self.personality.name!r}, "
            f"segments={self.num_segments}, tables={self.master.table_names()})"
        )
