"""Backend-neutral chunk planning for the cached columnar execution plane.

Extracted from the serial executor so that every execution backend — the
serial executor (:mod:`repro.db.executor`), the shared-memory epoch
(:mod:`repro.db.shared_memory`) and the segmented pure-UDA engine
(:mod:`repro.db.parallel`) — serves aggregates from the *same* cached decoded
chunks instead of each owning its own row-decode loop.  A
:class:`ChunkPlan` bundles the decisions every backend makes:

* **cache lookup** — batches are resolved through the shared
  :class:`~repro.tasks.base.ExampleCache`, keyed by (table name, table
  version, decoding task, chunk size) and bound to the exact
  :class:`~repro.db.table.Table` object, so any physical mutation invalidates
  the plan on the next resolve;
* **selection** — WHERE predicates are evaluated once per (table, version)
  into a cached boolean selection vector
  (:meth:`~repro.tasks.base.ExampleCache.selection_for`) and applied as a
  batch take/mask over the cached batches;
* **permutation** — explicit ``row_order`` visit orders (logical
  shuffle-once / shuffle-always, the MRS machinery) are served by
  :func:`gather_batches`, a vectorized gather over the cached decoded plane,
  instead of per-tuple ``row_at`` loops;
* **chunk slicing** — the (possibly gathered) batches are the columnar chunk
  sequence a serial or per-segment pass consumes; and
* **per-worker range assignment** — :func:`partition_round_robin` (round-robin
  over example ordinals, mirroring how a shared-nothing engine lays segments
  out) gives parallel backends their zero-copy slices of the same cached
  data: the shared-memory epoch partitions the cache's decoded example list
  with it, and :meth:`ChunkPlan.worker_partitions` exposes the same
  assignment over a resolved plan's batches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..tasks.base import ExampleCache, Task
    from .expressions import Expression
    from .table import Table


def partition_round_robin(num_items: int, workers: int) -> list[list[int]]:
    """Round-robin assignment of item ordinals to workers (segment layout)."""
    partitions: list[list[int]] = [[] for _ in range(workers)]
    for index in range(num_items):
        partitions[index % workers].append(index)
    return partitions


def split_round_robin(ordinals: np.ndarray, workers: int) -> list[np.ndarray]:
    """Round-robin split of a resolved visit-ordinal array across workers.

    Position ``i`` of the visit order goes to worker ``i % workers`` — the
    identical layout :func:`partition_round_robin` gives segments, expressed
    as strided views so no per-item Python loop runs.  This is the partition
    contract every pass backend shares: the serial reference runner and the
    process workers consume exactly these partitions, which is what makes
    their results bit-for-bit comparable.
    """
    return [ordinals[worker::workers] for worker in range(workers)]


def resolve_ordinals(
    table: "Table",
    cache: "ExampleCache",
    functions: Mapping[str, Callable] | None,
    where: "Expression | None",
    row_order: Sequence[int] | None,
) -> np.ndarray | None:
    """Example ordinals for one pass; ``None`` means every row in heap order.

    Mirrors :meth:`ChunkPlan.resolve`: the visit order is walked first and
    rows failing the WHERE predicate are dropped, using the cached
    per-version selection vector.
    """
    if where is None and row_order is None:
        return None
    mask = cache.selection_for(table, where, functions) if where is not None else None
    if mask is not None:
        if row_order is not None:
            order = np.asarray(row_order, dtype=np.intp)
            order = np.where(order < 0, order + mask.shape[0], order)
            return order[mask[order]]
        return np.flatnonzero(mask)
    order = np.asarray(row_order, dtype=np.intp)
    return np.where(order < 0, order + len(table), order)


def can_gather(batches: list) -> bool:
    """True when the batch type implements the ``take``/``concat`` gather kernels."""
    if not batches:
        return True
    first = batches[0]
    return hasattr(first, "take") and hasattr(type(first), "concat")


def gather_batches(
    batches: list, ordinals: np.ndarray, chunk_size: int
) -> list | None:
    """Gather ``ordinals`` of the logically concatenated ``batches`` into new chunks.

    ``batches`` is a cached chunk sequence in which every batch holds exactly
    ``chunk_size`` examples except possibly the last (the
    :meth:`~repro.db.table.Table.iter_chunks` contract), so global ordinal
    ``g`` lives in batch ``g // chunk_size`` at offset ``g % chunk_size``.
    The result re-chunks the gathered examples into ``chunk_size`` blocks.

    Each output block is built from at most two vectorized passes over the
    batch type's gather kernels: one ``take`` per source batch contributing
    to the block (rows extracted in output order within that batch), a
    ``concat``, and — when the block interleaves several source batches — one
    final ``take`` that restores the requested order.  Returns ``None`` when
    the batch type implements no ``take``/``concat`` kernels, signalling the
    caller to fall back to per-tuple execution.
    """
    ordinals = np.asarray(ordinals, dtype=np.intp)
    if not batches:
        return [] if ordinals.size == 0 else None
    if not can_gather(batches):
        return None
    first = batches[0]
    total = sum(len(batch) for batch in batches)
    ordinals = np.where(ordinals < 0, ordinals + total, ordinals)
    if ordinals.size and (int(ordinals.min()) < 0 or int(ordinals.max()) >= total):
        raise IndexError(
            f"row ordinal out of range for {total} rows "
            f"(min {int(ordinals.min())}, max {int(ordinals.max())})"
        )
    gathered = []
    for start in range(0, ordinals.shape[0], chunk_size):
        block = ordinals[start:start + chunk_size]
        batch_ids = block // chunk_size
        offsets = block - batch_ids * chunk_size
        unique = np.unique(batch_ids)
        if unique.shape[0] == 1:
            gathered.append(batches[int(unique[0])].take(offsets))
            continue
        parts = []
        positions = []
        for batch_id in unique:
            mask = batch_ids == batch_id
            parts.append(batches[int(batch_id)].take(offsets[mask]))
            positions.append(np.flatnonzero(mask))
        # Concatenated row j belongs at output position order[j]; invert to
        # get the final take that restores the requested visit order.
        order = np.concatenate(positions)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.shape[0], dtype=order.dtype)
        gathered.append(type(first).concat(parts).take(inverse))
    return gathered


class ChunkPlan:
    """A resolved plan for one aggregate pass over cached columnar chunks."""

    __slots__ = ("table", "decoder", "batches", "chunk_size")

    def __init__(self, table: "Table", decoder: "Task", batches: list, chunk_size: int):
        self.table = table
        self.decoder = decoder
        self.batches = batches
        self.chunk_size = chunk_size

    @classmethod
    def resolve(
        cls,
        table: "Table",
        decoder: "Task | None",
        cache: "ExampleCache",
        chunk_size: int,
        *,
        where: "Expression | None" = None,
        row_order: Sequence[int] | None = None,
        functions: Mapping[str, Callable] | None = None,
        dtype: str = "float64",
    ) -> "ChunkPlan | None":
        """Resolve a plan through the cache; None when the pass cannot chunk.

        ``where`` restricts the pass to rows matching the predicate via a
        selection vector cached once per (table, version, predicate);
        ``row_order`` imposes an explicit visit order (a permutation of row
        ordinals) served by gathering from the cached batches.  Both compose:
        the order is walked first and non-matching rows are dropped, exactly
        like the per-tuple loop.  ``None`` means the aggregate exposed no
        decoder, the decoding task does not support batches, the table's
        columns cannot be batched, or the batch type has no gather kernels —
        the caller must fall back to per-tuple execution.
        """
        if decoder is None:
            return None
        batches = cache.batches_for(table, decoder, chunk_size, dtype=dtype)
        if batches is None:
            return None
        if where is None and row_order is None:
            return cls(table, decoder, batches, chunk_size)
        mask = cache.selection_for(table, where, functions) if where is not None else None
        if mask is not None:
            if row_order is not None:
                order = np.asarray(row_order, dtype=np.intp)
                order = np.where(order < 0, order + mask.shape[0], order)
                ordinals = order[mask[order]]
            else:
                ordinals = np.flatnonzero(mask)
        else:
            ordinals = np.asarray(row_order, dtype=np.intp)
        # Gathered chunk lists occupy one cache slot per (decoder, chunk
        # size); the order/selection identity rides along and is checked on
        # hit.  Pass-invariant inputs — a logical shuffle-once permutation, a
        # constant WHERE mask — therefore gather once per table version
        # instead of once per epoch, while fresh per-epoch orders
        # (shuffle-always) *replace* the slot's previous occupant, so at most
        # one dataset-sized gathered copy is retained at a time.  Orders are
        # treated as immutable: mutating a row_order sequence in place
        # between passes is not supported.
        slot_key = ("gathered", id(decoder), chunk_size, dtype)
        identity = (
            None if row_order is None else id(row_order),
            None if mask is None else id(mask),
        )
        pin = (decoder, row_order, mask)
        gathered = cache.gathered_for(
            table, slot_key, identity, pin,
            lambda: gather_batches(batches, ordinals, chunk_size),
        )
        if gathered is None:
            return None
        return cls(table, decoder, gathered, chunk_size)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    @property
    def num_examples(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def worker_partitions(self, workers: int) -> list[list[int]]:
        """Round-robin example-ordinal partitions over the cached batches."""
        return partition_round_robin(self.num_examples, workers)

    def __repr__(self) -> str:
        return (
            f"ChunkPlan(table={self.table.name!r}, chunks={len(self.batches)}, "
            f"examples={self.num_examples})"
        )
