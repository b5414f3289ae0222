"""Real multi-process execution over the cached chunk plane.

This is the backend that turns the repo's parallelism story from *modelled*
to *measured*: OS worker processes race on a single mmap-shared model
(:mod:`repro.db.shared_memory` arena segments) or train shared-nothing
partitions that are merged by the pure-UDA ``merge`` function — the two
parallelisation mechanisms of Section 3.3, executed by real processes rather
than a cooperative in-process simulation.

Architecture:

* :class:`ProcessWorkerPool` — a persistent pool of **forked** worker
  processes connected by pipes.  Workers are long-lived so per-epoch cost is
  one small message per worker, not a process spawn; the publication lock is
  created *before* the fork so every worker inherits the same OS semaphore.
* **Shipped-once payloads** — a table's cached columnar chunk list (the
  :class:`~repro.tasks.base.ExampleCache` decode-once contract) or, where the
  chunk plane cannot serve a pass, its raw row block (shared-memory epochs:
  its decoded example list) is encoded once per table version and shipped
  to each worker, which caches it by key; appends ship only a delta.
  Subsequent passes send only ordinal arrays — a logical shuffle never
  re-ships a single row.
* **Partition strategies** — mergeable passes run one of three: *whole
  chunks* (whole-table scalar reductions such as loss and accuracy deal
  cached chunks round-robin), *gathered chunk parts* (every other pass the
  chunk plane serves: a worker gathers its part's ordinals out of the
  resident chunk list and folds ``transition_chunk``), or *raw rows*
  (everything else: a worker folds ``transition`` over its part's rows).
* **Round-robin range assignment** —
  :func:`~repro.db.chunk_plan.split_round_robin` is the partitioning
  contract shared with the in-process backends, which is what makes the
  pure-UDA process path *bit-for-bit identical* to the in-process segmented
  engine: same partitions, same per-chunk float operations, same
  left-to-right merge.
* **Shared-memory epochs** — each worker attaches to the model segment's OS
  name and publishes per-staleness-batch deltas: racy in-place adds
  (``nolock`` — true Hogwild on the mmap'd pages), a brief critical section
  per published delta (``aig`` — modelling batched per-component atomics),
  or the whole read-compute-write cycle under the lock (``lock``, which is
  why the Lock scheme measures ~1x in Figure 9B).

Determinism contract: pure-UDA runs are deterministic and bit-for-bit equal
to the in-process backends for a fixed seed and worker count; the
shared-memory schemes are genuinely racy (that is the point) and are pinned
by statistical objective-band assertions instead.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import time
import traceback
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .aggregates import fold_chunks, fold_rows, merge_partial_states
from .chunk_plan import gather_batches, resolve_ordinals, split_round_robin
from .errors import EnvSpecError, ExecutionError, WorkerDiedError
from .fault import FaultInjector, FaultPlan
from .shared_memory import (
    ChunkPageSet,
    SharedMemoryArena,
    SharedMemoryParallelism,
    attach_chunk_pages,
    attach_shared_array,
    fork_context,
)
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.model import Model
    from ..tasks.base import ExampleCache
    from .aggregates import UserDefinedAggregate
    from .executor import Executor


def available_cores() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def default_process_workers() -> int:
    """Default pool size for the process backend: one worker per core."""
    return max(1, available_cores())


# ---------------------------------------------------------------------------
# Payload transport: zero-copy chunk pages vs pickled bytes
# ---------------------------------------------------------------------------
#: Transport modes.  ``auto`` (the default) publishes any payload containing
#: dense numeric arrays as shared-memory chunk pages and pickles the rest;
#: ``pages`` is the same policy spelled as an explicit request (useful to CI);
#: ``pickle`` forces the PR-4 pickled-bytes transport everywhere.
PAYLOAD_TRANSPORTS = ("auto", "pages", "pickle")


def resolve_payload_transport(environ: "Mapping[str, str] | None" = None) -> str:
    """Payload transport from ``REPRO_PAYLOAD_TRANSPORT`` (default ``auto``)."""
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_PAYLOAD_TRANSPORT")
    if raw is None or not raw.strip():
        return "auto"
    value = raw.strip().lower()
    if value not in PAYLOAD_TRANSPORTS:
        raise EnvSpecError(
            f"REPRO_PAYLOAD_TRANSPORT={raw!r} is not a known transport; "
            f"expected one of {PAYLOAD_TRANSPORTS}"
        )
    return value


class _PagingPickler(pickle.Pickler):
    """Pickles a payload skeleton, lifting dense arrays out into a page list.

    Every non-object-dtype ndarray in the object graph is replaced by a
    persistent-id stub (its index in :attr:`arrays`); everything else — CRF
    metadata, task objects, Python lists, labels wrapped in examples —
    pickles as usual.  Walking the graph through the pickler itself means
    any payload shape (``ExampleBatch`` chunk lists, ``(examples, task)``
    tuples, raw ``Row`` blocks) pages its arrays with no per-type code.
    """

    def __init__(self, buffer: io.BytesIO):
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[np.ndarray] = []
        self._seen: dict[int, int] = {}

    def persistent_id(self, obj: Any) -> "int | None":
        if type(obj) is np.ndarray and not obj.dtype.hasobject:
            ref = self._seen.get(id(obj))
            if ref is None:
                ref = len(self.arrays)
                self.arrays.append(obj)
                self._seen[id(obj)] = ref
            return ref
        return None


class _PageViewUnpickler(pickle.Unpickler):
    """Rebuilds a paged skeleton, resolving array stubs to zero-copy views."""

    def __init__(self, skeleton: bytes, views: "Sequence[np.ndarray]"):
        super().__init__(io.BytesIO(skeleton))
        self._views = views

    def persistent_load(self, pid: int) -> np.ndarray:
        return self._views[pid]


class _PagedPayload:
    """Page-transport wire form: a page descriptor plus the pickled skeleton.

    This is what ``pickle.loads`` on the worker side yields for a paged
    shipment — a few hundred bytes no matter how large the payload arrays
    are.  :meth:`attach` maps the pages and rebuilds the original object
    with every dense array replaced by a zero-copy view.
    """

    __slots__ = ("descriptor", "skeleton")

    def __init__(self, descriptor: Any, skeleton: bytes):
        self.descriptor = descriptor
        self.skeleton = skeleton

    def __getstate__(self) -> tuple:
        return (self.descriptor, self.skeleton)

    def __setstate__(self, state: tuple) -> None:
        self.descriptor, self.skeleton = state

    def attach(self) -> "tuple[Any, Any]":
        shm, views = attach_chunk_pages(self.descriptor)
        payload = _PageViewUnpickler(self.skeleton, views).load()
        return payload, shm


#: Worker-side shared-memory handles whose ``close()`` raised BufferError
#: (a dropped payload's views were still exported).  Held so their __del__
#: cannot re-raise at GC time; the mapping dies with the worker process.
_WORKER_DEFERRED_HANDLES: list = []


def _release_page_handles(handles: "list | None") -> None:
    """Close a dropped payload's page mappings (worker side).  Idempotent."""
    if not handles:
        return
    for shm in handles:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            _WORKER_DEFERRED_HANDLES.append(shm)
    handles.clear()


def _decode_payload(data: bytes, handles: list) -> Any:
    """Unpickle a shipped payload; paged shipments attach zero-copy views.

    ``handles`` collects the shared-memory mappings the decoded payload's
    views depend on; the caller owns releasing them when the payload is
    replaced or dropped.
    """
    obj = pickle.loads(data)
    if isinstance(obj, _PagedPayload):
        payload, shm = obj.attach()
        handles.append(shm)
        return payload
    return obj


# ---------------------------------------------------------------------------
# Worker entrypoint
# ---------------------------------------------------------------------------
def _flat_view_model(template: "Model") -> "tuple[Model, np.ndarray]":
    """A model whose components are views into one flat buffer.

    ``flat`` and the model alias the same memory, laid out exactly like
    :meth:`Model.as_flat_vector` (sorted component names, ravelled), so
    reading a snapshot is one ``copyto`` and publishing a delta is one
    subtraction — no per-batch concatenate/reload round-trips in the hot
    worker loop.
    """
    from ..core.model import Model

    flat = np.zeros(template.num_parameters)
    components = {}
    offset = 0
    for name in sorted(template.component_names()):
        array = template[name]
        components[name] = flat[offset:offset + array.size].reshape(array.shape)
        offset += array.size
    return Model(components), flat


def _run_shmem_epoch(payloads: dict, lock, params: Mapping[str, Any]) -> int:
    """One worker's share of a shared-memory epoch against the mmap'd model."""
    from ..core.proximal import IdentityProximal

    examples, task = payloads[params["key"]]
    schedule = params["schedule"]
    proximal = params["proximal"]
    apply_proximal = not isinstance(proximal, IdentityProximal)
    epoch = params["epoch"]
    step_offset = params["step_offset"]
    staleness = params["staleness"]
    scheme = params["scheme"]
    global_ordinals = params["global_ordinals"]
    example_ordinals = params["example_ordinals"]
    model, flat = _flat_view_model(params["model_template"])

    shm, shared = attach_shared_array(params["os_name"], params["shape"])
    steps = 0
    try:
        for start in range(0, global_ordinals.shape[0], staleness):
            batch_g = global_ordinals[start:start + staleness]
            batch_e = example_ordinals[start:start + staleness]
            if scheme == "lock":
                # The Lock scheme serialises the whole read-compute-write
                # cycle on the model lock: gradient work cannot overlap,
                # which is exactly why it measures ~1x.
                with lock:
                    np.copyto(flat, shared)
                    for g, e in zip(batch_g, batch_e):
                        alpha = schedule.step_size(step_offset + int(g), epoch)
                        task.gradient_step(model, examples[int(e)], alpha)
                        if apply_proximal:
                            proximal.apply(model, alpha)
                    np.copyto(shared, flat)
            else:
                snapshot = shared.copy()
                np.copyto(flat, snapshot)
                for g, e in zip(batch_g, batch_e):
                    alpha = schedule.step_size(step_offset + int(g), epoch)
                    task.gradient_step(model, examples[int(e)], alpha)
                    if apply_proximal:
                        proximal.apply(model, alpha)
                delta = flat - snapshot
                nonzero = np.nonzero(delta)[0]
                if scheme == "aig":
                    # Batched per-component atomics: the publication — and
                    # only the publication — runs in a brief critical
                    # section, so gradient computation still overlaps.
                    with lock:
                        shared[nonzero] += delta[nonzero]
                else:  # nolock — genuinely racy Hogwild read-modify-write
                    shared[nonzero] += delta[nonzero]
            steps += len(batch_g)
    finally:
        del shared
        shm.close()
    return steps


def _run_uda_state(payloads: dict, msg: tuple) -> Any:
    """Fold ``transition_chunk`` over this worker's part of a cached chunk list.

    ``ordinals`` are gathered into chunks exactly like the in-process chunk
    plane (``None`` folds every chunk); no row is decoded here.
    """
    _, key, instance, ordinals = msg
    batches = payloads[key]
    if ordinals is not None:
        chunk_size = key[4]  # batches_payload_key carries the chunk size
        batches = gather_batches(batches, ordinals, chunk_size)
    return fold_chunks(instance, batches)


def _run_chunk_uda_state(payloads: dict, msg: tuple) -> Any:
    """initialize + transition_chunk over this worker's assigned chunk ids.

    The payload is the table's cached columnar chunk list (shipped pickled
    once per table version); the message carries only chunk ordinals, so a
    per-epoch loss/accuracy pass costs one small message per worker.
    """
    _, key, instance, chunk_ids = msg
    batches = payloads[key]
    return fold_chunks(instance, (batches[int(chunk_id)] for chunk_id in chunk_ids))


def _run_generic_uda_state(payloads: dict, msg: tuple) -> Any:
    """initialize + transition over raw rows, for passes the chunk plane cannot serve.

    The payload is the table's raw row block; the message ships the pickled
    aggregate instance, the argument expression and any scalar UDFs it
    references, so built-in SQL aggregates (SUM/AVG/STDDEV/...) parallelise
    without a decoding task, and task-backed aggregates decode each row in
    their own ``transition``.
    """
    _, key, instance, argument, ordinals, functions = msg
    return fold_rows(instance, payloads[key], ordinals, argument, functions)


def _apply_extend(payloads: dict, key: tuple, mode: str, delta: Any) -> None:
    """Extend a resident payload in place with a shipped delta.

    Every mode carries the *start* position the delta applies at, so a replay
    (after a retried shipment) truncates back to the base before re-extending
    — applying a chain of deltas in ascending version order is idempotent.

    * ``examples_extend`` — payload is ``(examples, task)``; new decoded
      examples append to the examples list.
    * ``list_extend`` — payload is a plain list (raw row blocks); new items
      append.
    * ``batches_tail`` — payload is a columnar chunk list; the tail from
      ``start`` (the first chunk the append touched) is replaced with the
      re-chunked tail.
    """
    start, items = delta
    resident = payloads[key]
    if mode == "examples_extend":
        target = resident[0]
        del target[start:]
        target.extend(items)
    elif mode == "list_extend":
        del resident[start:]
        resident.extend(items)
    elif mode == "batches_tail":
        resident[start:] = items
    else:
        raise ExecutionError(f"unknown payload extend mode {mode!r}")


def _worker_main(
    conn, lock, worker_index: int = 0, faults: "tuple[FaultPlan, ...]" = ()
) -> None:
    """Long-lived worker loop: cache payloads, run epochs, return states."""
    payloads: dict = {}
    #: Per-key shared-memory mappings backing paged payloads' views; released
    #: when the payload is replaced or dropped so the pages' physical memory
    #: is returned as soon as the last attachment goes away.
    page_handles: dict = {}
    injector = FaultInjector(plans=faults, worker=worker_index) if faults else None
    # Workers forked after us inherit our command pipe's parent end, so a
    # SIGKILLed engine does not reliably EOF every pipe (siblings keep each
    # other's ends alive).  Orphaning is therefore detected by re-parenting:
    # when idle, a worker whose parent changed exits on its own — this is
    # what keeps a whole-process crash from leaving stray workers behind.
    supervisor_pid = os.getppid()
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != supervisor_pid:  # pragma: no cover - crash path
                    break
                continue
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
            break
        op = msg[0]
        try:
            if injector is not None:
                injector.before(op)
            if op == "stop":
                conn.send(("ok", None))
                break
            if op == "ping":
                conn.send(("ok", os.getpid()))
            elif op == "load":
                old_handles = page_handles.pop(msg[1], None)
                payloads.pop(msg[1], None)
                handles: list = []
                payloads[msg[1]] = _decode_payload(msg[2], handles)
                if handles:
                    page_handles[msg[1]] = handles
                _release_page_handles(old_handles)
                conn.send(("ok", None))
            elif op == "extend":
                # Delta pages attach *beside* the base's mappings: the
                # resident payload keeps views into both until replaced.
                handles = page_handles.setdefault(msg[1], [])
                _apply_extend(payloads, msg[1], msg[2], _decode_payload(msg[3], handles))
                if not handles:
                    page_handles.pop(msg[1], None)
                conn.send(("ok", None))
            elif op == "drop":
                payloads.pop(msg[1], None)
                _release_page_handles(page_handles.pop(msg[1], None))
                conn.send(("ok", None))
            elif op == "uda_state":
                conn.send(("ok", _run_uda_state(payloads, msg)))
            elif op == "chunk_uda":
                conn.send(("ok", _run_chunk_uda_state(payloads, msg)))
            elif op == "generic_uda":
                conn.send(("ok", _run_generic_uda_state(payloads, msg)))
            elif op == "shmem_epoch":
                conn.send(("ok", _run_shmem_epoch(payloads, lock, msg[1])))
            else:
                conn.send(("err", f"unknown worker command {op!r}"))
        except Exception:  # noqa: BLE001 - forwarded to the parent verbatim
            conn.send(("err", traceback.format_exc()))


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------
_LIVE_POOLS: "weakref.WeakSet[ProcessWorkerPool]" = weakref.WeakSet()


class _PayloadRecord:
    """Pickled payload bytes for one key: a base plus an append-delta chain.

    ``base_bytes`` is the full payload pickled at ``base_version``;
    ``deltas`` is an ordered chain of ``(to_version, mode, delta_bytes)``
    entries, each advancing the payload from the previous entry's version.
    A respawned worker is replayed the base and then the chain in order —
    exactly the bytes the original shipments used.  ``base_version`` is
    ``None`` for unversioned payloads (no delta shipping, no chain).

    Under page transport the shipped bytes are only descriptors: ``pages``
    pins the parent-side :class:`~repro.db.shared_memory.ChunkPageSet`
    handles (base plus deltas) alive so those descriptors stay resolvable —
    a respawn replay re-attaches the same pages.  ``base_kind`` /
    ``delta_kinds`` record which transport each shipment used, for the
    pool's byte accounting.
    """

    __slots__ = ("base_version", "base_bytes", "deltas", "pages", "base_kind", "delta_kinds")

    def __init__(
        self,
        base_version: "int | None",
        base_bytes: bytes,
        *,
        pages: "ChunkPageSet | None" = None,
        kind: str = "pickle",
    ):
        self.base_version = base_version
        self.base_bytes = base_bytes
        self.deltas: list[tuple[int, str, bytes]] = []
        self.pages: list = [pages] if pages is not None else []
        self.base_kind = kind
        self.delta_kinds: list[str] = []

    def free_pages(self) -> None:
        """Unlink every page set this record pinned.  Idempotent."""
        for pages in self.pages:
            pages.free()
        self.pages.clear()

    @property
    def version(self) -> "int | None":
        """The version the base + full chain reconstructs."""
        return self.deltas[-1][0] if self.deltas else self.base_version

    def chain_versions(self) -> list:
        """Every version a worker may legitimately be resident at."""
        return [self.base_version] + [to_version for to_version, _, _ in self.deltas]


@atexit.register
def _close_pools_at_exit() -> None:  # pragma: no cover - exercised at interpreter exit
    for pool in list(_LIVE_POOLS):
        pool.close()


class ProcessWorkerPool:
    """A persistent pool of forked worker processes over pipes.

    Workers inherit the publication :attr:`lock` (created before the fork)
    and cache example payloads by key, so an epoch costs one small message
    per worker.  The pool is a context manager and is also swept at
    interpreter exit; :meth:`close` is idempotent.
    """

    #: Per-worker deadline for the close() drain: a hung worker gets this
    #: long to acknowledge "stop" before being abandoned to terminate().
    drain_timeout = 2.0

    #: Delta-chain length at which a payload record is compacted back to a
    #: single full base (re-built and re-pickled once).  Bounds both the
    #: parent-side byte registry and the worst-case respawn replay under
    #: long streaming runs.
    max_delta_chain = 64

    def __init__(
        self,
        workers: int,
        *,
        faults: "tuple[FaultPlan, ...]" = (),
        transport: "str | None" = None,
    ):
        if workers <= 0:
            raise ExecutionError("process pool needs at least one worker")
        self.workers = workers
        self._ctx = fork_context()
        self._faults = tuple(faults)
        #: Payload transport: ``auto``/``pages`` page dense arrays through
        #: ``/dev/shm``, ``pickle`` ships full pickled bytes (the PR-4 wire
        #: format).  ``None`` reads ``REPRO_PAYLOAD_TRANSPORT``.
        self.transport = resolve_payload_transport() if transport is None else transport
        if self.transport not in PAYLOAD_TRANSPORTS:
            raise ExecutionError(
                f"unknown payload transport {self.transport!r}; "
                f"expected one of {PAYLOAD_TRANSPORTS}"
            )
        #: Transport accounting: bytes that crossed pipes per transport kind,
        #: bytes resident in published pages, publication (encode+copy)
        #: seconds, payload counts and ``/dev/shm``-exhaustion fallbacks.
        self.transport_stats: dict[str, Any] = {
            "transport": self.transport,
            "page_payloads": 0,
            "pickle_payloads": 0,
            "page_fallbacks": 0,
            "page_bytes": 0,
            "pages_bytes_shipped": 0,
            "pickle_bytes_shipped": 0,
            "publish_seconds": 0.0,
        }
        #: Publication lock shared by every worker (inherited through fork).
        self.lock = self._ctx.Lock()
        self._conns = []
        self._procs = []
        self._closed = False
        #: Resident payload version per (worker, key) — ``None`` for
        #: unversioned payloads, the table version the worker's copy
        #: reconstructs for versioned ones.
        self._loaded: dict[tuple[int, tuple], "int | None"] = {}
        #: Pins id()-keyed payload keys' objects for the pool's lifetime.
        self._pins: dict[tuple, Any] = {}
        #: Pickled payload records by key (base bytes + append-delta chain),
        #: kept so a respawned worker can be replayed its payloads without
        #: re-building or re-pickling anything.
        self._payload_bytes: dict[tuple, _PayloadRecord] = {}
        #: Op currently awaiting a reply, per worker (empty when quiescent).
        self._inflight: dict[int, str] = {}
        # Start the shared-memory resource tracker *before* forking: workers
        # then inherit it, so their attachments register with the parent's
        # tracker (a set-level no-op) instead of each spawning a private
        # tracker that would warn about "leaked" segments at exit.
        try:  # pragma: no cover - tracker internals
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        for index in range(workers):
            parent_conn, process = self._spawn_worker(index)
            self._conns.append(parent_conn)
            self._procs.append(process)
        _LIVE_POOLS.add(self)

    def _spawn_worker(self, index: int, *, faults: "tuple[FaultPlan, ...] | None" = None):
        """Fork one worker inheriting the current lock; returns (conn, proc).

        ``faults`` defaults to the pool's configured plans; a supervisor
        respawning a dead worker passes ``()`` so an injected fault cannot
        starve its own recovery.
        """
        faults = self._faults if faults is None else faults
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.lock, index, faults),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    # ------------------------------------------------------------- messaging
    def _gather(self, workers: Sequence[int]) -> dict[int, Any]:
        """Drain one reply from every listed worker, then raise on failures.

        Draining *before* raising is what keeps this persistent pool usable
        after a worker-side exception: a worker that reported an error has
        already produced its reply, so every later command still pairs one
        send with one recv.  A worker that died mid-command breaks that
        invariant permanently, so the pool closes itself instead of serving
        stale buffered replies to the next caller.
        """
        replies: dict[int, Any] = {}
        failures: list[str] = []
        dead: list[int] = []
        for worker in workers:
            try:
                status, value = self._conns[worker].recv()
            except (EOFError, OSError):
                dead.append(worker)
                failures.append(
                    f"worker {worker} died (exit code {self._procs[worker].exitcode})"
                )
                continue
            finally:
                self._inflight.pop(worker, None)
            if status != "ok":
                failures.append(f"worker {worker} failed:\n{value}")
                continue
            replies[worker] = value
        if dead:
            self.close()
            raise WorkerDiedError(
                "process-backend " + "; ".join(failures),
                recoverable=False,
                workers=tuple(dead),
            )
        if failures:
            raise ExecutionError("process-backend " + "; ".join(failures))
        return replies

    def run(self, messages: Mapping[int, tuple]) -> dict[int, Any]:
        """Scatter one message per worker, gather every reply.

        All messages are sent before any reply is read, so workers execute
        concurrently; replies are collected in worker order, which is what
        keeps merge order deterministic.  Messages are pickled *before* the
        first send: an unpicklable aggregate or expression fails cleanly
        instead of desyncing the pipe protocol halfway through a scatter.
        """
        if self._closed:
            raise ExecutionError("process pool is closed")
        encoded: dict[int, bytes] = {}
        for worker, message in messages.items():
            try:
                encoded[worker] = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as error:
                raise ExecutionError(
                    f"process-backend message for worker {worker} is not picklable "
                    f"({error}); aggregates, expressions and UDFs shipped to the "
                    "pool must be module-level (no lambdas or closures)"
                ) from error
        for worker, payload in encoded.items():
            self._inflight[worker] = messages[worker][0]
            self._conns[worker].send_bytes(payload)
        return self._gather(list(messages))

    # ------------------------------------------------------------- transport
    def _encode_payload(self, payload: Any) -> "tuple[bytes, ChunkPageSet | None, str]":
        """Encode one payload for shipment: ``(wire_bytes, pages, kind)``.

        Under ``auto``/``pages`` the payload's dense arrays are published
        once into a shared-memory page block and the wire bytes carry only
        the descriptor plus the pickled skeleton; payloads with no dense
        arrays — and every payload when ``/dev/shm`` allocation fails —
        degrade to plain pickled bytes (``kind == "pickle"``).
        """
        stats = self.transport_stats
        start = time.perf_counter()
        if self.transport != "pickle":
            buffer = io.BytesIO()
            pickler = _PagingPickler(buffer)
            pickler.dump(payload)
            if pickler.arrays:
                try:
                    pages = ChunkPageSet.publish(pickler.arrays)
                except OSError:
                    # /dev/shm exhausted or unavailable: fall back to pickled
                    # transport for this payload (first rung of the ladder).
                    stats["page_fallbacks"] += 1
                else:
                    data = pickle.dumps(
                        _PagedPayload(pages.descriptor, buffer.getvalue()),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    stats["page_payloads"] += 1
                    stats["page_bytes"] += pages.nbytes
                    stats["publish_seconds"] += time.perf_counter() - start
                    return data, pages, "pages"
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        stats["pickle_payloads"] += 1
        stats["publish_seconds"] += time.perf_counter() - start
        return data, None, "pickle"

    def _store_record(self, key: tuple, version: "int | None", payload: Any) -> _PayloadRecord:
        """Encode a fresh base record for ``key``, freeing the one it replaces.

        Freeing the replaced record's pages only unlinks the ``/dev/shm``
        names — workers still resident on the old payload keep their
        mappings alive until the new shipment lands.
        """
        data, pages, kind = self._encode_payload(payload)
        record = _PayloadRecord(version, data, pages=pages, kind=kind)
        old = self._payload_bytes.get(key)
        if old is not None:
            old.free_pages()
        self._payload_bytes[key] = record
        return record

    def _count_shipped(self, kind: str, nbytes: int, workers: int) -> None:
        field = "pages_bytes_shipped" if kind == "pages" else "pickle_bytes_shipped"
        self.transport_stats[field] += nbytes * workers

    def ensure_loaded(
        self,
        worker_ids: Iterable[int],
        key: tuple,
        build: Callable[[], Any],
        *,
        pin: Any = None,
        version: "int | None" = None,
        extend: "Callable[[int], tuple[str, Any] | None] | None" = None,
    ) -> None:
        """Ship a payload to the given workers unless they already hold it.

        The payload is built and pickled **once** per key, then sent to every
        missing worker — this is the "pickled-once chunk payload" contract:
        a table decode crosses the process boundary exactly once, and later
        epochs address it by key.  ``pin`` keeps any id()-keyed object in the
        key alive for the pool's lifetime.

        With ``version`` (the table version the payload reflects) and
        ``extend``, the payload becomes **delta-shippable**: a worker already
        resident at an older version of the key receives only the delta that
        advances it.  ``extend(from_version)`` returns ``(mode, delta)`` — a
        worker-side :func:`_apply_extend` mode plus its payload — or ``None``
        when the range is not append-only, which falls back to a full
        reshipment under the same key (also what bounds worker memory under
        rewrites: the resident payload is *replaced*, not accumulated
        beside).
        """
        if self._closed:
            raise ExecutionError("process pool is closed")
        worker_ids = list(worker_ids)
        if pin is not None:
            self._pins[key] = pin
        record = self._payload_bytes.get(key)
        if version is None:
            # Unversioned payload: key identity fully determines content.
            missing = [w for w in worker_ids if (w, key) not in self._loaded]
            if not missing:
                return
            if record is None:
                record = self._store_record(key, None, build())
            self._ship(missing, key, ("load", key, record.base_bytes), "load", None)
            self._count_shipped(record.base_kind, len(record.base_bytes), len(missing))
            return
        pending = [w for w in worker_ids if self._loaded.get((w, key), -1) != version]
        if not pending:
            return
        # Advance the parent-side record to the requested version first.
        if record is not None and record.version != version:
            delta = extend(record.version) if extend is not None else None
            if delta is None:
                record = None  # rewrite (or no delta builder): rebuild below
            else:
                mode, payload = delta
                delta_bytes, delta_pages, delta_kind = self._encode_payload(payload)
                record.deltas.append((version, mode, delta_bytes))
                record.delta_kinds.append(delta_kind)
                if delta_pages is not None:
                    record.pages.append(delta_pages)
                if len(record.deltas) > self.max_delta_chain:
                    # Compact: one fresh full pickle replaces the chain.
                    # Workers resident at `version` stay resident — their
                    # incrementally-extended copies are bit-for-bit the full
                    # payload; workers parked at intermediate versions get a
                    # full reshipment on their next use.
                    record = None
        if record is None:
            record = self._store_record(key, version, build())
        # Ship the base to workers holding nothing (or an off-chain copy),
        # then walk the delta chain, advancing every worker behind each step.
        chain = set(record.chain_versions())
        base_targets = [
            w for w in pending if self._loaded.get((w, key), -1) not in chain
        ]
        if base_targets:
            self._ship(
                base_targets, key, ("load", key, record.base_bytes), "load",
                record.base_version,
            )
            self._count_shipped(
                record.base_kind, len(record.base_bytes), len(base_targets)
            )
        for depth, (to_version, mode, delta_bytes) in enumerate(record.deltas):
            targets = [
                w for w in pending if self._loaded[(w, key)] < to_version
            ]
            if targets:
                self._ship(
                    targets, key, ("extend", key, mode, delta_bytes), "extend",
                    to_version,
                )
                self._count_shipped(
                    record.delta_kinds[depth], len(delta_bytes), len(targets)
                )

    def _ship(
        self,
        workers: Sequence[int],
        key: tuple,
        message: tuple,
        op: str,
        version: "int | None",
    ) -> None:
        """Send one payload message to every listed worker and gather.

        Residency is recorded per worker *after* its reply round succeeds, so
        an aborted shipment (worker death mid-round) leaves the casualties
        unrecorded — the retried pass re-ships them from the byte registry.
        """
        for worker in workers:
            self._inflight[worker] = op
            self._conns[worker].send(message)
        self._gather(list(workers))
        for worker in workers:
            self._loaded[(worker, key)] = version

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the workers and reap the processes.  Idempotent.

        State registries are cleared *first*: close() can be triggered from
        inside ``_gather`` (a worker died mid-command), and the raised
        :class:`WorkerDiedError` may be caught by a caller that then inspects
        the pool — it must see the pool as empty, not as still holding
        payloads on workers that no longer exist.  The drain is
        deadline-bounded (:attr:`drain_timeout` per worker): a hung worker
        never acknowledges "stop", and an unbounded ``recv()`` here would turn
        one stuck worker into a stuck parent.
        """
        if self._closed:
            return
        self._closed = True
        self._pins.clear()
        self._loaded.clear()
        # Unlink every page set pinned by payload records: the names vanish
        # from /dev/shm now, worker mappings die with the workers below.
        for record in self._payload_bytes.values():
            record.free_pages()
        self._payload_bytes.clear()
        self._inflight.clear()
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover - worker died
                pass
        for conn in self._conns:
            try:
                if conn.poll(self.drain_timeout):
                    conn.recv()
            except (EOFError, OSError):  # pragma: no cover - worker died
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return f"ProcessWorkerPool(workers={self.workers}, {state})"


# ---------------------------------------------------------------------------
# Payload keys (worker-side caches, shipped pickled-once per key)
# ---------------------------------------------------------------------------
# Keys are deliberately version-*less*: a key addresses "this table decoded
# this way", and the pool's residency registry tracks which version each
# worker's copy reflects.  Appends advance resident payloads with deltas;
# rewrites *replace* them under the same key — so worker memory is bounded by
# the number of live (table, decoder) pairs, not by mutation count.  The
# table's id() is part of the key (and the table is pinned) so a
# dropped-and-recreated table of the same name can never alias a stale
# resident payload.
def payload_key(table: Table, decoder: Any) -> tuple:
    """Worker-side payload key for one (table, decoding task) pair."""
    return ("examples", table.name, id(table), id(decoder))


def batches_payload_key(
    table: Table, decoder: Any, chunk_size: int, dtype: str = "float64"
) -> tuple:
    """Worker-side payload key for one table's cached columnar chunk list."""
    return ("batches", table.name, id(table), id(decoder), chunk_size, dtype)


def rows_payload_key(table: Table) -> tuple:
    """Worker-side payload key for one table's raw row block."""
    return ("rows", table.name, id(table))


def examples_delta_builder(
    table: Table, decoder: Any, cache: "ExampleCache"
) -> Callable[[int], "tuple[str, Any] | None"]:
    """Delta builder for decoded-example payloads (``examples_extend``).

    Resolves the (already extended) example list through the shared chunk
    plane and ships only the rows past the worker's resident version.
    """

    def extend(from_version: int) -> "tuple[str, Any] | None":
        delta = table.classify_delta(from_version)
        if not delta.is_append:
            return None
        examples = cache.examples_for(table, decoder)
        if len(examples) != delta.base_rows + delta.rows_added:
            return None
        return ("examples_extend", (delta.base_rows, examples[delta.base_rows:]))

    return extend


# ---------------------------------------------------------------------------
# Partitioned mergeable UDA (pure-UDA parallelism / Executor backend)
# ---------------------------------------------------------------------------
def _load_batches(
    pool: ProcessWorkerPool,
    workers: Iterable[int],
    table: Table,
    decoder: Any,
    batches: list,
    chunk_size: int,
    dtype: str,
) -> tuple:
    """Make ``table``'s cached chunk list resident on ``workers``; returns its key.

    Shipped once per table version; an append ships only the re-chunked tail
    from the first chunk it touched (``batches_tail``).
    """

    def extend_batches(from_version: int) -> "tuple[str, Any] | None":
        delta = table.classify_delta(from_version)
        if not delta.is_append:
            return None
        # The first chunk the append touched: the resident partial tail (if
        # any) plus every chunk after it are replaced with the re-chunked
        # tail of the extended plan.
        start = delta.base_rows // chunk_size
        return ("batches_tail", (start, batches[start:]))

    key = batches_payload_key(table, decoder, chunk_size, dtype)
    pool.ensure_loaded(
        workers, key, lambda: batches, pin=(table, decoder),
        version=table.version, extend=extend_batches,
    )
    return key


def _load_rows(pool: ProcessWorkerPool, workers: Iterable[int], table: Table) -> tuple:
    """Make ``table``'s raw row block resident on ``workers``; returns its key."""

    def extend_rows(from_version: int) -> "tuple[str, Any] | None":
        delta = table.classify_delta(from_version)
        if not delta.is_append:
            return None
        from .types import Row

        schema = table.schema
        new_rows = [Row(schema, values) for values in table.tail_values(delta.base_rows)]
        if len(new_rows) != delta.rows_added:
            return None
        return ("list_extend", (delta.base_rows, new_rows))

    key = rows_payload_key(table)
    pool.ensure_loaded(
        workers, key, table.to_rows, pin=table,
        version=table.version, extend=extend_rows,
    )
    return key


def run_partitioned_uda(
    executor: "Executor",
    pool: ProcessWorkerPool,
    parts: "Sequence[tuple[Table, UserDefinedAggregate, np.ndarray | None]]",
    *,
    argument=None,
    execution: str = "auto",
) -> list:
    """Run one UDA instance per (table, instance, ordinals) part, one part per worker.

    Returns the raw per-part states in part order (the caller merges).
    ``ordinals`` selects and orders the part's rows (``None``: every row in
    heap order).  :meth:`Executor.partition_batches` picks each part's
    strategy, as for the serial reference runner: **gathered chunk parts**
    (the worker gathers the ordinals out of the resident chunk list and folds
    ``transition_chunk``) or **raw rows** (it folds ``transition`` over the
    resident row block, with the argument expression and its scalar UDFs).
    """
    if len(parts) > pool.workers:
        raise ExecutionError(
            f"{len(parts)} partitions need at least as many pool workers "
            f"(pool has {pool.workers})"
        )
    functions: dict[str, Callable] = {}
    if argument is not None:
        for name in sorted(argument.referenced_functions()):
            if name in executor.functions:
                functions[name] = executor.functions[name]
    messages: dict[int, tuple] = {}
    for worker, (table, instance, ordinals) in enumerate(parts):
        batches = executor.partition_batches(table, instance, execution)
        if batches is not None:
            key = _load_batches(
                pool, [worker], table, instance.chunk_decoder, batches,
                executor.chunk_size, executor.compute_dtype,
            )
            messages[worker] = ("uda_state", key, instance, ordinals)
        else:
            if ordinals is None:
                ordinals = np.arange(len(table), dtype=np.intp)
            key = _load_rows(pool, [worker], table)
            messages[worker] = ("generic_uda", key, instance, argument, ordinals, functions)
    states = pool.run(messages)
    return [states[worker] for worker in sorted(states)]


def run_process_aggregate(
    executor: "Executor",
    table: Table,
    instance: "UserDefinedAggregate",
    *,
    pool: ProcessWorkerPool,
    where=None,
    row_order: Sequence[int] | None = None,
    workers: int | None = None,
    argument=None,
    execution: str = "auto",
) -> Any:
    """Run one mergeable aggregate over round-robin partitions of a table.

    The partition contract is :func:`partition_round_robin` over the visit
    ordinals — the same layout the segmented engine uses — so the result is
    bit-for-bit identical to a :class:`~repro.db.parallel.SegmentedDatabase`
    run with ``num_segments == pool.workers``.  ``workers`` caps the fan-out
    below the pool size (a compiled :class:`~repro.db.pass_plan.PassPlan`
    carries the requested width).

    Whole-table scalar reductions that declare ``chunk_partitionable`` (loss,
    accuracy) deal **whole cached chunks** to workers
    (:func:`run_process_chunk_aggregate`).  Every other pass splits its visit
    ordinals round-robin and runs the parts through
    :func:`run_partitioned_uda`: **gathered chunk parts** where the chunk
    plane serves the pass, **raw rows** where it does not.
    """
    if not instance.supports_merge:
        raise ExecutionError(
            f"aggregate {type(instance).__name__} does not support merge; "
            "the process backend requires an algebraic (mergeable) aggregate"
        )
    if (
        instance.chunk_partitionable
        and instance.supports_chunks
        and where is None
        and row_order is None
    ):
        outcome = run_process_chunk_aggregate(
            executor, table, instance, pool=pool, workers=workers
        )
        if outcome is not _NO_CHUNK_PLAN:
            return outcome
    ordinals = resolve_ordinals(table, executor.example_cache, executor.functions, where, row_order)
    if ordinals is None:
        ordinals = np.arange(len(table), dtype=np.intp)
    width = _effective_workers(pool, workers, ordinals.shape[0])
    # One logical scan of the table's data, exactly like the serial paths.
    table.scan_count += 1
    parts = []
    for part in split_round_robin(ordinals, width):
        # partition_round_robin assignment: ordinal position i -> worker i % w.
        executor._charge_overhead(instance.state_passing_units)
        parts.append((table, instance, part))
    states = run_partitioned_uda(
        executor, pool, parts, argument=argument, execution=execution
    )
    return merge_partial_states(instance, states)


#: Sentinel: the chunk-partitioned path could not resolve a chunk plan.
_NO_CHUNK_PLAN = object()


def _effective_workers(pool: ProcessWorkerPool, workers: int | None, items: int) -> int:
    width = pool.workers if workers is None else min(workers, pool.workers)
    return max(1, min(width, items) if items else 1)


def run_process_chunk_aggregate(
    executor: "Executor",
    table: Table,
    instance: "UserDefinedAggregate",
    *,
    pool: ProcessWorkerPool,
    workers: int | None = None,
) -> Any:
    """Chunk-partitioned scalar pass: whole cached chunks fan out to workers.

    The cached columnar chunk list is shipped pickled-once per table version
    (the same payload the gathered-part passes use); per-epoch messages carry
    chunk ordinals only.  Worker ``w`` runs ``transition_chunk`` over chunks
    ``w::width`` in ascending order and the parent merges the scalar partials
    left-to-right — bit-for-bit the serial reference runner
    (:meth:`Executor.run_chunk_partitioned`) on the same width.
    """
    plan = executor.chunk_plan(table, instance)
    if plan is None:
        return _NO_CHUNK_PLAN
    batches = plan.batches
    width = _effective_workers(pool, workers, len(batches))
    key = _load_batches(
        pool, range(width), table, instance.chunk_decoder, batches,
        executor.chunk_size, executor.compute_dtype,
    )
    table.scan_count += 1
    messages: dict[int, tuple] = {}
    for worker in range(width):
        executor._charge_overhead(instance.state_passing_units)
        messages[worker] = (
            "chunk_uda", key, instance, np.arange(worker, len(batches), width, dtype=np.intp)
        )
    states = pool.run(messages)
    return merge_partial_states(instance, [states[worker] for worker in sorted(states)])


# ---------------------------------------------------------------------------
# Shared-memory epoch on real worker processes (the measured Figure 9B path)
# ---------------------------------------------------------------------------
def run_process_shared_memory_epoch(
    table: Table,
    task,
    model: "Model",
    step_size,
    *,
    spec: SharedMemoryParallelism,
    pool: ProcessWorkerPool,
    arena: SharedMemoryArena,
    cache: "ExampleCache",
    epoch: int = 0,
    step_offset: int = 0,
    proximal=None,
    row_order: Sequence[int] | None = None,
    segment_name: str = "bismarck_model",
    charge_per_worker: Callable[[], Any] | None = None,
) -> "tuple[Model, int]":
    """One epoch of shared-memory IGD on real OS worker processes.

    The model lives in an arena segment (an mmap'd ``/dev/shm`` block); each
    worker attaches to it by OS name and races per the scheme: ``nolock``
    publishes genuinely unsynchronised deltas (Hogwild), ``aig`` publishes
    under a brief critical section (batched per-component atomics), ``lock``
    holds the lock across the whole read-compute-write cycle.  Examples come
    from the shared chunk-plane cache, shipped to the pool pickled-once per
    table version; a logical ``row_order`` re-partitions the permuted ordinal
    sequence with the same round-robin contract as the cooperative runner.

    Results are **not** deterministic — real races are the entire point — so
    callers pin convergence with objective-band assertions, never equality.
    """
    from ..core.proximal import IdentityProximal
    from ..core.stepsize import make_schedule

    schedule = make_schedule(step_size)
    proximal = proximal if proximal is not None else task.proximal or IdentityProximal()

    examples = cache.examples_for(table, task)
    table.scan_count += 1
    num_examples = len(examples)
    if num_examples == 0:
        return model, 0

    staleness = spec.effective_staleness()
    order = None
    if row_order is not None:
        order = np.asarray(row_order, dtype=np.intp)
    # The logical sequence is the order list itself (which may visit only a
    # subset of rows — partial_fit's delta epochs do); without one it is the
    # whole table.  Round-robin partitioning runs over logical positions,
    # matching the cooperative in-process runner.
    total_positions = len(order) if order is not None else num_examples
    if total_positions == 0:
        return model, 0
    workers = min(spec.workers, total_positions, pool.workers)

    key = payload_key(table, task)
    pool.ensure_loaded(
        range(workers), key, lambda: (examples, task), pin=(table, task),
        version=table.version, extend=examples_delta_builder(table, task, cache),
    )

    if arena.exists(segment_name):
        arena.free(segment_name)
    segment = arena.allocate_from(segment_name, model.as_flat_vector())
    try:
        messages: dict[int, tuple] = {}
        for worker in range(workers):
            global_ordinals = np.arange(worker, total_positions, workers, dtype=np.intp)
            example_ordinals = order[global_ordinals] if order is not None else global_ordinals
            if charge_per_worker is not None:
                charge_per_worker()
            messages[worker] = (
                "shmem_epoch",
                {
                    "key": key,
                    "os_name": segment.os_name,
                    "shape": segment.shape,
                    "scheme": spec.scheme,
                    "global_ordinals": global_ordinals,
                    "example_ordinals": example_ordinals,
                    "schedule": schedule,
                    "proximal": proximal,
                    "epoch": epoch,
                    "step_offset": step_offset,
                    "staleness": staleness,
                    "model_template": model.zeros_like(),
                },
            )
        results = pool.run(messages)
        steps_taken = int(sum(results.values()))
        model.load_flat_vector(segment.array)
    finally:
        arena.free(segment_name)
    return model, steps_taken
