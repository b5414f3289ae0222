"""One partition routine for pure-UDA passes on every backend.

The contract under test:

* process workers fold **cached chunks** — the segment's chunk list, gathered
  into the part's visit order — never per-row decoded examples, so a task
  whose per-row ``gradient_step`` is unusable still trains on the process
  backend, bit-for-bit with the in-process segments;
* passes the chunk plane cannot serve (generic SQL aggregates, tasks without
  batches) fold **raw rows** on the workers, so they keep process support
  and match the in-process segmented engine;
* segmented training honours ``IGDConfig(compute_dtype="float32")`` on both
  backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import IGDConfig, train
from repro.core.parallel import PureUDAParallelism
from repro.core.uda import IGDAggregate
from repro.data import load_classification_table, make_dense_classification
from repro.db import ExecutionError, SegmentedDatabase
from repro.db.aggregates import SumAggregate
from repro.db.expressions import BinaryOp, ColumnRef, Literal
from repro.tasks.logistic_regression import LogisticRegressionTask

pytestmark = pytest.mark.backends


class ChunkOnlyLogisticRegression(LogisticRegressionTask):
    """LR whose per-row gradient step is unusable: only chunk kernels work."""

    def gradient_step(self, model, example, alpha):
        raise AssertionError("per-row gradient_step called")


class RowOnlyLogisticRegression(LogisticRegressionTask):
    """LR that offers no chunk plane: every pass must run on raw rows."""

    supports_batches = False


@pytest.fixture(scope="module")
def dataset():
    return make_dense_classification(150, 8, seed=4)


def make_segmented(dataset, segments: int = 3) -> SegmentedDatabase:
    database = SegmentedDatabase(segments, "dbms_b", seed=0)
    load_classification_table(database, "pts", dataset.examples, sparse=False)
    # Several chunks per segment, so gathers cross chunk boundaries.
    database.master.executor.chunk_size = 16
    return database


def train_segmented(dataset, task, backend: str, **config):
    with make_segmented(dataset) as database:
        return train(
            task,
            database,
            "pts",
            config=IGDConfig(
                max_epochs=3,
                ordering="shuffle_once",
                seed=0,
                parallelism=PureUDAParallelism(backend=backend),
                **config,
            ),
        ), database.master.executor.example_cache.decoded_rows


class TestGenericAggregatesOnProcessSegments:
    @pytest.mark.parametrize("filtered", [False, True], ids=["all", "where"])
    def test_sum_matches_in_process(self, dataset, filtered):
        where = BinaryOp("<", ColumnRef("id"), Literal(100)) if filtered else None
        with make_segmented(dataset) as database:
            values = {
                backend: database.run_parallel_aggregate(
                    "pts", SumAggregate, "id", where=where, backend=backend
                )
                for backend in ("in_process", "process")
            }
        assert values["process"].value == values["in_process"].value
        assert values["process"].value == sum(range(100 if filtered else len(dataset.examples)))
        assert values["process"].merges == values["in_process"].merges == 2


class TestProcessWorkersFoldChunks:
    def test_chunk_only_task_trains_on_process_segments(self, dataset):
        task = ChunkOnlyLogisticRegression(dataset.dimension)
        in_process, _ = train_segmented(dataset, task, "in_process")
        process, _ = train_segmented(dataset, task, "process")
        assert np.array_equal(
            in_process.model.as_flat_vector(), process.model.as_flat_vector()
        )

    def test_task_without_batches_runs_on_raw_rows(self, dataset):
        task = RowOnlyLogisticRegression(dataset.dimension)
        in_process, _ = train_segmented(dataset, task, "in_process")
        process, decoded = train_segmented(dataset, task, "process")
        assert np.array_equal(
            in_process.model.as_flat_vector(), process.model.as_flat_vector()
        )
        # Workers decode the rows in the aggregate's own transition: the
        # parent never builds a decoded-example list for them.
        assert decoded == 0
        assert process.objective_trace() == pytest.approx(
            in_process.objective_trace(), rel=1e-12
        )

    def test_chunked_request_raises_without_chunk_plane(self, dataset):
        task = RowOnlyLogisticRegression(dataset.dimension)
        with make_segmented(dataset) as database:
            with pytest.raises(ExecutionError, match="cannot run chunked"):
                database.run_parallel_aggregate(
                    "pts", lambda: IGDAggregate(task, 0.1),
                    execution="chunked", backend="process",
                )


class TestSegmentedComputeDtype:
    def test_float32_is_honoured_and_backends_agree(self, dataset):
        task = LogisticRegressionTask(dataset.dimension)
        vectors = {}
        for dtype in ("float64", "float32"):
            for backend in ("in_process", "process"):
                run, _ = train_segmented(dataset, task, backend, compute_dtype=dtype)
                vectors[dtype, backend] = run.model.as_flat_vector()
        assert np.array_equal(vectors["float32", "in_process"], vectors["float32", "process"])
        assert np.array_equal(vectors["float64", "in_process"], vectors["float64", "process"])
        assert not np.array_equal(vectors["float32", "in_process"], vectors["float64", "in_process"])
        assert np.allclose(
            vectors["float32", "in_process"], vectors["float64", "in_process"], atol=1e-4
        )
