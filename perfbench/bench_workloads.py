"""The benchmark's three workloads, each a closed loop with one client.

Every workload generates its rows from the seed, computes its own reference
optimum with numpy, sets the program up several times (the median is
``setup_s``), then runs jobs back to back — the next starts only when the
previous one returned — until both the time budget and the minimum sample
count are met.  Outputs are checked after every job; a failed check or an
exception counts as a failed operation.

The library is driven only through ``Database`` / ``Database.open``,
``BismarckRunner.train`` and SQL ``SELECT LRTrain(...)`` after
``install_frontend``.
"""

from __future__ import annotations

import gc
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from bench_layers import (
    add_delta,
    attribute_counts,
    layer_table,
    missing_spans,
    per_layer_metrics,
    program_patches,
)
from bench_stats import (
    bytes_written,
    calibration_loop,
    cpu_seconds,
    live_children,
    median,
    nproc,
    peak_rss_mb,
    peak_rss_of_mb,
    percentile,
    ref_scale,
    samples_for,
    tracker_pid,
)

TABLE = "points"
MODEL = "m"
COLUMNS = [("id", "integer"), ("vec", "float_array"), ("label", "float")]

#: A run goes on past its time budget until it has this many measured jobs,
#: so that ``job_s.p90`` has ``MIN_TAIL`` samples beyond it.
MIN_JOBS = samples_for(90)

#: ``time_to_target_s`` counts up to the first epoch whose objective is within
#: this share of the numpy optimum.  Over 30 seeds the serial objective gap
#: was 4.1-9.6% after epoch 1 and 0.7-1.4% after epoch 2, so every serial job
#: reaches the target at epoch 2.  Nolock races only slow convergence; its
#: worst jobs (p95 1.8%, max 2.4% after epoch 2, 1.1% after epoch 3, also with
#: a second run loading the host) still reach it, at the latest at epoch 3.
TARGET_TOLERANCE = 0.03
#: Final-objective bands that a job must land in to count as correct.
SERIAL_BAND = 0.01
NOLOCK_BAND = 0.03

#: ``ingest_sql_refresh``: a base table, then rounds that each insert a batch
#: and refresh the model; every ``INGEST_REOPEN_EVERY``-th round reopens the
#: database between the insert and the refresh.
INGEST_BASE_ROWS = 4000
INGEST_DIM = 20
INGEST_BATCH_ROWS = 200
INGEST_ROUNDS = 10
INGEST_REOPEN_EVERY = 4
INGEST_EPOCHS = 3
INGEST_STEP = 0.005
#: The SQL refresh trains on the delta only, so its model drifts a little
#: from the full-table optimum; it must stay within this band.
INGEST_BAND = 0.05

#: name -> unit of every end-to-end metric, in BENCHMARK.json order.
#: ``job_s`` is one training job: ``BismarckRunner.train`` on the ``igd_*``
#: workloads, one ``SELECT LRTrain`` refresh on ``ingest_sql_refresh``.
#: Every time is wall seconds rescaled by the yardstick readings taken just
#: before and after it (``bench_stats.CALIBRATION_REF_S``): the shared host's
#: speed swings by a third within a minute, and the rescaled figures are what
#: stays steady from run to run.  The details line keeps the wall-clock ones.
END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "train_rows_per_s": "rows/s",
    "time_to_target_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class IGDShape:
    rows: int = 8000
    dim: int = 50
    epochs: int = 3
    #: Epoch-decay step schedule (steps 0.02, 0.005, 0.00125).  A constant
    #: 0.1 plateaus far above the optimum.  The large first step and steep
    #: decay keep the epoch-1 and epoch-2 objectives far apart, so the
    #: target tolerance lies between them with room for the nolock races.
    alpha0: float = 0.02
    decay: float = 0.25
    jobs_per_setup: int = 10
    min_jobs: int = MIN_JOBS


@dataclass
class Outcome:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


@dataclass
class RunResult:
    outcome: Outcome
    end_to_end: dict
    details: dict
    per_layer: dict | None = None
    trace_report: dict | None = None


@dataclass
class Samples:
    """Every timing of one run, as wall seconds and as rescaled seconds.

    Each set-up and job is bracketed by two readings of the yardstick,
    ``calibration_loop``, the same on every workload so that rescaled times
    compare across them; wall time times ``ref_scale`` of the two readings
    is the rescaled time.  Traced jobs
    are kept apart: they feed only the tracing-overhead figure.  While a
    worker pool is up (``pool_pids``), the CPU its workers use during the
    readings is summed, so a pool that stays busy between jobs (and would
    slow the yardstick) shows up; and their peak memory counts towards
    ``peak_rss_mb``.
    """

    rows_per_job: int
    min_jobs: int
    setups: list = field(default_factory=list)  # (wall, scale)
    jobs: list = field(default_factory=list)  # (wall, scale, wall to target)
    traced_jobs: list = field(default_factory=list)  # rescaled
    calibrations: list = field(default_factory=list)
    setup_units: list = field(default_factory=list)
    traced_units: list = field(default_factory=list)
    attributes: dict = field(default_factory=dict)
    pool_pids: list = field(default_factory=list)
    pool_idle_cpu_s: float = 0.0
    pool_peak_mb: float = 0.0

    def more(self, outcome: Outcome, begin: float, seconds: float) -> bool:
        if outcome.failed > self.min_jobs:
            return False  # failing every job; stop instead of looping forever
        done = len(self.jobs) + len(self.traced_jobs)
        return time.perf_counter() - begin < seconds or done < self.min_jobs

    def calibrate(self) -> float:
        cpu = cpu_seconds(self.pool_pids)
        value = calibration_loop()
        self.pool_idle_cpu_s += cpu_seconds(self.pool_pids) - cpu
        self.calibrations.append(value)
        return value

    def watch_pool(self) -> None:
        """Take the live children other than the resource tracker as the library's workers."""
        self.pool_pids = [pid for pid in live_children() if pid != tracker_pid()]

    def release_pool(self) -> None:
        """Record the workers' peak memory; call before the pool closes."""
        self.pool_peak_mb = max(self.pool_peak_mb, peak_rss_of_mb(self.pool_pids))
        self.pool_pids = []

    def add_setup(self, wall: float, before: float, after: float, unit: str | None) -> None:
        self.setups.append((wall, ref_scale(before, after)))
        if unit is not None:
            self.setup_units.append(unit)

    def add_job(self, wall: float, before: float, after: float, *,
                to_target: float | None = None, unit: str | None = None) -> None:
        scale = ref_scale(before, after)
        if unit is not None:
            self.traced_units.append(unit)
            self.traced_jobs.append(wall * scale)
        else:
            self.jobs.append((wall, scale, to_target))

    def rescaled_jobs(self) -> list[float]:
        return [wall * scale for wall, scale, _ in self.jobs]

    def end_to_end(self) -> dict:
        jobs = self.rescaled_jobs()
        return {
            "setup_s": median([wall * scale for wall, scale in self.setups]),
            "job_s.p50": percentile(jobs, 50),
            "job_s.p90": percentile(jobs, 90),
            "train_rows_per_s": self.rows_per_job * len(jobs) / sum(jobs),
            "time_to_target_s": median([target * scale for _, scale, target in self.jobs]),
            "peak_rss_mb": peak_rss_mb() + self.pool_peak_mb,
        }

    def wall(self) -> dict:
        """Unscaled wall-clock figures and the yardstick readings, for the details line."""
        jobs = [wall for wall, _, _ in self.jobs]
        q25, q50, q75 = np.percentile(self.calibrations, [25, 50, 75])
        return {
            "wall.setup_s": median([wall for wall, _ in self.setups]),
            "wall.job_s.p50": median(jobs),
            "wall.job_s.p90": float(np.percentile(jobs, 90)),
            "wall.train_rows_per_s": self.rows_per_job * len(jobs) / sum(jobs),
            "wall.time_to_target_s": median([target for _, _, target in self.jobs]),
            "calibration_s.p50": float(q50),
            "calibration_s.iqr_share": float((q75 - q25) / q50),
            "pool_idle_cpu_s": self.pool_idle_cpu_s,
            "pool_peak_rss_mb": self.pool_peak_mb,
        }

    def trace_outputs(self, tracer, workload: str, unit_name: str) -> tuple[dict, dict]:
        missing = missing_spans(workload, tracer.spans)
        if missing:
            raise RuntimeError(f"traced spans never fired on {workload}: {missing}")
        untraced = median(self.rescaled_jobs())
        overhead = median(self.traced_jobs) / untraced - 1.0
        measured = {
            "trace.overhead": overhead,
            "process_backend.idle_cpu_s": self.pool_idle_cpu_s / len(self.calibrations),
        }
        per_layer = per_layer_metrics(
            tracer.spans, self.traced_units, unit_name, self.attributes, measured,
        )
        report = {
            "traced_units": len(self.traced_units),
            "untraced_units": len(self.jobs),
            "traced_job_s.p50": median(self.traced_jobs),
            "untraced_job_s.p50": untraced,
            "tracing_overhead": overhead,
            "coverage": per_layer["trace.coverage"],
            "layers_per_unit_s": layer_table(tracer.spans, self.traced_units),
            "setup_layers_per_setup_s": layer_table(tracer.spans, self.setup_units),
        }
        return per_layer, report


# ------------------------------------------------------------------ inputs
def make_rows(n: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two Gaussian clouds along a random direction, labels in {-1, +1}."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = 1.5 * y[:, None] * direction + rng.normal(size=(n, dim))
    return X, y


def table_rows(X: np.ndarray, y: np.ndarray) -> list[tuple]:
    return [(i, X[i].copy(), float(y[i])) for i in range(len(y))]


def logistic_objective(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Summed logistic loss — the objective the library reports for LR."""
    return float(np.logaddexp(0.0, -y * (X @ w)).sum())


def reference_optimum(X: np.ndarray, y: np.ndarray) -> float:
    """Minimum of the logistic objective by damped Newton's method."""
    w = np.zeros(X.shape[1])
    value = logistic_objective(w, X, y)
    for _ in range(100):
        margins = y * (X @ w)
        p = 0.5 * (1.0 - np.tanh(0.5 * margins))  # sigmoid(-margin), overflow-free
        gradient = -X.T @ (y * p)
        hessian = (X * (p * (1.0 - p))[:, None]).T @ X
        step = np.linalg.solve(hessian, gradient)
        scale = 1.0
        while logistic_objective(w - scale * step, X, y) > value and scale > 1e-8:
            scale *= 0.5
        w = w - scale * step
        new_value = logistic_objective(w, X, y)
        if value - new_value <= 1e-12 * value:
            value = new_value
            break
        value = new_value
    if np.linalg.norm(X.T @ (y * 0.5 * (1.0 - np.tanh(0.5 * y * (X @ w))))) > 1e-6 * len(y):
        raise RuntimeError("reference Newton solve did not converge")
    return value


# ----------------------------------------------------------------- tracing
@contextmanager
def traced_unit(tracer, enabled: bool, unit_name: str, job: str):
    """Install the wrappers and open a unit span; a no-op when not ``enabled``."""
    if not enabled:
        yield
        return
    tracer.install(program_patches())
    try:
        with tracer.unit(unit_name, job):
            yield
    finally:
        tracer.uninstall()


# -------------------------------------------------------------- igd_* jobs
def run_igd(seed: int, seconds: float, *, parallel: bool, tracer=None,
            shape: IGDShape = IGDShape()) -> RunResult:
    """``igd_serial_dense`` / ``igd_parallel_nolock``: repeated LR training jobs."""
    from repro.core import BismarckRunner, IGDConfig
    from repro.db import Database, SharedMemoryParallelism
    from repro.tasks import LogisticRegressionTask

    workload = "igd_parallel_nolock" if parallel else "igd_serial_dense"
    X, y = make_rows(shape.rows, shape.dim, seed)
    optimum = reference_optimum(X, y)
    rows = table_rows(X, y)
    workers = nproc() if parallel else 1
    spec = (
        SharedMemoryParallelism(scheme="nolock", workers=workers, backend="process")
        if parallel else None
    )
    config = IGDConfig(
        step_size={"kind": "epoch_decay", "alpha0": shape.alpha0, "decay": shape.decay},
        max_epochs=shape.epochs,
        ordering="shuffle_once",
        execution="auto",
        compute_dtype="float64",
        compute_objective=True,
        parallelism=spec,
        seed=0,
    )
    warmup = replace(config, max_epochs=1)
    band = NOLOCK_BAND if parallel else SERIAL_BAND
    outcome = Outcome()
    reference_w = None
    transport = "none (no pool)"

    def set_up(samples: Samples):
        """Load the table; a 1-epoch job then decodes into the example cache
        (and, in parallel, spawns the worker pool and publishes the pages)."""
        k = len(samples.setups)
        unit = f"setup-{k}"
        traced = tracer is not None and k % 2 == 1
        before = samples.calibrate()
        with traced_unit(tracer, traced, "bench.setup", unit):
            start = time.perf_counter()
            db = Database()
            db.create_table(TABLE, COLUMNS)
            db.insert(TABLE, rows)
            task = LogisticRegressionTask(shape.dim)
            BismarckRunner(db, task, warmup).train(TABLE)
            elapsed = time.perf_counter() - start
        samples.add_setup(elapsed, before, samples.calibrate(), unit if traced else None)
        outcome.check(len(db.table(TABLE)) == shape.rows, f"{unit}: wrong row count")
        return db, task

    def run_job(samples: Samples, db, task, pool, job: str, traced: bool) -> None:
        nonlocal reference_w
        counts = attribute_counts(db, pool) if traced else None
        before = samples.calibrate()
        try:
            with traced_unit(tracer, traced, "bench.job", job):
                start = time.perf_counter()
                result = BismarckRunner(db, task, config).train(TABLE)
                elapsed = time.perf_counter() - start
        except Exception as error:  # a failed job is a failed operation
            outcome.check(False, f"{job}: {error!r}")
            return
        after = samples.calibrate()
        objectives = [record.objective for record in result.history]
        gaps = [value / optimum - 1.0 for value in objectives]
        reached = [e for e, gap in enumerate(gaps) if gap <= TARGET_TOLERANCE]
        ok = (
            len(objectives) == shape.epochs
            and bool(np.all(np.isfinite(objectives)))
            and -1e-9 <= gaps[-1] <= band
            and bool(reached)
        )
        message = f"{job}: objective gaps {gaps} outside band {band} or target missed"
        if ok and not parallel:
            w = result.model["w"]
            if reference_w is None:
                reference_w = w.copy()
            elif not np.array_equal(w, reference_w):
                ok, message = False, f"{job}: serial model differs bit-wise from job 0"
        if not outcome.check(ok, message):
            return
        if traced:
            add_delta(samples.attributes, counts, attribute_counts(db, pool))
            samples.add_job(elapsed, before, after, unit=job)
            return
        # Program-reported seconds of the epochs run after the target was met.
        after_target = sum(record.elapsed_seconds for record in result.history[reached[0] + 1:])
        samples.add_job(elapsed, before, after, to_target=elapsed - after_target)

    # Set-ups are spread through the run, one per few jobs, so that
    # ``setup_s`` and ``job_s`` sample the same stretch of host time.
    begin = time.perf_counter()
    i = 0
    samples = Samples(shape.rows * shape.epochs, shape.min_jobs)
    while samples.more(outcome, begin, seconds):
        db, task = set_up(samples)
        pool = db.process_pool(workers) if parallel else None
        if pool is not None:
            transport = pool.transport_stats["transport"]
            samples.watch_pool()
        try:
            for _ in range(shape.jobs_per_setup):
                if not samples.more(outcome, begin, seconds):
                    break
                run_job(samples, db, task, pool, f"job-{i}", tracer is not None and i % 2 == 1)
                i += 1
        finally:
            samples.release_pool()
            db.close()
            # Closed databases sit in reference cycles; collect them now so
            # memory does not depend on when the cyclic collector runs.
            db = task = pool = None
            gc.collect()

    details = {
        "workload": workload,
        "rows": shape.rows,
        "dim": shape.dim,
        "epochs_per_job": shape.epochs,
        "workers": workers,
        "jobs": len(samples.jobs) + len(samples.traced_jobs),
        "setups": len(samples.setups),
        "reference_optimum": optimum,
        "target_tolerance": TARGET_TOLERANCE,
        "objective_band": band,
        "durability": "in-memory",
        "payload_transport": transport,
        **samples.wall(),
    }
    result = RunResult(outcome, {}, details)
    if tracer is None:
        result.end_to_end = samples.end_to_end()
    else:
        result.per_layer, result.trace_report = samples.trace_outputs(
            tracer, workload, "bench.job",
        )
    return result


# ------------------------------------------------------ ingest_sql_refresh
def _persisted_model(db, dim: int) -> tuple[np.ndarray, str | None]:
    w = np.zeros(dim)
    for component, index, value in db.query(f"SELECT component, idx, value FROM {MODEL}"):
        if component == "w":
            w[index] = value
    source = None
    for component, shape in db.query(f"SELECT component, shape FROM {MODEL}_meta"):
        if component == "__source__":
            source = shape
    return w, source


def run_ingest(seed: int, seconds: float, *, workdir: Path, tracer=None) -> RunResult:
    """``ingest_sql_refresh``: inserts, SQL model refreshes and reopens on disk."""
    from repro.db import Database
    from repro.frontend import install_frontend

    total = INGEST_BASE_ROWS + INGEST_ROUNDS * INGEST_BATCH_ROWS
    X, y = make_rows(total, INGEST_DIM, seed)
    sizes = [INGEST_BASE_ROWS + r * INGEST_BATCH_ROWS for r in range(INGEST_ROUNDS + 1)]
    optima = {n: reference_optimum(X[:n], y[:n]) for n in sizes}
    rows = table_rows(X, y)
    sql = f"SELECT LRTrain('{MODEL}', '{TABLE}', 'vec', 'label', {INGEST_STEP}, {INGEST_EPOCHS})"
    row_bytes = 8 * (INGEST_DIM + 2)  # id, features, label
    outcome = Outcome()
    appends: list[float] = []
    reopens: list[float] = []
    written = 0
    inserted_bytes = 0
    durability = None

    def frontend(db, traced: bool) -> None:
        install_frontend(db)
        if traced:
            db.functions["lrtrain"] = tracer.traced(db.functions["lrtrain"], "frontend.lrtrain")

    def model_ok(db, n: int, label: str) -> bool:
        w, source = _persisted_model(db, INGEST_DIM)
        gap = logistic_objective(w, X[:n], y[:n]) / optima[n] - 1.0
        version = db.table(TABLE).version
        return outcome.check(
            source == f"{TABLE}@{version}" and -1e-9 <= gap <= INGEST_BAND,
            f"{label}: watermark {source} vs version {version}, objective gap {gap:.4f}",
        )

    begin = time.perf_counter()
    episode = 0
    samples = Samples(INGEST_BATCH_ROWS * INGEST_EPOCHS, MIN_JOBS)
    while samples.more(outcome, begin, seconds):
        traced = tracer is not None and episode % 2 == 1
        path = workdir / f"episode-{episode}"
        shutil.rmtree(path, ignore_errors=True)
        db = None
        try:
            setup_unit = f"setup-{episode}"
            before = samples.calibrate()
            with traced_unit(tracer, traced, "bench.setup", setup_unit):
                start = time.perf_counter()
                db = Database.open(path)
                db.create_table(TABLE, COLUMNS)
                db.insert(TABLE, rows[:INGEST_BASE_ROWS])
                frontend(db, traced)
                db.execute(sql)
                elapsed = time.perf_counter() - start
            samples.add_setup(elapsed, before, samples.calibrate(),
                              setup_unit if traced else None)
            durability = db.durability.mode
            model_ok(db, INGEST_BASE_ROWS, f"episode {episode} setup")
            acknowledged = INGEST_BASE_ROWS
            for r in range(INGEST_ROUNDS):
                job = f"round-{episode}-{r}"
                reopen = (r + 1) % INGEST_REOPEN_EVERY == 0
                wchar = bytes_written()
                before = samples.calibrate()
                with traced_unit(tracer, traced, "bench.round", job):
                    round_start = time.perf_counter()
                    batch = rows[acknowledged: acknowledged + INGEST_BATCH_ROWS]
                    start = time.perf_counter()
                    db.insert(TABLE, batch)
                    appends.append(time.perf_counter() - start)
                    acknowledged += len(batch)
                    if reopen:
                        start = time.perf_counter()
                        db.close()
                        db = Database.open(path)
                        reopens.append(time.perf_counter() - start)
                        frontend(db, traced)
                    counts = attribute_counts(db) if traced else None
                    start = time.perf_counter()
                    db.execute(sql)
                    refresh = time.perf_counter() - start
                    round_s = time.perf_counter() - round_start
                after = samples.calibrate()
                written += bytes_written() - wchar
                inserted_bytes += len(batch) * row_bytes
                outcome.check(len(db.table(TABLE)) == acknowledged, f"{job}: insert lost rows")
                if reopen:
                    count = db.query(f"SELECT COUNT(*) FROM {TABLE}")[0][0]
                    torn = db.recovery_report.torn_bytes_discarded
                    outcome.check(
                        count == acknowledged and torn == 0,
                        f"{job}: reopened with {count} rows of {acknowledged}, {torn} torn bytes",
                    )
                if not model_ok(db, acknowledged, job):
                    continue
                if traced:
                    add_delta(samples.attributes, counts, attribute_counts(db))
                    samples.add_job(refresh, before, after, unit=job)
                else:
                    samples.add_job(refresh, before, after, to_target=round_s)
        except Exception as error:  # an aborted episode is a failed operation
            outcome.check(False, f"episode {episode}: {error!r}")
        finally:
            if db is not None:
                db.close()
            db = None
            gc.collect()  # as in run_igd: free closed databases deterministically
            shutil.rmtree(path, ignore_errors=True)
        episode += 1

    details = {
        "workload": "ingest_sql_refresh",
        "base_rows": INGEST_BASE_ROWS,
        "dim": INGEST_DIM,
        "batch_rows": INGEST_BATCH_ROWS,
        "rounds_per_episode": INGEST_ROUNDS,
        "reopen_every": INGEST_REOPEN_EVERY,
        "episodes": episode,
        "refreshes": len(samples.jobs) + len(samples.traced_jobs),
        "append_s.p50": median(appends),
        "append_s.p90": percentile(appends, 90),
        "reopen_s.p50": median(reopens),
        "write_amp": written / inserted_bytes,
        "objective_band": INGEST_BAND,
        "durability": durability,
        "payload_transport": "none (no pool)",
        **samples.wall(),
    }
    result = RunResult(outcome, {}, details)
    if tracer is None:
        result.end_to_end = samples.end_to_end()
    else:
        result.per_layer, result.trace_report = samples.trace_outputs(
            tracer, "ingest_sql_refresh", "bench.round",
        )
    return result
