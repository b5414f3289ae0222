"""Native kernel tier: bit-for-bit parity with the Python row loops, and fallback.

Every supported variant — loss × dense/CSR × float64/float32 features ×
identity/L1 proximal — must train exactly the model the Python loop
(``python_igd_chunk``) trains (``np.array_equal`` after two epochs).
Unsupported layouts and hosts where the library cannot load must take the
Python loop and say why.
"""

from __future__ import annotations

import ctypes
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.kernels as kernels
from repro.core import IGDConfig, Model, train
from repro.core.proximal import IdentityProximal, L1Proximal, L2Proximal
from repro.data import load_classification_table, make_sparse_classification
from repro.db import Database
from repro.kernels import loader, native_status
from repro.tasks import LogisticRegressionTask, SVMTask
from repro.tasks.base import ExampleBatch
from repro.tasks.least_squares import LinearRegressionTask

TASKS = {"logistic": LogisticRegressionTask, "hinge": SVMTask, "squared": LinearRegressionTask}
PROXIMALS = {"identity": IdentityProximal(), "l1": L1Proximal(0.02)}
SRC = Path(kernels.__file__).resolve().parents[2]


@pytest.fixture
def native():
    status = native_status()
    if not status["available"]:
        pytest.skip(f"native tier unavailable: {status['reason']}")


@pytest.fixture
def fresh_tier(monkeypatch, tmp_path):
    """An unloaded tier that builds into an empty cache under ``tmp_path``;
    the process's real tier is restored afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernels, "_tier", None)
    return tmp_path / "repro-kernels"


def features(n: int, d: int, seed: int, scale: float = 2.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * scale
    X[rng.random((n, d)) < 0.5] = 0.0
    if n > 3:
        X[1] = 0.0  # an empty CSR row
        X[3] = 0.0
        X[3, d - 1] = 1.5  # a one-entry CSR row
    return X


def csr(X: np.ndarray, y: np.ndarray) -> ExampleBatch:
    rows, cols = np.nonzero(X)
    indptr = np.zeros(X.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=X.shape[0]), out=indptr[1:])
    return ExampleBatch(
        "sparse", indptr=indptr, indices=cols.astype(np.int64), data=X[rows, cols],
        y=y, dimension=X.shape[1],
    )


def make_batch(X: np.ndarray, y: np.ndarray, layout: str, dtype=np.float64) -> ExampleBatch:
    if layout == "dense":
        batch = ExampleBatch("dense", X=X, y=y, dimension=X.shape[1])
    else:
        batch = csr(X, y)
    return batch.astype(dtype)


def labels(loss: str, n: int, seed: int) -> np.ndarray:
    """Signed labels off ±1, so reassociating ``alpha * label * s`` shows."""
    rng = np.random.default_rng(seed + 1)
    if loss == "squared":
        return rng.normal(size=n)
    return np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 1.5, size=n)


def train_both(loss, batch, alphas, proximal, w0, epochs=2):
    """(Python loop's w, native w) after ``epochs`` passes over ``batch``."""
    task = TASKS[loss](w0.shape[0])
    expected, actual = Model({"w": w0.copy()}), Model({"w": w0.copy()})
    for _ in range(epochs):
        task.python_igd_chunk(expected, batch, alphas, proximal)
        assert kernels.igd_chunk(loss, actual, batch, alphas, proximal), "native path did not run"
    return expected["w"], actual["w"]


def assert_bitwise(expected: np.ndarray, actual: np.ndarray) -> None:
    """Equal values and equal signs of zero; NaNs match any NaN."""
    assert np.array_equal(expected, actual, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(expected[numbers]), np.signbit(actual[numbers]))


@pytest.mark.usefixtures("native")
@pytest.mark.parametrize("prox", sorted(PROXIMALS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("layout", ["dense", "csr"])
@pytest.mark.parametrize("loss", sorted(TASKS))
def test_every_variant_matches_python_loop(loss, layout, dtype, prox):
    n, d = 60, 11
    X = features(n, d, seed=7)
    batch = make_batch(X, labels(loss, n, seed=7), layout, dtype)
    alphas = 0.2 / (1.0 + 0.05 * np.arange(n))
    w0 = np.random.default_rng(3).normal(size=d) * 0.3
    expected, actual = train_both(loss, batch, alphas, PROXIMALS[prox], w0)
    assert not np.array_equal(expected, w0)
    assert_bitwise(expected, actual)


@pytest.mark.usefixtures("native")
class TestEdgeCases:
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("loss", sorted(TASKS))
    def test_empty_batch(self, loss, layout):
        X = np.zeros((0, 4))
        batch = make_batch(X, np.zeros(0), layout)
        w0 = np.array([0.5, -1.0, 0.0, 2.0])
        expected, actual = train_both(loss, batch, np.zeros(0), PROXIMALS["l1"], w0)
        assert_bitwise(w0, actual)
        assert_bitwise(expected, actual)

    @pytest.mark.parametrize("prox", sorted(PROXIMALS))
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("loss", sorted(TASKS))
    def test_one_dimension(self, loss, layout, prox):
        # numpy computes a length-1 dot as a plain product, not through BLAS.
        n = 25
        X = features(n, 1, seed=11)
        X[X[:, 0] == 0.0, 0] = -0.0
        batch = make_batch(X, labels(loss, n, seed=11), layout)
        alphas = np.full(n, 0.1)
        expected, actual = train_both(loss, batch, alphas, PROXIMALS[prox], np.array([-0.0]))
        assert_bitwise(expected, actual)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_sigmoid_overflow_branches(self, layout):
        # |w.x| = 800 > 710: exp overflows on one side of each sigmoid branch.
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]] * 3)
        y = np.array([1.0, 1.0, -1.0, -1.0] * 3)
        w0 = np.array([800.0, -800.0])
        batch = make_batch(X, y, layout)
        margins = -(X @ w0) * y
        assert margins.max() > 710 and margins.min() < -710
        expected, actual = train_both("logistic", batch, np.full(12, 0.5), IdentityProximal(), w0)
        assert np.all(np.isfinite(expected))
        assert_bitwise(expected, actual)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("loss", sorted(TASKS))
    def test_nan_propagates(self, loss, layout, dtype):
        n, d = 10, 5
        X = features(n, d, seed=5)
        X[6, 2] = np.nan
        batch = make_batch(X, labels(loss, n, seed=5), layout, dtype)
        with np.errstate(invalid="ignore"):
            expected, actual = train_both(loss, batch, np.full(n, 0.1), PROXIMALS["l1"], np.ones(d))
        # A NaN margin counts as outside the SVM margin, so the hinge step
        # skips that row; the other losses carry the NaN into w.
        assert np.isnan(expected).any() == (loss != "hinge")
        assert_bitwise(expected, actual)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_signed_zeros_under_l1(self, layout):
        # A row far outside the SVM margin adds nothing, so only the proximal
        # moves w: np.sign(-0.0) is +0.0, so -0.0 becomes +0.0, while a
        # negative entry shrunk to zero becomes -0.0.
        batch = make_batch(np.ones((1, 4)), np.ones(1), layout)
        w0 = np.array([-0.0, 0.0, -1e-3, 5.0])
        for epochs, signs in ((1, [False, False, True, False]), (2, [False] * 4)):
            expected, actual = train_both(
                "hinge", batch, np.full(1, 0.5), L1Proximal(0.01), w0, epochs=epochs
            )
            assert list(np.signbit(expected)) == signs
            assert_bitwise(expected, actual)

    @pytest.mark.parametrize("layout, d", [("dense", 1), ("csr", 3)])
    def test_length_one_dot_keeps_signed_zero(self, layout, d):
        # numpy's length-1 dot is the bare product -0.0 * 1.0 = -0.0, where
        # BLAS would return 0.0 + -0.0 = +0.0; with y = 0 the squared-error
        # step then sets w to +0.0 instead of leaving -0.0.
        X = np.zeros((1, d))
        X[0, 0] = 1.0
        batch = make_batch(X, np.zeros(1), layout)
        w0 = np.full(d, -0.0)
        expected, actual = train_both("squared", batch, np.ones(1), IdentityProximal(), w0, 1)
        assert not np.signbit(expected[0])
        assert_bitwise(expected, actual)

    def test_infinite_l1_threshold(self):
        # inf - inf is NaN, which np.maximum(NaN, 0.0) keeps.
        batch = make_batch(np.zeros((2, 4)), np.zeros(2), "csr")
        w0 = np.array([np.inf, -np.inf, 1.0, -0.0])
        with np.errstate(invalid="ignore"):
            expected, actual = train_both("squared", batch, np.ones(2), L1Proximal(np.inf), w0)
        assert np.isnan(expected[:2]).all() and np.array_equal(expected[2:], [0.0, 0.0])
        assert_bitwise(expected, actual)

    def test_repeated_csr_index_keeps_last_write(self):
        # numpy's w[idx] += s * x gathers before it scatters.
        batch = ExampleBatch(
            "sparse", indptr=np.array([0, 3, 5]), indices=np.array([1, 1, 0, 2, 2]),
            data=np.array([1.0, 2.0, 3.0, -1.0, 4.0]), y=np.array([1.0, -1.0]), dimension=3,
        )
        expected, actual = train_both(
            "squared", batch, np.full(2, 0.1), IdentityProximal(), np.array([0.1, 0.2, 0.3])
        )
        assert_bitwise(expected, actual)


@pytest.mark.usefixtures("native")
def test_lp64_blas_integers():
    # numpy's wheels link an ILP64 OpenBLAS and scipy's an LP64 one; scipy's
    # ddot exercises the 32-bit-integer call that LP64 numpy builds use.
    scipy_libs = Path(np.__file__).resolve().parents[1] / "scipy.libs"
    candidates = sorted(scipy_libs.glob("libscipy_openblas-*.so"))
    if not candidates:
        pytest.skip("no LP64 scipy-openblas library installed")
    lp64_ddot = ctypes.cast(ctypes.CDLL(str(candidates[0])).scipy_cblas_ddot, ctypes.c_void_p)
    _, numpy_ddot, ilp64 = loader.resolve_ddot()
    lib = kernels._get_tier().lib
    n, d = 40, 9
    batch = make_batch(features(n, d, seed=8), labels("logistic", n, seed=8), "dense")
    try:
        lib.repro_set_ddot(lp64_ddot.value, 0)
        expected, actual = train_both(
            "logistic", batch, np.full(n, 0.1), IdentityProximal(), np.ones(d)
        )
    finally:
        lib.repro_set_ddot(numpy_ddot, int(ilp64))
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-15)


def spy_python_loop(monkeypatch, task):
    calls = []
    original = task.python_igd_chunk

    def spy(*args):
        calls.append(args)
        original(*args)

    monkeypatch.setattr(task, "python_igd_chunk", spy)
    return calls


def unsupported_cases():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(8, 6))
    y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    wide = np.ascontiguousarray(np.repeat(X, 2, axis=1))
    bad_index = csr(X, y)
    bad_index.indices = bad_index.indices.copy()
    bad_index.indices[4] = -1  # Python wraps a negative index; C must not see it
    return {
        "non-contiguous view": (
            ExampleBatch("dense", X=wide[:, ::2], y=y, dimension=6), IdentityProximal()
        ),
        "integer features": (
            ExampleBatch("dense", X=np.rint(X).astype(np.int64), y=y, dimension=6),
            IdentityProximal(),
        ),
        "L2 proximal": (ExampleBatch("dense", X=X, y=y, dimension=6), L2Proximal(0.1)),
        "negative CSR index": (bad_index, IdentityProximal()),
        "int32 CSR indices": (
            ExampleBatch(
                "sparse", indptr=csr(X, y).indptr, indices=csr(X, y).indices.astype(np.int32),
                data=csr(X, y).data, y=y, dimension=6,
            ),
            IdentityProximal(),
        ),
    }


@pytest.mark.parametrize("case", sorted(unsupported_cases()))
@pytest.mark.parametrize("loss", sorted(TASKS))
def test_unsupported_layout_takes_python_path(monkeypatch, loss, case):
    batch, proximal = unsupported_cases()[case]
    alphas = np.full(batch.length, 0.1)
    task = TASKS[loss](6)
    assert not kernels.igd_chunk(loss, Model({"w": np.ones(6)}), batch, alphas, proximal)
    expected, actual = Model({"w": np.ones(6)}), Model({"w": np.ones(6)})
    task.python_igd_chunk(expected, batch, alphas, proximal)
    calls = spy_python_loop(monkeypatch, task)
    task.igd_chunk(actual, batch, alphas, proximal)
    assert len(calls) == 1
    assert_bitwise(expected["w"], actual["w"])


@pytest.mark.usefixtures("native")
@pytest.mark.parametrize("loss", sorted(TASKS))
def test_supported_layout_skips_python_loop(monkeypatch, loss):
    X = features(20, 4, seed=1)
    task = TASKS[loss](4)
    calls = spy_python_loop(monkeypatch, task)
    task.igd_chunk(
        Model({"w": np.zeros(4)}), make_batch(X, labels(loss, 20, 1), "csr"),
        np.full(20, 0.1), IdentityProximal(),
    )
    assert calls == []


def train_sparse_lr():
    data = make_sparse_classification(300, 40, nonzeros_per_example=8, seed=4)
    db = Database()
    load_classification_table(db, "t", data.examples, sparse=True)
    config = IGDConfig(max_epochs=3, seed=1, execution="chunked", compute_objective=False)
    return train(LogisticRegressionTask(data.dimension, mu=0.01), db, "t", config=config).model["w"]


@pytest.mark.parametrize(
    "broken, reason",
    [
        (("find_compiler", lambda: None), "no C compiler"),
        (("DDOT_SYMBOLS", (("no_such_ddot64_", True),)), "no known ddot symbol"),
    ],
    ids=["no-compiler", "no-blas-symbol"],
)
def test_unloadable_tier_falls_back_and_records_why(monkeypatch, broken, reason):
    reference = train_sparse_lr()
    monkeypatch.setattr(loader, *broken)
    monkeypatch.setattr(kernels, "_tier", None)
    status = native_status()
    assert status["available"] is False
    assert reason in status["reason"]
    assert np.array_equal(train_sparse_lr(), reference)


def test_builds_into_private_cache(fresh_tier):
    status = native_status()
    assert status["available"], status["reason"]
    library = Path(status["library"])
    assert library.parent == fresh_tier
    assert stat.S_IMODE(os.stat(fresh_tier).st_mode) == 0o700
    assert status["blas_symbol"] in {symbol for symbol, _ in loader.DDOT_SYMBOLS}


@pytest.mark.parametrize("target", ["library", "directory"])
def test_refuses_files_others_can_write(monkeypatch, fresh_tier, target):
    library = Path(native_status()["library"])
    os.chmod(library if target == "library" else fresh_tier, 0o777)
    monkeypatch.setattr(kernels, "_tier", None)
    status = native_status()
    assert status["available"] is False
    assert "writable by other users" in status["reason"]


def test_concurrent_builds_into_empty_cache(tmp_path):
    script = (
        "import json; from repro.kernels import native_status; "
        "print(json.dumps(native_status()))"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
    procs = [
        subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    statuses = [json.loads(out.strip().splitlines()[-1]) for out in outputs]
    assert all(status["available"] for status in statuses), statuses
    assert statuses[0]["library"] == statuses[1]["library"]
    assert [p.name for p in (tmp_path / "repro-kernels").iterdir()] == [
        Path(statuses[0]["library"]).name
    ]
