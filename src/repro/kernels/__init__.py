"""Native tier for the linear tasks' exact-IGD chunk kernels.

``igd_chunk`` runs one chunk of sequential IGD steps for logistic
regression (``"logistic"``), the SVM (``"hinge"``) or squared error
(``"squared"``: least squares and lasso) in compiled C.  The C kernels do
the Python row loops' arithmetic in the same order with the same functions
— numpy's own BLAS ddot, libm's ``exp``, no fused multiply-add — so the
trained model is bit-for-bit the Python loop's.  The tasks call it first
from their ``igd_chunk`` methods and run their Python loop
(``python_igd_chunk``) whenever it returns False.

It runs a chunk when the library loaded and passed its self-check, and the
chunk is supported: dense C-contiguous or CSR rows, float64 or float32
features, a float64 C-contiguous ``w`` and step-size array (all buffers
aligned), and an identity or L1 proximal.  The self-check runs every
kernel variant against the Python loop on a small fixed batch when the
library loads; any mismatch turns the tier off.  :func:`native_status`
says whether the tier is on, and why not when it is off.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass

import numpy as np

from ..core.proximal import IdentityProximal, L1Proximal
from . import loader

LOSSES = {"logistic": 0, "hinge": 1, "squared": 2}
FEATURE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


@dataclass(frozen=True)
class NativeTier:
    """The loaded library (None when the tier is off) and how it loaded."""

    lib: ctypes.CDLL | None = None
    reason: str | None = None
    library: str | None = None
    blas_symbol: str | None = None


_tier: NativeTier | None = None
_tier_lock = threading.Lock()


def _get_tier() -> NativeTier:
    global _tier
    if _tier is None:
        with _tier_lock:
            if _tier is None:
                _tier = _load_tier()
    return _tier


def _load_tier() -> NativeTier:
    try:
        lib, path, symbol = loader.load()
    except loader.NativeUnavailable as error:
        return NativeTier(reason=str(error))
    mismatch = _self_check(lib)
    if mismatch is not None:
        return NativeTier(
            reason=f"self-check mismatch with the Python loop: {mismatch}",
            library=str(path),
            blas_symbol=symbol,
        )
    return NativeTier(lib, library=str(path), blas_symbol=symbol)


def native_status() -> dict:
    """Whether the native tier is on; the reason when not, the library
    path and the BLAS ddot symbol it calls.  Loads the tier on first use."""
    tier = _get_tier()
    return {
        "available": tier.lib is not None,
        "reason": tier.reason,
        "library": tier.library,
        "blas_symbol": tier.blas_symbol,
    }


def igd_chunk(loss: str, model, batch, alphas, proximal) -> bool:
    """Run one exact-IGD chunk natively.

    Returns False, with the model untouched, when the tier is off or the
    chunk's layout is unsupported; the caller then runs its Python loop.
    """
    lib = _get_tier().lib
    return lib is not None and _run(lib, LOSSES[loss], model, batch, alphas, proximal)


def _is_vector(array, dtype, length=None) -> bool:
    return (
        isinstance(array, np.ndarray)
        and array.ndim == 1
        and array.dtype == dtype
        and array.flags.c_contiguous
        and array.flags.aligned
        and (length is None or array.shape[0] == length)
    )


def _proximal_args(model, proximal) -> tuple[int, float] | None:
    """(l1 flag, mu) for a supported proximal, else None."""
    if isinstance(proximal, IdentityProximal):
        return 0, 0.0
    if (
        type(proximal) is L1Proximal
        and isinstance(proximal.mu, (int, float))
        and (proximal.component == "w" or model.component_names() == ["w"])
    ):
        return 1, float(proximal.mu)
    return None


def _run(lib, loss: int, model, batch, alphas, proximal) -> bool:
    """Validate every buffer, then call the kernel; False if unsupported."""
    prox = _proximal_args(model, proximal)
    w = model["w"]
    n = batch.length
    if (
        prox is None
        or not (_is_vector(w, np.float64) and w.flags.writeable and w.shape[0] > 0)
        or not _is_vector(batch.y, np.float64, n)
        or not (_is_vector(alphas, np.float64) and alphas.shape[0] >= n)
    ):
        return False
    d = w.shape[0]
    if batch.kind == "dense":
        X = batch.X
        if not (
            isinstance(X, np.ndarray)
            and X.shape == (n, d)
            and X.dtype in FEATURE_DTYPES
            and X.flags.c_contiguous
            and X.flags.aligned
        ):
            return False
        status = lib.repro_igd_dense(
            loss, n, d, X.ctypes.data, X.dtype == np.float32,
            batch.y.ctypes.data, alphas.ctypes.data, w.ctypes.data, *prox,
        )
        return status == 0
    indptr, indices, data = batch.indptr, batch.indices, batch.data
    if not (
        _is_vector(indptr, np.int64, n + 1)
        and _is_vector(indices, np.int64)
        and isinstance(data, np.ndarray)
        and data.dtype in FEATURE_DTYPES
        and _is_vector(data, data.dtype, indices.shape[0])
    ):
        return False
    if n > 0:
        lo, hi = int(indptr[0]), int(indptr[n])
        if lo < 0 or hi > indices.shape[0] or np.any(indptr[1:] < indptr[:-1]):
            return False
        if hi > lo and (indices[lo:hi].min() < 0 or indices[lo:hi].max() >= d):
            return False
    status = lib.repro_igd_csr(
        loss, n, d, indptr.ctypes.data, indices.ctypes.data, data.ctypes.data,
        data.dtype == np.float32, batch.y.ctypes.data, alphas.ctypes.data, w.ctypes.data, *prox,
    )
    return status == 0


def _self_check(lib) -> str | None:
    """Run every kernel variant against the Python loop on a fixed batch for
    two epochs; the first variant whose model differs, or None."""
    from ..core.model import Model
    from ..tasks.base import ExampleBatch
    from ..tasks.least_squares import LinearRegressionTask
    from ..tasks.logistic_regression import LogisticRegressionTask
    from ..tasks.svm import SVMTask

    rng = np.random.default_rng(0)
    n, d = 12, 6
    X = rng.normal(size=(n, d)) * 3.0
    X[rng.random((n, d)) < 0.4] = 0.0
    X[3] = 0.0  # an empty CSR row
    X[5] = 0.0
    X[5, 0] = 2.5  # a one-entry CSR row: numpy's scalar dot
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    alphas = 0.3 / (1.0 + np.arange(n))
    w0 = rng.normal(size=d)
    rows, cols = np.nonzero(X)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    batches = {
        "dense": ExampleBatch("dense", X=X, y=y, dimension=d),
        "csr": ExampleBatch(
            "sparse", indptr=indptr, indices=cols.astype(np.int64), data=X[rows, cols],
            y=y, dimension=d,
        ),
    }
    references = {
        "logistic": LogisticRegressionTask(d),
        "hinge": SVMTask(d),
        "squared": LinearRegressionTask(d),
    }
    for loss, task in references.items():
        for layout, batch64 in batches.items():
            for dtype in FEATURE_DTYPES:
                batch = batch64.astype(dtype)
                for proximal in (IdentityProximal(), L1Proximal(0.05)):
                    expected, actual = Model({"w": w0.copy()}), Model({"w": w0.copy()})
                    ran = True
                    for _ in range(2):
                        task.python_igd_chunk(expected, batch, alphas, proximal)
                        ran = ran and _run(lib, LOSSES[loss], actual, batch, alphas, proximal)
                    if not (ran and np.array_equal(expected["w"], actual["w"])):
                        prox_name = type(proximal).__name__
                        return f"{loss}/{layout}/{dtype.name}/{prox_name}"
    return None
