"""Build, cache and load the native kernel library.

The library is compiled from ``igd_linear.c`` with the host's ``cc`` on first
use and cached per user, under ``$XDG_CACHE_HOME/repro-kernels`` (default
``~/.cache/repro-kernels``).  The file name carries the sha256 of the source,
the compiler's ``--version`` output and the flags, so a change to any of them
builds a new library instead of loading a stale one.  A build writes a
private temporary file and renames it into place, so processes building at
the same time each load a complete library.  Before loading, the cache
directory and the library must be owned by the current user and writable by
no one else.

Every failure is reported as :class:`NativeUnavailable` with a one-line
reason; the caller then keeps the Python kernels.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("igd_linear.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)

#: The ddot symbols numpy's BLAS builds export, with whether their integer
#: arguments are 64-bit (ILP64, the ``64_`` suffix) or 32-bit.
DDOT_SYMBOLS = (
    ("scipy_cblas_ddot64_", True),
    ("cblas_ddot64_", True),
    ("scipy_cblas_ddot", False),
    ("cblas_ddot", False),
)


class NativeUnavailable(Exception):
    """The native library cannot be used here; the message says why."""


def find_compiler() -> str | None:
    """Path of the C compiler, or None when there is none."""
    return shutil.which("cc")


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-kernels"


def resolve_ddot() -> tuple[str, int, bool]:
    """(symbol, address, ilp64) of the ddot that numpy's ``np.dot`` calls.

    The symbol is looked up through numpy's own extension module, so it
    resolves in the BLAS library numpy actually loaded.
    """
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            path = importlib.import_module(module).__file__
            break
        except ImportError:
            continue
    else:
        raise NativeUnavailable("numpy's _multiarray_umath module not found")
    try:
        handle = ctypes.CDLL(path)
    except OSError as error:
        raise NativeUnavailable(f"cannot open numpy's extension module: {error}") from None
    for symbol, ilp64 in DDOT_SYMBOLS:
        try:
            function = getattr(handle, symbol)
        except AttributeError:
            continue
        return symbol, ctypes.cast(function, ctypes.c_void_p).value, ilp64
    raise NativeUnavailable("numpy's BLAS exports no known ddot symbol")


def _private_dir(path: Path) -> Path:
    """Create ``path`` as a 0700 directory, or check an existing one."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = os.lstat(path)
        if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid():
            raise NativeUnavailable(f"cache directory {path} is not a directory this user owns")
        if info.st_mode & 0o022:
            raise NativeUnavailable(f"cache directory {path} is writable by other users")
        if info.st_mode & 0o077:
            os.chmod(path, 0o700)
    except OSError as error:
        raise NativeUnavailable(f"cache directory unusable: {error}") from None
    return path


def check_trusted(path: Path) -> None:
    """Refuse a library file the user does not own or others can write."""
    info = os.lstat(path)
    if not stat.S_ISREG(info.st_mode):
        raise NativeUnavailable(f"{path} is not a regular file")
    if info.st_uid != os.getuid():
        raise NativeUnavailable(f"{path} is not owned by this user")
    if info.st_mode & 0o022:
        raise NativeUnavailable(f"{path} is writable by other users")


def library_path(compiler: str) -> Path:
    """The cache path of the library this source, compiler and flags build."""
    try:
        source = SOURCE.read_bytes()
    except OSError as error:
        raise NativeUnavailable(f"kernel source unreadable: {error}") from None
    try:
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, check=True, timeout=60
        ).stdout
    except (OSError, subprocess.SubprocessError) as error:
        raise NativeUnavailable(f"{compiler} --version failed: {error}") from None
    key = hashlib.sha256()
    for part in (source, version, " ".join(FLAGS + LIBS).encode()):
        key.update(part)
        key.update(b"\0")
    return _private_dir(cache_dir()) / f"igd_linear-{key.hexdigest()[:32]}.so"


def build(compiler: str, target: Path) -> None:
    """Compile the source into ``target`` atomically (temp file, then rename)."""
    try:
        fd, temporary = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
        os.close(fd)
    except OSError as error:
        raise NativeUnavailable(f"cannot write to {target.parent}: {error}") from None
    try:
        command = [compiler, *FLAGS, "-o", temporary, str(SOURCE), *LIBS]
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as error:
            raise NativeUnavailable(f"{compiler} could not run: {error}") from None
        if done.returncode != 0:
            detail = (done.stderr.strip().splitlines() or ["no output"])[0]
            raise NativeUnavailable(f"{compiler} failed ({done.returncode}): {detail}")
        os.chmod(temporary, 0o700)
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _declare(lib: ctypes.CDLL) -> None:
    c_int, c_int64, c_double = ctypes.c_int, ctypes.c_int64, ctypes.c_double
    c_void_p = ctypes.c_void_p
    lib.repro_set_ddot.argtypes = [c_void_p, c_int]
    lib.repro_set_ddot.restype = c_int
    # loss, n, d, X, x_f32, y, alphas, w, l1, mu
    lib.repro_igd_dense.argtypes = [
        c_int, c_int64, c_int64, c_void_p, c_int, c_void_p, c_void_p, c_void_p, c_int, c_double,
    ]
    lib.repro_igd_dense.restype = c_int
    # loss, n, d, indptr, indices, data, data_f32, y, alphas, w, l1, mu
    lib.repro_igd_csr.argtypes = [
        c_int, c_int64, c_int64, c_void_p, c_void_p, c_void_p, c_int,
        c_void_p, c_void_p, c_void_p, c_int, c_double,
    ]
    lib.repro_igd_csr.restype = c_int


def load() -> tuple[ctypes.CDLL, Path, str]:
    """Build if needed and load the library; (library, path, ddot symbol)."""
    compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailable("no C compiler: cc is not on PATH")
    symbol, address, ilp64 = resolve_ddot()
    path = library_path(compiler)
    try:
        if not path.exists():
            build(compiler, path)
        check_trusted(path)
        lib = ctypes.CDLL(str(path))
    except OSError as error:
        raise NativeUnavailable(f"cannot load {path}: {error}") from None
    try:
        _declare(lib)
    except AttributeError as error:
        raise NativeUnavailable(f"{path} lacks a kernel entry point: {error}") from None
    lib.repro_set_ddot(address, int(ilp64))
    return lib, path, symbol
