"""scipy's compiled FFT and sparse kernels, loaded without scipy's Python
packages.

nslb calls three compiled functions of scipy: pocketfft's real-to-complex
and complex-to-real transforms, and sparsetools' CSR matrix-vector product.
Importing scipy's fft or sparse package would also run its Python init
(scipy's array-API layer, which imports ``numpy.f2py``, and scipy's special
functions), which takes far longer than loading the two extension files
themselves.  This module loads ``fft/_pocketfft/pypocketfft`` and
``sparse/_sparsetools`` from scipy's install directory by path, under
scipy's own module names, so those packages reuse them if the same process
imports them later.  Finding the directory with ``importlib.util.find_spec``
imports nothing, and the installed version string is read from scipy's
``version.py`` in the same directory, loaded by path without entering
``sys.modules``, so no scipy package is imported.

The interface is private to scipy, so it is checked when loaded: a missing
file or function, or a call that no longer gives the known result for the
arguments used here, raises ``ImportError`` naming the installed scipy
version.  There is no fallback to the public packages.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["KERNEL_FILES", "SCIPY_VERSION", "CSRMatrix", "rfftn_forward", "irfftn_forward"]

# scipy's own arguments for norm="forward": forward, then pocketfft's
# normalisation code (2 scales by 1/size, 0 does not); the output array
# (None: a new one) and the worker count follow
_R2C_ARGS = (True, 2)
_C2R_ARGS = (False, 0)
_WORKERS = 1


def _scipy_dir() -> Path:
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("nslb needs scipy, which is not installed")
    return Path(spec.origin).parent


def _unusable(what: str) -> ImportError:
    from importlib.metadata import version

    return ImportError(
        f"scipy {version('scipy')}: {what}; nslb calls this private part of scipy directly "
        "and needs a scipy whose compiled pocketfft and sparsetools modules match it"
    )


def _load_extension(scipy_dir: Path, relative: str):
    """(path, module) of the extension file scipy_dir/relative + suffix, as scipy.<dotted relative>."""
    stem = scipy_dir.joinpath(relative)
    candidates = [stem.with_name(stem.name + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((c for c in candidates if c.is_file()), None)
    if path is None:
        raise _unusable(f"missing file {relative}{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}} in {scipy_dir}")
    name = "scipy." + relative.replace("/", ".")
    registered = name in sys.modules
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    if not registered:
        # a single-phase extension enters itself in sys.modules; without its
        # parent package there, a later import of that package would find the
        # entry and skip binding it as the package's attribute
        sys.modules.pop(name, None)
    return path, module


def _kernel(module, name):
    fn = getattr(module, name, None)
    if fn is None:
        raise _unusable(f"{module.__name__} has no function {name}")
    return fn


def _checked(pocketfft, sparsetools):
    """(r2c, c2r, csr_matvec), each called once with the arguments nslb uses on an input whose result is known."""
    r2c, c2r = _kernel(pocketfft, "r2c"), _kernel(pocketfft, "c2r")
    matvec = _kernel(sparsetools, "csr_matvec")
    ones = np.ones((2, 4))
    out = np.zeros((2, 4))
    try:
        modes = r2c(ones, (0, 1), *_R2C_ARGS, None, _WORKERS)
        ok = np.array_equal(modes, [[1, 0, 0], [0, 0, 0]])
        ok = ok and np.array_equal(c2r(modes, (0, 1), 4, *_C2R_ARGS, None, _WORKERS), ones)
        ok = ok and c2r(modes, (0, 1), 4, *_C2R_ARGS, out, _WORKERS) is out and np.array_equal(out, ones)
    except (TypeError, ValueError, IndexError) as exc:
        raise _unusable(f"pocketfft r2c/c2r rejected nslb's call: {exc!r}") from None
    if not ok:
        raise _unusable("pocketfft r2c/c2r no longer give the forward-normalised transform pair")
    # index arrays of either width: the ball Poisson system passes int32, and
    # its two coupling blocks are rectangular; y starts nonzero, so the
    # product must add into it
    cases = (
        (np.intp, 2, [1, 0, 1], [15.0, 42.0]),
        (np.int32, 2, [1, 0, 1], [15.0, 42.0]),
        (np.int32, 3, [2, 0, 2], [19.0, 50.0]),
    )
    for index_type, n_col, cols, want in cases:
        y = np.array([1.0, -1.0])
        indptr, indices = np.array([0, 1, 3], dtype=index_type), np.array(cols, dtype=index_type)
        try:
            matvec(2, n_col, indptr, indices, np.array([2.0, 3.0, 4.0]), np.array([5.0, 7.0, 9.0][:n_col]), y)
        except (TypeError, ValueError, IndexError) as exc:
            raise _unusable(
                f"sparsetools csr_matvec rejected nslb's call with {indptr.dtype} indices on a 2 x {n_col} block: {exc!r}"
            ) from None
        if not np.array_equal(y, want):
            raise _unusable("sparsetools csr_matvec no longer computes y += A x")
    return r2c, c2r, matvec


def _load_kernels(scipy_dir: Path):
    """(files, r2c, c2r, csr_matvec) from the scipy installed at ``scipy_dir``."""
    fft_path, pocketfft = _load_extension(scipy_dir, "fft/_pocketfft/pypocketfft")
    sparse_path, sparsetools = _load_extension(scipy_dir, "sparse/_sparsetools")
    return (fft_path, sparse_path), *_checked(pocketfft, sparsetools)


def _scipy_version(scipy_dir: Path) -> str:
    """``scipy.__version__``: the ``version`` of scipy_dir/version.py."""
    path = scipy_dir / "version.py"
    if not path.is_file():
        raise _unusable(f"missing file version.py in {scipy_dir}")
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location("scipy.version", path))
    module.__spec__.loader.exec_module(module)
    return module.version


_SCIPY_DIR = _scipy_dir()
KERNEL_FILES, _r2c, _c2r, _csr_matvec = _load_kernels(_SCIPY_DIR)
SCIPY_VERSION = _scipy_version(_SCIPY_DIR)


def rfftn_forward(x, axes):
    """scipy's ``rfftn(x, axes=axes, norm="forward")`` of a float64 array."""
    return _r2c(x, axes, *_R2C_ARGS, None, _WORKERS)


def irfftn_forward(c, axes, n, out=None):
    """scipy's ``irfftn(c, s, axes=axes, norm="forward")`` of a complex128
    array, for s = c's lengths along ``axes`` with the last one replaced by
    ``n``; that axis of c must hold n // 2 + 1 entries.  With ``out`` (a
    float64 array of the result's shape, not overlapping c) the result is
    written there and ``out`` is returned."""
    return _c2r(c, axes, n, *_C2R_ARGS, out, _WORKERS)


@dataclass(frozen=True)
class CSRMatrix:
    """Sparse matrix of ``rows`` x ``cols`` in canonical CSR form: rows
    ascending, columns ascending within a row, no repeated entry.  scipy's
    ``csr_matrix`` sorts its input into the same form, so products agree to
    the bit.  ``cols`` defaults to the row count, a square matrix.

    The constructor checks what the compiled product reads: ``indptr``
    starts at 0, never decreases and ends at the entry count, and every
    column lies in [0, cols)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    cols: int | None = None

    def __post_init__(self):
        ptr, cols = self.indptr, self.indices
        if ptr.ndim != 1 or ptr.size == 0 or ptr[0] != 0 or np.any(np.diff(ptr) < 0) or ptr[-1] != cols.size:
            raise ValueError(f"indptr must rise from 0 to the entry count {cols.size}")
        if cols.ndim != 1 or self.data.shape != cols.shape:
            raise ValueError(f"need one value per column index, got shapes {self.data.shape} and {cols.shape}")
        if self.cols is None:
            object.__setattr__(self, "cols", self.rows)
        if cols.size and not 0 <= cols.min() <= cols.max() < self.cols:
            raise ValueError(f"column index outside [0, {self.cols})")

    @property
    def rows(self):
        return self.indptr.size - 1

    @property
    def shape(self):
        return self.rows, self.cols

    def add_product(self, x, y):
        """y += A x, in place; x and y are float64 vectors of length cols and rows."""
        for name, vec, size in (("x", x, self.cols), ("y", y, self.rows)):
            if vec.shape != (size,) or vec.dtype != np.float64:
                raise ValueError(f"expected {name} a float64 vector of length {size}, got {vec.dtype} {vec.shape}")
        _csr_matvec(self.rows, self.cols, self.indptr, self.indices, self.data, x, y)

    def __matmul__(self, x):
        y = np.zeros(self.rows)
        self.add_product(x, y)
        return y
