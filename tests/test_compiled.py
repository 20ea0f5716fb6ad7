"""The compiled scipy kernels nslb loads by path agree bit for bit with
scipy's public fft and sparse packages, imported here in the same process."""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.fft
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb import _compiled
from nslb._compiled import CSRMatrix, irfftn_forward, rfftn_forward
from nslb.cone import BallGrid, _poisson_system
from oracles import loop_red_black_system

transforms = dict(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 16, 32]),
    batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=30, deadline=None)
@given(**transforms)
def test_rfftn_forward_matches_scipy_fft(n, N, batch, seed):
    x = np.random.default_rng(seed).normal(size=tuple(batch) + (N,) * n)
    axes = tuple(range(len(batch), x.ndim))
    assert np.array_equal(rfftn_forward(x, axes), scipy.fft.rfftn(x, axes=axes, norm="forward"))


@settings(max_examples=30, deadline=None)
@given(**transforms)
def test_irfftn_forward_matches_scipy_fft(n, N, batch, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + (N,) * (n - 1) + (N // 2 + 1,)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    axes = tuple(range(len(batch), c.ndim))
    want = scipy.fft.irfftn(c, s=(N,) * n, axes=axes, norm="forward")
    assert np.array_equal(irfftn_forward(c, axes, N), want)
    # into a given array, also a row of a larger one, as to_grid calls it
    out = np.full((2,) + want.shape, np.nan)
    assert irfftn_forward(c, axes, N, out=out[1]).base is out
    assert out[1].tobytes() == want.tobytes() and np.isnan(out[0]).all()


@pytest.mark.parametrize("shape", [(3, 32, 32, 17), (2, 32, 17), (3, 12, 12, 7)])
def test_irfftn_forward_leaves_its_input_unchanged(shape):
    # the solver's zeroed scatter buffer is read by every inverse transform
    # and must stay zero off the 2/3 box
    rng = np.random.default_rng(len(shape))
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = c.tobytes()
    irfftn_forward(c, tuple(range(1, len(shape))), 2 * (shape[-1] - 1))
    assert c.tobytes() == before


@pytest.mark.parametrize("n, m", [(2, 17), (2, 129), (3, 33)])
def test_poisson_matvec_matches_csr_matrix(n, m):
    ball = BallGrid(n, 0.5, m)
    rng = np.random.default_rng(100 * n + m)
    rhs = rng.normal(size=ball.mask.shape)
    bvals = rng.normal(size=ball.mask.shape)
    system = _poisson_system(ball, rhs, bvals)
    (_, red_black, black_red, _), _ = loop_red_black_system(ball, rhs, bvals)
    for mat, want in ((system.coupling, red_black), (system.coupling_t, black_red)):
        for _ in range(3):
            p = rng.normal(size=mat.cols)
            assert (mat @ p).tobytes() == (-want @ p).tobytes()  # blocks of the SPD -A_h


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 60), density=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_random_symmetric_matvec_matches_csr_matrix(size, density, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((size, size)) < density)
    rows, cols = np.nonzero(upper | upper.T)
    values = rng.normal(size=(size, size))
    data = (values + values.T)[rows, cols]
    order = rng.permutation(rows.size)  # entries in no particular order
    want = scipy.sparse.csr_matrix((data[order], (rows[order], cols[order])), shape=(size, size))
    mat = CSRMatrix(want.indptr, want.indices, want.data)
    x = rng.normal(size=size)
    assert (mat @ x).tobytes() == (want @ x).tobytes()


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40), density=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_random_rectangular_product_adds_into_its_vector(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((rows, cols)) < density, rng.normal(size=(rows, cols)), 0.0)
    want = scipy.sparse.csr_matrix(dense)
    indptr, indices = want.indptr.astype(np.int32), want.indices.astype(np.int32)
    mat = CSRMatrix(indptr, indices, want.data, cols)
    assert mat.shape == (rows, cols)
    x = rng.normal(size=cols)
    assert (mat @ x).tobytes() == (want @ x).tobytes()
    y0 = rng.normal(size=rows)
    y = y0.copy()
    mat.add_product(x, y)
    # the product adds each term to y0 in turn, so only a rounding bound holds
    assert np.all(np.abs(y - (y0 + want @ x)) <= 1e-14 * (np.abs(y0) + abs(want) @ np.abs(x)))
    with pytest.raises(ValueError, match=f"y a float64 vector of length {rows}"):
        mat.add_product(x, np.zeros(rows + 1))


def test_csr_matrix_checks_columns_against_its_column_count():
    indptr, indices = np.array([0, 1, 2]), np.array([0, 2])
    assert CSRMatrix(indptr, indices, np.ones(2), 3).shape == (2, 3)
    for cols in (2, None):  # None: square
        with pytest.raises(ValueError, match=r"column index outside \[0, 2\)"):
            CSRMatrix(indptr, indices, np.ones(2), cols)
    with pytest.raises(ValueError, match="x a float64 vector of length 3"):
        CSRMatrix(indptr, indices, np.ones(2), 3) @ np.ones(2)


def test_csr_matrix_rejects_indices_the_kernel_would_read_out_of_bounds():
    cases = [
        ([0, 1, 2], [0, 2], "column index"),  # column 2 of a 2 x 2 matrix
        ([0, 1, 2], [-1, 1], "column index"),
        ([1, 1, 2], [0, 1], "indptr"),  # does not start at 0
        ([0, 2, 1, 2], [0, 1], "indptr"),  # decreases
        ([0, 1, 3], [0, 1], "indptr"),  # ends past the entries
        ([0, 1, 1], [0, 1], "indptr"),  # ends before them
        ([], [], "indptr"),
    ]
    for indptr, indices, match in cases:
        indptr, indices = np.array(indptr, dtype=np.intp), np.array(indices, dtype=np.intp)
        with pytest.raises(ValueError, match=match):
            CSRMatrix(indptr, indices, np.ones(indices.size))


def test_csr_matrix_rejects_misshapen_values_and_vectors():
    indptr, indices = np.array([0, 1, 2]), np.array([0, 1])
    with pytest.raises(ValueError, match="one value per column index"):
        CSRMatrix(indptr, indices, np.ones(3))
    mat = CSRMatrix(indptr, indices, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="length 2"):
        mat @ np.ones(3)


def test_loader_names_scipy_version_and_missing_file(tmp_path):
    with pytest.raises(ImportError) as err:
        _compiled._load_kernels(tmp_path)
    message = str(err.value)
    assert f"scipy {scipy.__version__}" in message
    assert "fft/_pocketfft/pypocketfft" in message and str(tmp_path) in message
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}: missing file version.py in {tmp_path}"):
        _compiled._scipy_version(tmp_path)


def test_loader_rejects_changed_kernels():
    pocketfft = types.ModuleType("scipy.fft._pocketfft.pypocketfft")
    sparsetools = types.ModuleType("scipy.sparse._sparsetools")
    pocketfft.r2c, pocketfft.c2r = _compiled._r2c, _compiled._c2r
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}: .*has no function csr_matvec"):
        _compiled._checked(pocketfft, sparsetools)
    sparsetools.csr_matvec = _compiled._csr_matvec
    pocketfft.r2c = lambda x, axes, forward, norm, out, workers: scipy.fft.rfftn(x, axes=axes)
    with pytest.raises(ImportError, match="no longer give the forward-normalised"):
        _compiled._checked(pocketfft, sparsetools)
    pocketfft.r2c = _compiled._r2c
    # a c2r that ignores its output array, or hands it back unwritten
    for ignores_out in (
        lambda c, axes, n, forward, norm, out, workers: _compiled._c2r(c, axes, n, forward, norm, None, workers),
        lambda c, axes, n, forward, norm, out, workers: _compiled._c2r(c, axes, n, forward, norm, None, workers) if out is None else out,
    ):
        pocketfft.c2r = ignores_out
        with pytest.raises(ImportError, match="no longer give the forward-normalised"):
            _compiled._checked(pocketfft, sparsetools)
    pocketfft.c2r = _compiled._c2r
    pocketfft.r2c = lambda x, axes, forward: None
    with pytest.raises(ImportError, match="rejected nslb's call"):
        _compiled._checked(pocketfft, sparsetools)
    pocketfft.r2c = _compiled._r2c

    # a product that takes only int64 indices fails at load, not in the
    # middle of a ball Poisson solve, which passes int32
    def int64_only(n_row, n_col, indptr, indices, data, x, y):
        if indptr.dtype != np.int64 or indices.dtype != np.int64:
            raise TypeError("unsupported index type")
        return _compiled._csr_matvec(n_row, n_col, indptr, indices, data, x, y)

    sparsetools.csr_matvec = int64_only
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}: sparsetools csr_matvec rejected nslb's call with int32 indices"):
        _compiled._checked(pocketfft, sparsetools)
    sparsetools.csr_matvec = _compiled._csr_matvec
    assert _compiled._checked(pocketfft, sparsetools) == (_compiled._r2c, _compiled._c2r, _compiled._csr_matvec)


def test_loader_rejects_a_product_that_fails_on_rectangular_blocks():
    # the ball Poisson solve multiplies by two rectangular int32 blocks and
    # adds into its own vector; a product that cannot fails at load
    pocketfft = types.SimpleNamespace(r2c=_compiled._r2c, c2r=_compiled._c2r)

    def square_only(n_row, n_col, *args):
        if n_row != n_col:
            raise ValueError("unsupported shape")
        return _compiled._csr_matvec(n_row, n_col, *args)

    def overwrites(n_row, n_col, indptr, indices, data, x, y):
        y.fill(0.0)
        return _compiled._csr_matvec(n_row, n_col, indptr, indices, data, x, y)

    sparsetools = types.SimpleNamespace(csr_matvec=square_only)
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}: .*rejected nslb's call with int32 indices on a 2 x 3 block"):
        _compiled._checked(pocketfft, sparsetools)
    sparsetools.csr_matvec = overwrites
    with pytest.raises(ImportError, match="no longer computes y \\+= A x"):
        _compiled._checked(pocketfft, sparsetools)


def test_poisson_system_is_int32_and_rejects_balls_past_its_index_range():
    ball = BallGrid(3, 0.5, 9)
    system = _poisson_system(ball, np.zeros(ball.mask.shape), np.zeros(ball.mask.shape))
    for mat in (system.coupling, system.coupling_t):
        assert mat.indptr.dtype == mat.indices.dtype == np.int32
    # stand-in balls whose interior is a broadcast view: 1291^3 >= 2^31 nodes,
    # and 675^3 nodes, whose 7 entries per row could pass 2^31
    for m in (1291, 675):
        huge = types.SimpleNamespace(n=3, m=m, interior=np.broadcast_to(False, (m,) * 3))
        with pytest.raises(ValueError, match="too large for int32 CSR indices"):
            _poisson_system(huge, None, None)


def test_scipy_packages_imported_after_nslb_bind_the_same_kernels():
    # nslb loads the kernels before their packages exist; importing the
    # packages afterwards must still bind them as package attributes
    code = (
        "import nslb.cli, scipy.fft, scipy.sparse\n"
        "from nslb import _compiled\n"
        "assert scipy.sparse._sparsetools.csr_matvec is _compiled._csr_matvec\n"
        "assert scipy.fft._pocketfft.pypocketfft.r2c is _compiled._r2c\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
