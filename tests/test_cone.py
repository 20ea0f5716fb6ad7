import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb import cone
from nslb.cone import (
    BallGrid,
    ConeSpec,
    CylinderSpec,
    dtau_dt,
    mu_coeffs,
    _poisson_system,
    poisson_dirichlet,
    sample_w_function,
    t_of_tau,
    tau_of_t,
    transformed_residual,
)
from nslb.flows import StreamFlow, TaylorGreenFlow
from oracles import AbcFlow, loop_poisson_system, loop_red_black_system, roll_interior, shifted_stencils


ROOT = Path(__file__).resolve().parent.parent
CONE = ConeSpec(t_s=1.0, x_s=(0.1, -0.2), t_1=0.5)
CONE_3D = ConeSpec(t_s=1.0, x_s=(0.1, -0.2, 0.05), t_1=0.5)  # the cone of the 3D benchmark
CONES = {2: CONE, 3: CONE_3D}


def test_cone_validation():
    with pytest.raises(ValueError):
        ConeSpec(t_s=1.0, x_s=(0.0, 0.0), t_1=1.5)
    with pytest.raises(ValueError):
        ConeSpec(t_s=-1.0, x_s=(0.0, 0.0), t_1=0.5)


@pytest.mark.parametrize(
    "t_s, x_s, t_1",
    [
        (np.inf, (0.0, 0.0), 0.5),  # would map every t to tau = 0
        (np.nan, (0.0, 0.0), 0.5),
        (1.0, (0.0, 0.0), np.nan),
        (1.0, (0.0, 0.0), np.inf),
        (1.0, (np.nan, 0.0), 0.5),
        (1.0, (0.0, -np.inf), 0.5),
    ],
)
def test_cone_rejects_non_finite_fields(t_s, x_s, t_1):
    with pytest.raises(ValueError):
        ConeSpec(t_s=t_s, x_s=x_s, t_1=t_1)


@pytest.mark.parametrize("t_in, r_0", [(np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, np.inf), (np.nan, np.inf)])
def test_cylinder_rejects_non_finite_fields(t_in, r_0):
    with pytest.raises(ValueError):
        CylinderSpec(t_in=t_in, r_0=r_0)


def test_cylinder_from_cone():
    cyl = CylinderSpec.from_cone(CONE)
    assert cyl.t_in == pytest.approx(0.5 / 0.5)
    assert cyl.r_0 == pytest.approx(0.5)


def test_time_map_values():
    cone = ConeSpec(t_s=1.0, x_s=(0.0, 0.0), t_1=0.25)
    assert tau_of_t(0.0, cone) == 0.0
    assert tau_of_t(0.5, cone) == pytest.approx(1.0)
    assert t_of_tau(0.0, cone) == 0.0
    assert t_of_tau(1.0, cone) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tau_of_t(1.0, cone)
    # far-time behaviour: t_s - t = t_s/(1+tau) even at tau = 1e6
    tau = 1e6
    assert cone.t_s - t_of_tau(tau, cone) == pytest.approx(cone.t_s / (1 + tau), rel=1e-12)


def test_bijection_and_identity():
    taus = np.logspace(-3, 3, 301)
    ts = t_of_tau(taus, CONE)
    assert np.max(np.abs(tau_of_t(ts, CONE) - taus) / taus) < 1e-13
    assert np.max(np.abs(CONE.t_s - ts - CONE.t_s / (1 + taus))) < 1e-15


def test_dtau_dt():
    cone1 = ConeSpec(t_s=1.0, x_s=(0.0, 0.0), t_1=0.5)
    cone2 = ConeSpec(t_s=2.0, x_s=(0.0, 0.0), t_1=0.5)
    assert dtau_dt(0.0, cone1) == pytest.approx(1.0)
    assert dtau_dt(1.0, cone2) == pytest.approx(2.0)
    # positivity on a dense sample and FD agreement
    ts = np.linspace(0.0, 0.95, 200)
    assert np.all(dtau_dt(ts, cone1) > 0)
    h = 1e-6
    fd = (tau_of_t(ts + h, cone1) - tau_of_t(ts - h, cone1)) / (2 * h)
    assert np.max(np.abs(fd - dtau_dt(ts, cone1)) / dtau_dt(ts, cone1)) < 1e-6


def test_mu_coefficients():
    cone = ConeSpec(t_s=2.0, x_s=(0.0, 0.0), t_1=0.5)
    mu1_0, mu2_0 = mu_coeffs(0.0, cone)
    # mu2 = 1/t_s throughout; mu1 = (t_s - t)/t_s = 1/(1+tau)
    assert mu2_0 == pytest.approx(0.5)
    assert mu1_0 == pytest.approx(1.0)
    mu1_1, mu2_1 = mu_coeffs(1.0, cone)
    assert mu1_1 == pytest.approx(0.5)
    assert mu2_1 == pytest.approx(0.5)
    for tau in (0.0, 1.0, 10.0, 100.0):
        mu1, mu2 = mu_coeffs(tau, cone)
        assert mu2 == pytest.approx(0.5, abs=1e-15)  # constant in tau
        assert mu1 * (1 + tau) == pytest.approx(1.0, abs=1e-12)
        assert mu1 <= mu_coeffs(0.0, cone).mu1 + 1e-15


def test_mu_coeffs_array_equals_elementwise_calls():
    taus = np.logspace(-3, 3, 601)
    coeffs = mu_coeffs(taus, CONE)
    assert coeffs.mu1.tobytes() == np.array([mu_coeffs(t, CONE).mu1 for t in taus]).tobytes()
    assert coeffs.mu2 == mu_coeffs(taus[0], CONE).mu2
    assert np.max(np.abs(coeffs.mu1 * (1 + taus) - 1.0)) <= 1e-12
    with pytest.raises(ValueError):
        mu_coeffs(np.array([1.0, -1e-9]), CONE)


def test_sample_constant_field():
    ball = BallGrid(2, 0.3, 17)
    w = sample_w_function(lambda t, pts: np.full((2, len(pts)), 3.25), CONE, 2.0, ball)
    for c in range(2):
        assert np.max(np.abs(w[c][ball.mask] - 3.25)) == 0.0


def test_sample_affine_field():
    cone = ConeSpec(t_s=1.0, x_s=(0.0, 0.0), t_1=0.4)
    ball = BallGrid(2, 0.3, 17)
    w = sample_w_function(lambda t, pts: np.asarray(pts)[:, 0][None], cone, 1.0, ball)
    assert np.max(np.abs((w[0] - 0.5 * ball.mesh[0])[ball.mask])) < 1e-14


def test_sample_rejects_oversized_ball():
    ball = BallGrid(2, 0.9, 17)  # cylinder base is 0.5
    with pytest.raises(ValueError):
        sample_w_function(lambda t, pts: np.zeros((2, len(pts))), CONE, 2.0, ball)


def test_incompressibility_transfer_order():
    # divergence of the sampled comparison field vanishes at second order
    flow = StreamFlow()
    cyl = CylinderSpec.from_cone(CONE)
    tau0 = tau_of_t(0.75, CONE)
    errs = {}
    for m in (17, 33, 65):
        ball = BallGrid(2, 0.8 * cyl.r_0, m)
        div = ball.divergence(sample_w_function(flow.velocity, CONE, tau0, ball))
        errs[m] = np.sqrt(np.mean(div[ball.interior] ** 2))
    assert np.log2(errs[17] / errs[33]) >= 1.8
    assert np.log2(errs[33] / errs[65]) >= 1.8


def test_ball_grid_fd_exact_on_quadratics():
    ball = BallGrid(2, 0.4, 21)
    z1, z2 = ball.mesh
    q = z1**2 + 3 * z2 + 0.5 * z1 * z2
    # nodes with a full one-sided or centered stencil reproduce quadratics
    full = ball.interior.copy()
    d1 = ball.partial(q, 0)
    assert np.max(np.abs((d1 - (2 * z1 + 0.5 * z2))[full])) < 1e-10
    lap = ball.laplacian(q)
    assert np.max(np.abs((lap - 2.0)[full])) < 1e-9
    # every first-derivative row is exact on affine fields, so the divergence
    # is the trace at each node that takes a row on every axis
    for n in (2, 3):
        ball = BallGrid(n, 0.4, 21)
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(n, n)), rng.normal(size=n)
        affine = np.stack([sum(a[k, j] * ball.mesh[j] for j in range(n)) + b[k] for k in range(n)])
        rows = np.zeros(ball.mask.size, dtype=int)
        for axis in range(n):
            for nodes, *_ in ball._stencil_rows(axis, 1):
                rows[nodes] += 1
        covered = (rows == n).reshape(ball.mask.shape)
        assert np.max(np.abs(ball.divergence(affine) - np.trace(a))[covered]) < 1e-12


def test_poisson_dirichlet_manufactured():
    errs = {}
    for m in (21, 41):
        ball = BallGrid(2, 0.5, m)
        z1, z2 = ball.mesh
        exact = np.sin(np.pi * z1) * np.cos(np.pi * z2)
        rhs = -2 * np.pi**2 * exact
        p = poisson_dirichlet(ball, rhs, exact)
        errs[m] = np.max(np.abs((p - exact)[ball.mask]))
    assert errs[41] <= errs[21] / 3.0  # second-order solve


@pytest.mark.parametrize("n", [2, 3])
def test_ball_interior_matches_roll_oracle(n):
    for m in range(8, 40):
        for radius in (0.3, 0.45, 0.8, 1.0):
            ball = BallGrid(n, radius, m)
            assert np.array_equal(ball.interior, roll_interior(ball.mask))
            assert np.array_equal(ball.boundary, ball.mask & ~ball.interior)


# the first-derivative fallback needs an axis line crossing exactly two mask
# nodes: 3D m = 10 has some, no 2D ball up to m = 256 does
STENCIL_CASES = [(2, 8), (2, 21), (3, 8), (3, 10), (3, 13)]


@pytest.mark.parametrize("n, m", STENCIL_CASES)
def test_ball_stencils_match_oracle(n, m):
    ball = BallGrid(n, 0.45, m)
    rng = np.random.default_rng(n * 100 + m)
    values = rng.normal(size=ball.mask.shape)
    values[rng.random(values.shape) < 0.05] = -0.0
    for axis in range(n):
        d1, d2, _ = shifted_stencils(ball, values, axis)
        assert ball.partial(values, axis).tobytes() == d1.tobytes()
        assert ball.second_partial(values, axis).tobytes() == d2.tobytes()


def test_ball_stencil_cases_select_every_row():
    # each of the five rows of each order, and nodes that fit no row, occur
    # in some case of test_ball_stencils_match_oracle
    seen = {1: np.zeros(6, dtype=int), 2: np.zeros(6, dtype=int)}
    for n, m in STENCIL_CASES:
        ball = BallGrid(n, 0.45, m)
        for axis in range(n):
            _, _, rows = shifted_stencils(ball, np.zeros(ball.mask.shape), axis)
            for order, selections in rows.items():
                seen[order] += [np.count_nonzero(sel) for sel in selections]
    assert all(np.all(counts > 0) for counts in seen.values()), seen


def _assert_negated_loop_system(ball, rhs, bvals):
    """_poisson_system is the loop oracle's system negated and permuted to
    red-black order: both diagonal blocks are exactly 2n/h^2 I, and the
    coupling blocks are in scipy's canonical CSR arrays (entry order
    included), bit for bit."""
    system = _poisson_system(ball, rhs, bvals)
    (red_red, red_black, black_red, black_black), want_b = loop_red_black_system(ball, rhs, bvals)
    assert system.diagonal == 2.0 * ball.n / ball.h**2
    for block in (red_red, black_black):
        rows = block.shape[0]
        assert np.array_equal(block.indptr, np.arange(rows + 1)) and np.array_equal(block.indices, np.arange(rows))
        assert (-block.data).tobytes() == np.full(rows, system.diagonal).tobytes()
    for mat, want in ((system.coupling, red_black), (system.coupling_t, black_red)):
        assert mat.shape == want.shape
        assert np.array_equal(mat.indptr, want.indptr)
        assert np.array_equal(mat.indices, want.indices)
        assert mat.data.tobytes() == (-want.data).tobytes()
    assert system.b.tobytes() == (-want_b).tobytes()


random_balls = dict(n=st.sampled_from([2, 3]), m=st.integers(8, 40), radius=st.floats(0.2, 1.0), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=20, deadline=None)
@given(**random_balls)
def test_cached_stencil_rows_match_oracle_on_random_balls(n, m, radius, seed):
    ball = BallGrid(n, radius, m)
    rng = np.random.default_rng(seed)
    for values in (rng.normal(size=ball.mask.shape), rng.normal(size=ball.mask.shape)):
        for axis in range(n):  # the second pass reads the cached rows
            d1, d2, _ = shifted_stencils(ball, values, axis)
            assert ball.partial(values, axis).tobytes() == d1.tobytes()
            assert ball.second_partial(values, axis).tobytes() == d2.tobytes()


@settings(max_examples=10, deadline=None)
@given(**random_balls)
def test_poisson_assembly_matches_negated_loop_oracle_on_random_balls(n, m, radius, seed):
    ball = BallGrid(n, radius, m)
    rng = np.random.default_rng(seed)
    _assert_negated_loop_system(ball, rng.normal(size=ball.mask.shape), rng.normal(size=ball.mask.shape))


def test_ball_arrays_are_read_only():
    ball = BallGrid(3, 0.5, 9)
    for arr in (ball.axis, *ball.mesh, ball.mask, ball.interior, ball.boundary):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    # the mesh is the ij meshgrid, held as full-shape views of the axis
    for c, want in zip(ball.mesh, np.meshgrid(*(ball.axis,) * 3, indexing="ij"), strict=True):
        assert c.shape == ball.mask.shape and np.shares_memory(c, ball.axis)
        assert c.tobytes() == want.tobytes()


def test_poisson_assembly_memory_stays_within_twice_its_output():
    # the neighbour tables and the output arrays fit in 2x the returned bytes;
    # COO triplets with a sort and a negated copy need about 4.5x
    ball = BallGrid(3, 0.5, 33)
    rng = np.random.default_rng(5)
    rhs, bvals = rng.normal(size=ball.mask.shape), rng.normal(size=ball.mask.shape)
    tracemalloc.start()
    try:
        system = _poisson_system(ball, rhs, bvals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = (system.coupling, system.coupling_t)
    assert blocks[0].data is blocks[1].data  # one data array serves both blocks
    kept = sum(mat.indptr.nbytes + mat.indices.nbytes for mat in blocks) + blocks[0].data.nbytes + system.b.nbytes
    assert peak <= 2.0 * kept, (peak, kept)


@pytest.mark.parametrize("n, m", [(2, 9), (2, 24), (3, 9), (3, 14)])
def test_poisson_assembly_matches_loop_oracle(n, m):
    ball = BallGrid(n, 0.5, m)
    rng = np.random.default_rng(7 * n + m)
    rhs = rng.normal(size=ball.mask.shape)
    bvals = rng.normal(size=ball.mask.shape)
    _assert_negated_loop_system(ball, rhs, bvals)
    want_mat, want_b = loop_poisson_system(ball, rhs, bvals)
    p = poisson_dirichlet(ball, rhs, bvals)
    want = np.zeros(ball.mask.shape)
    want[ball.interior] = scipy.sparse.linalg.spsolve(want_mat, want_b)
    want[ball.boundary] = bvals[ball.boundary]
    assert np.max(np.abs(p - want)) <= 1e-12 * np.max(np.abs(want))


def test_poisson_dirichlet_rejects_bad_input():
    ball = BallGrid(2, 0.5, 11)
    good = np.zeros(ball.mask.shape)
    with pytest.raises(ValueError, match="rhs_values"):
        poisson_dirichlet(ball, good[:-1], good)
    with pytest.raises(ValueError, match="boundary_values"):
        poisson_dirichlet(ball, good, good.ravel())
    bad_rhs = good.copy()
    bad_rhs[tuple(np.argwhere(ball.interior)[0])] = np.nan
    with pytest.raises(ValueError, match="rhs_values"):
        poisson_dirichlet(ball, bad_rhs, good)
    bad_bc = good.copy()
    bad_bc[tuple(np.argwhere(ball.boundary)[0])] = np.inf
    with pytest.raises(ValueError, match="boundary_values"):
        poisson_dirichlet(ball, good, bad_bc)
    # only the interior right-hand side and the boundary-ring data are read
    rhs = np.where(ball.interior, 0.0, np.nan)
    bc = np.where(ball.boundary, 0.0, np.nan)
    assert np.all(poisson_dirichlet(ball, rhs, bc)[ball.mask] == 0.0)


def _random_quadratic(ball, rng):
    quad = rng.normal(size=(ball.n, ball.n))
    quad = quad + quad.T
    lin, const = rng.normal(size=ball.n), float(rng.normal())
    z = ball.mesh
    exact = sum(quad[i, j] * z[i] * z[j] for i in range(ball.n) for j in range(ball.n))
    exact = exact + sum(lin[i] * z[i] for i in range(ball.n)) + const
    return exact, np.full(ball.mask.shape, 2.0 * np.trace(quad))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([8, 13, 21, 33]),
    radius=st.sampled_from([0.3, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_poisson_cg_matches_direct_solve(n, m, radius, seed):
    ball = BallGrid(n, radius, m)
    rng = np.random.default_rng(seed)
    rhs = rng.normal(size=ball.mask.shape)
    bvals = rng.normal(size=ball.mask.shape)
    want_mat, want_b = loop_poisson_system(ball, rhs, bvals)
    want = np.zeros(ball.mask.shape)
    want[ball.interior] = scipy.sparse.linalg.spsolve(want_mat, want_b)
    want[ball.boundary] = bvals[ball.boundary]
    p = poisson_dirichlet(ball, rhs, bvals)
    assert np.max(np.abs(p - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=10, deadline=None)
@given(**random_balls)
def test_poisson_solution_satisfies_the_full_loop_system_on_random_balls(n, m, radius, seed):
    # CG runs on the black nodes' reduced system; the red values recovered
    # from it leave the full system's residual at the reduced one's
    ball = BallGrid(n, radius, m)
    rng = np.random.default_rng(seed)
    rhs, bvals = rng.normal(size=ball.mask.shape), rng.normal(size=ball.mask.shape)
    want_mat, want_b = loop_poisson_system(ball, rhs, bvals)
    p = poisson_dirichlet(ball, rhs, bvals)
    assert np.linalg.norm(want_b - want_mat @ p[ball.interior]) <= 1e-13 * np.linalg.norm(want_b)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    m=st.sampled_from([8, 13, 21, 33]),
    radius=st.sampled_from([0.3, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_poisson_reproduces_quadratics(n, m, radius, seed):
    # the 2n-point Laplacian is exact on quadratics, so only the solve errs;
    # 3-D m = 33 on the radius-0.5 ball is the benchmark's Poisson check
    ball = BallGrid(n, radius, m)
    exact, rhs = _random_quadratic(ball, np.random.default_rng(seed))
    p = poisson_dirichlet(ball, rhs, exact)
    assert np.max(np.abs(p - exact)[ball.mask]) <= 1e-10


def test_poisson_solve_on_the_benchmark_ball_takes_at_most_80_iterations(monkeypatch):
    # on this 3-D m = 33 problem CG on the full system took 134 iterations,
    # CG on the reduced system takes 67
    ball = BallGrid(3, 0.5, 33)
    exact, rhs = _random_quadratic(ball, np.random.default_rng(0))
    monkeypatch.setattr(cone, "_cg_iteration_cap", lambda size: 80)
    p = poisson_dirichlet(ball, rhs, exact)
    assert np.max(np.abs(p - exact)[ball.mask]) <= 1e-10


def _run_python(code, **env_vars):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_vars)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_poisson_no_convergence_raises_runtime_error(monkeypatch, tmp_path):
    ball = BallGrid(3, 0.5, 13)
    exact, rhs = _random_quadratic(ball, np.random.default_rng(3))
    monkeypatch.setattr(cone, "_cg_iteration_cap", lambda size: 1)
    with pytest.raises(RuntimeError, match=r"did not converge in 1 iterations: relative residual \d"):
        poisson_dirichlet(ball, rhs, exact)
    # through the CLI a numerical failure exits 1, not 2 as a config error
    code = (
        "import sys, nslb.cone; from nslb.cli import main; "
        "nslb.cone._cg_iteration_cap = lambda size: 1; "
        f"sys.exit(main(['transform-check', '--config', {str(ROOT / 'configs' / 'transform_check.cfg')!r}, "
        f"'--out', {str(tmp_path)!r}]))"
    )
    done = _run_python(code)
    assert done.returncode == 1
    assert "RuntimeError: conjugate gradients did not converge in 1 iterations" in done.stderr
    assert "config error" not in done.stderr


def test_poisson_bytes_independent_of_blas_threads():
    # 14,531 unknowns: above the size where OpenBLAS splits a dot product
    # across threads, which changes its last bits
    code = (
        "import hashlib, numpy as np; from nslb.cone import BallGrid, poisson_dirichlet; "
        "ball = BallGrid(3, 0.5, 33); rng = np.random.default_rng(11); "
        "p = poisson_dirichlet(ball, rng.normal(size=ball.mask.shape), rng.normal(size=ball.mask.shape)); "
        "print(hashlib.sha256(p.tobytes()).hexdigest())"
    )
    runs = [_run_python(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert all(done.returncode == 0 for done in runs), [done.stderr for done in runs]
    assert runs[0].stdout == runs[1].stdout


def _constant_sampler(velocity, pressure):
    """A sampler whose velocity and pressure are constant in space and time."""

    class Const:
        nu = 0.1

        @staticmethod
        def velocity(t, pts):
            return np.tile(np.asarray(velocity, dtype=float)[:, None], (1, len(pts)))

        @staticmethod
        def pressure(t, pts):
            return np.full(len(pts), pressure)

    return Const


def test_transformed_residual_rejects_non_finite_pressure():
    for n, spec in CONES.items():
        ball = BallGrid(n, 0.4, 17)
        with pytest.raises(ValueError, match="boundary_values"):
            transformed_residual(_constant_sampler([0.0] * n, np.nan), spec, 2.0, ball, dtau=ball.h)


def test_transformed_residual_zero_field():
    for n, spec in CONES.items():
        ball = BallGrid(n, 0.4, 17)
        rep = transformed_residual(_constant_sampler([0.0] * n, 0.0), spec, 2.0, ball, dtau=ball.h)
        assert rep.residual_l2 == 0.0


def test_transformed_residual_constant_field_steady():
    # constants are steady states of the transformed system: the drift sees
    # zero gradients and the pressure gradient vanishes
    for n, spec in CONES.items():
        ball = BallGrid(n, 0.4, 17)
        rep = transformed_residual(_constant_sampler([0.7, -0.3, 0.45][:n], 0.9), spec, 2.0, ball, dtau=ball.h)
        assert rep.residual_max < 1e-11, n


def test_transformed_residual_refinement():
    # sampled smooth-flow residual drops by >= 3.5x per grid doubling
    nu = 0.02
    flow = TaylorGreenFlow(nu=nu, amplitude=1.0)

    class Sampler:
        velocity = staticmethod(flow.velocity)
        pressure = staticmethod(flow.pressure)

    Sampler.nu = nu
    cyl = CylinderSpec.from_cone(CONE)
    tau0 = tau_of_t(0.75, CONE)
    res = {}
    for m in (17, 33):
        ball = BallGrid(2, 0.8 * cyl.r_0, m)
        res[m] = transformed_residual(Sampler, CONE, tau0, ball, dtau=ball.h).residual_l2
    assert res[17] / res[33] >= 3.5


def test_transformed_residual_refinement_3d():
    # the benchmark's 3D check: an exact ABC flow on its cone, m = 17 -> 25,
    # converges at order >= 1.75 in the grid step (1.96 with these amplitudes)
    flow = AbcFlow(np.random.default_rng(0).uniform(0.5, 1.5, 3), 0.05)
    r_0 = CylinderSpec.from_cone(CONE_3D).r_0
    tau0 = float(tau_of_t(0.75, CONE_3D))
    res, hs = [], []
    for m in (17, 25):
        ball = BallGrid(3, 0.8 * r_0, m)
        res.append(transformed_residual(flow, CONE_3D, tau0, ball, dtau=ball.h).residual_l2)
        hs.append(ball.h)
    assert np.log(res[0] / res[1]) / np.log(hs[0] / hs[1]) >= 1.75
