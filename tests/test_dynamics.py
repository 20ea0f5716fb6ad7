import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb.dynamics import (
    SolverConfig,
    _HalfSpectrum,
    _cumulative_trapezoid,
    Trajectory,
    energy,
    gradient_energy,
    hopf_energy_check,
    simulate,
)
from nslb.flows import TaylorGreenFlow, perturbed_taylor_green, random_divergence_free, taylor_green
from nslb.leray import leray_project
from nslb.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    _full_sum,
    dealias,
    dealias_mask,
    divergence,
    sobolev_norm,
    to_grid,
    to_modes,
)
from oracles import (
    HalfLatticeOperator,
    advective_nonlinear_modes,
    batched_nonlinear,
    box_of,
    full_lattice,
    full_random_divergence_free,
    l4_norm,
    out_of_place_if_rk4,
    padded_nonlinear_modes,
    perturbed_taylor_green_values,
    prefix_hopf_max_violation,
    prefix_weak_strong_c,
    projected_divergence_modes,
    rhs,
    rolled_random_divergence_free,
    taylor_green_values,
    weak_strong_bound,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(nu=0.0, dt=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(nu=0.1, dt=-1e-3, t_end=1.0)
    with pytest.raises(ValueError, match="end time"):
        SolverConfig(nu=0.1, dt=0.1, t_end=-1.0)
    # 1.0 / 0.3 is not a whole number of steps; rounding would stop at t = 0.9
    with pytest.raises(ValueError, match="whole number of steps"):
        SolverConfig(nu=0.1, dt=0.3, t_end=1.0)
    for t_end, dt in ((0.08, 0.002), (0.5, 0.001), (0.1, 1.25e-4), (0.2, 5e-4)):
        SolverConfig(nu=0.1, dt=dt, t_end=t_end)
    # a zero stride divided by zero inside simulate; a negative one was accepted
    # 2.5 was accepted and recorded only t = 0 and the last step
    for stride in (0, -1, -10, 2.5, 2.0, np.nan):
        with pytest.raises(ValueError, match="snapshot_stride"):
            SolverConfig(nu=0.1, dt=1e-3, t_end=1.0, snapshot_stride=stride)
    assert SolverConfig(nu=0.1, dt=1e-3, t_end=1.0, snapshot_stride=np.int64(2)).snapshot_stride == 2
    # nan passes an "x <= 0" guard, and t_end = inf overflowed round()
    for bad in (np.nan, np.inf, -np.inf):
        for field in ("nu", "dt", "t_end"):
            kwargs = {"nu": 0.1, "dt": 1e-3, "t_end": 1.0, field: bad}
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(**kwargs)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=1.0)
    grid = TorusGrid(2, 32)
    assert cfg.stability_ratio(grid) == pytest.approx(1e-3 * 0.1 * (2 * np.pi * 16) ** 2)


def test_rhs_zero_field():
    grid = TorusGrid(2, 16)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=0.1)
    zero = SpectralField(grid, np.zeros((2,) + grid.half_shape, dtype=complex))
    assert np.max(np.abs(rhs(zero, cfg).modes)) == 0.0


def test_rhs_taylor_green_pure_diffusion():
    # the vortex advection term is an exact gradient: rhs reduces to nu Lap v
    grid = TorusGrid(2, 32)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=0.1)
    v = taylor_green(grid, 1.0)
    r = rhs(v, cfg)
    lin = -cfg.nu * 4 * np.pi**2 * grid.alpha_sq() * v.modes
    assert np.max(np.abs(r.modes - lin)) < 1e-12
    # solenoidality noise is amplified by the diffusion operator norm
    tol = 1e-12 * (1.0 + cfg.nu * (2 * np.pi * grid.N / 2) ** 2)
    assert np.max(np.abs(divergence(r).modes)) < tol


def test_rhs_euler_energy_conservation():
    # advection alone does no work: Re<v, P[(v.grad)v]> = 0
    grid = TorusGrid(2, 32)
    cfg = SolverConfig(nu=1e-12, dt=1e-3, t_end=0.1)
    lin_op = -cfg.nu * 4 * np.pi**2 * grid.alpha_sq()
    for v in (
        random_divergence_free(grid, np.random.default_rng(0), kmax=5),
        random_divergence_free(grid, np.random.default_rng(1), kmax=1),  # single-shell mode
    ):
        advection = rhs(v, cfg).modes - lin_op * v.modes
        power = np.sum(np.conj(full_lattice(v.modes, grid)) * full_lattice(advection, grid)).real
        assert abs(power) < 1e-10


@pytest.mark.parametrize("n, N", [(2, 32), (3, 16)])
@pytest.mark.parametrize("advect_coeff", [1.0, 0.7])
def test_rhs_matches_advective_oracle(n, N, advect_coeff):
    # the half-spectrum divergence form equals the full-lattice advective
    # form on dealiased solenoidal fields
    grid = TorusGrid(n, N)
    cfg = SolverConfig(nu=0.03, dt=1e-3, t_end=0.1, advect_coeff=advect_coeff)
    lin = -cfg.nu * 4 * np.pi**2 * grid.alpha_sq()
    for seed in range(3):
        v = random_divergence_free(grid, np.random.default_rng(seed), kmax=N // 3)
        expected = advective_nonlinear_modes(full_lattice(v.modes, grid), n, N, advect_coeff)[..., : N // 2 + 1]
        got = rhs(v, cfg).modes - lin * v.modes
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 10, 12, 16]),
    advect_coeff=st.sampled_from([1.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_operator_matches_unfused_projected_divergence(n, N, advect_coeff, seed):
    # the per-run tensor K is the divergence, projection and coefficient of
    # the unfused evaluation on the 2/3 box; at N = 12 its outermost shell
    # is |alpha_k| = 3, next to the excluded N/3 shell.  The box holds no
    # mode outside the mask, so the random input is masked.
    grid = TorusGrid(n, N)
    op = _HalfSpectrum(grid, SolverConfig(nu=0.1, dt=1e-3, t_end=0.1, advect_coeff=advect_coeff))
    rng = np.random.default_rng(seed)
    shape = (n,) + grid.half_shape
    keep = dealias_mask(grid)
    for c in (
        keep * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)),
        random_divergence_free(grid, rng, kmax=N // 3).modes,
    ):
        expected = projected_divergence_modes(c, n, N, advect_coeff)
        box = op.box.gather(c, np.empty((n,) + op.box.shape, dtype=complex))
        got = op.scatter(op.nonlinear(box))
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 10, 12, 16]),
    advect_coeff=st.sampled_from([1.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nonlinear_matches_batched_oracle_bit_for_bit(n, N, advect_coeff, seed):
    # one product transform at a time sums each mode's terms in the same
    # order as the batched evaluation, so the bits agree; calling twice
    # checks that the reused buffers carry nothing over
    grid = TorusGrid(n, N)
    op = _HalfSpectrum(grid, SolverConfig(nu=0.1, dt=1e-3, t_end=0.1, advect_coeff=advect_coeff))
    rng = np.random.default_rng(seed)
    for _ in range(2):
        box = rng.standard_normal((n,) + op.box.shape) + 1j * rng.standard_normal((n,) + op.box.shape)
        assert op.nonlinear(box).tobytes() == batched_nonlinear(op, box).tobytes()


def test_recorded_field_leaves_the_scatter_buffer_zero_off_the_box():
    # the recorded field is a copy of the scatter buffer, which must still
    # read zero off the box (and +0.0, not -0.0) for the next inverse
    # transform
    grid = TorusGrid(3, 12)
    op = _HalfSpectrum(grid, SolverConfig(nu=0.1, dt=1e-3, t_end=0.1))
    box = np.random.default_rng(3).standard_normal((3,) + op.box.shape) + 0j
    f = op.field(box)
    assert not np.shares_memory(f.modes, op._half)
    assert f.modes.tobytes() == SpectralField(grid, op.scatter(box)).modes.tobytes()
    op.field(box)
    off = op._half[:, ~dealias_mask(grid)]
    assert off.tobytes() == np.zeros_like(off).tobytes()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [8, 10, 12, 16, 24, 30])
def test_scattered_box_is_the_dealias_mask(n, N):
    # the box scatters onto exactly the half-lattice modes of the per-mode
    # rule: every 3 |alpha_k| < N, the Nyquist wavenumber counted as N/2;
    # ``dealias_mask`` keeps the same modes
    grid = TorusGrid(n, N)
    op = _HalfSpectrum(grid, SolverConfig(nu=0.1, dt=1e-3, t_end=0.1))
    assert op.K.shape[2:] == op.e_full.shape == op.e_half.shape == op.box.shape
    scattered = op.scatter(np.ones((n,) + op.box.shape, dtype=complex))
    wave = np.abs(grid.wavenumbers())
    keep = 3 * np.maximum.reduce(np.broadcast_arrays(*np.ix_(*(wave,) * (n - 1), wave[: N // 2 + 1]))) < N
    assert np.array_equal(scattered, np.broadcast_to(keep, scattered.shape).astype(complex))
    assert np.array_equal(dealias_mask(grid), keep)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [24, 30, 32])
def test_nonlinear_matches_zero_padded_products(n, N):
    # the box is alias-free: its products equal those formed on a 2N grid
    # and cut to the box, also where 3 divides N
    grid = TorusGrid(n, N)
    op = _HalfSpectrum(grid, SolverConfig(nu=0.1, dt=1e-3, t_end=0.1, advect_coeff=0.7))
    v = random_divergence_free(grid, np.random.default_rng(N), kmax=N // 2)
    expected = padded_nonlinear_modes(full_lattice(v.modes, grid), n, N, 0.7)[..., : N // 2 + 1]
    got = op.scatter(op.nonlinear(box_of(op, v.modes)))
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("n, t_end", [(2, 1.0), (3, 0.2)])
def test_truncated_euler_energy_drift_falls_with_dt_at_n24(n, t_end):
    # the alias-free truncated Euler system conserves energy, so what drifts
    # is RK4's error, which falls with dt (about 32x per halving); an
    # aliased box drifts by the same amount at every dt
    grid = TorusGrid(n, 24)
    v0 = random_divergence_free(grid, np.random.default_rng(0))
    drift = []
    for dt in (0.002, 0.001):
        e = simulate(v0, SolverConfig(nu=1e-300, dt=dt, t_end=t_end), observe=lambda t, f: None).energies
        drift.append(np.max(np.abs(e - e[0])) / e[0])
    assert drift[1] * 12 <= drift[0]


@pytest.mark.parametrize("n, N", [(2, 32), (3, 12), (2, 16), (3, 16), (2, 24), (3, 24)])
def test_in_place_rk4_equals_out_of_place_update(n, N):
    # v0 has modes off the 2/3 box and a gradient part, so the t = 0 record
    # checks the entry projection on the box against the full-lattice one;
    # at N = 24 the box edge is the shell |alpha_k| = 7, next to the
    # excluded N/3 shell
    grid = TorusGrid(n, N)
    cfg = SolverConfig(nu=0.05, dt=2e-3, t_end=1e-2)
    v0 = to_modes(PhysicalField(grid, np.random.default_rng(4).standard_normal((n,) + grid.shape)))
    traj = simulate(v0, cfg)
    start = dealias(leray_project(v0)).modes
    assert np.array_equal(traj.snapshots[0].modes, start)
    op = _HalfSpectrum(grid, cfg)
    m0 = box_of(op, start)
    # copied per call: the reference keeps four distinct stage values even
    # if ``nonlinear`` handed out a reused buffer
    states = out_of_place_if_rk4(lambda c: op.nonlinear(c).copy(), op.e_full, op.e_half, cfg.dt, m0, 5)
    assert len(traj.snapshots) == 6
    for f, m in zip(traj.snapshots[1:], states):
        assert np.array_equal(f.modes, SpectralField(grid, op.scatter(m)).modes)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 10, 12, 16, 30]),
    advect_coeff=st.sampled_from([1.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_loop_equals_half_lattice_reference(n, N, advect_coeff, seed):
    # the loop on the 2/3 box is the half-lattice loop with the mask folded
    # into K, bit for bit: every box mode sees the same operations, and
    # every mode off the box is zero in both.  At N = 12 the box's outermost
    # shell is |alpha_k| = 3, next to the excluded N/3 shell.
    grid = TorusGrid(n, N)
    cfg = SolverConfig(nu=0.03, dt=2e-3, t_end=6e-3, advect_coeff=advect_coeff)
    v0 = random_divergence_free(grid, np.random.default_rng(seed), kmax=N // 3, rms=3.0)
    traj = simulate(v0, cfg)
    ref = HalfLatticeOperator(grid, cfg)
    m0 = dealias(leray_project(v0)).modes
    states = out_of_place_if_rk4(ref.nonlinear, ref.e_full, ref.e_half, cfg.dt, m0, 3)
    assert len(traj.snapshots) == 4
    for f, m in zip(traj.snapshots[1:], states):
        assert np.array_equal(f.modes, SpectralField(grid, m).modes)


def test_recorded_snapshots_do_not_alias_the_loop_state():
    # each snapshot equals the final state of a run stopped there, so later
    # in-place steps did not write into it
    grid = TorusGrid(3, 12)
    v0 = random_divergence_free(grid, np.random.default_rng(5), kmax=4)
    traj = simulate(v0, SolverConfig(nu=0.05, dt=2e-3, t_end=1e-2))
    for k in range(1, 6):
        short = simulate(v0, SolverConfig(nu=0.05, dt=2e-3, t_end=k * 2e-3))
        assert np.array_equal(traj.snapshots[k].modes, short.snapshots[-1].modes)
    for j, fj in enumerate(traj.snapshots):
        assert not any(np.shares_memory(fj.modes, fk.modes) for fk in traj.snapshots[j + 1 :])


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 12]),
    stride=st.sampled_from([1, 3, 10**9]),
    blow_up=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_run_records_what_the_retained_run_keeps(n, N, stride, blow_up, seed):
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(seed)
    if blow_up:
        # a CFL number of about rms * dt * N = 4: the explicit advection
        # step diverges within a few steps
        v0 = random_divergence_free(grid, rng, kmax=N // 3, rms=40.0)
        threshold = 1e6 * float(np.sum(np.abs(full_lattice(v0.modes, grid))))
        dt = 0.1 / N
        cfg = SolverConfig(nu=1e-8, dt=dt, t_end=100 * dt, snapshot_stride=stride, blowup_threshold=threshold)
    else:
        v0 = random_divergence_free(grid, rng, kmax=N // 3)
        cfg = SolverConfig(nu=0.05, dt=2e-3, t_end=2.2e-2, snapshot_stride=stride)
    kept = simulate(v0, cfg)
    seen = []
    streamed = simulate(v0, cfg, lambda t, f: seen.append((t, f)))
    assert kept.blew_up == streamed.blew_up == blow_up
    assert streamed.note == kept.note
    assert streamed.snapshots == [] and streamed.grid == kept.grid == grid
    for name in ("times", "energies", "gradient_energies"):
        assert getattr(streamed, name).tobytes() == getattr(kept, name).tobytes(), name
    # observe is called once per recorded time, in order, with the kept field
    assert [t for t, _ in seen] == kept.times.tolist()
    for (_, f), g in zip(seen, kept.snapshots):
        assert f.modes.tobytes() == g.modes.tobytes()
    assert hopf_energy_check(streamed, cfg) == hopf_energy_check(kept, cfg)


def test_streamed_run_memory_does_not_grow_with_step_count():
    # numpy reports its buffers to tracemalloc; the per-grid caches and the
    # FFT plans are warmed by a first run so that neither measured run pays them
    grid = TorusGrid(3, 16)
    v0 = random_divergence_free(grid, np.random.default_rng(9), kmax=5)
    snapshot = v0.modes.nbytes

    def peak(steps, observe):
        cfg = SolverConfig(nu=0.05, dt=2e-3, t_end=steps * 2e-3)
        tracemalloc.start()
        try:
            simulate(v0, cfg, observe)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def ignore(t, f):
        pass

    simulate(v0, SolverConfig(nu=0.05, dt=2e-3, t_end=2e-3))
    assert abs(peak(40, ignore) - peak(5, ignore)) < snapshot
    # retained, the 35 more records are all still held at the end
    assert peak(40, None) - peak(5, None) >= 30 * snapshot


def half_spectrum_field_bytes(grid):
    """F: the bytes of one velocity field's half spectrum."""
    return grid.n * grid.N ** (grid.n - 1) * (grid.N // 2 + 1) * 16


def test_streamed_3d_run_rises_by_at_most_seven_fields():
    # the run's operators and stage buffers, plus one record and its
    # to_grid: no stage derivative is held across the record point and no
    # full-field copy is made; warmed first so no per-grid cache counts
    grid = TorusGrid(3, 32)
    v0 = random_divergence_free(grid, np.random.default_rng(2))
    cfg = SolverConfig(nu=0.05, dt=2e-3, t_end=8e-3)

    def observe(t, f):
        to_grid(f)
        divergence(f)
        sobolev_norm(f, 1.0)
        sobolev_norm(f, 2.0)

    simulate(v0, SolverConfig(nu=0.05, dt=2e-3, t_end=2e-3), observe)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        simulate(v0, cfg, observe)
        rise = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rise <= 7 * half_spectrum_field_bytes(grid)


def test_random_field_peak_is_at_most_seven_fields():
    # one complex full-lattice draw (about 1.9 F) and one real draw, then
    # the half-spectrum mirror; the draw is gone before the projection
    grid = TorusGrid(3, 32)
    random_divergence_free(grid, np.random.default_rng(0))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        random_divergence_free(grid, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 7 * half_spectrum_field_bytes(grid)


def test_spectral_field_peak_is_its_copy_and_two_planes():
    # the copy of the modes (F), then the mirror of last-axis planes 0 and
    # N/2 formed in place in the ``take`` output: two planes, 2/17 F at N = 32
    grid = TorusGrid(3, 32)
    modes = random_divergence_free(grid, np.random.default_rng(0)).modes
    SpectralField(grid, modes)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        SpectralField(grid, modes)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * half_spectrum_field_bytes(grid)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), N=st.sampled_from([8, 10, 12, 16]), seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_abs_sum_is_full_lattice_sum(n, N, seed):
    # simulate's blow-up bound: sum |v_alpha| from the 2/3 box, the field
    # the loop can hold (dealiased modes)
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(seed)
    v = dealias(to_modes(PhysicalField(grid, rng.standard_normal((n,) + grid.shape))))
    op = _HalfSpectrum(grid, SolverConfig(nu=0.1, dt=1e-3, t_end=0.1))
    full_sum = float(np.sum(np.abs(full_lattice(v.modes, grid))))
    assert _full_sum(np.abs(box_of(op, v.modes)), N) == pytest.approx(full_sum, rel=1e-13)


def test_simulate_zero_initial_data():
    grid = TorusGrid(2, 16)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=0.01)
    zero = SpectralField(grid, np.zeros((2,) + grid.half_shape, dtype=complex))
    traj = simulate(zero, cfg)
    assert all(energy(f) == 0.0 for f in traj.snapshots)


def test_taylor_green_decay_oracle():
    grid = TorusGrid(2, 32)
    nu = 0.1
    cfg = SolverConfig(nu=nu, dt=1e-3, t_end=0.5)
    traj = simulate(taylor_green(grid, 1.0), cfg)
    norm0 = np.sqrt(2 * traj.energies[0])
    for t, e in zip(traj.times, traj.energies):
        expected = norm0 * np.exp(-8 * np.pi**2 * nu * t)
        assert abs(np.sqrt(2 * e) - expected) <= 1e-6 * expected


def test_snapshots_divergence_free():
    grid = TorusGrid(2, 32)
    cfg = SolverConfig(nu=0.05, dt=1e-3, t_end=0.05)
    traj = simulate(random_divergence_free(grid, np.random.default_rng(1)), cfg)
    for f in traj.snapshots:
        assert np.max(np.abs(divergence(f).modes)) < 1e-10


def test_energy_monotone_random_run():
    grid = TorusGrid(2, 32)
    cfg = SolverConfig(nu=0.05, dt=1e-3, t_end=0.1)
    traj = simulate(random_divergence_free(grid, np.random.default_rng(2), kmax=8), cfg)
    assert np.all(np.diff(traj.energies) <= 1e-10 * traj.energies[0])


def test_rk4_convergence_order():
    # a perturbed vortex exercises the nonlinear term; halving dt should
    # cut the terminal error by at least 8x (4th order, measured >= 3rd)
    grid = TorusGrid(2, 32)
    nu = 0.02
    v0 = perturbed_taylor_green(grid, 1.0, eps=0.3)
    t_end = 0.1

    def terminal(dt):
        cfg = SolverConfig(nu=nu, dt=dt, t_end=t_end, snapshot_stride=10**9)
        return simulate(v0, cfg).snapshots[-1]

    ref = terminal(1.25e-4)
    err_coarse = np.sqrt(2 * energy(terminal(2e-3) - ref))
    err_fine = np.sqrt(2 * energy(terminal(1e-3) - ref))
    assert err_coarse / err_fine >= 8.0


def test_blowup_guard_returns_partial_trajectory():
    grid = TorusGrid(2, 16)
    cfg = SolverConfig(nu=1e-8, dt=0.5, t_end=5.0, blowup_threshold=1e3)
    v0 = random_divergence_free(grid, np.random.default_rng(3), rms=40.0)
    traj = simulate(v0, cfg)
    assert traj.blew_up
    assert traj.note != ""
    assert traj.times.size >= 1


def test_blowup_guard_catches_non_finite_state():
    # with no finite threshold the state overflows to inf/NaN, which an
    # over-threshold comparison alone would let through
    grid = TorusGrid(2, 16)
    cfg = SolverConfig(nu=1e-8, dt=0.5, t_end=50.0, blowup_threshold=np.inf)
    v0 = random_divergence_free(grid, np.random.default_rng(3), rms=40.0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(v0, cfg)
    assert traj.blew_up
    assert "non-finite" in traj.note and "step" in traj.note
    assert traj.times[-1] < cfg.t_end
    assert np.all(np.isfinite(traj.energies))
    assert all(np.all(np.isfinite(f.modes)) for f in traj.snapshots)


def test_simulate_rejects_non_finite_initial_field():
    grid = TorusGrid(2, 16)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=0.01)
    modes = random_divergence_free(grid, np.random.default_rng(0)).modes.copy()
    modes[0][1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        simulate(SpectralField(grid, modes), cfg)


def test_simulate_rejects_a_field_without_one_component_per_axis():
    # one scalar component would otherwise broadcast over the n velocity components
    grid = TorusGrid(2, 16)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=0.01)
    scalar = SpectralField(grid, random_divergence_free(grid, np.random.default_rng(0)).modes[:1])
    with pytest.raises(ValueError, match="one component per spatial dimension"):
        simulate(scalar, cfg)


def test_trajectory_validation():
    grid = TorusGrid(2, 16)
    zero = SpectralField(grid, np.zeros((2,) + grid.half_shape, dtype=complex))
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(np.array([0.0, 0.0]), [zero, zero], np.zeros(2), np.zeros(2), grid)
    with pytest.raises(ValueError, match="snapshot count"):
        Trajectory(np.array([0.0, 1.0]), [zero], np.zeros(1), np.zeros(1), grid)
    with pytest.raises(ValueError, match="energy counts"):
        Trajectory(np.array([0.0, 1.0]), [], np.zeros(2), np.zeros(1), grid)


def test_hopf_taylor_green_near_equality():
    # smooth decaying flow saturates the energy inequality; at dt = 1e-3 and
    # nu = 0.05 the trapezoid quadrature keeps the defect below 1e-5 relative
    grid = TorusGrid(2, 32)
    cfg = SolverConfig(nu=0.05, dt=1e-3, t_end=0.5)
    traj = simulate(taylor_green(grid, 1.0), cfg)
    rep = hopf_energy_check(traj, cfg, tol=1e-5 * traj.energies[0])
    assert rep.passed
    assert abs(rep.max_violation) <= 1e-5 * traj.energies[0]


def test_hopf_zero_field():
    grid = TorusGrid(2, 16)
    cfg = SolverConfig(nu=0.1, dt=1e-3, t_end=0.01)
    zero = SpectralField(grid, np.zeros((2,) + grid.half_shape, dtype=complex))
    rep = hopf_energy_check(simulate(zero, cfg), cfg)
    assert rep.passed and rep.max_violation <= 0.0


def test_hopf_random_run_tight():
    # band-limited data and a small step keep the trapezoid defect of the
    # dissipation integral below 1e-6 |v0|^2
    grid = TorusGrid(2, 32)
    cfg = SolverConfig(nu=0.05, dt=1.25e-4, t_end=0.05)
    traj = simulate(random_divergence_free(grid, np.random.default_rng(4), kmax=3), cfg)
    rep = hopf_energy_check(traj, cfg, tol=1e-6 * 2 * traj.energies[0])
    assert rep.passed


def test_weak_strong_identical_trajectories():
    grid = TorusGrid(2, 32)
    cfg = SolverConfig(nu=0.05, dt=1e-3, t_end=0.05)
    traj = simulate(taylor_green(grid, 1.0), cfg)
    rep = weak_strong_bound(traj, traj)
    assert rep.c_min == 0.0 and rep.finite
    assert rep.p == 4  # two-dimensional exponent


def test_weak_strong_perturbed_pair_stable_under_refinement():
    # physical pair: the 1e-3 gap between two perturbed-vortex runs decays,
    # so the calibrated minimal C is finite (here zero) and must agree
    # between step sizes within 20%
    grid = TorusGrid(2, 32)
    nu = 0.02
    v_a = perturbed_taylor_green(grid, 1.0, eps=0.3)
    gap = random_divergence_free(grid, np.random.default_rng(5), kmax=4, rms=1e-3)
    v_b = SpectralField(grid, v_a.modes + gap.modes)

    def run_pair(dt):
        stride = int(round(2e-3 / dt))
        cfg = SolverConfig(nu=nu, dt=dt, t_end=0.2, snapshot_stride=stride)
        return weak_strong_bound(simulate(v_a, cfg), simulate(v_b, cfg))

    rep_coarse = run_pair(1e-3)
    rep_fine = run_pair(5e-4)
    assert np.isfinite(rep_coarse.c_min) and rep_coarse.c_min >= 0.0
    assert rep_coarse.max_gap <= rep_coarse.initial_gap * (1 + 1e-9)
    assert abs(rep_coarse.c_min - rep_fine.c_min) <= 0.2 * max(rep_coarse.c_min, rep_fine.c_min, 1e-12)


def const_field(grid, vx, vy):
    modes = np.zeros((2,) + grid.half_shape, dtype=complex)
    modes[0][0, 0] = vx
    modes[1][0, 0] = vy
    return SpectralField(grid, modes)


def trajectory_of(times, snaps):
    """The retained trajectory of hand-built snapshots."""
    return Trajectory(times, snaps, [energy(f) for f in snaps], [gradient_energy(f) for f in snaps], snaps[0].grid)


def test_weak_strong_calibration_synthetic_growth():
    # hand-built pair with gap g0^2 exp(2 kappa t) against a constant
    # reference of magnitude c0: minimal C is exactly 2 kappa/(c0^4 + c0^2),
    # on a short record and on a long one
    grid = TorusGrid(2, 16)
    c0, kappa, g0 = 1.2, 0.8, 1e-3
    for records in (21, 401):
        times = np.linspace(0.0, 1.0, records)
        snaps_a = [const_field(grid, c0, 0.0) for _ in times]
        snaps_b = [const_field(grid, c0, g0 * np.exp(kappa * t)) for t in times]
        traj_a = trajectory_of(times, snaps_a)
        traj_b = trajectory_of(times, snaps_b)
        rep = weak_strong_bound(traj_a, traj_b)
        expected = 2 * kappa / (c0**4 + c0**2)
        assert rep.p == 4
        assert rep.c_min == pytest.approx(expected, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=500),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    x_scale=st.floats(1e-6, 1e6),
    y_scale=st.floats(1e-6, 1e6),
)
def test_cumulative_trapezoid_is_scipy_bit_for_bit(size, seed, x_scale, y_scale):
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.01, 1.0, size)  # uneven spacing
    x = (np.cumsum(steps) - 0.5 * np.sum(steps)) * x_scale
    assert np.all(np.diff(x) > 0)
    y = rng.normal(size=size) * y_scale
    got = _cumulative_trapezoid(y, x)
    assert np.array_equal(got, scipy.integrate.cumulative_trapezoid(y, x))
    # hopf_energy_check prepends the zero integral at the first record
    with_initial = np.concatenate(([0.0], got))
    assert np.array_equal(with_initial, scipy.integrate.cumulative_trapezoid(y, x, initial=0.0))


@pytest.mark.parametrize("initial", ["taylor-green", "random"])
def test_hopf_quadrature_matches_prefix_oracle(initial):
    # one cumulative trapezoid against a fresh np.trapezoid per prefix, on
    # runs of 400 and more records: the sums may round differently
    if initial == "taylor-green":
        grid, cfg = TorusGrid(2, 32), SolverConfig(nu=0.1, dt=1e-3, t_end=0.5)
        v0 = taylor_green(grid, 1.0)
    else:
        grid, cfg = TorusGrid(2, 16), SolverConfig(nu=0.01, dt=1e-3, t_end=0.4)
        v0 = random_divergence_free(grid, np.random.default_rng(8), kmax=3)
    traj = simulate(v0, cfg)
    assert traj.times.size >= 400
    grads = np.array([gradient_energy(f) for f in traj.snapshots])
    want = prefix_hopf_max_violation(traj.times, traj.energies, grads, cfg.nu)
    assert abs(hopf_energy_check(traj, cfg).max_violation - want) <= 1e-14 * traj.energies[0]


def test_weak_strong_quadrature_matches_prefix_oracle():
    # 451 records of constant fields on uneven times: the reference is zero
    # for the first 50, so the leading prefixes have no integral and are
    # skipped, and the random gap grows on some prefixes and shrinks on others
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(12)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5e-3, 1.5e-3, 450))])
    ref = rng.normal(size=(times.size, 2))
    ref[:50] = 0.0
    other = ref + rng.normal(scale=1e-3, size=ref.shape)
    snaps_a = [const_field(grid, *v) for v in ref]
    snaps_b = [const_field(grid, *v) for v in other]
    traj_a = trajectory_of(times, snaps_a)
    traj_b = trajectory_of(times, snaps_b)
    gaps = np.array([2.0 * energy(a - b) for a, b in zip(snaps_a, snaps_b)])
    l4 = np.array([l4_norm(f) for f in snaps_a])
    want = prefix_weak_strong_c(times, gaps, l4**4 + l4**2)
    assert want > 0.0
    assert weak_strong_bound(traj_a, traj_b).c_min == pytest.approx(want, rel=1e-13)


def test_weak_strong_zero_reference():
    # against the zero solution the bound reduces to an energy statement
    grid = TorusGrid(2, 32)
    cfg = SolverConfig(nu=0.05, dt=1e-3, t_end=0.05)
    traj = simulate(taylor_green(grid, 1.0), cfg)
    zero_snaps = [SpectralField(grid, np.zeros_like(traj.snapshots[0].modes)) for _ in traj.times]
    traj_zero = trajectory_of(traj.times, zero_snaps)
    rep = weak_strong_bound(traj, traj_zero)
    # gap(t) = |v(t)|^2 decays, so the smallest admissible C is zero
    assert rep.initial_gap == pytest.approx(2 * traj.energies[0])
    assert rep.c_min == 0.0


def test_weak_strong_rejects_mismatched_grids():
    cfg = SolverConfig(nu=0.05, dt=1e-3, t_end=0.01)
    t_a = simulate(taylor_green(TorusGrid(2, 16), 1.0), cfg)
    t_b = simulate(taylor_green(TorusGrid(2, 32), 1.0), cfg)
    with pytest.raises(ValueError):
        weak_strong_bound(t_a, t_b)
    streamed = simulate(taylor_green(TorusGrid(2, 16), 1.0), cfg, lambda t, f: None)
    with pytest.raises(ValueError, match="snapshots"):
        weak_strong_bound(streamed, t_a)


def test_l4_norm_constant_field():
    grid = TorusGrid(2, 16)
    modes = np.zeros((2,) + grid.half_shape, dtype=complex)
    modes[0][0, 0] = 3.0
    modes[1][0, 0] = 4.0
    v = SpectralField(grid, modes)
    assert l4_norm(v) == pytest.approx(5.0)  # |v| = 5 everywhere


def test_gradient_energy_taylor_green():
    grid = TorusGrid(2, 32)
    v = taylor_green(grid, 1.0)
    # every mode sits on |alpha|^2 = 2: |grad v|^2 = 8 pi^2 |v|^2
    assert gradient_energy(v) == pytest.approx(8 * np.pi**2 * 2 * energy(v), rel=1e-12)


@pytest.mark.parametrize("N", [16, 32, 64])
def test_taylor_green_fields_match_formula_oracle(N):
    # the grid fields come from the pointwise velocities; their modes equal
    # those of the closed-form grid values bit for bit
    grid = TorusGrid(2, N)
    x, y = grid.meshes()
    flow = TaylorGreenFlow(nu=0.03, amplitude=1.7)
    for t in (0.0, 0.4):
        want = to_modes(PhysicalField(grid, taylor_green_values(x, y, flow.amplitude * flow.decay(t))))
        assert np.array_equal(flow.field(grid, t).modes, want.modes)
    for amplitude, eps in ((1.0, 0.2), (0.6, 0.1)):
        want = to_modes(PhysicalField(grid, perturbed_taylor_green_values(x, y, amplitude, eps)))
        assert np.array_equal(perturbed_taylor_green(grid, amplitude=amplitude, eps=eps).modes, want.modes)
    # the vortex pair is exactly the four modes alpha = (+-1, +-1): the
    # half spectrum holds (+-1, 1), the mirror images of (-+1, -1)
    modes = taylor_green(grid, 1.0).modes
    assert np.max(np.abs(np.abs(modes[:, [1, -1], [1, 1]]) - 0.25)) < 1e-15
    modes[:, [1, -1], [1, 1]] = 0.0
    assert np.max(np.abs(modes)) < 1e-15


@pytest.mark.parametrize("n, N, kmax", [(2, 16, 4), (2, 16, 8), (3, 8, 2), (3, 12, 4)])
def test_random_field_is_the_symmetric_part_of_the_full_lattice_draw(n, N, kmax):
    # a seed gives the field of its full-lattice draws; kmax = N/2 puts the
    # Nyquist planes in the band, which the 2/3 mask then removes
    grid = TorusGrid(n, N)
    for seed in range(3):
        v = random_divergence_free(grid, np.random.default_rng(seed), kmax=kmax, rms=1.7)
        want = full_random_divergence_free(grid, np.random.default_rng(seed), kmax, 1.7)
        assert np.max(np.abs(full_lattice(v.modes, grid) - want)) <= 1e-14 * np.max(np.abs(want))


def test_random_field_rejects_a_zero_or_non_finite_rms():
    # rms = 0 gave an all-zero field, which passes every solver check vacuously
    grid = TorusGrid(2, 16)
    for rms in (0.0, -0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="rms must be finite and nonzero"):
            random_divergence_free(grid, np.random.default_rng(0), rms=rms)
    # a negative rms flips the field
    up = random_divergence_free(grid, np.random.default_rng(0), rms=0.5)
    down = random_divergence_free(grid, np.random.default_rng(0), rms=-0.5)
    assert np.array_equal(down.modes, -up.modes)


@pytest.mark.parametrize("n, N, kmax", [(2, 16, None), (2, 10, 5), (3, 8, 4), (3, 12, 4), (3, 16, None)])
def test_random_field_matches_rolled_oracle_bit_for_bit(n, N, kmax):
    # the same draws in the same order, mirrored on the half spectrum only
    grid = TorusGrid(n, N)
    for seed in (0, 1, 7, 12345):
        got = random_divergence_free(grid, np.random.default_rng(seed), kmax=kmax, rms=1.3)
        want = rolled_random_divergence_free(grid, np.random.default_rng(seed), kmax=kmax, rms=1.3)
        assert got.modes.tobytes() == want.modes.tobytes()
