import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb.dynamics import energy
from nslb.flows import random_divergence_free, taylor_green
from nslb.leray import (
    _project_modes,
    leray_project,
    poisson_pressure,
    velocity_gradient_contraction,
)
from nslb.spectral import (
    sobolev_norm,
    PhysicalField,
    SpectralField,
    TorusGrid,
    dealias,
    dealias_mask,
    divergence,
    to_grid,
    to_modes,
)

from oracles import brute_force_pressure_gradient, full_wavenumbers, reflect, stacked_project_modes


def pressure_gradient(v, i):
    """Modes of d p / d x_i: 2 pi i alpha_i p_alpha."""
    return 2j * np.pi * v.grid.alpha(i) * poisson_pressure(v).modes[0]


def test_zero_field_zero_pressure():
    grid = TorusGrid(2, 16)
    v = SpectralField(grid, np.zeros((2,) + grid.half_shape, dtype=complex))
    assert np.max(np.abs(pressure_gradient(v, 0))) == 0.0
    assert np.max(np.abs(poisson_pressure(v).modes)) == 0.0


def test_taylor_green_pressure_analytic():
    grid = TorusGrid(2, 32)
    amp = 1.3
    v = taylor_green(grid, amplitude=amp)
    p = to_grid(poisson_pressure(v))
    x, y = grid.meshes()
    exact = -(amp**2) / 4.0 * (np.cos(4 * np.pi * x) + np.cos(4 * np.pi * y))
    assert np.max(np.abs(p.values[0] - exact)) < 1e-8
    dp = to_grid(SpectralField(grid, pressure_gradient(v, 0)[None]))
    exact_dx = amp**2 * np.pi * np.sin(4 * np.pi * x)
    assert np.max(np.abs(dp.values[0] - exact_dx)) < 1e-8


def test_pressure_zero_mean_gauge():
    grid = TorusGrid(2, 16)
    v = random_divergence_free(grid, np.random.default_rng(0))
    p = poisson_pressure(v)
    assert p.modes[0][0, 0] == 0.0
    assert np.max(np.abs(pressure_gradient(v, 0)[0, 0])) == 0.0


@pytest.mark.parametrize("seed", [0, 1])
def test_brute_force_oracle_single_mode_pair(seed):
    # one conjugate mode pair per component, solenoidal by construction
    grid = TorusGrid(2, 8)
    rng = np.random.default_rng(seed)
    modes = np.zeros((2,) + grid.half_shape, dtype=complex)
    perp = np.array([2.0, -1.0]) / np.sqrt(5.0)  # perpendicular to alpha = (1, 2)
    amp = rng.standard_normal() + 1j * rng.standard_normal()
    for c in range(2):
        modes[c][1, 2] = amp * perp[c]  # and conj(amp) perp[c] at -alpha
    v = dealias(SpectralField(grid, modes))
    for i in range(2):
        fast = pressure_gradient(v, i)
        slow = brute_force_pressure_gradient(v, i)
        keep = dealias_mask(grid)
        assert np.max(np.abs((fast - slow)[keep])) < 1e-12


def test_brute_force_oracle_random_field():
    grid = TorusGrid(2, 16)
    v = dealias(random_divergence_free(grid, np.random.default_rng(3), kmax=5, rms=1.0))
    keep = dealias_mask(grid)
    for i in range(2):
        fast = pressure_gradient(v, i)
        slow = brute_force_pressure_gradient(v, i)
        assert np.max(np.abs((fast - slow)[keep])) < 1e-10


def test_poisson_residual():
    grid = TorusGrid(2, 16)
    v = random_divergence_free(grid, np.random.default_rng(4))
    p = poisson_pressure(v)
    lap_p = np.zeros(grid.shape, dtype=complex)
    lap_p = -4 * np.pi**2 * grid.alpha_sq() * p.modes[0]
    g = velocity_gradient_contraction(v).modes[0]
    resid = lap_p + g
    resid[0, 0] = 0.0  # gauge mode carries the (zero-mean) source mean
    assert np.sqrt(np.sum(np.abs(resid) ** 2)) < 1e-10


def test_projection_properties():
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(6)
    f = to_modes(PhysicalField(grid, rng.standard_normal((2,) + grid.shape)))
    pf = leray_project(f)
    assert np.max(np.abs(divergence(pf).modes)) < 1e-12
    # idempotence
    ppf = leray_project(pf)
    assert np.max(np.abs(ppf.modes - pf.modes)) < 1e-12
    # divergence-free fields are fixed
    v = random_divergence_free(grid, rng)
    assert np.max(np.abs(leray_project(v).modes - v.modes)) < 1e-12
    # gradients, by the same first-derivative symbol, are annihilated
    phi = to_modes(PhysicalField(grid, rng.standard_normal((1,) + grid.shape)))
    grad = SpectralField(grid, np.stack([2j * np.pi * grid.alpha(k) * phi.modes[0] for k in range(2)]))
    assert np.max(np.abs(leray_project(grad).modes)) < 1e-12


def test_projection_3d():
    grid = TorusGrid(3, 8)
    rng = np.random.default_rng(7)
    f = to_modes(PhysicalField(grid, rng.standard_normal((3,) + grid.shape)))
    pf = leray_project(f)
    assert np.max(np.abs(divergence(pf).modes)) < 1e-12


@pytest.mark.parametrize("n,decay", [(2, 1.05), (3, 3.0)])
def test_pressure_mode_square_summability(n, decay):
    # low-regularity velocity data still give square-summable
    # pressure-gradient modes: shell partial sums of |dp_alpha|^2 become
    # Cauchy past N/2.  The n=2 representative carries the pointwise decay
    # <alpha>^-(1+eps); in three dimensions the shell measure makes that
    # decay sub-L2, so the representative is a unit-H^1 field instead.
    grid = TorusGrid(n, 64)
    rng = np.random.default_rng(8)
    shape = (n,) + grid.shape
    modes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    modes *= (1.0 + sum(a**2 for a in full_wavenumbers(grid))) ** (-decay / 2.0)
    axes = tuple(range(1, n + 1))
    modes = 0.5 * (modes + reflect(np.conj(modes), axes))[..., : grid.N // 2 + 1]
    v = leray_project(SpectralField(grid, modes))
    v = SpectralField(grid, v.modes / sobolev_norm(v, 1.0))
    shells = np.sqrt(grid.alpha_sq())
    for i in range(n):
        dp = pressure_gradient(v, i)
        power = np.abs(dp) ** 2
        radii = np.arange(1, int(np.max(shells)) + 1)
        partial = np.array([np.sum(power[shells <= r]) for r in radii])
        tail_increments = np.diff(partial)[radii[:-1] >= grid.N // 2]
        assert np.all(tail_increments < 1e-6)


def _random_real_field(n, N, seed):
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(seed)
    return to_modes(PhysicalField(grid, rng.standard_normal((n,) + grid.shape)))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), N=st.sampled_from([8, 10, 12, 16]), seed=st.integers(0, 2**32 - 1))
def test_projection_idempotent_orthogonal_solenoidal(n, N, seed):
    v = _random_real_field(n, N, seed)
    pv = leray_project(v)
    scale = float(np.max(np.abs(v.modes)))
    assert np.max(np.abs(leray_project(pv).modes - pv.modes)) <= 1e-13 * scale
    # <Pv, v - Pv> over the modes: the projection is orthogonal mode by mode
    assert abs(np.vdot(pv.modes, v.modes - pv.modes)) <= 1e-13 * float(np.sum(np.abs(v.modes) ** 2))
    assert np.max(np.abs(divergence(pv).modes)) <= 1e-13 * 2 * np.pi * N * scale


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), N=st.sampled_from([8, 10, 12, 16]), seed=st.integers(0, 2**32 - 1))
def test_parseval_energy_matches_grid_mean(n, N, seed):
    v = _random_real_field(n, N, seed)
    grid_energy = 0.5 * float(np.mean(np.sum(to_grid(v).values ** 2, axis=0)))
    assert energy(v) == pytest.approx(grid_energy, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), N=st.sampled_from([8, 10, 12, 16]), seed=st.integers(0, 2**32 - 1))
def test_project_modes_matches_stacked_oracle_bit_for_bit(n, N, seed):
    # complex field modes, and the real arrays the solver's advection
    # operator projects
    v = _random_real_field(n, N, seed)
    grid = v.grid
    alphas = [grid.alpha(k) for k in range(n)]
    asq = sum(a**2 for a in alphas)
    inv_asq = np.divide(1.0, asq, out=np.zeros_like(asq), where=asq != 0)
    for modes in (v.modes, v.modes.real.copy()):
        got = _project_modes(modes, alphas, inv_asq)
        want = stacked_project_modes(modes, alphas, inv_asq)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_leray_project_peak_is_at_most_2_6_fields():
    # the projected modes, SpectralField's copy of them and its Nyquist-plane
    # mirror (about 2.5 fields); no stacked list, and |alpha|^2 is freed
    # before the copy (the stacked form peaked at 2.8)
    grid = TorusGrid(3, 32)
    v = random_divergence_free(grid, np.random.default_rng(0))
    leray_project(v)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        leray_project(v)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * v.modes.nbytes, (peak, v.modes.nbytes)
