import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    _full,
    _mirror,
    _mode_phase,
    hermitian_symmetrize,
    dealias,
    divergence,
    sobolev_norm,
    to_grid,
    to_modes,
)

from nslb.dynamics import SolverConfig, simulate
from nslb.flows import random_divergence_free
from oracles import (
    centered_difference,
    derivative,
    grid_l2,
    half_mirror_to_grid,
    reflected_full,
    reflected_hermitian_symmetrize,
)


def random_field(grid, seed, ncomp=None):
    rng = np.random.default_rng(seed)
    ncomp = ncomp or grid.n
    return PhysicalField(grid, rng.standard_normal((ncomp,) + grid.shape))


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(4, 16)
    with pytest.raises(ValueError):
        TorusGrid(2, 15)
    with pytest.raises(ValueError):
        TorusGrid(2, 4)


def test_constant_field_modes():
    grid = TorusGrid(2, 16)
    f = PhysicalField(grid, np.ones((1,) + grid.shape))
    v = to_modes(f)
    assert abs(v.modes[0][0, 0] - 1.0) < 1e-14
    rest = v.modes[0].copy()
    rest[0, 0] = 0
    assert np.max(np.abs(rest)) < 1e-14


def test_sine_mode_coefficients():
    grid = TorusGrid(2, 16)
    x, _ = grid.meshes()
    v = to_modes(PhysicalField(grid, np.sin(2 * np.pi * x)[None]))
    # sin(2 pi x1) = -i/2 e^{2 pi i x1} + i/2 e^{-2 pi i x1}
    assert abs(v.modes[0][1, 0] - (-0.5j)) < 1e-14
    assert abs(v.modes[0][-1, 0] - 0.5j) < 1e-14
    rest = v.modes[0].copy()
    rest[1, 0] = 0
    rest[-1, 0] = 0
    assert np.max(np.abs(rest)) < 1e-14


@pytest.mark.parametrize("n,N", [(2, 16), (3, 8)])
def test_round_trip(n, N):
    grid = TorusGrid(n, N)
    f = random_field(grid, seed=n)
    back = to_grid(to_modes(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_conjugate_symmetry_of_real_fields():
    grid = TorusGrid(2, 16)
    v = to_modes(random_field(grid, seed=5))
    m = v.modes
    refl = np.conj(m)
    for ax in (1, 2):
        refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
    assert np.max(np.abs(m - refl)) < 1e-14
    # zero mode is real
    assert abs(m[0][0, 0].imag) < 1e-15


def test_non_finite_rejected():
    grid = TorusGrid(2, 16)
    vals = np.zeros((1,) + grid.shape)
    vals[0, 3, 4] = np.nan
    with pytest.raises(ValueError):
        to_modes(PhysicalField(grid, vals))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        modes = np.zeros((2,) + grid.shape, dtype=complex)
        modes[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SpectralField(grid, modes)


def test_derivative_analytic():
    grid = TorusGrid(2, 32)
    x, y = grid.meshes()
    v = to_modes(PhysicalField(grid, np.sin(2 * np.pi * x)[None]))
    d = to_grid(derivative(v, 0, 0))
    assert np.max(np.abs(d.values[0] - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-10
    # derivative along x2 of an x2-independent field vanishes
    d2 = to_grid(derivative(v, 0, 1))
    assert np.max(np.abs(d2.values)) < 1e-12
    # constant field -> zero derivative
    c = to_modes(PhysicalField(grid, np.ones((1,) + grid.shape)))
    assert np.max(np.abs(derivative(c, 0, 0).modes)) < 1e-14


def test_derivative_matches_centered_differences():
    grid = TorusGrid(2, 64)
    f = to_grid(dealias(to_modes(random_field(grid, seed=11, ncomp=1))))
    v = to_modes(f)
    h = grid.spacing
    for axis in range(2):
        spectral = to_grid(derivative(v, 0, axis)).values[0]
        fd = centered_difference(f.values[0], axis, h)
        # centered differences are O(h^2); the bound tracks the field scale
        scale = np.max(np.abs(spectral)) + 1.0
        assert np.max(np.abs(spectral - fd)) < 40.0 * h**2 * scale * (2 * np.pi * grid.N / 3) ** 1


def test_sobolev_norm_values():
    grid = TorusGrid(3, 8)
    modes = np.zeros((1,) + grid.shape, dtype=complex)
    modes[0][1, 0, 0] = 1.0
    v = SpectralField(grid, modes)
    assert abs(sobolev_norm(v, 1.0) - np.sqrt(2.0)) < 1e-14
    zero = SpectralField(grid, np.zeros_like(modes))
    assert sobolev_norm(zero, 3.0) == 0.0


def test_sobolev_monotone_in_order():
    grid = TorusGrid(2, 16)
    v = to_modes(random_field(grid, seed=3))
    orders = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]
    norms = [sobolev_norm(v, s) for s in orders]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_parseval():
    grid = TorusGrid(2, 32)
    f = random_field(grid, seed=7)
    v = to_modes(f)
    assert abs(sobolev_norm(v, 0.0) - grid_l2(f.values, grid)) < 1e-10


def test_divergence_cases():
    grid = TorusGrid(2, 32)
    x, y = grid.meshes()
    # stream-function field is divergence-free
    psi_v = np.stack([np.cos(2 * np.pi * y), np.sin(2 * np.pi * x)])
    v = to_modes(PhysicalField(grid, psi_v))
    assert np.max(np.abs(divergence(v).modes)) < 1e-12
    # v = (sin 2 pi x1, 0) has divergence 2 pi cos(2 pi x1)
    w = to_modes(PhysicalField(grid, np.stack([np.sin(2 * np.pi * x), np.zeros(grid.shape)])))
    div_grid = to_grid(divergence(w))
    assert np.max(np.abs(div_grid.values[0] - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-10
    zero = SpectralField(grid, np.zeros((2,) + grid.shape, dtype=complex))
    assert np.max(np.abs(divergence(zero).modes)) == 0.0


def test_dealias_rule():
    grid = TorusGrid(2, 8)
    modes = np.zeros((1,) + grid.shape, dtype=complex)
    modes[0][3, 0] = 1.0  # |alpha_1| = 3 > 8/3
    modes[0][2, 1] = 1.0  # kept
    v = dealias(SpectralField(grid, modes))
    assert v.modes[0][3, 0] == 0.0
    assert v.modes[0][2, 1] == 1.0
    # low-mode field unchanged, zero field stays zero
    assert np.max(np.abs(dealias(v).modes - v.modes)) == 0.0
    zero = SpectralField(grid, np.zeros_like(modes))
    assert np.max(np.abs(dealias(zero).modes)) == 0.0


@pytest.mark.parametrize("N", [8, 10, 12, 16, 32, 48, 64, 96, 100, 128])
def test_wavenumbers_are_fft_order_integers(N):
    assert np.array_equal(TorusGrid(2, N).wavenumbers(), np.fft.fftfreq(N, 1.0 / N))


@pytest.mark.parametrize("n, N", [(2, 10), (3, 8)])
def test_per_grid_constants_built_once_and_read_only(n, N):
    grid = TorusGrid(n, N)
    asq, phase, mirror = grid.alpha_sq(), _mode_phase(grid), _mirror(grid)
    assert TorusGrid(n, N).alpha_sq() is asq and _mode_phase(TorusGrid(n, N)) is phase
    assert _mirror(TorusGrid(n, N)) is mirror
    wave = grid.wavenumbers()
    mesh = np.meshgrid(*(wave,) * n, indexing="ij")
    assert np.array_equal(asq, sum(k**2 for k in mesh))
    assert np.array_equal(phase, (-1.0) ** sum(k.astype(int) for k in mesh))
    # the mirror holds the flat index of -alpha (mod N), and is an involution
    for k, neg in zip(mesh, np.unravel_index(mirror, grid.shape)):
        assert np.all((k + wave[neg]) % N == 0)
    assert np.array_equal(mirror.ravel()[mirror], np.arange(N**n).reshape(grid.shape))
    for shared in (asq, phase, mirror):
        with pytest.raises(ValueError, match="read-only"):
            shared[(0,) * n] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            shared *= 2.0
    assert asq[(0,) * n] == 0.0 and phase[(0,) * n] == 1.0


@pytest.mark.parametrize("n, N", [(2, 16), (2, 32), (3, 8), (3, 12), (3, 16)])
def test_to_grid_keeps_real_part_of_non_hermitian_modes(n, N):
    # a derivative across the Nyquist plane is not conjugate-symmetric;
    # to_grid keeps the real part of the full complex inverse transform of
    # it, and of the exactly conjugate-symmetric fields simulate records
    grid = TorusGrid(n, N)
    d = derivative(to_modes(random_field(grid, 3)), 0, 0)
    assert not np.array_equal(hermitian_symmetrize(d.modes, grid), d.modes)
    v0 = random_divergence_free(grid, np.random.default_rng(6), kmax=N // 3)
    records = simulate(v0, SolverConfig(nu=0.05, dt=2e-3, t_end=6e-3)).snapshots
    mesh = np.meshgrid(*(grid.wavenumbers(),) * n, indexing="ij")
    phase = (-1.0) ** sum(k.astype(int) for k in mesh)
    for v in [d] + records:
        want = (np.fft.ifftn(v.modes * phase, axes=tuple(range(1, n + 1))) * N**n).real
        got = to_grid(v).values
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from(range(8, 33, 2)),
    lead=st.sampled_from([(), (1,), (3,), (9,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mirror_matches_reflect_oracle_bit_for_bit(n, N, lead, seed):
    # tobytes, not array_equal: snapshot files keep the sign of zero
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(seed)

    def draw(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z.real[rng.random(shape) < 0.05] = -0.0
        return z

    half = draw(lead + grid.shape[:-1] + (N // 2 + 1,))
    modes = draw(lead + grid.shape)  # not conjugate-symmetric
    assert _full(half, grid).tobytes() == reflected_full(half, grid).tobytes()
    assert hermitian_symmetrize(modes, grid).tobytes() == reflected_hermitian_symmetrize(modes, grid).tobytes()
    v = SpectralField(grid, modes)
    assert to_grid(v).values.tobytes() == half_mirror_to_grid(v).tobytes()
