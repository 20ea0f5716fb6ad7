import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb.spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    _Box,
    _full_sum,
    _mirror,
    dealias,
    divergence,
    sobolev_norm,
    to_grid,
    to_modes,
)

from nslb.dynamics import SolverConfig, energy, gradient_energy, simulate
from nslb.flows import random_divergence_free
from oracles import (
    centered_difference,
    derivative,
    full_divergence,
    full_energy,
    full_gradient_energy,
    full_lattice,
    full_modes,
    full_sobolev_norm,
    full_to_grid,
    grid_l2,
    reflect,
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
    # N = 16.0 passed the parity check and gave a float half_shape
    for n, N in ((2, 16.0), (2.0, 16), (3, np.float64(8))):
        with pytest.raises(ValueError, match="must be integers"):
            TorusGrid(n, N)
    assert TorusGrid(np.int64(3), np.int64(8)).half_shape == (8, 8, 5)


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
    # the series is in x1 + 1/2: sin(2 pi x1) = -sin(2 pi (x1 + 1/2))
    # = i/2 e^{2 pi i (x1 + 1/2)} - i/2 e^{-2 pi i (x1 + 1/2)}
    assert abs(v.modes[0][1, 0] - 0.5j) < 1e-14
    assert abs(v.modes[0][-1, 0] - (-0.5j)) < 1e-14
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
    # the half spectrum is the last-axis cut of the full complex transform,
    # and its planes 0 and N/2 hold both alpha and -alpha
    grid = TorusGrid(2, 16)
    f = random_field(grid, seed=5)
    m = to_modes(f).modes
    assert np.max(np.abs(m - full_modes(f.values, grid)[..., :9])) < 1e-14
    for k in (0, 8):
        assert np.array_equal(m[..., k], reflect(np.conj(m[..., k]), (1,)))
    # zero mode is real
    assert abs(m[0][0, 0].imag) < 1e-15


def test_non_finite_rejected():
    grid = TorusGrid(2, 16)
    vals = np.zeros((1,) + grid.shape)
    vals[0, 3, 4] = np.nan
    with pytest.raises(ValueError):
        to_modes(PhysicalField(grid, vals))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        modes = np.zeros((2,) + grid.half_shape, dtype=complex)
        modes[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SpectralField(grid, modes)


@pytest.mark.parametrize("n, N", [(2, 16), (3, 8)])
def test_spectral_field_rejects_the_full_lattice(n, N):
    # a caller still passing full-lattice modes gets an error, not a wrong field
    grid = TorusGrid(n, N)
    for shape in ((n,) + grid.shape, grid.shape, (n,) + grid.shape[:-1] + (N // 2,)):
        with pytest.raises(ValueError, match=re.escape(f"{grid.half_shape}, the half spectrum")):
            SpectralField(grid, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("n, N", [(2, 8), (3, 8)])
def test_fields_reject_component_less_arrays(n, N):
    # a scalar field carries its component axis too: (1,) + shape
    grid = TorusGrid(n, N)
    with pytest.raises(ValueError, match=re.escape(f"value array shape {grid.shape} is not (ncomp,) + {grid.shape}")):
        PhysicalField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError, match=re.escape(f"mode array shape {grid.half_shape} is not (ncomp,) + {grid.half_shape}")):
        SpectralField(grid, np.zeros(grid.half_shape, dtype=complex))


def test_derivative_analytic():
    grid = TorusGrid(2, 32)
    x, y = grid.meshes()
    v = full_modes(np.sin(2 * np.pi * x)[None], grid)
    d = full_to_grid(derivative(v, grid, 0), grid)
    assert np.max(np.abs(d[0] - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-10
    # derivative along x2 of an x2-independent field vanishes
    d2 = full_to_grid(derivative(v, grid, 1), grid)
    assert np.max(np.abs(d2)) < 1e-12
    # constant field -> zero derivative
    c = full_modes(np.ones((1,) + grid.shape), grid)
    assert np.max(np.abs(derivative(c, grid, 0))) < 1e-14


def test_derivative_matches_centered_differences():
    grid = TorusGrid(2, 64)
    f = to_grid(dealias(to_modes(random_field(grid, seed=11, ncomp=1))))
    v = full_modes(f.values, grid)
    h = 1.0 / grid.N
    for axis in range(2):
        spectral = full_to_grid(derivative(v, grid, axis), grid)[0]
        fd = centered_difference(f.values[0], axis, h)
        # centered differences are O(h^2); the bound tracks the field scale
        scale = np.max(np.abs(spectral)) + 1.0
        assert np.max(np.abs(spectral - fd)) < 40.0 * h**2 * scale * (2 * np.pi * grid.N / 3) ** 1


def test_sobolev_norm_values():
    grid = TorusGrid(3, 8)
    modes = np.zeros((1,) + grid.half_shape, dtype=complex)
    modes[0][0, 0, 1] = 1.0  # alpha = (0, 0, 1) and its mirror (0, 0, -1)
    v = SpectralField(grid, modes)
    assert abs(sobolev_norm(v, 1.0) - 2.0) < 1e-14
    modes[0][0, 0, 1] = 0.0
    modes[0][1, 0, 0] = modes[0][-1, 0, 0] = 1.0  # both in the last-axis plane 0
    assert abs(sobolev_norm(SpectralField(grid, modes), 1.0) - 2.0) < 1e-14
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
    zero = SpectralField(grid, np.zeros((2,) + grid.half_shape, dtype=complex))
    assert np.max(np.abs(divergence(zero).modes)) == 0.0


def test_dealias_rule():
    grid = TorusGrid(2, 8)
    modes = np.zeros((1,) + grid.half_shape, dtype=complex)
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
    asq, mirror, box = grid.alpha_sq(), _mirror(grid), _Box(grid)
    assert TorusGrid(n, N).alpha_sq() is asq
    assert _mirror(TorusGrid(n, N)) is mirror
    assert _Box(TorusGrid(n, N)) is box
    wave = grid.wavenumbers()
    mesh = np.meshgrid(*(wave,) * (n - 1), wave[: N // 2 + 1], indexing="ij")
    assert np.array_equal(asq, sum(k**2 for k in mesh))
    # the mirror holds the flat index of -alpha (mod N) within a last-axis
    # plane, and is an involution
    plane = grid.shape[:-1]
    for k, neg in zip(np.meshgrid(*(wave,) * (n - 1), indexing="ij"), np.unravel_index(mirror, plane)):
        assert np.all((k + wave[neg]) % N == 0)
    assert np.array_equal(mirror.ravel()[mirror], np.arange(N ** (n - 1)).reshape(plane))
    for shared in (asq, mirror, *box.alphas, box.asq, box.inv_asq, box.mask):
        with pytest.raises(ValueError, match="read-only"):
            shared[(0,) * shared.ndim] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            shared *= 2.0
    assert asq[(0,) * n] == 0.0


@pytest.mark.parametrize("n, N", [(2, 16), (2, 32), (3, 8), (3, 12), (3, 16)])
def test_to_grid_keeps_real_part_of_non_hermitian_modes(n, N):
    # a full-lattice derivative across a Nyquist plane is not
    # conjugate-symmetric; the real part of its complex inverse transform is
    # what the half-spectrum derivative (Nyquist symbol 0) transforms to.
    # simulate's records are the real fields of their full lattices.
    grid = TorusGrid(n, N)
    f = random_field(grid, 3)
    v = to_modes(f)
    full = full_modes(f.values, grid)
    fields = []
    for k in range(n):
        d = derivative(full[0], grid, k)[None]
        assert not np.allclose(d, reflect(np.conj(d), tuple(range(1, n + 1))))
        fields.append((SpectralField(grid, 2j * np.pi * grid.alpha(k) * v.modes[:1]), d))
    v0 = random_divergence_free(grid, np.random.default_rng(6), kmax=N // 3)
    records = simulate(v0, SolverConfig(nu=0.05, dt=2e-3, t_end=6e-3)).snapshots
    fields += [(r, full_lattice(r.modes, grid)) for r in records]
    for field, modes in fields:
        want = full_to_grid(modes, grid)
        before = field.modes.tobytes()
        got = to_grid(field).values
        # the inverse transform reads the modes in place and leaves them
        assert field.modes.tobytes() == before
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n, N", [(2, 16), (3, 8), (3, 12)])
def test_odd_derivatives_read_the_nyquist_wavenumber_as_zero(n, N):
    # a field whose only Nyquist content is on axis 0, not the last axis:
    # cos(pi N x_0) times a smooth profile in x_n.  The derivative along
    # x_0 with the Nyquist symbol 0 gives the field of the full-lattice
    # derivative; reading the half-lattice index N/2 as -N/2 does not
    grid = TorusGrid(n, N)
    x = grid.meshes()
    values = np.cos(np.pi * N * x[0]) * (1.0 + np.sin(2 * np.pi * x[-1])) + np.sin(2 * np.pi * (x[0] + x[1]))
    v = to_modes(PhysicalField(grid, values[None]))
    assert all(grid.alpha(k)[(0,) * k + (N // 2,)] == 0.0 for k in range(n - 1))
    assert grid.alpha(n - 1)[(0,) * (n - 1) + (N // 2,)] == 0.0
    want = full_to_grid(derivative(full_modes(values[None], grid)[0], grid, 0)[None], grid)
    got = to_grid(SpectralField(grid, 2j * np.pi * grid.alpha(0) * v.modes[:1])).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    naive = 2j * np.pi * grid.wavenumbers().reshape([-1] + [1] * (n - 1)) * v.modes[:1]
    assert np.max(np.abs(to_grid(SpectralField(grid, naive)).values - want)) > 0.1 * np.max(np.abs(want))
    # divergence uses the same symbol
    vel = np.stack([values] + [np.zeros(grid.shape)] * (n - 1))
    want = full_to_grid(full_divergence(full_modes(vel, grid), grid), grid)
    got = to_grid(divergence(to_modes(PhysicalField(grid, vel)))).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3]), N=st.sampled_from(range(8, 25, 2)), seed=st.integers(0, 2**32 - 1))
def test_modes_are_the_forward_normalised_dft_of_the_samples(n, N, seed):
    # the series is in x + 0.5, so the modes are scipy's real DFT of the
    # grid values, bit for bit, with no phase
    grid = TorusGrid(n, N)
    f = random_field(grid, seed)
    want = SpectralField(grid, scipy.fft.rfftn(f.values, axes=tuple(range(1, n + 1)), norm="forward"))
    assert to_modes(f).modes.tobytes() == want.modes.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3]), N=st.sampled_from([8, 10, 12, 16]), seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_matches_full_lattice_oracles(n, N, seed):
    # random grid values have content on every mode, the Nyquist planes of
    # every axis included
    grid = TorusGrid(n, N)
    f = random_field(grid, seed)
    v = to_modes(f)
    full = full_modes(f.values, grid)
    assert energy(v) == pytest.approx(full_energy(full), rel=1e-13)
    assert gradient_energy(v) == pytest.approx(full_gradient_energy(full, grid), rel=1e-13)
    for s in (1, 2):
        assert sobolev_norm(v, s) == pytest.approx(full_sobolev_norm(full, grid, s), rel=1e-13)
    assert np.max(np.abs(to_grid(v).values - f.values)) <= 1e-13 * np.max(np.abs(f.values))
    want = full_to_grid(full_divergence(full, grid), grid)
    got = to_grid(divergence(v)).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from(range(8, 33, 2)),
    lead=st.sampled_from([(), (1,), (3,), (9,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mirror_matches_reflect_oracle_bit_for_bit(n, N, lead, seed):
    # any half array is a real field: its last-axis planes 0 and N/2 are
    # replaced by 0.5 (v_alpha + conj v_{-alpha}), and the inverse real
    # transform reads nothing else of them.  tobytes, not array_equal:
    # snapshot files keep the sign of zero
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(seed)
    shape = lead + grid.half_shape
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    half.real[rng.random(shape) < 0.05] = -0.0
    want = half.copy()
    planes = half[..., :: N // 2]
    want[..., :: N // 2] = 0.5 * (planes + reflect(np.conj(planes), tuple(range(len(lead), len(lead) + n - 1))))
    v = SpectralField(grid, half.reshape((-1,) + grid.half_shape))
    assert v.modes.tobytes() == want.tobytes()
    seen = scipy.fft.irfftn(v.modes, s=grid.shape, axes=tuple(range(1, n + 1)), norm="forward")
    assert to_grid(v).values.tobytes() == seen.tobytes()
    raw = scipy.fft.irfftn(half.reshape(v.modes.shape), s=grid.shape, axes=tuple(range(1, n + 1)), norm="forward")
    assert np.max(np.abs(to_grid(v).values - raw)) <= 1e-12 * np.max(np.abs(raw))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3]), N=st.sampled_from([8, 10, 16]), seed=st.integers(0, 2**32 - 1))
def test_in_place_squares_match_out_of_place_bit_for_bit(n, N, seed):
    # energy, gradient_energy and sobolev_norm square |modes| in place;
    # the sums are those of the out-of-place expressions
    grid = TorusGrid(n, N)
    v = to_modes(random_field(grid, seed))
    sq = np.abs(v.modes) ** 2
    assert energy(v) == 0.5 * _full_sum(sq, N)
    assert gradient_energy(v) == _full_sum(4 * np.pi**2 * grid.alpha_sq() * sq, N)
    for s in (0.0, 1.0, 2.0, -0.5):
        assert sobolev_norm(v, s) == float(np.sqrt(_full_sum(sq * (1.0 + grid.alpha_sq()) ** s, N)))
