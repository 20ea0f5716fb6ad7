"""Fourier-space fields on the unit torus [-0.5, 0.5]^n.

A field is stored as a truncated Fourier series

    f(x) = sum_alpha  f_alpha exp(2 pi i alpha . x),    |alpha_k| <= N/2,

so all 2*pi factors live in the mode formulas and the physical grid is
the uniform lattice x_j = -0.5 + j/N.  Real-valued fields carry the
conjugate symmetry f_{-alpha} = conj(f_alpha); it is enforced on entry,
never assumed.

Both transforms are scipy's compiled real pocketfft kernels (``_compiled``)
on the half spectrum, last-axis wavenumbers 0..N/2: ``to_modes`` rebuilds
the full lattice from it by the symmetry, and ``to_grid`` transforms the
half spectrum of the field's conjugate-symmetric part.  ``_half`` and
``_full`` convert between the two lattices; the solver runs on the half.
Every use of the symmetry reads one per-grid index, ``_mirror``: the flat
full-lattice position of -alpha for each alpha.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._compiled import irfftn_forward, rfftn_forward

__all__ = [
    "TorusGrid",
    "SpectralField",
    "PhysicalField",
    "to_modes",
    "to_grid",
    "divergence",
    "sobolev_norm",
    "dealias",
    "hermitian_symmetrize",
    "dealias_mask",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N^n lattice on the unit torus, n in {2, 3}, N even, N >= 8."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.n}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")

    @property
    def shape(self):
        return (self.N,) * self.n

    @property
    def spacing(self):
        return 1.0 / self.N

    def axis_coords(self):
        """Grid coordinates of one axis, x_j = -0.5 + j/N."""
        return -0.5 + np.arange(self.N) / self.N

    def meshes(self):
        """List of n coordinate arrays of shape N^n (ij indexing)."""
        return np.meshgrid(*(self.axis_coords(),) * self.n, indexing="ij")

    def wavenumbers(self):
        """Integer wavenumbers of one axis in FFT order (Nyquist stored as -N/2)."""
        return ((np.arange(self.N) + self.N // 2) % self.N - self.N // 2).astype(float)

    def alpha(self, axis):
        """Wavenumbers of one axis, broadcastable against an N^n array."""
        shape = [1] * self.n
        shape[axis] = self.N
        return self.wavenumbers().reshape(shape)

    def alpha_sq(self):
        """|alpha|^2 on the full mode lattice (built once per grid, read-only)."""
        return _alpha_sq(self)


def _read_only(a):
    a.flags.writeable = False
    return a


# The per-grid constant arrays are shared by every caller on equal grids;
# they are read-only so that an in-place write raises instead of changing
# them for everyone.
@functools.cache
def _alpha_sq(grid):
    out = np.zeros(grid.shape)
    for axis in range(grid.n):
        out = out + grid.alpha(axis) ** 2
    return _read_only(out)


@functools.cache
def _mode_phase(grid):
    """(-1)^(alpha_1 + ... + alpha_n), the exact phase of the -0.5 grid offset
    (built once per grid, read-only)."""
    phase = np.ones(grid.shape)
    for axis in range(grid.n):
        k = grid.alpha(axis).astype(int)
        phase = phase * np.where(k % 2 == 0, 1.0, -1.0)
    return _read_only(phase)


@functools.cache
def _mirror(grid):
    """Flat full-lattice index of -alpha for every alpha: storage index
    j -> (N - j) mod N on every axis (built once per grid, read-only)."""
    neg = (grid.N - np.arange(grid.N)) % grid.N
    return _read_only(np.ravel_multi_index(np.ix_(*(neg,) * grid.n), grid.shape))


@dataclass(frozen=True)
class SpectralField:
    """Mode representation of a field with one or more components.

    ``modes`` has shape (ncomp, N, ..., N) in FFT ordering along each
    spatial axis.  Velocity fields carry grid.n components; scalars one.
    Non-finite modes are rejected with ValueError.
    """

    grid: TorusGrid
    modes: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.modes, dtype=complex)
        if m.ndim == self.grid.n:
            m = m[None]
        if m.shape[1:] != self.grid.shape:
            raise ValueError(f"mode array shape {m.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("mode array contains non-finite values")
        object.__setattr__(self, "modes", m)

    @property
    def ncomp(self):
        return self.modes.shape[0]

    def component(self, i):
        return SpectralField(self.grid, self.modes[i][None])

    def __add__(self, other):
        return SpectralField(self.grid, self.modes + other.modes)

    def __sub__(self, other):
        return SpectralField(self.grid, self.modes - other.modes)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.modes * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class PhysicalField:
    """Real grid values, shape (ncomp, N, ..., N)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == self.grid.n:
            v = v[None]
        if v.shape[1:] != self.grid.shape:
            raise ValueError(f"value array shape {v.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", v)

    @property
    def ncomp(self):
        return self.values.shape[0]

    def max_abs(self):
        return float(np.max(np.abs(self.values)))


def hermitian_symmetrize(modes, grid):
    """Project onto the conjugate-symmetric subspace, v_{-alpha} = conj(v_alpha)."""
    lead = modes.shape[: modes.ndim - grid.n]
    return 0.5 * (modes + np.conj(np.take(modes.reshape(lead + (-1,)), _mirror(grid), axis=-1)))


def _half_phase(grid):
    return _mode_phase(grid)[..., : grid.N // 2 + 1]


def _half(modes, grid):
    """Raw half spectrum of full-lattice (phased) modes: the coefficients
    the real transforms map straight to grid values."""
    return modes[..., : grid.N // 2 + 1] * _half_phase(grid)


def _full(c, grid):
    """Full-lattice phased modes rebuilt from the raw half spectrum c by
    v_{-alpha} = conj(v_alpha).

    The last-axis planes 0 and N/2 are their own mirror images; they are
    made exactly conjugate-symmetric, which is the part the inverse real
    transform reads.
    """
    N, mirror = grid.N, _mirror(grid)
    out = np.empty(c.shape[:-1] + (N,), dtype=complex)
    out[..., : N // 2 + 1] = c * _half_phase(grid)
    flat = out.reshape(out.shape[: out.ndim - grid.n] + (-1,))
    out[..., N // 2 + 1 :] = np.conj(np.take(flat, mirror[..., N // 2 + 1 :], axis=-1))
    for k in (0, N // 2):
        out[..., k] = 0.5 * (out[..., k] + np.conj(np.take(flat, mirror[..., k], axis=-1)))
    return out


def to_modes(f: PhysicalField) -> SpectralField:
    """Forward transform; rejects non-finite input.  The modes are exactly
    conjugate-symmetric."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("physical field contains non-finite values")
    grid = f.grid
    return SpectralField(grid, _full(rfftn_forward(f.values, tuple(range(1, 1 + grid.n))), grid))


def to_grid(v: SpectralField) -> PhysicalField:
    """Inverse transform onto the lattice: the real part of the full inverse
    transform, which is the inverse transform of v's conjugate-symmetric
    part 0.5 (v_alpha + conj v_{-alpha}); only its half spectrum is built."""
    grid = v.grid
    c = np.take(v.modes.reshape(v.ncomp, -1), _mirror(grid)[..., : grid.N // 2 + 1], axis=1)  # v_{-alpha}
    np.conjugate(c, out=c)
    c += v.modes[..., : grid.N // 2 + 1]
    c *= 0.5 * _half_phase(grid)
    return PhysicalField(grid, irfftn_forward(c, tuple(range(1, 1 + grid.n)), grid.N))


def divergence(v: SpectralField) -> SpectralField:
    """Mode-wise sum_k 2 pi i alpha_k v_{k,alpha}; returns a scalar field."""
    if v.ncomp != v.grid.n:
        raise ValueError("divergence needs one component per spatial dimension")
    out = np.zeros(v.grid.shape, dtype=complex)
    for k in range(v.grid.n):
        out += 2j * np.pi * v.grid.alpha(k) * v.modes[k]
    return SpectralField(v.grid, out[None])


def sobolev_norm(v: SpectralField, s: float) -> float:
    """sqrt( sum_i sum_alpha |v_{i,alpha}|^2 (1+|alpha|^2)^s )."""
    if not np.isfinite(s):
        raise ValueError("Sobolev order must be finite")
    weight = (1.0 + v.grid.alpha_sq()) ** s
    return float(np.sqrt(np.sum(np.abs(v.modes) ** 2 * weight)))


def dealias(v: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero every mode with some |alpha_k| > N/3."""
    return SpectralField(v.grid, v.modes * dealias_mask(v.grid))


def dealias_mask(grid: TorusGrid):
    """Boolean mode mask of the 2/3 rule: True where every |alpha_k| <= N/3."""
    cutoff = grid.N / 3.0
    keep = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.n):
        keep &= np.abs(grid.alpha(axis)) <= cutoff
    return keep
