"""Fourier-space fields on the unit torus [-0.5, 0.5]^n.

A field is stored as a truncated Fourier series in x + 0.5,

    f(x) = sum_alpha  f_alpha exp(2 pi i alpha . (x + 0.5)),    |alpha_k| <= N/2,

so all 2*pi factors live in the mode formulas.  On the uniform lattice
x_j = -0.5 + j/N the exponentials are exp(2 pi i alpha . j / N), so the
modes are the forward-normalised DFT of the grid samples.  Fields are
real, f_{-alpha} = conj(f_alpha), so only the half spectrum is stored,
last-axis wavenumbers 0..N/2 (the real-to-complex layout; Canuto,
Hussaini, Quarteroni & Zang, Spectral Methods, 2007): ``to_modes`` and
``to_grid`` are scipy's compiled real pocketfft transforms (``_compiled``;
``to_grid`` runs one per component).  The last-axis planes 0 and N/2 hold
both alpha and -alpha; ``SpectralField`` makes them their own conjugate
mirror.  A full-lattice sum of a quantity even in alpha counts the planes
between them twice (``_full_sum``).

The Nyquist wavenumber N/2 of an axis carries the one grid mode
cos(pi N x_k), whose first derivative vanishes on the grid: ``alpha``, the
symbol of d/dx_k in divergence, gradients and the Leray projection, reads
it as 0, and ``alpha_sq``, the symbol of the Laplacian, as (N/2)^2.
"""

from __future__ import annotations

import functools
import itertools
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
    "dealias_mask",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N^n lattice on the unit torus, n in {2, 3}, N even, N >= 8."""

    n: int
    N: int

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) for v in (self.n, self.N)):
            raise ValueError(f"n and N must be integers, got n = {self.n!r}, N = {self.N!r}")
        if self.n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.n}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")

    @property
    def shape(self):
        return (self.N,) * self.n

    @property
    def half_shape(self):
        """Shape of one component's modes: the half spectrum, last axis 0..N/2."""
        return self.shape[:-1] + (self.N // 2 + 1,)

    def meshes(self):
        """List of n coordinate arrays of shape N^n (ij indexing), x_j = -0.5 + j/N on each axis."""
        return np.meshgrid(*(-0.5 + np.arange(self.N) / self.N,) * self.n, indexing="ij")

    def wavenumbers(self):
        """Integer wavenumbers of one axis in FFT order (Nyquist stored as -N/2)."""
        return ((np.arange(self.N) + self.N // 2) % self.N - self.N // 2).astype(float)

    def alpha(self, axis):
        """Wavenumbers of one axis, Nyquist read as 0 (the symbol of d/dx_axis
        over 2 pi i), broadcastable against the half lattice."""
        k = self.wavenumbers()
        k[self.N // 2] = 0.0
        return _on_axis(self, k, axis)

    def alpha_sq(self):
        """|alpha|^2 on the half lattice, Nyquist counted as (N/2)^2: the
        symbol of -Laplacian over 4 pi^2 (built once per grid, read-only)."""
        return _alpha_sq(self)


def _on_axis(grid, values, axis):
    """Per-wavenumber values of one axis (FFT order, length N), cut to 0..N/2
    on the last axis and shaped to broadcast against the half lattice."""
    if axis == grid.n - 1:
        values = values[: grid.N // 2 + 1]
    return values.reshape([-1 if j == axis else 1 for j in range(grid.n)])


def _read_only(a):
    a.flags.writeable = False
    return a


# The per-grid constant arrays are shared by every caller on equal grids;
# they are read-only so that an in-place write raises instead of changing
# them for everyone.
@functools.cache
def _alpha_sq(grid):
    out = np.zeros(grid.half_shape)
    for axis in range(grid.n):
        out = out + _on_axis(grid, grid.wavenumbers(), axis) ** 2
    return _read_only(out)


@functools.cache
def _mirror(grid):
    """Flat index, within one last-axis plane (the first n-1 axes), of
    -alpha for every alpha: storage index j -> (N - j) mod N on every axis
    (built once per grid, read-only)."""
    neg = (grid.N - np.arange(grid.N)) % grid.N
    plane = grid.shape[:-1]
    return _read_only(np.ravel_multi_index(np.ix_(*(neg,) * len(plane)), plane))


def _band(grid, kmax):
    """Boolean half-lattice mask: True where every |alpha_k| <= kmax, the
    Nyquist wavenumber counted as N/2."""
    keep = np.ones(grid.half_shape, dtype=bool)
    for axis in range(grid.n):
        keep &= np.abs(_on_axis(grid, grid.wavenumbers(), axis)) <= kmax
    return keep


def _abs_sq(modes):
    """|modes|^2 as a new real array, squared in place (the bits of
    ``np.abs(modes) ** 2``)."""
    a = np.abs(modes)
    return np.multiply(a, a, out=a)


def _full_sum(a, N):
    """Full-lattice sum of a quantity even in alpha from its values ``a`` on
    the half lattice, or on a box of it whose last axis starts at 0: each
    last-axis plane strictly between 0 and N/2 counts twice."""
    return float(a.sum() + a[..., 1 : N // 2].sum())


@dataclass(frozen=True)
class SpectralField:
    """Mode representation of a real field with one or more components.

    ``modes`` has shape (ncomp,) + grid.half_shape, FFT ordering along each
    axis; velocity fields carry grid.n components, scalars one.  In a copy,
    the last-axis planes 0 and N/2 become 0.5 (v_alpha + conj v_{-alpha}),
    the part the inverse real transform reads, so any half array is a real
    field.  Another shape (the full lattice, last axis N, too) or non-finite
    modes raise ValueError.
    """

    grid: TorusGrid
    modes: np.ndarray

    def __post_init__(self):
        grid = self.grid
        m = np.array(self.modes, dtype=complex)
        if m.shape[1:] != grid.half_shape:
            raise ValueError(
                f"mode array shape {m.shape} is not (ncomp,) + {grid.half_shape}, the half spectrum of grid {grid.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("mode array contains non-finite values")
        planes = m[..., :: grid.N // 2]
        # 0.5 * (planes + conj(mirrored)), formed in the ``take`` output
        mirrored = np.take(planes.reshape(m.shape[0], -1, 2), _mirror(grid), axis=1)
        np.conjugate(mirrored, out=mirrored)
        mirrored += planes
        mirrored *= 0.5
        m[..., :: grid.N // 2] = mirrored
        object.__setattr__(self, "modes", m)

    @property
    def ncomp(self):
        return self.modes.shape[0]

    def __sub__(self, other):
        return SpectralField(self.grid, self.modes - other.modes)


@dataclass(frozen=True)
class PhysicalField:
    """Real grid values, shape (ncomp, N, ..., N)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[1:] != self.grid.shape:
            raise ValueError(f"value array shape {v.shape} is not (ncomp,) + {self.grid.shape}")
        object.__setattr__(self, "values", v)

    @property
    def ncomp(self):
        return self.values.shape[0]


def to_modes(f: PhysicalField) -> SpectralField:
    """Forward transform; rejects non-finite input."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("physical field contains non-finite values")
    grid = f.grid
    return SpectralField(grid, rfftn_forward(f.values, tuple(range(1, 1 + grid.n))))


def to_grid(v: SpectralField) -> PhysicalField:
    """Inverse transform onto the lattice, one component at a time."""
    grid = v.grid
    axes = tuple(range(grid.n))
    values = np.empty((v.ncomp,) + grid.shape)
    for modes, out in zip(v.modes, values):
        irfftn_forward(modes, axes, grid.N, out=out)
    return PhysicalField(grid, values)


def divergence(v: SpectralField) -> SpectralField:
    """Mode-wise sum_k 2 pi i alpha_k v_{k,alpha}; returns a scalar field."""
    if v.ncomp != v.grid.n:
        raise ValueError("divergence needs one component per spatial dimension")
    out = np.zeros(v.grid.half_shape, dtype=complex)
    for k in range(v.grid.n):
        out += 2j * np.pi * v.grid.alpha(k) * v.modes[k]
    return SpectralField(v.grid, out[None])


def sobolev_norm(v: SpectralField, s: float) -> float:
    """sqrt( sum_i sum_alpha |v_{i,alpha}|^2 (1+|alpha|^2)^s ) over the full lattice."""
    if not np.isfinite(s):
        raise ValueError("Sobolev order must be finite")
    weighted = _abs_sq(v.modes)
    weighted *= (1.0 + v.grid.alpha_sq()) ** s
    return float(np.sqrt(_full_sum(weighted, v.grid.N)))


@functools.cache
class _Box:
    """The 2/3 box of the half lattice, one per grid: the modes with every
    |alpha_k| <= k = (N - 1) // 3, that is |alpha_k| < N/3, the only ones the
    2/3 rule keeps.  A product of two box fields reaches |alpha_k| = 2k,
    which on N points aliases to 2k - N, outside the box since 3k < N
    (Orszag 1971; Canuto, Hussaini, Quarteroni & Zang, Spectral Methods, 2007).

    Box axes hold wavenumbers in FFT order: 0..k, then -k..-1 on each of the
    first n-1 axes (half-lattice indices 0..k and N-k..N-1), and 0..k on the
    last axis, which therefore has no Nyquist plane (k < N/2).  On each axis
    the box is one or two runs of lattice indices, so ``gather`` and
    ``scatter`` are 2^(n-1) block copies by basic slices.  The read-only
    tables are the box of ``grid.alpha`` and ``grid.alpha_sq``, 1/|alpha|^2
    (0 at alpha = 0) and the box's half-lattice ``mask``.
    """

    def __init__(self, grid):
        n, N = grid.n, grid.N
        k = (N - 1) // 3
        self.shape = (2 * k + 1,) * (n - 1) + (k + 1,)
        # (box slice, half-lattice slice) of the nonnegative and the
        # negative wavenumbers of a full axis
        runs = ((slice(0, k + 1), slice(0, k + 1)), (slice(k + 1, 2 * k + 1), slice(N - k, N)))
        last = slice(0, k + 1)
        self._blocks = [
            ((Ellipsis, *(box for box, _ in combo), last), (Ellipsis, *(lat for _, lat in combo), last))
            for combo in itertools.product(runs, repeat=n - 1)
        ]
        self.alphas = [_read_only(self.gather(np.broadcast_to(grid.alpha(axis), grid.half_shape), np.empty(self.shape))) for axis in range(n)]
        self.asq = _read_only(self.gather(grid.alpha_sq(), np.empty(self.shape)))
        self.inv_asq = _read_only(np.divide(1.0, self.asq, out=np.zeros(self.shape), where=self.asq != 0))
        self.mask = _read_only(self.scatter(np.ones(self.shape, dtype=bool), np.zeros(grid.half_shape, dtype=bool)))

    def gather(self, h, out):
        """Copy the box of the half-lattice array h into ``out``."""
        for box, lat in self._blocks:
            out[box] = h[lat]
        return out

    def scatter(self, c, out):
        """Copy the box array c into the half-lattice array ``out`` (unchanged off the box)."""
        for box, lat in self._blocks:
            out[lat] = c[box]
        return out


def dealias(v: SpectralField) -> SpectralField:
    """2/3-rule truncation: zero every mode with some |alpha_k| >= N/3."""
    return SpectralField(v.grid, v.modes * dealias_mask(v.grid))


def dealias_mask(grid: TorusGrid):
    """Read-only boolean mode mask of the 2/3 rule: True where every |alpha_k| < N/3."""
    return _Box(grid).mask
