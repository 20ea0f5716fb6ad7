"""Reference flows and initial data used by the solver tests and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import PhysicalField, SpectralField, TorusGrid, _band, dealias, sobolev_norm, to_modes
from .leray import leray_project

__all__ = [
    "TaylorGreenFlow",
    "StreamFlow",
    "taylor_green",
    "perturbed_taylor_green",
    "random_divergence_free",
]


def _on_grid(velocity, grid: TorusGrid, t=0.0):
    """Values (n, N, ..., N) of velocity(t, points) at the grid points."""
    pts = np.stack([c.reshape(-1) for c in grid.meshes()], axis=-1)
    return velocity(t, pts).reshape((grid.n,) + grid.shape)


@dataclass(frozen=True)
class TaylorGreenFlow:
    """Closed-form decaying vortex pair on the unit 2-torus.

    v1 =  A e^{-8 pi^2 nu t} cos(2 pi x1) sin(2 pi x2)
    v2 = -A e^{-8 pi^2 nu t} sin(2 pi x1) cos(2 pi x2)
    p  = -(A e^{-8 pi^2 nu t})^2 / 4 * (cos(4 pi x1) + cos(4 pi x2))

    The advection term is an exact gradient, so the velocity evolves by pure
    diffusion and the L2 norm decays like exp(-8 pi^2 nu t).
    """

    nu: float
    amplitude: float = 1.0

    def decay(self, t):
        return np.exp(-8.0 * np.pi**2 * self.nu * t)

    def velocity(self, t, points):
        """Velocity at (m, 2) points; returns (2, m)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.amplitude * self.decay(t)
        x, y = pts[:, 0], pts[:, 1]
        return np.stack(
            [
                a * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
                -a * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
            ]
        )

    def pressure(self, t, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a = self.amplitude * self.decay(t)
        return -(a**2) / 4.0 * (np.cos(4 * np.pi * pts[:, 0]) + np.cos(4 * np.pi * pts[:, 1]))

    def field(self, grid: TorusGrid, t=0.0) -> SpectralField:
        if grid.n != 2:
            raise ValueError("Taylor-Green flow is two-dimensional")
        return to_modes(PhysicalField(grid, _on_grid(self.velocity, grid, t)))


def taylor_green(grid: TorusGrid, amplitude=1.0) -> SpectralField:
    """Taylor-Green initial data (t = 0) of the given amplitude."""
    return TaylorGreenFlow(nu=0.0, amplitude=amplitude).field(grid)


@dataclass(frozen=True)
class StreamFlow:
    """Steady anisotropic solenoidal field from the stream function
    psi = sin(2 pi x1) sin(4 pi x2); v = (d psi/dx2, -d psi/dx1).

    Unlike the symmetric vortex pair, its odd finite-difference error terms
    do not cancel, so it gives sampled-divergence checks a genuine O(h^2)
    signal.
    """

    def velocity(self, t, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        return np.stack(
            [
                4 * np.pi * np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y),
                -2 * np.pi * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y),
            ]
        )


def perturbed_taylor_green(grid: TorusGrid, amplitude=1.0, eps=0.1) -> SpectralField:
    """Taylor-Green plus a cross-shell solenoidal mode.

    The pure vortex has a projection-null advection term; the added component
    (stream function sin(2 pi x1) sin(4 pi x2)) switches a genuine nonlinear
    interaction on while keeping the data divergence-free and smooth.
    """
    if grid.n != 2:
        raise ValueError("perturbed Taylor-Green is two-dimensional")
    base = _on_grid(TaylorGreenFlow(nu=0.0, amplitude=amplitude).velocity, grid)
    pert = _on_grid(StreamFlow().velocity, grid) / (4 * np.pi)
    return to_modes(PhysicalField(grid, base + eps * amplitude * pert))


def random_divergence_free(grid: TorusGrid, rng, kmax=None, rms=1.0) -> SpectralField:
    """Band-limited random solenoidal field with prescribed grid RMS, from
    the conjugate-symmetric part of complex normal draws on the full lattice.

    The real parts of the draws come first from ``rng``, then the imaginary
    parts; only the half spectrum of the symmetric part is formed.  ``rms``
    must be finite and nonzero (a negative value flips the field)."""
    if not (np.isfinite(rms) and rms != 0):
        raise ValueError(f"rms must be finite and nonzero, got {rms}")
    if kmax is None:
        kmax = max(2, grid.N // 4)
    shape = (grid.n,) + grid.shape
    draw = np.empty(shape, dtype=complex)
    draw.real = rng.standard_normal(shape)
    draw.imag = rng.standard_normal(shape)
    # z_{-alpha} on the half spectrum: index j -> (N - j) mod N on every axis
    neg = (grid.N - np.arange(grid.N)) % grid.N
    modes = draw[(Ellipsis, *np.ix_(*(neg,) * (grid.n - 1), neg[: grid.N // 2 + 1]))]
    np.conjugate(modes, out=modes)
    modes += draw[..., : grid.N // 2 + 1]
    del draw
    modes *= 0.5
    modes *= _band(grid, kmax) & (grid.alpha_sq() > 0)
    # the draw holds the coefficients of the series in x; the modes of the
    # series in x + 0.5 are those times (-1)^(alpha_1 + ... + alpha_n), and
    # for even N the parity of alpha is that of its lattice index
    modes *= (-1.0) ** sum(np.indices(grid.half_shape, sparse=True))
    field = SpectralField(grid, modes)
    del modes
    field = leray_project(field)
    field = dealias(field)
    norm = sobolev_norm(field, 0.0)
    if norm == 0:
        raise ValueError("degenerate random field")
    return SpectralField(grid, field.modes * (rms / norm))
