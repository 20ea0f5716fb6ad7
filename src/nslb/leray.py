"""Pressure elimination on the torus: the Fourier-mode pressure and the
divergence-free (Leray) projection.

The pressure solves  Delta p = -sum_{i,j} v_{i,j} v_{j,i}  with zero-mean
gauge: p_alpha = G_alpha / (4 pi^2 |alpha|^2) for alpha != 0, where G is the
mode array of sum_{i,j} v_{i,j} v_{j,i}; its gradient modes are
2 pi i alpha_i p_alpha.  The quadratic term is evaluated pseudo-spectrally
(grid product + 2/3 dealiasing); a direct double-sum oracle over mode pairs
lives in the test suite.
"""

from __future__ import annotations

import numpy as np

from .spectral import PhysicalField, SpectralField, dealias, to_grid, to_modes

__all__ = ["leray_project", "poisson_pressure", "velocity_gradient_contraction"]


def velocity_gradient_contraction(v: SpectralField) -> SpectralField:
    """Mode array of sum_{i,j} v_{i,j} v_{j,i}, dealiased (scalar field)."""
    grid = v.grid
    n = grid.n
    # grid values of all partials d v_i / d x_j, in one transform
    dmodes = np.stack([2j * np.pi * grid.alpha(j) * v.modes[i] for i in range(n) for j in range(n)])
    dgrids = to_grid(SpectralField(grid, dmodes)).values.reshape((n, n) + grid.shape)
    contraction = np.zeros(grid.shape)
    for i in range(n):
        for j in range(n):
            contraction += dgrids[i, j] * dgrids[j, i]
    return dealias(to_modes(PhysicalField(grid, contraction[None])))


def poisson_pressure(v: SpectralField) -> SpectralField:
    """Zero-mean spectral solve of Delta p = -sum_{i,j} v_{i,j} v_{j,i}."""
    grid = v.grid
    g = velocity_gradient_contraction(v).modes[0]
    denom = 4.0 * np.pi**2 * grid.alpha_sq()
    denom_safe = np.where(denom == 0, 1.0, denom)
    p = g / denom_safe
    p = np.where(denom == 0, 0.0, p)
    return SpectralField(grid, p[None])


def _project_modes(modes, alphas, inv_asq):
    """Leray projection of an (n, ...) mode array on any mode lattice.

    Subtracts alpha (alpha . v_alpha) / |alpha|^2 from every mode.
    ``alphas`` holds the n wavenumber arrays, broadcastable against one
    component, and ``inv_asq`` is 1/|alpha|^2 with 0 at alpha = 0, so the
    mean mode is untouched (constants are solenoidal and orthogonal to
    gradients).
    """
    dot = sum(a * m for a, m in zip(alphas, modes)) * inv_asq
    out = np.empty((len(alphas),) + dot.shape, dtype=dot.dtype)
    for a, m, o in zip(alphas, modes, out):
        np.multiply(a, dot, out=o)
        np.subtract(m, o, out=o)
    return out


def leray_project(f: SpectralField) -> SpectralField:
    """Orthogonal mode-wise projection onto the kernel of ``divergence``:
    along ``grid.alpha`` (Nyquist read as 0); a mode where it vanishes is kept."""
    grid = f.grid
    if f.ncomp != grid.n:
        raise ValueError("projection needs one component per spatial dimension")
    alphas = [grid.alpha(k) for k in range(grid.n)]
    asq = sum(a**2 for a in alphas)
    inv_asq = np.divide(1.0, asq, out=np.zeros_like(asq), where=asq != 0)
    modes = _project_modes(f.modes, alphas, inv_asq)
    del asq, inv_asq  # freed before SpectralField copies the modes
    return SpectralField(grid, modes)
