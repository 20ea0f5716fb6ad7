"""Backward space-time cones, the cone-to-cylinder change of variables, and
the transformed equation for the comparison field on the cylinder.

A cone with tip (t_s, x_s) and entry time t_1 maps to an infinite cylinder
through

    tau = t / (t_s - t),        z = (x - x_s) / (t_s - t),

so a finite-time tip becomes the infinite-tau limit.  The comparison field
w(tau, z) = v(t, x) obeys a drift-diffusion system whose coefficients are

    mu_diffusion = 1 / t_s            (constant),
    mu_drift     = (t_s - t) / t_s  = 1 / (1 + tau).

Cylinder cross sections are represented on a Cartesian grid masked to the
base ball; one stencil table per derivative order (``_STENCILS``) gives each
mask node the first row that fits the mask: centered, one-sided second-order
forward and backward, lower-order fallback forward and backward.  Each ball
finds the nodes of every row once per (axis, order) and keeps its arrays
read-only, so a stencil is a gather of flat indices.  The ball Dirichlet
Poisson problem is assembled straight into CSR, with int32 indices, as the
symmetric positive definite -A p = -b and solved by conjugate gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._compiled import CSRMatrix

__all__ = [
    "ConeSpec",
    "CylinderSpec",
    "BallGrid",
    "MuCoeffs",
    "tau_of_t",
    "t_of_tau",
    "dtau_dt",
    "mu_coeffs",
    "sample_w_function",
    "transformed_residual",
    "poisson_dirichlet",
]


@dataclass(frozen=True)
class ConeSpec:
    """Backward cone {(t, x): t_1 < t < t_s, |x - x_s| < t_s - t}.

    The scaling exponent is fixed at 1, the non-degenerate case; other
    values change the character of the transformed diffusion coefficient.
    """

    t_s: float
    x_s: tuple
    t_1: float

    def __post_init__(self):
        object.__setattr__(self, "x_s", tuple(float(c) for c in self.x_s))
        if not (0 < self.t_s < np.inf and np.all(np.isfinite(self.x_s))):  # "not 0 < x < inf" also rejects nan
            raise ValueError("the tip (t_s, x_s) must be finite, with t_s > 0")
        if not 0 < self.t_1 < self.t_s:
            raise ValueError("entry time must satisfy 0 < t_1 < t_s")

    @property
    def n(self):
        return len(self.x_s)


@dataclass(frozen=True)
class CylinderSpec:
    """Transformed domain [t_in, inf) x (ball of radius r_0)."""

    t_in: float
    r_0: float

    def __post_init__(self):
        if not (0 < self.t_in < np.inf and 0 < self.r_0 < np.inf):  # also rejects nan
            raise ValueError("cylinder entry time and base radius must be positive and finite")

    @classmethod
    def from_cone(cls, cone: ConeSpec) -> "CylinderSpec":
        return cls(t_in=cone.t_1 / (cone.t_s - cone.t_1), r_0=cone.t_s - cone.t_1)


def tau_of_t(t, cone: ConeSpec):
    """tau = t / (t_s - t); rejects t >= t_s (the tip maps to infinity)."""
    t = np.asarray(t, dtype=float)
    if np.any(t >= cone.t_s):
        raise ValueError("t must satisfy t < t_s")
    return t / (cone.t_s - t)


def t_of_tau(tau, cone: ConeSpec):
    """Inverse map t = t_s tau / (1 + tau); t < t_s for every finite tau."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    return cone.t_s * tau / (1.0 + tau)


def dtau_dt(t, cone: ConeSpec):
    """d tau / d t = t_s / (t_s - t)^2 > 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t >= cone.t_s):
        raise ValueError("t must satisfy t < t_s")
    return cone.t_s / (cone.t_s - t) ** 2


class MuCoeffs(NamedTuple):
    mu1: np.ndarray  # drift coefficient, 1/(1+tau), shaped like tau
    mu2: float  # diffusion coefficient, 1/t_s (constant)


def mu_coeffs(tau, cone: ConeSpec) -> MuCoeffs:
    """Drift and diffusion coefficients of the transformed system at tau, a scalar or an array.

    mu2 = (t_s - t)^0 / t_s = 1/t_s for all tau; mu1 = (t_s - t)/t_s, which
    equals 1/(1+tau) and decays to zero up the cylinder.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    return MuCoeffs(mu1=1.0 / (1.0 + tau), mu2=1.0 / cone.t_s)


# Ball stencil rows per derivative order, (offsets along the axis, integer coefficients,
# divisor in units of h^order): centered, one-sided O(h^2), lower-order fallback.
_STENCILS = {
    1: (((1, -1), (1, -1), 2), ((0, 1, 2), (-3, 4, -1), 2), ((1, 0), (1, -1), 1)),
    2: (((1, 0, -1), (1, -2, 1), 1), ((0, 1, 2, 3), (2, -5, 4, -1), 1), ((0, 1, 2), (1, -2, 1), 1)),
}


class BallGrid:
    """Cartesian grid over [-radius, radius]^n masked to the closed ball.

    Nodes are uniformly spaced with the endpoints included; ``mask`` marks
    nodes inside the ball, ``interior`` those whose axis neighbours are all
    masked (the rest form the numeric boundary ring).  ``mesh`` holds the n
    coordinate arrays (ij indexing) as full-shape broadcast views of
    ``axis``.  All of these arrays are read-only.
    """

    def __init__(self, n, radius, m):
        if n not in (2, 3):
            raise ValueError("ball grid supports n in {2, 3}")
        if m < 8:
            raise ValueError("need at least 8 nodes per axis")
        self.n = n
        self.radius = float(radius)
        self.m = int(m)
        self.axis = np.linspace(-radius, radius, m)
        self.h = self.axis[1] - self.axis[0]
        coords = np.meshgrid(*(self.axis,) * n, indexing="ij", sparse=True, copy=False)  # views of axis
        self.mesh = tuple(np.broadcast_to(c, (self.m,) * n) for c in coords)
        r_sq = sum(c**2 for c in coords)
        self.mask = r_sq <= radius**2 + 1e-12
        self.interior = self.mask.copy()
        for axis in range(n):
            self.interior &= self._shifted(self.mask, 1, axis) & self._shifted(self.mask, -1, axis)
        self.boundary = self.mask & ~self.interior
        # the stencil rows are found from the mask once, so it must not change
        for arr in (self.axis, self.mask, self.interior, self.boundary):
            arr.flags.writeable = False
        self._rows = {}  # (axis, order) -> rows of _stencil_rows

    def points(self, which):
        """(m_pts, n) coordinates of masked nodes ('mask', 'interior', 'boundary')."""
        sel = {"mask": self.mask, "interior": self.interior, "boundary": self.boundary}[which]
        return np.stack([c[sel] for c in self.mesh], axis=-1)

    def _shifted(self, arr, k, axis):
        """arr[..., i + k, ...] along ``axis``, zero where i + k leaves the box."""
        m = self.m
        pad = np.zeros_like(arr)
        s_src = [slice(None)] * self.n
        s_dst = [slice(None)] * self.n
        if k > 0:
            s_src[axis] = slice(k, m)
            s_dst[axis] = slice(0, m - k)
        else:
            s_src[axis] = slice(0, m + k)
            s_dst[axis] = slice(-k, m)
        pad[tuple(s_dst)] = arr[tuple(s_src)]
        return pad

    def partial(self, values, axis):
        """d/dz_axis with centered stencils inside and one-sided O(h^2) at the edge."""
        return self._stencil(values, axis, 1)

    def second_partial(self, values, axis):
        return self._stencil(values, axis, 2)

    def _stencil_rows(self, axis, order):
        """Each mask node takes the first row that fits the mask, in the order centered,
        one-sided forward and backward, fallback forward and backward; a backward row
        negates the offsets and scales the coefficients by (-1)^order.  Returns, per
        row, (flat indices of the nodes that take it, offsets in flat-index units,
        coefficients, divisor); nodes that fit no row are in none.  Built once per
        (axis, order)."""
        if (axis, order) not in self._rows:
            centered, *edges = _STENCILS[order]
            rows = [centered]
            for offsets, coeffs, div in edges:
                rows += [(offsets, coeffs, div), (tuple(-k for k in offsets), tuple((-1) ** order * c for c in coeffs), div)]
            stride = self.m ** (self.n - 1 - axis)
            masks = {k: self._shifted(self.mask, k, axis) for offsets, _, _ in rows for k in offsets}
            left = self.mask.copy()  # mask nodes no row has taken yet
            table = []
            for offsets, coeffs, div in rows:
                take = left.copy()
                for k in offsets:
                    take &= masks[k]
                left &= ~take
                table.append((np.flatnonzero(take), tuple(k * stride for k in offsets), coeffs, div))
            self._rows[axis, order] = table
        return self._rows[axis, order]

    def _stencil(self, values, axis, order):
        """Nodes off the mask, and mask nodes that fit no row, stay 0.  Terms are summed
        in the listed offset order, which keeps the bits of the hand-written differences."""
        v = np.asarray(values, dtype=float).reshape(-1)
        out = np.zeros(self.mask.shape)
        for nodes, steps, coeffs, div in self._stencil_rows(axis, order):
            total = coeffs[0] * v[nodes + steps[0]]
            for k, c in zip(steps[1:], coeffs[1:]):
                total += c * v[nodes + k]
            out.flat[nodes] = total / (div * self.h**order)
        return out

    def laplacian(self, values):
        return sum(self.second_partial(values, axis) for axis in range(self.n))

    def divergence(self, values):
        """sum_k d values[k] / dz_k for a field of shape (n,) + mask.shape."""
        return sum(self.partial(values[k], k) for k in range(self.n))


def _cone_points(cone: ConeSpec, t, z_points):
    return np.asarray(cone.x_s) + (cone.t_s - t) * np.asarray(z_points)


def sample_w_function(velocity_fn, cone: ConeSpec, tau, ball: BallGrid):
    """w(tau, z) = v(t(tau), x_s + (t_s - t) z) on the ball's mask nodes, from an
    analytic velocity callable velocity_fn(t, points) -> (ncomp, m_pts).

    Returns an array of shape (ncomp,) + ball.mask.shape, zero off the mask.
    The ball may exceed the cylinder base radius by at most 5%.
    """
    cyl = CylinderSpec.from_cone(cone)
    if ball.radius > cyl.r_0 * 1.05:
        raise ValueError(f"ball radius {ball.radius} exceeds cylinder base {cyl.r_0} (margin 0.05)")
    t = float(t_of_tau(tau, cone))
    pts = ball.points("mask")
    vals = np.asarray(velocity_fn(t, _cone_points(cone, t, pts)))
    out = np.zeros((vals.shape[0],) + ball.mask.shape)
    out[:, ball.mask] = vals
    return out


def _poisson_system(ball: BallGrid, rhs, bvals):
    """The SPD interior Dirichlet problem -A_h p = -b as (canonical CSR matrix, -b).

    One row per interior node in flat-index order: 2n/h^2 on the diagonal
    and -1/h^2 for each interior axis neighbour, each neighbour on the
    boundary ring moved into the right-hand side.  Neighbours sit at the
    flat offsets -m^(n-1), ..., -1, 0, +1, ..., +m^(n-1) (CSR, Saad 2003,
    section 3.4); the interior numbering is monotone in the flat index, so
    the columns ascend along each row in that order.  Boundary neighbours
    are added to -b in (axis, step) order, so the additions happen in a
    fixed order per row.

    The CSR index arrays are int32, so a ball whose entry count could reach
    2^31 (its node count times 2n + 1) raises ValueError.
    """
    n, m = ball.n, ball.m
    if ball.interior.size * (2 * n + 1) >= 2**31:
        raise ValueError(f"a ball of {ball.interior.size} nodes is too large for int32 CSR indices")
    flat = np.flatnonzero(ball.interior)  # interior nodes never touch the box edge
    idx = np.full(ball.interior.size, -1, dtype=np.int32)
    idx[flat] = np.arange(flat.size)
    strides = [m ** (n - 1 - axis) for axis in range(n)]
    offsets = [-s for s in strides] + [0] + strides[::-1]
    cols = np.empty((flat.size, len(offsets)), dtype=np.int32)  # -1 where the neighbour is off the interior
    for k, offset in enumerate(offsets):
        cols[:, k] = idx[flat + offset]
    del idx
    inner = cols >= 0
    indices = cols[inner]
    del cols
    indptr = np.zeros(flat.size + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(inner, axis=1), out=indptr[1:])
    h2 = ball.h**2
    data = np.full(indptr[-1], -1.0 / h2)
    data[indptr[:-1] + np.count_nonzero(inner[:, :n], axis=1)] = 2.0 * n / h2
    b = -rhs.flat[flat]
    for axis in range(n):
        for step in (-1, 1):
            out = ~inner[:, offsets.index(step * strides[axis])]
            b[out] += bvals.flat[flat[out] + step * strides[axis]] / h2
    return CSRMatrix(indptr, indices, data), b


# Conjugate gradients stop once the updated residual satisfies
# ||r|| <= _CG_RTOL ||b||, which bounds the relative solution error by about
# cond(A) * _CG_RTOL.  cond(A) grows like m^2: 290 on the 3-D m = 33 ball,
# 5.6e3 on the 2-D m = 129 ball.  There a tolerance of 1e-13 left a 4.9e-13
# relative error against a direct solve and 1e-14 left 2.3e-14, for 6% more
# iterations.
_CG_RTOL = 1e-14


def _cg_iteration_cap(size):
    """CG ends within ``size`` steps in exact arithmetic; twice that leaves room for rounding."""
    return 2 * size + 10


def _conjugate_gradients(mat, b):
    """x with mat @ x = b for a symmetric positive definite ``mat``.

    Unpreconditioned CG from x = 0.  Every inner product is a numpy
    pairwise sum, not a BLAS dot, so the result does not depend on the
    BLAS thread count.  Elementwise products are formed in one work vector.
    """
    x = np.zeros_like(b)
    work = b * b
    bb = np.sum(work)
    if bb == 0.0:
        return x
    r = b.copy()
    p = r.copy()
    rr = bb
    cap = _cg_iteration_cap(b.size)
    for _ in range(cap):
        q = mat @ p
        alpha = rr / np.sum(np.multiply(p, q, out=work))
        x += np.multiply(alpha, p, out=work)
        r -= np.multiply(alpha, q, out=work)
        rr_next = np.sum(np.multiply(r, r, out=work))
        if rr_next <= _CG_RTOL**2 * bb:
            return x
        del q  # freed before the next product allocates its own
        p *= rr_next / rr
        p += r
        rr = rr_next
    raise RuntimeError(
        f"conjugate gradients did not converge in {cap} iterations: "
        f"relative residual {np.sqrt(rr / bb):.3e} > {_CG_RTOL:.0e}"
    )


def poisson_dirichlet(ball: BallGrid, rhs_values, boundary_values):
    """Solve Delta p = rhs on the masked interior with nodal Dirichlet data.

    ``rhs_values`` and ``boundary_values`` are arrays of the shape of
    ``ball.mask``; the right-hand side is read on the interior and the
    Dirichlet data on the boundary ring, and both must be finite there.
    Returns p on the full mask (boundary data reproduced exactly).

    The 2n-point Laplacian A is symmetric negative definite, so the system
    is assembled as the SPD -A p = -b and solved by unpreconditioned
    conjugate gradients to a relative residual of ``_CG_RTOL`` (1e-14).  A
    zero right-hand side gives p = 0 on the interior; no convergence within
    the iteration cap, which grows with the number of unknowns, raises
    ``RuntimeError``.
    """
    rhs = np.asarray(rhs_values, dtype=float)
    bvals = np.asarray(boundary_values, dtype=float)
    for name, arr in (("rhs_values", rhs), ("boundary_values", bvals)):
        if arr.shape != ball.mask.shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected the ball shape {ball.mask.shape}")
    if not np.all(np.isfinite(rhs[ball.interior])):
        raise ValueError("rhs_values is non-finite on the interior")
    if not np.all(np.isfinite(bvals[ball.boundary])):
        raise ValueError("boundary_values is non-finite on the boundary ring")
    mat, b = _poisson_system(ball, rhs, bvals)
    p_interior = _conjugate_gradients(mat, b)
    del mat, b  # freed before the solution grid is allocated
    p = np.zeros(ball.mask.shape)
    p[ball.interior] = p_interior
    p[ball.boundary] = bvals[ball.boundary]
    return p


def _transformed_operator(w, p_bc, tau, nu, cone: ConeSpec, ball: BallGrid):
    """Spatial operator of the transformed momentum equation on a cross section,

        F(w, p_bc, tau) = mu2 nu Lap w - mu1 (w + z) . grad w - mu1 grad p_w,

    with (mu1, mu2) = ``mu_coeffs(tau, cone)`` and p_w the solution of
    Lap p_w = -sum_ij (d_j w_i)(d_i w_j) by ``poisson_dirichlet`` with
    Dirichlet data ``p_bc`` on the boundary ring.  Yields its three terms
    (diffusion, drift, pressure), each shaped like w, which sum to F in that
    order; each is formed only when the caller asks for it.
    """
    mu1, mu2 = mu_coeffs(tau, cone)
    n = ball.n
    diffusion = np.empty_like(w)
    for i in range(n):
        diffusion[i] = mu2 * nu * ball.laplacian(w[i])
    yield diffusion
    del diffusion
    drift = np.zeros_like(w)
    grad_w = [[ball.partial(w[i], j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            drift[i] += (w[j] + ball.mesh[j]) * grad_w[i][j]
    drift *= -mu1
    rhs_p = np.zeros(ball.mask.shape)  # summed in place from zero, negated at the end
    for i in range(n):
        for j in range(n):
            rhs_p += grad_w[i][j] * grad_w[j][i]
    np.negative(rhs_p, out=rhs_p)
    del grad_w  # freed before the pressure solve builds its system
    yield drift
    del drift
    p_w = poisson_dirichlet(ball, rhs_p, p_bc)
    del rhs_p
    pressure = np.empty_like(w)
    for i in range(n):
        pressure[i] = -mu1 * ball.partial(p_w, i)
    yield pressure


@dataclass(frozen=True)
class TransformedResidual:
    """Size of the residual over the interior nodes: the root mean square over
    the nodes of its Euclidean norm, and its largest absolute component."""

    residual_l2: float
    residual_max: float


def transformed_residual(sampler, cone: ConeSpec, tau, ball: BallGrid, *, dtau) -> TransformedResidual:
    """Residual dw/dtau - F(w, p_bc, tau) of the transformed momentum equation on
    the cross section at tau, with F = mu2 nu Lap w - mu1 (w + z) . grad w -
    mu1 grad p_w (``_transformed_operator``).

    w is sampled from ``sampler.velocity(t, points)`` and dw/dtau is the
    centered difference over tau +- dtau; the Dirichlet data p_bc of the
    cross-section pressure are sampled from ``sampler.pressure(t, points)``
    on the boundary ring, and ``sampler.nu`` is the viscosity.
    """
    w_minus = sample_w_function(sampler.velocity, cone, tau - dtau, ball)
    w = sample_w_function(sampler.velocity, cone, tau, ball)
    residual = sample_w_function(sampler.velocity, cone, tau + dtau, ball)
    residual -= w_minus
    residual /= 2 * dtau
    del w_minus

    t = float(t_of_tau(tau, cone))
    p_bc = np.zeros(ball.mask.shape)
    p_bc[ball.boundary] = sampler.pressure(t, _cone_points(cone, t, ball.points("boundary")))
    # term by term: ((dw/dtau - diffusion) - drift) - pressure, rounded in that
    # order; each term is released before the next is formed
    for term in _transformed_operator(w, p_bc, tau, sampler.nu, cone, ball):
        residual -= term
        del term
    comp = residual[:, ball.interior]
    res_l2 = float(np.sqrt(np.mean(np.sum(comp**2, axis=0))))
    return TransformedResidual(res_l2, float(np.max(np.abs(comp))))
