"""Independent oracles the production paths are checked against.

Everything here is deliberately dumb and direct: explicit mode loops,
finite differences, dense quadrature and dense 1-D maximization, sharing no
code with the FFT or solver paths under test.  The spectral references work
on the full complex mode lattice (numpy's complex FFTs, every wavenumber of
every axis, Nyquist read as -N/2), whose last-axis cut 0..N/2 is the half
spectrum ``SpectralField`` stores; ``full_lattice`` rebuilds the full
lattice from a half spectrum.  The exceptions are the
solver's right-hand side ``rhs``, the half-lattice advection operator
``HalfLatticeOperator`` the 2/3-box loop is checked against and the
weak-strong uniqueness bound at the end, a diagnostic over ``simulate``
trajectories: only the tests compute them.
The one-call-per-point loops ``per_sample_smooth_field`` and
``per_index_hm_cm_proxy_norm`` share the point sampler and ``to_grid`` with
the code under test on purpose: they pin its batching bit for bit.  In the
same way ``batched_nonlinear`` (every product in one forward transform),
``rolled_random_divergence_free`` (the whole-lattice flip and roll),
``stacked_project_modes`` (the projected components stacked from a list)
and ``kernel_mass_meshgrid`` (the kernel mass over meshgrid points) are
earlier forms of the production code that pin its leaner evaluation bit
for bit.  ``AbcFlow`` is an exact 3D Navier-Stokes solution with the
``velocity``/``pressure``/``nu`` interface of the flows in ``nslb.flows``.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

from nslb._compiled import irfftn_forward, rfftn_forward
from nslb.dynamics import SolverConfig, _HalfSpectrum, _cumulative_trapezoid, energy
from nslb.kernels import KernelSpec, gaussian
from nslb.leray import _project_modes, leray_project
from nslb.singularity import _cone_sample_points
from nslb.spectral import SpectralField, TorusGrid, _band, dealias, dealias_mask, sobolev_norm, to_grid


def brute_force_pressure_gradient(v, i):
    """Direct double sum over mode pairs for the pressure-gradient modes.

    Works from the definition: the pressure solves
    Delta p = -sum_{a,b} v_{a,b} v_{b,a}, so with d_b v_a carrying modes
    2 pi i gamma_b v_{a,gamma},

      Num(alpha) = sum_{a,b} sum_gamma (2 pi i gamma_b v_{a,gamma})
                                       (2 pi i (alpha-gamma)_a v_{b,alpha-gamma})
      p_alpha    = Num(alpha) / (4 pi^2 |alpha|^2),  alpha != 0
      dp_i modes = 2 pi i alpha_i p_alpha.

    Pairs where alpha - gamma leaves the stored lattice contribute zero
    (truncation semantics).  O(M^2) in the mode count; keep N small.
    Returns the half spectrum of the full-lattice result.
    """
    grid = v.grid
    n = grid.n
    N = grid.N
    modes = full_lattice(v.modes, grid)
    wave = grid.wavenumbers().astype(int)
    out = np.zeros(grid.shape, dtype=complex)

    def mode_index(k):
        # integer wavenumber -> storage index, None if outside truncation
        if -N // 2 <= k < 0:
            return N + k
        if 0 <= k <= N // 2 - 1:
            return k
        if k == -N // 2:
            return N // 2
        return None

    idx_all = list(np.ndindex(*grid.shape))
    for alpha_idx in idx_all:
        alpha = np.array([wave[j] for j in alpha_idx])
        if np.all(alpha == 0):
            continue
        num = 0.0 + 0.0j
        for gamma_idx in idx_all:
            gamma = np.array([wave[j] for j in gamma_idx])
            rest = alpha - gamma
            rest_idx = tuple(mode_index(int(k)) for k in rest)
            if any(j is None for j in rest_idx):
                continue
            for a in range(n):
                va = modes[a][gamma_idx]
                if va == 0:
                    continue
                for b in range(n):
                    vb = modes[b][rest_idx]
                    if vb == 0:
                        continue
                    num += (2j * np.pi * gamma[b] * va) * (2j * np.pi * rest[a] * vb)
        p_alpha = num / (4 * np.pi**2 * float(np.dot(alpha, alpha)))
        out[alpha_idx] = 2j * np.pi * alpha[i] * p_alpha
    return out[..., : N // 2 + 1]


def advective_nonlinear_modes(modes, n, N, advect_coeff=1.0):
    """-advect_coeff * P[(v . grad) v] on the full mode lattice, 2/3-dealiased.

    The advective form, evaluated with complex FFTs over the whole lattice:
    grid values of v and of every partial d_j v_i, their pointwise products
    summed over j, then the forward transform, the 2/3 mask and the mode-wise
    Leray projection.  ``modes`` has shape (n, N, ..., N) in FFT order.
    """
    axes = tuple(range(1, 1 + n))
    wave = np.fft.fftfreq(N, 1.0 / N)
    alphas = []
    for k in range(n):
        shape = [1] * n
        shape[k] = N
        alphas.append(wave.reshape(shape))
    keep = np.ones((N,) * n, dtype=bool)
    asq = np.zeros((N,) * n)
    for a in alphas:
        keep &= 3 * np.abs(a) < N
        asq = asq + a**2
    vel = np.fft.ifftn(modes, axes=axes).real * N**n
    adv = np.zeros((n,) + (N,) * n)
    for i in range(n):
        for j in range(n):
            dgrid = np.fft.ifftn(2j * np.pi * alphas[j] * modes[i]).real * N**n
            adv[i] += vel[j] * dgrid
    adv_modes = np.fft.fftn(adv, axes=axes) / N**n * keep
    dot = sum(alphas[k] * adv_modes[k] for k in range(n))
    for k in range(n):
        adv_modes[k] -= np.where(asq == 0, 0.0, alphas[k] * dot / np.where(asq == 0, 1.0, asq))
    return -advect_coeff * adv_modes


def projected_divergence_modes(c, n, N, advect_coeff=1.0):
    """-advect_coeff * mask * P[div(v (x) v)] on the rfftn half lattice,
    unfused: divergence sums, then the Leray projection, then the
    coefficient.

    ``c`` is a half spectrum, shape (n, N, ..., N/2+1):
    grid values by the inverse real transform, every product v_i v_j, one
    forward transform each, div_i = sum_j 2 pi i alpha_j (v_i v_j)_alpha,
    then div - alpha (alpha . div) / |alpha|^2 (mean mode kept) and the 2/3
    mask.
    """
    shape = (N,) * n
    axes = tuple(range(1, 1 + n))
    wave = np.fft.fftfreq(N, 1.0 / N)
    alphas = []
    for k in range(n):
        a = np.broadcast_to(wave.reshape([N if j == k else 1 for j in range(n)]), shape)
        alphas.append(a[..., : N // 2 + 1])
    asq = sum(a**2 for a in alphas)
    keep = np.all([3 * np.abs(a) < N for a in alphas], axis=0)
    vel = scipy.fft.irfftn(c, s=shape, axes=axes, norm="forward")
    prod = {}
    for i in range(n):
        for j in range(n):
            prod[i, j] = scipy.fft.rfftn(vel[i] * vel[j], norm="forward")
    div = [sum(2j * np.pi * alphas[j] * prod[i, j] for j in range(n)) for i in range(n)]
    dot = sum(alphas[k] * div[k] for k in range(n))
    out = np.empty(c.shape, dtype=complex)
    for k in range(n):
        proj = np.where(asq == 0, 0.0, alphas[k] * dot / np.where(asq == 0, 1.0, asq))
        out[k] = -advect_coeff * keep * (div[k] - proj)
    return out


def padded_nonlinear_modes(modes, n, N, advect_coeff=1.0):
    """-advect_coeff * P[div(v (x) v)] cut to the modes with every
    3 |alpha_k| < N, the products formed alias-free on a 2N grid.

    ``modes`` is a full lattice (n, N, ..., N) in FFT order, zero on its
    Nyquist planes.  The modes are zero-padded onto the 2N lattice, every
    product v_i v_j is formed on the 2N grid and transformed back, and its
    modes at the N-lattice wavenumbers are kept; the divergence, the
    mode-wise Leray projection and the cut follow on the N lattice.
    """
    axes = tuple(range(1, 1 + n))
    alphas = [a.astype(int) for a in full_wavenumbers(TorusGrid(n, N))]
    on_padded = (Ellipsis, *np.ix_(*(np.fft.fftfreq(N, 1.0 / N).astype(int) % (2 * N),) * n))
    padded = np.zeros((n,) + (2 * N,) * n, dtype=complex)
    padded[on_padded] = modes
    vel = np.fft.ifftn(padded, axes=axes).real * (2 * N) ** n
    div = np.zeros(modes.shape, dtype=complex)
    for i in range(n):
        for j in range(n):
            w = np.fft.fftn(vel[i] * vel[j]) / (2 * N) ** n
            div[i] += 2j * np.pi * alphas[j] * w[on_padded[1:]]
    asq = sum(a**2 for a in alphas)
    dot = sum(a * d for a, d in zip(alphas, div)) / np.where(asq == 0, 1, asq)
    keep = np.all([3 * np.abs(a) < N for a in np.broadcast_arrays(*alphas)], axis=0)
    return -advect_coeff * keep * np.stack([d - a * dot for a, d in zip(alphas, div)])


def out_of_place_if_rk4(nonlinear, e_full, e_half, dt, m, steps):
    """The integrating-factor RK4 update written out of place: the states
    after each of ``steps`` steps from the half spectrum ``m``."""
    states = []
    for _ in range(steps):
        n1 = nonlinear(m)
        va = e_half * (m + 0.5 * dt * n1)
        n2 = nonlinear(va)
        vb = e_half * m + 0.5 * dt * n2
        n3 = nonlinear(vb)
        vc = e_full * m + dt * e_half * n3
        n4 = nonlinear(vc)
        m = e_full * m + dt / 6.0 * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
        states.append(m)
    return states


class HalfLatticeOperator:
    """The IF-RK4 operators on the whole ``rfftn`` half lattice, with the
    2/3 mask folded into K: the reference the box operators of
    ``dynamics._HalfSpectrum`` must reproduce bit for bit on the box.

    ``nonlinear`` takes and returns half spectra of shape
    (n, N, ..., N/2+1); K is zero off the 2/3 box.
    """

    def __init__(self, grid: TorusGrid, cfg: SolverConfig):
        self.grid = grid
        self.axes = tuple(range(1, 1 + grid.n))
        n = grid.n
        alphas = [grid.alpha(k) for k in range(n)]
        asq = grid.alpha_sq()
        inv_asq = np.divide(1.0, asq, out=np.zeros_like(asq), where=asq != 0)
        lin = -cfg.nu * 4 * np.pi**2 * asq
        self.e_full = np.exp(lin * cfg.dt)
        self.e_half = np.exp(lin * cfg.dt / 2)
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        half_shape = asq.shape
        scale = 2 * np.pi * cfg.advect_coeff * dealias_mask(grid)
        self.K = np.empty((n, len(self.pairs)) + half_shape)
        for p, (i, j) in enumerate(self.pairs):
            div = np.zeros((n,) + half_shape)
            div[i] += alphas[j]
            if j != i:
                div[j] += alphas[i]
            self.K[:, p] = scale * _project_modes(div, alphas, inv_asq)

    def nonlinear(self, c):
        """-advect_coeff * mask * P[div(v (x) v)] of the half spectrum c."""
        vel = irfftn_forward(c, self.axes, self.grid.N)
        prods = np.stack([vel[i] * vel[j] for i, j in self.pairs])
        w = rfftn_forward(prods, self.axes)
        out = np.empty(c.shape, dtype=complex)
        for i, k_i in enumerate(self.K):
            out[i] = k_i[0] * w[0]
            for p in range(1, len(self.pairs)):
                out[i] += k_i[p] * w[p]
        out *= -1j
        return out


def batched_nonlinear(op: _HalfSpectrum, c):
    """``op.nonlinear(c)`` with all n(n+1)/2 products v_i v_j held at once
    and transformed in one batched call, then summed component by
    component in ascending p."""
    vel = irfftn_forward(op.scatter(c), op.axes, op.grid.N)
    prods = np.stack([vel[i] * vel[j] for i, j in op.pairs])
    w = op.box.gather(rfftn_forward(prods, op.axes), np.empty((len(op.pairs),) + op.box.shape, dtype=complex))
    out = np.empty(c.shape, dtype=complex)
    for i, k_i in enumerate(op.K):
        out[i] = k_i[0] * w[0]
        for p in range(1, len(op.pairs)):
            out[i] += k_i[p] * w[p]
    out *= -1j
    return out


def rolled_random_divergence_free(grid, rng, kmax=None, rms=1.0):
    """``random_divergence_free`` from one complex full-lattice draw
    a + 1j b, mirrored by a flip and a roll of the whole lattice."""
    if kmax is None:
        kmax = max(2, grid.N // 4)
    shape = (grid.n,) + grid.shape
    draw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(1, 1 + grid.n))
    mirrored = np.roll(np.flip(draw, axis=axes), 1, axis=axes)
    half = (Ellipsis, slice(0, grid.N // 2 + 1))
    modes = 0.5 * (draw[half] + np.conj(mirrored[half]))
    band = _band(grid, kmax) & (grid.alpha_sq() > 0)
    field = dealias(leray_project(SpectralField(grid, modes * band * full_phase(grid)[half])))
    return SpectralField(grid, field.modes * (rms / sobolev_norm(field, 0.0)))


def stacked_project_modes(modes, alphas, inv_asq):
    """``leray._project_modes`` with the n projected components built as a
    list and stacked."""
    dot = sum(a * m for a, m in zip(alphas, modes)) * inv_asq
    return np.stack([m - a * dot for a, m in zip(alphas, modes)])


def kernel_mass_meshgrid(nu_eff):
    """The ``verify-kernels`` kernel mass at diffusivity nu_eff: the 2D
    kernel at t = 0.3 summed over the (65536, 2) points of a 256 x 256
    midpoint meshgrid on [-w, w]^2, w = 8 sqrt(2 nu t), times the cell area."""
    spec = KernelSpec(nu_eff=nu_eff, n=2)
    width = 8 * np.sqrt(2 * spec.nu_eff * 0.3)
    ax = (np.arange(256) + 0.5) / 256 * 2 * width - width
    xg, yg = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xg.reshape(-1), yg.reshape(-1)], axis=-1)
    return float(np.sum(gaussian(0.3, pts, spec)) * (2 * width / 256) ** 2)


def box_of(op: _HalfSpectrum, modes):
    """The 2/3 box of a field's modes, as the loop of ``simulate`` stores it."""
    return op.box.gather(modes, np.empty((modes.shape[0],) + op.box.shape, dtype=complex))


def loop_poisson_system(ball, rhs_values, boundary_values):
    """(CSR matrix, right-hand side) of the ball Dirichlet Poisson problem,
    assembled node by node.

    One row per interior node in ``np.argwhere`` order: -2n/h^2 on the
    diagonal, 1/h^2 for each interior axis neighbour, and each neighbour on
    the boundary ring subtracted from the right-hand side as value/h^2,
    visiting neighbours in (axis, step) order.
    """
    n = ball.n
    interior = ball.interior
    idx = -np.ones(interior.shape, dtype=int)
    m_int = int(np.sum(interior))
    idx[interior] = np.arange(m_int)
    h2 = ball.h**2
    rhs = np.asarray(rhs_values)
    bvals = np.asarray(boundary_values)
    rows, cols, data = [], [], []
    b = np.zeros(m_int)
    for row, node in enumerate(np.argwhere(interior)):
        rows.append(row)
        cols.append(row)
        data.append(-2.0 * n / h2)
        b[row] += rhs[tuple(node)]
        for axis in range(n):
            for step in (-1, 1):
                nb = node.copy()
                nb[axis] += step
                nb_t = tuple(nb)
                if interior[nb_t]:
                    rows.append(row)
                    cols.append(idx[nb_t])
                    data.append(1.0 / h2)
                else:
                    b[row] -= bvals[nb_t] / h2
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(m_int, m_int)), b


def loop_red_black_system(ball, rhs_values, boundary_values):
    """``loop_poisson_system`` permuted to red-black order: the red interior
    nodes (even coordinate sum) first, then the black ones (odd), each colour
    in ``np.argwhere`` order.

    Returns ((red-red, red-black, black-red, black-black) blocks as CSR
    matrices with sorted indices, right-hand side).
    """
    mat, b = loop_poisson_system(ball, rhs_values, boundary_values)
    black = np.argwhere(ball.interior).sum(axis=1) % 2 == 1
    colours = (np.flatnonzero(~black), np.flatnonzero(black))
    blocks = tuple(mat[rows][:, cols].tocsr().sorted_indices() for rows in colours for cols in colours)
    return blocks, np.concatenate([b[rows] for rows in colours])


def dense_propagator(pts, mids, cell, dt, nu_eff):
    """The (m_t * n_nodes)^2 one-step propagator of the cylinder lattice.

    Block (j2, j1) for j1 < j2 is G(mids[j2] - mids[j1], pts_i - pts_k)
    cell dt, with G the heat kernel (4 pi nu t)^(-n/2) exp(-|y|^2/(4 nu t));
    blocks on and above the diagonal are zero.  Rows and columns are
    time-major.
    """
    m_t, (n_nodes, n) = len(mids), pts.shape
    r_sq = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    prop = np.zeros((m_t, n_nodes, m_t, n_nodes))
    for j2 in range(m_t):
        for j1 in range(j2):
            denom = 4.0 * nu_eff * (mids[j2] - mids[j1])
            prop[j2, :, j1, :] = (np.pi * denom) ** (-n / 2.0) * np.exp(-r_sq / denom) * cell * dt
    return prop.reshape(m_t * n_nodes, m_t * n_nodes)


def accumulated_lattice_apply(lat, state):
    """``_CylinderLattice.apply`` with every gap's products summed into a
    separate accumulator over all output planes at once: out[j + 1] gathers
    the gaps d = 1, ..., j + 1 from state[j + 1 - d], summed from zero in
    ascending d."""
    st = np.asarray(state, dtype=float).reshape(lat.m_t, lat.n_nodes)
    out = np.zeros_like(st)
    if lat.m_t == 1:
        return out.reshape(-1)
    box = np.zeros((lat.m_t - 1,) + lat.box)
    box.reshape(lat.m_t - 1, -1)[:, lat.nodes] = st[:-1]
    batch_axes = tuple(range(1, box.ndim))  # all planes in one batched transform
    modes = rfftn_forward(box, batch_axes)
    acc = np.zeros_like(modes)
    for d, spectrum in enumerate(lat.spectra, start=1):
        acc[d - 1 :] += spectrum * modes[: lat.m_t - d]
    conv = irfftn_forward(acc, batch_axes, lat.box[-1])
    out[1:] = conv.reshape(lat.m_t - 1, -1)[:, lat.nodes]
    return out.reshape(-1)


def dense_sup_1d(fn):
    """Dense 1-D maximization on the uniform grid 1e-4, 2e-4, ..., 10."""
    zs = np.arange(1e-4, 10.0 + 1e-4, 1e-4)
    return float(np.max(fn(zs)))


def shifted_stencils(ball, values, axis):
    """(first, second) derivative of ``values`` along ``axis`` on the masked
    ball, with the node-by-node stencil choice of ``BallGrid``: centered
    where both neighbours are masked, one-sided second order at the mask
    edge, lower-order fallbacks for isolated nodes.  Shifts are done here by
    np.roll with the wrapped planes zeroed.  Also returns, per order, the
    node selections (centered, forward, backward, fallback forward,
    fallback backward, fits none)."""
    v = np.asarray(values, dtype=float)
    h = ball.h
    m = ball.m
    pos = np.arange(m).reshape([m if k == axis else 1 for k in range(ball.n)])

    def shifted(arr, k):
        out = np.roll(arr, -k, axis=axis)
        return np.where((pos + k >= 0) & (pos + k < m), out, np.zeros_like(out))

    mask = ball.mask
    ms = {k: shifted(mask, k) for k in (-3, -2, -1, 1, 2, 3)}
    vs = {k: shifted(v, k) for k in (-3, -2, -1, 1, 2, 3)}

    d1 = np.zeros_like(v)
    centered = mask & ms[1] & ms[-1]
    d1[centered] = (vs[1][centered] - vs[-1][centered]) / (2 * h)
    fwd = mask & ~ms[-1] & ms[1] & ms[2]
    d1[fwd] = (-3 * v[fwd] + 4 * vs[1][fwd] - vs[2][fwd]) / (2 * h)
    bwd = mask & ~ms[1] & ms[-1] & ms[-2]
    d1[bwd] = (3 * v[bwd] - 4 * vs[-1][bwd] + vs[-2][bwd]) / (2 * h)
    lone = mask & ~(centered | fwd | bwd)
    f_only = lone & ms[1]
    d1[f_only] = (vs[1][f_only] - v[f_only]) / h
    b_only = lone & ms[-1] & ~ms[1]
    d1[b_only] = (v[b_only] - vs[-1][b_only]) / h
    rows = {1: (centered, fwd, bwd, f_only, b_only, lone & ~(f_only | b_only))}

    d2 = np.zeros_like(v)
    d2[centered] = (vs[1][centered] - 2 * v[centered] + vs[-1][centered]) / h**2
    fwd = mask & ~ms[-1] & ms[1] & ms[2] & ms[3]
    d2[fwd] = (2 * v[fwd] - 5 * vs[1][fwd] + 4 * vs[2][fwd] - vs[3][fwd]) / h**2
    bwd = mask & ~ms[1] & ms[-1] & ms[-2] & ms[-3]
    d2[bwd] = (2 * v[bwd] - 5 * vs[-1][bwd] + 4 * vs[-2][bwd] - vs[-3][bwd]) / h**2
    lone = mask & ~(centered | fwd | bwd)
    f2 = lone & ms[1] & ms[2]
    d2[f2] = (v[f2] - 2 * vs[1][f2] + vs[2][f2]) / h**2
    b2 = lone & ms[-1] & ms[-2] & ~(ms[1] & ms[2])
    d2[b2] = (v[b2] - 2 * vs[-1][b2] + vs[-2][b2]) / h**2
    rows[2] = (centered, fwd, bwd, f2, b2, lone & ~(f2 | b2))
    return d1, d2, rows


def reflect(a, axes):
    """Entries at -alpha along ``axes``: storage index j -> (N - j) mod N,
    by one flip and one roll per axis."""
    for ax in axes:
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def full_lattice(modes, grid):
    """The full-lattice modes (..., N, ..., N) of a field's half spectrum:
    the last-axis planes N/2+1..N-1 are the reflected conjugates of planes
    N/2-1..1."""
    N = grid.N
    plane_axes = tuple(range(modes.ndim - grid.n, modes.ndim - 1))
    out = np.empty(modes.shape[:-1] + (N,), dtype=complex)
    out[..., : N // 2 + 1] = modes
    out[..., N // 2 + 1 :] = reflect(np.conj(modes[..., N // 2 - 1 : 0 : -1]), plane_axes)
    return out


def full_wavenumbers(grid):
    """The n wavenumber arrays alpha_k on the full lattice, FFT order,
    Nyquist read as -N/2, each broadcastable against (N,) * n."""
    wave = np.fft.fftfreq(grid.N, 1.0 / grid.N)
    return [wave.reshape([-1 if j == k else 1 for j in range(grid.n)]) for k in range(grid.n)]


def full_phase(grid):
    """(-1)^(alpha_1 + ... + alpha_n) on the full lattice: the coefficients
    of a series in x + 0.5 over those of the same field's series in x."""
    return (-1.0) ** sum(a.astype(int) for a in full_wavenumbers(grid))


def full_modes(values, grid):
    """Full-lattice modes of real grid values (ncomp, N, ..., N), by numpy's
    complex FFT."""
    axes = tuple(range(1, 1 + grid.n))
    return np.fft.fftn(values, axes=axes) / grid.N**grid.n


def full_to_grid(modes, grid):
    """Grid values of full-lattice modes: the real part of the complex
    inverse transform, which is the field of their conjugate-symmetric part."""
    axes = tuple(range(1, 1 + grid.n))
    return (np.fft.ifftn(modes, axes=axes) * grid.N**grid.n).real


def full_energy(modes):
    """(1/2) sum |v_alpha|^2 over the full lattice."""
    return 0.5 * float(np.sum(np.abs(modes) ** 2))


def full_gradient_energy(modes, grid):
    """sum 4 pi^2 |alpha|^2 |v_alpha|^2 over the full lattice."""
    asq = sum(a**2 for a in full_wavenumbers(grid))
    return float(np.sum(4 * np.pi**2 * asq * np.abs(modes) ** 2))


def full_sobolev_norm(modes, grid, s):
    """sqrt(sum |v_alpha|^2 (1 + |alpha|^2)^s) over the full lattice."""
    asq = sum(a**2 for a in full_wavenumbers(grid))
    return float(np.sqrt(np.sum(np.abs(modes) ** 2 * (1.0 + asq) ** s)))


def full_divergence(modes, grid):
    """sum_k 2 pi i alpha_k v_{k,alpha} on the full lattice, shape (1, N, ..., N)."""
    return sum(derivative(modes[k], grid, k) for k in range(grid.n))[None]


def full_random_divergence_free(grid, rng, kmax, rms):
    """Full-lattice modes of ``random_divergence_free``: the same draws,
    band and conjugate-symmetric part as coefficients of the series in x,
    the Leray projection with Nyquist read as -N/2, the 2/3 mask and the L2
    normalisation."""
    shape = (grid.n,) + grid.shape
    modes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    alphas = full_wavenumbers(grid)
    asq = sum(a**2 for a in alphas)
    band, keep = asq > 0, np.ones(grid.shape, dtype=bool)
    for a in alphas:
        band &= np.abs(a) <= kmax
        keep &= 3 * np.abs(a) < grid.N
    modes = modes * band
    modes = 0.5 * (modes + reflect(np.conj(modes), tuple(range(1, grid.n + 1)))) * full_phase(grid)
    dot = sum(a * m for a, m in zip(alphas, modes)) / np.where(asq == 0, 1.0, asq)
    modes = np.stack([m - a * dot for a, m in zip(alphas, modes)]) * keep
    return modes * (rms / np.sqrt(np.sum(np.abs(modes) ** 2)))


def centered_difference(values, axis, spacing):
    """Periodic centered difference on grid values."""
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2 * spacing)


def grid_l2(values, grid):
    """Grid L2 norm by plain averaging (Parseval partner)."""
    return float(np.sqrt(np.sum(np.mean(values**2, axis=tuple(range(1, values.ndim))))))


def midpoint_grid(lo, hi, m, dim):
    """Midpoint tensor nodes over [lo, hi]^dim and the cell volume."""
    ax = lo + (np.arange(m) + 0.5) * (hi - lo) / m
    mesh = np.meshgrid(*(ax,) * dim, indexing="ij")
    pts = np.stack([c.reshape(-1) for c in mesh], axis=-1)
    return pts, ((hi - lo) / m) ** dim


def prefix_hopf_max_violation(times, kinetic, grads, nu):
    """max_j kinetic[j] + nu int_0^{t_j} grads - kinetic[0], each integral a
    separate np.trapezoid over the prefix 0..j."""
    violations = []
    for j in range(len(times)):
        dissip = np.trapezoid(grads[: j + 1], times[: j + 1]) if j > 0 else 0.0
        violations.append(kinetic[j] + nu * dissip - kinetic[0])
    return float(np.max(violations))


def prefix_weak_strong_c(times, gaps, integrand):
    """max(0, max_j log(gaps[j]/gaps[0]) / int_0^{t_j} integrand) over the
    prefixes with a positive integral, each a separate np.trapezoid."""
    c_needed = 0.0
    for j in range(1, len(times)):
        integral = np.trapezoid(integrand[: j + 1], times[: j + 1])
        if integral <= 0:
            continue
        c_needed = max(c_needed, np.log(gaps[j] / gaps[0]) / integral)
    return float(c_needed)


def roll_interior(mask):
    """Nodes of ``mask`` whose 2n axis neighbours are all in ``mask``, with
    the neighbours found by np.roll and the wrapped box faces cleared."""
    interior = mask.copy()
    for axis in range(mask.ndim):
        edge = np.zeros_like(mask)
        face = [slice(None)] * mask.ndim
        for j in (0, mask.shape[axis] - 1):
            face[axis] = j
            edge[tuple(face)] = True
        interior &= np.roll(mask, 1, axis=axis) & np.roll(mask, -1, axis=axis) & ~edge
    return interior


def per_sample_smooth_field(velocity_fn, cone, n_samples, rng):
    """(dt_vals, r_vals, |v|) drawn as ``sample_smooth_field`` draws them,
    with the velocity evaluated one sample per call, at a scalar time."""
    dts, rs = _cone_sample_points(cone, n_samples, rng)
    dirs = rng.standard_normal((n_samples, cone.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.asarray(cone.x_s) + rs[:, None] * dirs
    ts = cone.t_s - dts
    vals = np.empty(n_samples)
    for k in range(n_samples):
        v = np.asarray(velocity_fn(ts[k], pts[k : k + 1]))
        vals[k] = np.sqrt(np.sum(v**2))
    return dts, rs, vals


def per_index_hm_cm_proxy_norm(v: SpectralField):
    """Order-2 Sobolev norm plus the grid maximum of every derivative through
    order 2, with one inverse transform per multi-index; a repeated axis
    takes the signed wavenumber (Nyquist -N/2), a single one ``alpha``."""
    total = sobolev_norm(v, 2)
    for k in range(3):
        for key in itertools.combinations_with_replacement(range(v.grid.n), k):
            modes = v.modes
            for ax in key:
                if key.count(ax) > 1:
                    symbol = full_wavenumbers(v.grid)[ax][..., : v.grid.N // 2 + 1]
                else:
                    symbol = v.grid.alpha(ax)
                modes = 2j * np.pi * symbol * modes
            total += np.max(np.abs(to_grid(SpectralField(v.grid, modes)).values))
    return float(total)


def taylor_green_values(x, y, a):
    """Grid values of the vortex pair a (cos 2pi x sin 2pi y, -sin 2pi x cos 2pi y)."""
    return np.stack(
        [
            a * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
            -a * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        ]
    )


def perturbed_taylor_green_values(x, y, amplitude, eps):
    """The vortex pair plus eps * amplitude / (4 pi) times the solenoidal
    field of the stream function sin(2 pi x) sin(4 pi y)."""
    pert = np.stack(
        [
            4 * np.pi * np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y),
            -2 * np.pi * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y),
        ]
    ) / (4 * np.pi)
    return taylor_green_values(x, y, amplitude) + eps * amplitude * pert


class AbcFlow:
    """Decaying ABC (Beltrami) flow on the unit 3-torus.

    curl v = 2 pi v, so the advection term is the gradient of |v|^2/2 and
    v(t) = exp(-4 pi^2 nu t) v(0) with p = -|v|^2/2 solves Navier-Stokes
    exactly.
    """

    def __init__(self, amplitudes, nu):
        self.a, self.b, self.c = (float(x) for x in amplitudes)
        self.nu = nu

    def velocity(self, t, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        k = 2 * np.pi
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        decay = np.exp(-(k**2) * self.nu * t)
        return decay * np.stack(
            [
                self.a * np.sin(k * z) + self.c * np.cos(k * y),
                self.b * np.sin(k * x) + self.a * np.cos(k * z),
                self.c * np.sin(k * y) + self.b * np.cos(k * x),
            ]
        )

    def pressure(self, t, points):
        return -0.5 * (self.velocity(t, points) ** 2).sum(axis=0)


def rhs(v: SpectralField, cfg: SolverConfig) -> SpectralField:
    """nu Delta v - P[(v . grad) v]; divergence-free by construction.

    ``v`` is taken as the real, solenoidal, 2/3-dealiased field that
    ``simulate`` integrates: the advection term is evaluated from the 2/3
    box of its half spectrum in divergence form.
    """
    op = _HalfSpectrum(v.grid, cfg)
    lin = -cfg.nu * 4 * np.pi**2 * v.grid.alpha_sq()
    advection = op.scatter(op.nonlinear(box_of(op, v.modes)))
    return SpectralField(v.grid, lin * v.modes + advection)


def derivative(modes, grid, k):
    """Spectral d/dx_k of full-lattice modes: mode alpha maps to
    2 pi i alpha_k v_alpha, the Nyquist wavenumber read as -N/2.  Across a
    Nyquist plane the result is not conjugate-symmetric; ``full_to_grid``
    keeps its conjugate-symmetric part."""
    if not 0 <= k < grid.n:
        raise ValueError(f"direction {k} out of range for n={grid.n}")
    return 2j * np.pi * full_wavenumbers(grid)[k] * modes


def l4_norm(v):
    """L4 norm of the pointwise Euclidean magnitude of v."""
    vals = to_grid(v).values
    mag_sq = np.sum(vals**2, axis=0)
    return float(np.mean(mag_sq**2) ** 0.25)


@dataclass(frozen=True)
class WeakStrongReport:
    c_min: float
    p: int
    initial_gap: float
    max_gap: float
    finite: bool


def weak_strong_bound(traj_a, traj_b):
    """Smallest C for which |a-b|^2(t) <= |a-b|^2(0) exp(C int (|a|_L4^p + |a|_L4^2)).

    traj_a plays the role of the regular solution in the exponent; p is 8 in
    three dimensions and 4 in two.  Trajectories must share grid and times.
    """
    if traj_a.grid != traj_b.grid:
        raise ValueError("trajectories live on different grids")
    if not (traj_a.snapshots and traj_b.snapshots):
        raise ValueError("weak_strong_bound needs the snapshots of both trajectories; run simulate without observe")
    if traj_a.times.size != traj_b.times.size or not np.allclose(traj_a.times, traj_b.times):
        raise ValueError("trajectories sample different times")
    n = traj_a.grid.n
    p = 8 if n == 3 else 4
    times = traj_a.times
    gaps = np.array(
        [2.0 * energy(fa - fb) for fa, fb in zip(traj_a.snapshots, traj_b.snapshots)]
    )  # |a-b|_L2^2
    l4 = np.array([l4_norm(f) for f in traj_a.snapshots])
    integrand = l4**p + l4**2
    d0 = gaps[0]
    if d0 == 0.0:
        finite = bool(np.max(gaps) <= 1e-14 * max(1.0, float(np.max(traj_a.energies))))
        return WeakStrongReport(0.0, p, 0.0, float(np.max(gaps)), finite)
    integral = _cumulative_trapezoid(integrand, times)
    grows = integral > 0
    c_needed = np.max(np.log(gaps[1:][grows] / d0) / integral[grows], initial=0.0)
    return WeakStrongReport(float(c_needed), p, float(d0), float(np.max(gaps)), True)
