"""Independent oracles the production paths are checked against.

Everything here is deliberately dumb and direct: explicit mode loops,
finite differences, and dense quadrature, sharing no code with the FFT or
solver paths under test.
"""

import numpy as np


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
    """
    grid = v.grid
    n = grid.n
    N = grid.N
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
                va = v.modes[a][gamma_idx]
                if va == 0:
                    continue
                for b in range(n):
                    vb = v.modes[b][rest_idx]
                    if vb == 0:
                        continue
                    num += (2j * np.pi * gamma[b] * va) * (2j * np.pi * rest[a] * vb)
        p_alpha = num / (4 * np.pi**2 * float(np.dot(alpha, alpha)))
        out[alpha_idx] = 2j * np.pi * alpha[i] * p_alpha
    return out


def advective_nonlinear_modes(modes, n, N, advect_coeff=1.0):
    """-advect_coeff * P[(v . grad) v] on the full mode lattice, 2/3-dealiased.

    The advective form, evaluated with complex FFTs over the whole lattice:
    grid values of v and of every partial d_j v_i, their pointwise products
    summed over j, then the forward transform, the 2/3 mask and the mode-wise
    Leray projection.  ``modes`` has shape (n, N, ..., N) in FFT order with
    the (-1)^(alpha_1+...+alpha_n) phase of the -0.5 grid offset.
    """
    axes = tuple(range(1, 1 + n))
    wave = np.fft.fftfreq(N, 1.0 / N)
    alphas = []
    for k in range(n):
        shape = [1] * n
        shape[k] = N
        alphas.append(wave.reshape(shape))
    phase = np.ones((N,) * n)
    keep = np.ones((N,) * n, dtype=bool)
    asq = np.zeros((N,) * n)
    for a in alphas:
        phase = phase * np.where(a.astype(int) % 2 == 0, 1.0, -1.0)
        keep &= np.abs(a) <= N / 3.0
        asq = asq + a**2
    vel = np.fft.ifftn(modes * phase, axes=axes).real * N**n
    adv = np.zeros((n,) + (N,) * n)
    for i in range(n):
        for j in range(n):
            dgrid = np.fft.ifftn(2j * np.pi * alphas[j] * modes[i] * phase).real * N**n
            adv[i] += vel[j] * dgrid
    adv_modes = np.fft.fftn(adv, axes=axes) / N**n * phase * keep
    dot = sum(alphas[k] * adv_modes[k] for k in range(n))
    for k in range(n):
        adv_modes[k] -= np.where(asq == 0, 0.0, alphas[k] * dot / np.where(asq == 0, 1.0, asq))
    return -advect_coeff * adv_modes


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
