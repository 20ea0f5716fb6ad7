"""Gaussian fundamental solutions, pointwise bound audits, the recursive
boundary-kernel series on the cylinder and Duhamel-representation
residuals.

Quadratures are midpoint rules on tensor grids; the sup-constants of the
bound audits are closed forms.  The series, the boundary density and the
Duhamel residual take fields as callables (s, points) -> values on one
lattice, whose propagator depends only on the time gap and the node offset:
it is stored as the real-FFT spectra of its m_t - 1 gap kernels on a
zero-padded box and applied as an FFT convolution, one time plane at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._compiled import irfftn_forward, rfftn_forward
from .cone import BallGrid, CylinderSpec

__all__ = [
    "KernelSpec",
    "BoundReport",
    "gaussian",
    "gaussian_derivative",
    "kernel_bound_check",
    "elliptic_integral_check",
    "boundary_kernel_series",
    "duhamel_residual",
    "boundary_density",
]


@dataclass(frozen=True)
class KernelSpec:
    """Heat-kernel parameters: effective diffusivity and dimension."""

    nu_eff: float
    n: int

    def __post_init__(self):
        if not 0 < self.nu_eff < np.inf:  # also rejects nan
            raise ValueError("effective diffusivity must be positive and finite")
        if self.n not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")


def _split(y, n):
    """|y|^2 over the last axis of y, which must have length n, and y as an array.

    A single point sums its squares as a row does, so it gets the same bits
    as the same point in a one-row array.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (n,):
        raise ValueError(f"points of shape {y.shape} need a last axis of length n = {n}")
    return np.sum(y**2, axis=-1), y


def gaussian(t, y, spec: KernelSpec):
    """(4 pi nu t)^{-n/2} exp(-|y|^2 / (4 nu t)); rejects t <= 0."""
    if np.any(np.asarray(t) <= 0):
        raise ValueError("kernel time must be positive")
    r_sq, _ = _split(y, spec.n)
    return _gaussian_sq(t, r_sq, spec)


def _gaussian_sq(t, r_sq, spec: KernelSpec):
    """The kernel of ``gaussian`` from squared distances r_sq = |y|^2 (no time check)."""
    denom = 4.0 * spec.nu_eff * np.asarray(t, dtype=float)
    return (np.pi * denom) ** (-spec.n / 2.0) * np.exp(-r_sq / denom)


def gaussian_derivative(t, y, j, spec: KernelSpec):
    """Exact gradient component d/dy_j of the kernel: (-2 y_j / (4 nu t)) G."""
    if np.any(np.asarray(t) <= 0):
        raise ValueError("kernel time must be positive")
    r_sq, ya = _split(y, spec.n)
    yj = ya[..., j]
    denom = 4.0 * spec.nu_eff * np.asarray(t, dtype=float)
    return (-2.0 * yj / denom) * (np.pi * denom) ** (-spec.n / 2.0) * np.exp(-r_sq / denom)


@dataclass(frozen=True)
class BoundReport:
    c_observed: float
    c_predicted: float
    passed: bool


def kernel_bound_check(delta, spec: KernelSpec, kind="derivative") -> BoundReport:
    """Scan sup over (t, |y|) of the weighted kernel against its analytic constant.

    kind='kernel':      |G| (4 pi nu t)^delta |y|^(n - 2 delta)
                        vs  pi^(delta - n/2) sup_q q^a e^(-q) = pi^(delta - n/2) (a/e)^a,
                        a = n/2 - delta
    kind='derivative':  |d_1 G| / pi (4 pi nu t)^delta |y|^(n + 1 - 2 delta)
                        vs  sup_z z^a e^(-z^2) = (a/2e)^(a/2),  a = n/2 + 1 - delta

    The derivative is the exact gradient divided by pi, the normalization
    under which the printed constant dominates the scan.  Both weighted
    quantities depend on (t, y) only through |y|^2/(4 nu t), so the observed
    sup is diffusivity-independent.  The scan takes 40 log-spaced times in
    [1e-3, 10] and, at each, 400 log-spaced radii in [1e-3, 10] plus the
    stationary radius sqrt(4 nu t a), so the sup is attained on the grid.
    ValueError for kind='kernel' with delta > n/2, where the sup is infinite.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    n = spec.n
    nu = spec.nu_eff
    if kind == "kernel":
        a = n / 2.0 - delta
        if a < 0:
            raise ValueError(f"the kernel sup is infinite for delta = {delta} > n/2 = {n / 2}")
        c_pred = np.pi ** (delta - n / 2.0) * (a / np.e) ** a
        power = n - 2 * delta
    elif kind == "derivative":
        a = n / 2.0 + 1.0 - delta
        c_pred = (a / (2 * np.e)) ** (a / 2)
        power = n + 1 - 2 * delta
    else:
        raise ValueError("kind must be 'kernel' or 'derivative'")
    ts = np.logspace(-3.0, 1.0, 40)[:, None]
    rads = np.hstack([np.tile(np.logspace(-3, 1, 400), (ts.size, 1)), np.sqrt(4 * nu * ts * a)])
    y = np.zeros(rads.shape + (n,))
    y[..., 0] = rads  # for the derivative, the axis direction maximizes |y_j| at fixed |y|
    weighted = gaussian(ts, y, spec) if kind == "kernel" else gaussian_derivative(ts, y, 0, spec) / np.pi
    c_obs = float(np.max(np.abs(weighted) * (4 * np.pi * nu * ts) ** delta * rads**power))
    return BoundReport(c_obs, float(c_pred), c_obs <= c_pred * (1 + 1e-12))


@dataclass(frozen=True)
class EllipticIntegralReport:
    a: float
    b: float
    x_values: np.ndarray
    integrals: np.ndarray
    small_x_slope: float
    predicted_slope: float
    calibrated_c: float
    bound_holds: bool


def _sphere_factor(a, x, r, gap):
    """Integral of |x e_1 - r omega|^{-a} over the unit sphere in R^3;
    ``gap`` is |x - r|, passed in so that it keeps full precision next to
    the pole r = x."""
    if x == 0:
        return 4 * np.pi * r ** (-a)
    lo, hi = gap**2, (x + r) ** 2
    if a == 2.0:
        return np.pi / (x * r) * np.log(hi / lo)
    pw = 1.0 - a / 2.0
    return 2 * np.pi / (2 * x * r) * (hi**pw - lo**pw) / pw


# Tanh-sinh (double-exponential) rule of Takahasi & Mori (1974): the
# substitution u = (1 + tanh((pi/2) sinh t)) / 2 maps t in R onto (0, 1) and
# decays doubly exponentially at both ends, so one trapezoid step on t
# integrates the log and algebraic endpoint poles of the radial integrand.
# Fixed step 2^-5 on t in [0, 6.5] (mirrored for t < 0).  For each t,
# _TS_OFFSET is the node's distance to the nearer end of (0, 1) and
# _TS_WEIGHT its weight, both per unit interval length.
_TS_STEP = 2.0**-5
_TS_T = np.arange(0.0, 6.5 + _TS_STEP / 2, _TS_STEP)
_TS_DECAY = np.exp(-np.pi * np.sinh(_TS_T))  # exp(-2 * (pi/2) sinh t)
_TS_OFFSET = _TS_DECAY / (1.0 + _TS_DECAY)
_TS_WEIGHT = _TS_STEP * np.pi * np.cosh(_TS_T) * _TS_DECAY / (1.0 + _TS_DECAY) ** 2
# nodes closer than this to an end are dropped: their weights are negligible,
# and their squared gaps would underflow
_TS_MIN_OFFSET = 1e-150


def _tanh_sinh(f, lo, hi):
    """Integral of f over [lo, hi] by the fixed tanh-sinh rule.

    Each node is placed as (end, offset), end + offset being the point, with
    ``end`` the nearer end of the interval: f gets the offset at full
    precision, so no node lands on an end even when end + offset rounds to it.
    """
    offset = (hi - lo) * _TS_OFFSET
    weight = (hi - lo) * _TS_WEIGHT
    keep = offset >= _TS_MIN_OFFSET
    offset, weight = offset[keep], weight[keep]
    # t = 0 (the midpoint) is counted once, from the lower end
    return float(np.sum(f(lo, offset) * weight) + np.sum(f(hi, -offset[1:]) * weight[1:]))


def elliptic_integral_check(a, b, radius, x_values) -> EllipticIntegralReport:
    """Quadrature audit of I(x) = int_B dy / (|x-y|^a |y|^b) <= max(c |x|^{n-a-b}, c)
    on the ball B of R^n, n = 3.

    The ball integral reduces to a radial integral (angular part analytic)
    evaluated by a fixed tanh-sinh rule, split at r = |x|.  The |x|^{n-a-b}
    branch shows up as the divergence of I itself when n - a - b < 0 and as
    the two-pole interaction I(0) - I(x) when the exponent is positive (I
    stays bounded then); ``small_x_slope`` measures whichever branch
    applies, on the sweep points in (0, radius/2).  x = 0 may be swept
    when a + b < n (I(0) = 4 pi radius^{n-a-b} / (n-a-b)); otherwise I(0)
    diverges and ValueError is raised.
    """
    n = 3
    if a >= n or b >= n:
        raise ValueError("need a < n and b < n for integrable poles")
    xs = np.asarray(sorted(x_values), dtype=float)
    if a + b >= n and np.any(xs == 0):
        raise ValueError(f"I(0) diverges for a + b = {a + b} >= n = {n}")

    def integral_at(x):
        def radial(end, offset):
            r = end + offset
            return r ** (n - 1 - b) * _sphere_factor(a, x, r, np.abs((x - end) - offset))

        breaks = sorted({min(float(x), radius), radius}) if x > 0 else [radius]
        total = 0.0
        lo = 0.0
        for hi in breaks:
            if hi <= lo:
                continue
            total += _tanh_sinh(radial, lo, hi)
            lo = hi
        return total

    vals = np.asarray([integral_at(x) for x in xs])
    predicted = n - a - b
    if a + b < n:
        # angular factor at x=0 is the sphere area over r^a
        i0 = 4 * np.pi * radius ** (n - a - b) / (n - a - b)
    else:
        i0 = float("inf")
    small = (xs > 0) & (xs < 0.5 * radius)  # log|x| fit
    slope = float("nan")
    if np.sum(small) >= 2:
        branch = vals[small] if predicted < 0 else np.maximum(i0 - vals[small], 1e-300)
        slope = float(np.polyfit(np.log(xs[small]), np.log(branch), 1)[0])
        if predicted >= 0:
            slope = abs(slope)
    envelope = np.maximum(xs**predicted, 1.0)
    c = float(np.max(vals / envelope))
    holds = bool(np.all(vals <= c * envelope * (1 + 1e-9)))
    return EllipticIntegralReport(a, b, xs, vals, slope, predicted, c, holds)


class _CylinderLattice:
    """Midpoint lattice on [s, tau] x (base ball) with the one-step propagator.

    The propagator from time index j1 to j2 > j1 is the heat kernel at gap
    d = j2 - j1 between two ball nodes, so it depends only on d and on the
    nodes' offset on the grid: it is a causal convolution in time and a
    linear convolution on the ball's box in space.  For each gap the kernel
    is sampled on the periodic offset lattice of L = 2 m_x - 1 points per
    axis (offsets 0, ..., m_x - 1, then -(m_x - 1), ..., -1, times the grid
    step), which is long enough that the circular convolution of data in
    the [0, m_x)^n corner never wraps around.  Only the m_t - 1 real-FFT
    spectra of those kernels are stored, as ``spectra[d - 1]``, built one
    gap at a time on the first ``apply``.
    """

    def __init__(self, cyl: CylinderSpec, spec: KernelSpec, s, tau, m_x, m_t):
        if m_t < 1:
            raise ValueError(f"m_t must be at least 1, got {m_t}")
        self.ball = BallGrid(spec.n, cyl.r_0, m_x)
        self.pts = self.ball.points("mask")
        self.cell = self.ball.h**spec.n
        self.dt = (tau - s) / m_t
        self.mids = s + (np.arange(m_t) + 0.5) * self.dt
        self.spec = spec
        self.tau = tau
        self.m_t = m_t
        self.n_nodes = self.pts.shape[0]
        self.box = (2 * m_x - 1,) * spec.n
        self.axes = tuple(range(spec.n))
        # flat index of each masked node in the [0, m_x)^n corner of the box
        self.nodes = np.ravel_multi_index(np.nonzero(self.ball.mask), self.box)

    @functools.cached_property
    def spectra(self):
        """The gap-kernel spectra (``duhamel_residual`` never builds them)."""
        m_x, n = self.ball.m, self.spec.n
        offsets = np.concatenate([np.arange(m_x), np.arange(1 - m_x, 0)]) * self.ball.h
        r_sq = sum(np.meshgrid(*(offsets**2,) * n, indexing="ij", sparse=True))
        spectra = np.empty((self.m_t - 1,) + self.box[:-1] + (self.box[-1] // 2 + 1,), dtype=complex)
        for d in range(1, self.m_t):
            kernel = _gaussian_sq(d * self.dt, r_sq, self.spec) * self.cell * self.dt
            # times L^n undoes the forward norm: spectra * rfftn_forward(x) is
            # then the forward transform of the convolution with x
            np.multiply(rfftn_forward(kernel, self.axes), self.box[0] ** n, out=spectra[d - 1])
        return spectra

    def apply(self, state):
        """Propagator times a lattice vector (time-major, m_t * n_nodes):
        the causal convolution out[j2] = sum_{j1 < j2} G_{j2-j1} * state[j1],
        run in place over the state's modes, latest time first, with one
        work plane.  Each time plane is transformed on its own through one
        box, forward before the convolution and back as soon as it is
        convolved."""
        st = np.asarray(state, dtype=float).reshape(self.m_t, self.n_nodes)
        out = np.zeros_like(st)
        if self.m_t == 1:
            return out.reshape(-1)
        spectra = self.spectra
        box = np.zeros(self.box)  # each plane writes its nodes; the padding stays zero
        modes = np.empty_like(spectra)
        for j in range(self.m_t - 1):
            box.flat[self.nodes] = st[j]
            modes[j] = rfftn_forward(box, self.axes)
        term = np.empty_like(modes[0])
        for j in range(self.m_t - 2, -1, -1):
            # plane j becomes out[j + 1], the sum from zero of the gaps d = 1, ..., j + 1
            # from state[j + 1 - d]; the d = 1 term is the last read of plane j
            np.multiply(spectra[0], modes[j], out=term)
            modes[j] = 0.0
            modes[j] += term
            for d in range(2, j + 2):
                modes[j] += np.multiply(spectra[d - 1], modes[j + 1 - d], out=term)
            out[j + 1] = irfftn_forward(modes[j], self.axes, self.box[-1], out=box).flat[self.nodes]
        return out.reshape(-1)

    def powers(self, state, count):
        """Yield ``state`` under 0, 1, ..., count - 1 applications of the propagator."""
        for k in range(count):
            if k:
                state = self.apply(state)
            yield state

    def target_weights(self, z):
        """Quadrature weights mapping lattice values to the event (tau, z)."""
        weights = gaussian(self.tau - self.mids[:, None], z - self.pts, self.spec) * self.cell * self.dt
        return weights.reshape(-1)


@dataclass(frozen=True)
class BoundarySeriesResult:
    value: float
    terms: np.ndarray
    tail_converged: bool


def boundary_kernel_series(K, cyl: CylinderSpec, spec: KernelSpec, target, source, m_x=16, m_t=8) -> BoundarySeriesResult:
    """K-term sum of the recursively composed kernels between two events.

    Term 1 is the free kernel G(tau - s, z - v); term k+1 composes the free
    kernel against term k over the base ball and the intermediate times
    (midpoint rule in both).  A tail whose last three terms do not decrease
    in magnitude is flagged, not rejected.
    """
    if K < 1:
        raise ValueError("need at least one term")
    if m_t < 1:
        raise ValueError(f"m_t must be at least 1, got {m_t}")
    tau, z = target
    s, v = source
    if not tau > s >= cyl.t_in - 1e-12:
        raise ValueError("need tau > s >= t_in")
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    terms = [float(gaussian(tau - s, z - v, spec))]
    if K > 1:
        lat = _CylinderLattice(cyl, spec, s, tau, m_x, m_t)
        state = np.concatenate([gaussian(m - s, lat.pts - v, spec) for m in lat.mids])
        tw = lat.target_weights(z)
        terms += [float(tw @ power) for power in lat.powers(state, K - 1)]
    terms = np.asarray(terms)
    converged = bool(terms.size < 3 or (abs(terms[-1]) <= abs(terms[-2]) <= abs(terms[-3])))
    return BoundarySeriesResult(float(np.sum(terms)), terms, converged)


def _target_points(tau, points, cyl: CylinderSpec, spec: KernelSpec):
    """The points as an (m, n) array; ValueError unless tau > t_in and every
    point is finite, has n coordinates and lies in the closed base ball."""
    if not tau > cyl.t_in:
        raise ValueError(f"tau must exceed the cylinder entry time {cyl.t_in}, got {tau}")
    probes = np.atleast_2d(np.asarray(points, dtype=float))
    if probes.ndim != 2 or probes.shape[-1] != spec.n:
        raise ValueError(f"probes of shape {probes.shape} need {spec.n} coordinates each")
    for k, z in enumerate(probes):
        if not np.all(np.isfinite(z)):
            raise ValueError(f"probe {k} at {z.tolist()} is not finite")
        if np.sum(z**2) > cyl.r_0**2 + 1e-12:  # the closed ball of BallGrid's mask
            raise ValueError(f"probe {k} at {z.tolist()} lies off the base ball of radius {cyl.r_0}")
    return probes


def duhamel_residual(state, source, cyl: CylinderSpec, spec: KernelSpec, tau, m_x, m_t, probes) -> float:
    """Largest mismatch over the probes z between state(tau, z) and the heat representation

      sum_y state(t_in, y) G(tau - t_in, z - y) cell + sum_{(s, y)} source(s, y) G(tau - s, z - y) cell dt

    of d_tau w - nu_eff Lap w = source, for callables (s, points) -> values
    (``source`` None: no forcing).  y runs over the base-ball nodes and
    (s, y) over the lattice of ``boundary_kernel_series``, with ``m_x``
    nodes per axis and ``m_t`` midpoint times on [t_in, tau].  There is no
    lateral-boundary layer term.  ValueError unless tau > t_in and every
    probe is finite, has n coordinates and lies in the closed base ball.
    """
    probes = _target_points(tau, probes, cyl, spec)
    lat = _CylinderLattice(cyl, spec, cyl.t_in, tau, m_x, m_t)
    w0 = np.asarray(state(cyl.t_in, lat.pts), dtype=float)
    rhs = np.array([np.sum(w0 * gaussian(tau - cyl.t_in, z - lat.pts, spec)) * lat.cell for z in probes])
    if source is not None:
        src = np.concatenate([source(s, lat.pts) for s in lat.mids])
        rhs += [lat.target_weights(z) @ src for z in probes]
    lhs = np.asarray(state(tau, probes), dtype=float)
    return float(np.max(np.abs(lhs - rhs)))


def boundary_density(
    surface_trace,
    initial_convolution,
    nonlinear_convolution,
    cyl: CylinderSpec,
    spec: KernelSpec,
    tau,
    z_points,
    series_order=3,
    n_term_sign=-1,
    m_x=12,
    m_t=6,
):
    """Layer density on the lateral boundary feeding the representation.

    density = -2 trace + 2 init_conv + sign * 2 nonlin_conv
              + sum_{k=1..K} <bracket, composed kernel of order k>

    with bracket(s, xi) = -2 trace + 2 init_conv - 2 nonlin_conv evaluated
    on a midpoint lattice over [t_in, tau] x ball.  The sign of the
    nonlinear part outside the series is printed both ways in the source
    formulas; ``n_term_sign`` selects the variant.  Nothing arbitrates
    between the two yet: ``duhamel_residual`` has no lateral-boundary term,
    and no experiment calls this function.  All three ingredients are
    callables (s, points) -> values; tau and the points z are checked as
    in ``duhamel_residual``.
    """
    if n_term_sign not in (-1, 1):
        raise ValueError("n_term_sign must be +1 or -1")
    if series_order < 0:
        raise ValueError(f"series_order must be at least 0, got {series_order}")
    z_points = _target_points(tau, z_points, cyl, spec)
    lat = _CylinderLattice(cyl, spec, cyl.t_in, tau, m_x, m_t)

    def bracket(s, xi):
        return (
            -2.0 * np.asarray(surface_trace(s, xi))
            + 2.0 * np.asarray(initial_convolution(s, xi))
            - 2.0 * np.asarray(nonlinear_convolution(s, xi))
        )

    lattice_vals = np.concatenate([bracket(s, lat.pts) for s in lat.mids])
    out = (
        -2.0 * np.asarray(surface_trace(tau, z_points))
        + 2.0 * np.asarray(initial_convolution(tau, z_points))
        + n_term_sign * 2.0 * np.asarray(nonlinear_convolution(tau, z_points))
    )
    powers = list(lat.powers(lattice_vals, series_order))
    for i, z in enumerate(z_points):
        tw = lat.target_weights(z)
        out[i] += sum(float(tw @ power) for power in powers)
    return out
