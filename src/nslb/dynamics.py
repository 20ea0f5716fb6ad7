"""Time integration of the projected Navier-Stokes system on the torus,
with the energy-inequality diagnostic.

The integrator is classical RK4 applied in integrating-factor variables:
the viscous semigroup exp(-4 pi^2 nu |alpha|^2 dt) is applied exactly and
RK4 handles only the projected advection term.

The loop runs on the half spectrum that ``SpectralField`` stores (last-axis
wavenumbers 0..N/2) through scipy's compiled pocketfft transforms
(``_compiled``), and it stores only the 2/3 box of it (``spectral._Box``).
The advection term is evaluated in divergence form, P[div(v (x) v)], one
product v_i v_j on the grid at a time (``_HalfSpectrum``).  For a
solenoidal state kept inside the box this equals the advective form
P[(v . grad) v] restricted to the box, since the products alias only onto
modes outside it.  The RK4 stages are combined in place in two
preallocated buffers, and the four stage derivatives are released at the
end of each step.  At record points the box is scattered onto the half
lattice as a ``SpectralField``, which is either kept or handed to an
observer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._compiled import irfftn_forward, rfftn_forward
from .spectral import SpectralField, TorusGrid, _Box, _abs_sq, _full_sum
from .leray import _project_modes

__all__ = [
    "SolverConfig",
    "Trajectory",
    "simulate",
    "hopf_energy_check",
    "energy",
    "gradient_energy",
]


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    ``advect_coeff`` scales the nonlinear term; 1.0 is plain Navier-Stokes,
    other values arise from spatially rescaled systems (viscosity is then
    passed already rescaled).
    """

    nu: float
    dt: float
    t_end: float
    snapshot_stride: int = 1
    blowup_threshold: float = 1e12
    advect_coeff: float = 1.0

    def __post_init__(self):
        # "not 0 < x < inf" also rejects nan
        if not 0 < self.nu < np.inf:
            raise ValueError("viscosity must be positive and finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("time step must be positive and finite")
        if not 0 < self.t_end < np.inf:
            raise ValueError("end time must be positive and finite")
        ratio = self.t_end / self.dt
        steps = round(ratio)
        if abs(ratio - steps) > 1e-9 * max(steps, 1):
            raise ValueError(f"t_end = {self.t_end} is not a whole number of steps of dt = {self.dt} ({ratio:.6g} steps)")
        if not isinstance(self.snapshot_stride, (int, np.integer)) or self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be a positive integer, got {self.snapshot_stride}")

    def stability_ratio(self, grid: TorusGrid) -> float:
        """dt * nu * (2 pi N/2)^2, the explicit-diffusion CFL number the
        integrating factor removes; reported for diagnostics."""
        return self.dt * self.nu * (2 * np.pi * grid.N / 2) ** 2


@dataclass
class Trajectory:
    """Recorded run on ``grid``: strictly increasing times, with the kinetic
    energy and |grad v|^2 of the field at each time.

    ``snapshots`` holds one field per time, or none when the run streamed
    its fields to an observer instead (see ``simulate``).
    """

    times: np.ndarray
    snapshots: list
    energies: np.ndarray
    gradient_energies: np.ndarray
    grid: TorusGrid
    blew_up: bool = False
    note: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.energies = np.asarray(self.energies, dtype=float)
        if self.snapshots and len(self.snapshots) != self.times.size:
            raise ValueError("snapshot count must match time count")
        self.gradient_energies = np.asarray(self.gradient_energies, dtype=float)
        if not self.energies.size == self.gradient_energies.size == self.times.size:
            raise ValueError("energy counts must match time count")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def energy(v: SpectralField) -> float:
    """Kinetic energy (1/2)|v|_L2^2 evaluated from modes (Parseval)."""
    return 0.5 * _full_sum(_abs_sq(v.modes), v.grid.N)


def gradient_energy(v: SpectralField) -> float:
    """|grad v|_L2^2 = sum_alpha 4 pi^2 |alpha|^2 |v_alpha|^2 over the full lattice."""
    weighted = _abs_sq(v.modes)
    weighted *= 4 * np.pi**2 * v.grid.alpha_sq()
    return _full_sum(weighted, v.grid.N)


class _HalfSpectrum:
    """Per-run operators of the IF-RK4 loop on the grid's 2/3 box ``box``.

    The advection term -c * P[div(v (x) v)] on the box is linear in the
    product transforms w_p of v_i v_j, p over ``pairs`` (i <= j), and is
    applied as -i * sum_p K[:, p] w_p, accumulated one product at a time.
    Column p of the real tensor K is the Leray projection of the divergence
    of a unit product p, that is alpha_j e_i + alpha_i e_j (alpha_i e_i
    when i = j), times 2 pi * advect_coeff.
    """

    def __init__(self, grid: TorusGrid, cfg: SolverConfig):
        n = grid.n
        self.grid = grid
        self.box = box = _Box(grid)
        self.axes = tuple(range(1, 1 + n))
        self._prod_axes = tuple(range(n))
        lin = -cfg.nu * 4 * np.pi**2 * box.asq
        self.e_full = np.exp(lin * cfg.dt)
        self.e_half = np.exp(lin * cfg.dt / 2)
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        scale = 2 * np.pi * cfg.advect_coeff
        self.K = np.empty((n, len(self.pairs)) + box.shape)
        for p, (i, j) in enumerate(self.pairs):
            div = np.zeros((n,) + box.shape)
            div[i] += box.alphas[j]
            if j != i:
                div[j] += box.alphas[i]
            self.K[:, p] = scale * _project_modes(div, box.alphas, box.inv_asq)
        self._half = np.zeros((n,) + grid.half_shape, dtype=complex)
        self._prod = np.empty(grid.shape)
        self._w = np.empty(box.shape, dtype=complex)
        self._term = np.empty((n,) + box.shape, dtype=complex)

    def scatter(self, c):
        """The half-lattice buffer holding the box array c, zero off the box
        (reused: valid until the next ``scatter`` or ``nonlinear``)."""
        return self.box.scatter(c, self._half)

    def field(self, c):
        """The recorded field of the box array c (a copy of the scatter buffer)."""
        return SpectralField(self.grid, self.scatter(c))

    def nonlinear(self, c):
        """-advect_coeff * P[div(v (x) v)] of the box array c on the box, as a
        new array.

        One product is transformed at a time, and column p of K is applied
        to all n components at once; each mode still sums the terms in
        ascending p, starting from the p = 0 term."""
        vel = irfftn_forward(self.scatter(c), self.axes, self.grid.N)
        prod, w, term = self._prod, self._w, self._term
        out = np.empty(c.shape, dtype=complex)
        for p, (i, j) in enumerate(self.pairs):
            np.multiply(vel[i], vel[j], out=prod)
            self.box.gather(rfftn_forward(prod, self._prod_axes), w)
            if p == 0:
                np.multiply(self.K[:, 0], w, out=out)
            else:
                np.multiply(self.K[:, p], w, out=term)
                out += term
        out *= -1j
        return out


def simulate(v0: SpectralField, cfg: SolverConfig, observe=None) -> Trajectory:
    """Integrate from v0 with integrating-factor RK4.

    On entry the field is truncated to the 2/3 box and Leray-projected
    there, the modes of ``dealias(leray_project(v0))`` bit for bit
    (``SpectralField`` has already rejected non-finite modes).  If the
    bound sum |v_alpha| on the grid maximum exceeds
    ``cfg.blowup_threshold`` or is not finite, the run stops and the
    partial trajectory is returned with ``blew_up`` set.

    The field is built at each record point: t = 0, every
    ``cfg.snapshot_stride`` steps and the last step.  Its ``energy`` and
    ``gradient_energy`` are recorded in the trajectory.  With ``observe``
    None the field is kept in ``snapshots``; otherwise ``observe(t, field)``
    is called once per record, in time order, and nothing is kept, so
    memory does not grow with the step count.
    """
    grid = v0.grid
    if v0.ncomp != grid.n:
        raise ValueError("projection needs one component per spatial dimension")
    op = _HalfSpectrum(grid, cfg)
    # truncated to the box, then projected there: the projection acts on each mode alone
    m = op.box.gather(v0.modes, np.empty((grid.n,) + op.box.shape, dtype=complex))
    m = _project_modes(m, op.box.alphas, op.box.inv_asq)
    e_full, e_half = op.e_full, op.e_half
    nl = op.nonlinear
    dt = cfg.dt
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    dt_e_half, two_e_half = dt * e_half, 2.0 * e_half
    a, b = np.empty_like(m), np.empty_like(m)  # stage buffers

    steps = int(round(cfg.t_end / dt))
    times, energies, grads, snaps = [], [], [], []

    def record(t):
        f = op.field(m)
        times.append(t)
        energies.append(energy(f))
        grads.append(gradient_energy(f))
        if observe is None:
            snaps.append(f)
        else:
            observe(t, f)

    record(0.0)
    blew_up = False
    note = ""

    # Each line computes, in place and in the same order of operations, the
    # expression in its comment, so the state is bit for bit that of the
    # out-of-place update.
    for step in range(steps):
        n1 = nl(m)
        # a = e_half * (m + 0.5 * dt * n1)
        np.multiply(half_dt, n1, out=a)
        np.add(m, a, out=a)
        np.multiply(e_half, a, out=a)
        n2 = nl(a)
        # a = e_half * m + 0.5 * dt * n2
        np.multiply(e_half, m, out=a)
        np.multiply(half_dt, n2, out=b)
        np.add(a, b, out=a)
        n3 = nl(a)
        # a = e_full * m + dt * e_half * n3
        np.multiply(e_full, m, out=a)
        np.multiply(dt_e_half, n3, out=b)
        np.add(a, b, out=a)
        n4 = nl(a)
        # m = e_full * m + dt / 6.0 * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
        np.add(n2, n3, out=b)
        np.multiply(two_e_half, b, out=b)
        np.multiply(e_full, n1, out=a)
        np.add(a, b, out=a)
        np.add(a, n4, out=a)
        np.multiply(sixth_dt, a, out=a)
        np.multiply(e_full, m, out=m)
        np.add(m, a, out=m)
        del n1, n2, n3, n4  # not held across the record point
        t = (step + 1) * dt
        # sup |v| <= sum |v_alpha|: cheap overflow guard without a transform
        bound = _full_sum(np.abs(m), grid.N)
        if not np.isfinite(bound) or bound > cfg.blowup_threshold:
            blew_up = True
            if np.isfinite(bound):
                what = f"grid max bound exceeded {cfg.blowup_threshold:.1e}"
            else:
                what = "non-finite state"
            note = f"{what} at step {step + 1} (t={t:.6g}); run terminated"
            break
        if (step + 1) % cfg.snapshot_stride == 0 or step == steps - 1:
            record(t)

    return Trajectory(times, snaps, energies, grads, grid, blew_up=blew_up, note=note)


def _cumulative_trapezoid(y, x):
    """Running trapezoid integrals of y over x, one per interval (scipy's
    ``cumulative_trapezoid`` formula, bit for bit)."""
    return np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)


@dataclass(frozen=True)
class HopfReport:
    max_violation: float
    passed: bool


def hopf_energy_check(traj: Trajectory, cfg: SolverConfig, tol=1e-8) -> HopfReport:
    """Check (1/2)|v(t)|^2 + nu int_0^t |grad v|^2 ds <= (1/2)|v(0)|^2 + tol.

    The dissipation integral uses trapezoidal quadrature of the recorded
    gradient energies on the recorded times, so a streamed run (no
    snapshots) is checked as well; returns the largest violation over the
    trajectory.
    """
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    kinetic = traj.energies
    dissip = np.concatenate(([0.0], _cumulative_trapezoid(traj.gradient_energies, traj.times)))
    max_violation = float(np.max(kinetic + cfg.nu * dissip - kinetic[0]))
    return HopfReport(max_violation, max_violation <= tol)
