"""Rescaled-window bookkeeping for the global-regularity argument: the
r-scaling of space, the bounded time map s = (t - t0)/sqrt(1 - (t - t0)^2),
its coefficient functions and their bounds, the step-growth exponent, and a
measured increment audit against the predicted superlinear growth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import SolverConfig, simulate
from .spectral import SpectralField, _on_axis, sobolev_norm, to_grid

__all__ = [
    "RescaleParams",
    "CoeffAudit",
    "s_of_t",
    "t_of_s",
    "mu_of_s",
    "r_policy",
    "growth_exponent",
    "increment_bound_check",
    "hm_cm_proxy_norm",
]

S_MAX = 1.0 / np.sqrt(3.0)  # image of the half-unit window t - t0 = 0.5
C_M = 1.0  # norm bound of the data in the order-2 norm
DELTA = 0.5  # kernel exponent, in (0, 1)
EPS0 = 0.1  # step-size margin, in [0, 1/2)


@dataclass(frozen=True)
class RescaleParams:
    """Window and scaling parameters.

    r is the spatial contraction, [t0, t0 + 0.5] the time window and T the
    global horizon.
    """

    r: float
    t0: float
    T: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("spatial scale r must be positive")
        if self.T < self.t0:
            raise ValueError("horizon must not precede the window start")


def s_of_t(t, p: RescaleParams):
    """s = (t - t0)/sqrt(1 - (t - t0)^2) on the window 0 <= t - t0 <= 0.5."""
    u = np.asarray(t, dtype=float) - p.t0
    if np.any(u < 0) or np.any(u > 0.5 + 1e-15):
        raise ValueError("t must satisfy 0 <= t - t0 <= 0.5")
    return u / np.sqrt(1.0 - u**2)


def t_of_s(s, p: RescaleParams):
    """Inverse map t = t0 + s/sqrt(1 + s^2)."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0) or np.any(s > S_MAX + 1e-12):
        raise ValueError(f"s must lie in [0, {S_MAX:.6f}]")
    return p.t0 + s / np.sqrt(1.0 + s**2)


@dataclass(frozen=True)
class CoeffAudit:
    """Coefficient values at the transformed times s with their global bounds.

    s, mu and each mu_tau_k[k] are arrays of the shape of s (0-d values for
    a scalar s); mu_tau_k stores r (1 + t)^k mu for k in {1, 2}; the upper
    bound r(1+T) holds on the whole window exactly for these two orders.
    """

    s: np.ndarray
    mu: np.ndarray
    mu_tau_k: dict
    lower_bound: float
    upper_bound: float

    @property
    def bounds_hold(self):
        """Both bounds at every point, for both orders k."""
        uppers = (np.all(v <= self.upper_bound * (1 + 1e-12)) for v in self.mu_tau_k.values())
        return bool(np.all(self.mu >= self.lower_bound - 1e-12) and all(uppers))


def mu_of_s(s, p: RescaleParams) -> CoeffAudit:
    """Damping coefficient mu(s) = (1 - (t - t0)^2)^{3/2} / (1 + t) at the
    transformed times s (a scalar or an array), with its bounds.

    On s in [0, 1/sqrt(3)] the window satisfies (1 - u^2)^{3/2} >= (3/4)^{3/2}
    = 3 sqrt(3)/8, giving mu >= 3 sqrt(3)/(8 (1 + T)) whenever the window sits
    inside the horizon; r (1 + t)^k mu <= r (1 + T) for k in {1, 2}.
    """
    s = np.asarray(s, dtype=float)
    t = t_of_s(s, p)
    u = t - p.t0
    # ufuncs, not **: a scalar s then takes the same power loops as an array
    mu = np.power(1.0 - np.square(u), 1.5) / (1.0 + t)
    lower = 3.0 * np.sqrt(3.0) / (8.0 * (1.0 + p.T))
    upper = p.r * (1.0 + p.T)
    mu_tau = {k: p.r * np.power(1.0 + t, k) * mu for k in (1, 2)}
    return CoeffAudit(s, mu, mu_tau, float(lower), float(upper))


def r_policy(p: RescaleParams) -> float:
    """Spatial scale r = 1/(c(n,m) (C_M + 1)^2 (1 + T)) with c(n,m) = 32.

    The constant c(n,m) is calibrated, not derived; callers report it with
    a 'calibrated' provenance tag.
    """
    return 1.0 / (32.0 * (C_M + 1.0) ** 2 * (1.0 + p.T))


def growth_exponent(delta, eps0):
    """Step-growth exponent alpha0 = 2 (1 - eps0) delta + 1 - delta; broadcasts over arrays.

    Exceeds 1 exactly when delta (1 - 2 eps0) > 0, so for every
    delta in (0,1) and eps0 < 1/2.
    """
    if not (np.all(0 < delta) and np.all(delta < 1)):
        raise ValueError("delta must lie in (0, 1)")
    if not (np.all(0 <= eps0) and np.all(eps0 < 0.5)):
        raise ValueError("eps0 must lie in [0, 0.5)")
    return 2.0 * (1.0 - eps0) * delta + 1.0 - delta


def hm_cm_proxy_norm(v: SpectralField) -> float:
    """Proxy for the H^2 cap C^2 norm on the torus: the order-2 Sobolev norm
    plus the grid maximum of every derivative through order 2.  An axis
    repeated in a multi-index takes the signed wavenumber (Nyquist -N/2), so
    d_a^2 agrees with ``alpha_sq``; an axis taken once takes ``alpha``."""
    m = 2
    grid = v.grid
    derivs = []
    for k in range(m + 1):
        # multi-indices of order k as sorted tuples of axis repetitions
        for key in itertools.combinations_with_replacement(range(grid.n), k):
            modes = v.modes
            for ax in key:
                k_ax = _on_axis(grid, grid.wavenumbers(), ax) if key.count(ax) > 1 else grid.alpha(ax)
                modes = 2j * np.pi * k_ax * modes
            derivs.append(modes)
    # grid values of every derivative, in one transform
    grids = to_grid(SpectralField(grid, np.concatenate(derivs))).values.reshape((len(derivs), v.ncomp) + grid.shape)
    total = sobolev_norm(v, m)
    for g in grids:
        total += float(np.max(np.abs(g)))
    return float(total)


@dataclass(frozen=True)
class IncrementReport:
    deltas: np.ndarray
    increment_norms: np.ndarray
    slope: float
    alpha0_predicted: float
    passed: bool


def increment_bound_check(v0: SpectralField, nu) -> IncrementReport:
    """Measured growth order of the heat-compensated solution increment.

    For each step size Delta in (0.02, 0.01, 0.005) the spatial scale is
    tied to the window by r = Delta^{(1 - EPS0)/2}; the rescaled system
    (viscosity nu r^2, advection coefficient r, time step
    min(1e-3, Delta/10)) is integrated over [0, Delta] from v0, and

        || v(Delta) - heat_semigroup(Delta) v0 ||

    is measured in the H^2 cap C^2 proxy norm.  The increment is produced
    by the r-damped nonlinearity alone, so its log-log slope against Delta
    is superlinear; the check asserts slope >= 1 + margin with margin 0.2
    and reports the predicted exponent alpha0(DELTA, EPS0) next to it.
    """
    deltas = np.array([0.02, 0.01, 0.005])
    margin = 0.2
    norms = []
    for d in deltas:
        r = d ** ((1.0 - EPS0) / 2.0)
        cfg = SolverConfig(
            nu=nu * r**2,
            dt=min(1e-3, d / 10.0),
            t_end=float(d),
            snapshot_stride=10**9,  # only the final state is needed
            advect_coeff=r,
        )
        traj = simulate(v0, cfg)
        if traj.blew_up:
            raise RuntimeError(f"rescaled run unstable at Delta={d}: {traj.note}")
        final = traj.snapshots[-1]
        heat = np.exp(-cfg.nu * 4 * np.pi**2 * v0.grid.alpha_sq() * d)
        reference = SpectralField(v0.grid, heat * traj.snapshots[0].modes)
        norms.append(hm_cm_proxy_norm(final - reference))
    norms = np.asarray(norms)
    if np.any(norms <= 0):
        slope = float("inf")  # increment identically zero: bound holds trivially
    else:
        slope = float(np.polyfit(np.log(deltas), np.log(norms), 1)[0])
    alpha0 = growth_exponent(DELTA, EPS0)
    return IncrementReport(deltas, norms, slope, alpha0, bool(slope >= 1.0 + margin))
