"""Singularity-order machinery: synthetic power-law fields and smooth-field
samples on backward cones, log-log exponent regression, and the
partial-regularity exponent gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeSpec

__all__ = [
    "ConeSamples",
    "SingularityFit",
    "CknVerdict",
    "synthesize_singular_field",
    "sample_smooth_field",
    "fit_singularity_orders",
    "ckn_gate",
]

TIP_EXCLUSION = 1e-3  # samples keep (t_s - t) and |x - x_s| above this
MIN_SAMPLES = 30  # fewest samples fit_singularity_orders accepts


@dataclass(frozen=True)
class ConeSamples:
    """Scattered samples of |f| on a backward cone.

    ``dt_vals`` holds t_s - t, ``r_vals`` the distance to the tip axis; all
    samples satisfy r < t_s - t (inside the cone), t_s - t <= t_s - t_1 (not
    before the cone's entry time) and the tip exclusion.
    """

    cone: ConeSpec
    dt_vals: np.ndarray
    r_vals: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("dt_vals", "r_vals", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.dt_vals.shape == self.r_vals.shape == self.values.shape):
            raise ValueError("sample arrays must share a shape")
        if np.any(self.r_vals >= self.dt_vals):
            raise ValueError("samples must lie strictly inside the cone (r < t_s - t)")
        if np.any(self.dt_vals > self.cone.t_s - self.cone.t_1):
            raise ValueError("samples must not precede the cone's entry time (t_s - t <= t_s - t_1)")
        if np.any(self.dt_vals < TIP_EXCLUSION) or np.any(self.r_vals < TIP_EXCLUSION):
            raise ValueError(f"samples must keep a distance {TIP_EXCLUSION} from the tip")

    @property
    def count(self):
        return self.values.size


def _cone_sample_points(cone: ConeSpec, n_samples, rng, dt_range=None):
    """Log-uniform (t_s - t, r) pairs inside the cone, away from the tip, with
    t_s - t in ``dt_range``, by default (TIP_EXCLUSION, min(0.05, t_s - t_1))."""
    lo, hi = (TIP_EXCLUSION, min(0.05, cone.t_s - cone.t_1)) if dt_range is None else dt_range
    lo = max(lo, TIP_EXCLUSION / 0.9)  # leave room for r in [TIP_EXCLUSION, 0.95 dt]
    if not lo < hi <= cone.t_s - cone.t_1:
        raise ValueError("dt_range must sit above the tip exclusion radius and within t_s - t_1")
    dts = np.exp(rng.uniform(np.log(lo), np.log(hi), n_samples))
    rs = np.exp(rng.uniform(np.log(TIP_EXCLUSION), np.log(dts * 0.95)))
    return dts, rs


def synthesize_singular_field(c, lam, mu, cone: ConeSpec, *, n_samples, rng, noise=0.0, dt_range=None) -> ConeSamples:
    """Samples of c / ((t_s - t)^mu r^lam), optionally with multiplicative noise.

    Noise is lognormal: values are multiplied by exp(noise * g), g standard
    normal, so the log-space regression sees additive Gaussian noise.
    """
    if lam < 0 or mu < 0:
        raise ValueError("exponents must be nonnegative")
    if c <= 0:
        raise ValueError("amplitude must be positive")
    dts, rs = _cone_sample_points(cone, n_samples, rng, dt_range)
    vals = c / (dts**mu * rs**lam)
    if noise > 0:
        vals = vals * np.exp(noise * rng.standard_normal(n_samples))
    return ConeSamples(cone, dts, rs, vals)


def sample_smooth_field(velocity_fn, cone: ConeSpec, *, n_samples, rng) -> ConeSamples:
    """Samples |v| of a smooth field on the cone (control experiment input).

    Points are drawn in the same near-tip window the synthetic generator
    uses; the field magnitude is evaluated at x = x_s + r * (random unit
    direction).  ``velocity_fn(t, points)`` is called once: t is an array
    of per-point times aligned with the (n_samples, n) points, and it
    returns the (n, n_samples) components.
    """
    dts, rs = _cone_sample_points(cone, n_samples, rng)
    dirs = rng.standard_normal((n_samples, cone.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.asarray(cone.x_s) + rs[:, None] * dirs
    v = np.asarray(velocity_fn(cone.t_s - dts, pts))
    return ConeSamples(cone, dts, rs, np.sqrt(np.sum(v**2, axis=0)))


@dataclass(frozen=True)
class SingularityFit:
    lam: float
    mu: float
    c: float
    residual: float
    clamped: bool = False


@dataclass(frozen=True)
class CknVerdict:
    """Exponent-window verdicts for the n = 3 partial-regularity theory.

    velocity window: mu < 3/8 and lam < 3/4;
    gradient window: mu < 1/2 and lam < 3/2 + 0.01.
    """

    velocity_ok: bool
    gradient_ok: bool


VELOCITY_MU_LIMIT = 3.0 / 8.0
VELOCITY_LAMBDA_LIMIT = 3.0 / 4.0
GRADIENT_MU_LIMIT = 1.0 / 2.0
GRADIENT_LAMBDA_LIMIT = 3.0 / 2.0


def fit_singularity_orders(samples: ConeSamples) -> SingularityFit:
    """Least squares on log|f| = log c - mu log(t_s - t) - lam log r.

    Rejects degenerate layouts (fewer than ``MIN_SAMPLES`` samples or less
    than one decade of spread in either regressor).  Negative exponent
    estimates are clamped to zero and flagged.
    """
    if samples.count < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples.count}")
    log_dt = np.log(samples.dt_vals)
    log_r = np.log(samples.r_vals)
    for name, reg in (("t_s - t", log_dt), ("|x - x_s|", log_r)):
        spread = (reg.max() - reg.min()) / np.log(10.0)
        if spread < 1.0:
            raise ValueError(f"sample spread in {name} covers {spread:.2f} decades; need >= 1.0")
    if np.any(samples.values <= 0):
        raise ValueError("sample magnitudes must be positive for the log fit")
    target = np.log(samples.values)
    design = np.column_stack([np.ones_like(log_dt), -log_dt, -log_r])
    coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    log_c, mu, lam = coeffs
    clamped = False
    if mu < 0:
        mu, clamped = 0.0, True
    if lam < 0:
        lam, clamped = 0.0, True
    resid = target - design @ np.array([log_c, mu, lam])
    rms = float(np.sqrt(np.mean(resid**2)))
    return SingularityFit(float(lam), float(mu), float(np.exp(log_c)), rms, clamped)


def ckn_gate(fit: SingularityFit) -> CknVerdict:
    """Velocity- and gradient-window verdicts for a fitted singularity order."""
    if not np.isfinite(fit.residual):
        raise ValueError("fit residual must be finite")
    velocity_ok = fit.mu < VELOCITY_MU_LIMIT and fit.lam < VELOCITY_LAMBDA_LIMIT
    gradient_ok = fit.mu < GRADIENT_MU_LIMIT and fit.lam < GRADIENT_LAMBDA_LIMIT + 0.01
    return CknVerdict(velocity_ok, gradient_ok)
