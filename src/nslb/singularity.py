"""Singularity-order machinery: synthetic power-law fields on backward
cones, log-log exponent regression, partial-regularity exponent gates,
weighted (damped) fields, uniform-bound scans up the cylinder, and the
Sobolev embedding bookkeeping ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeSpec, t_of_tau

__all__ = [
    "ConeSamples",
    "SingularityFit",
    "CknVerdict",
    "synthesize_singular_field",
    "sample_smooth_field",
    "fit_singularity_orders",
    "ckn_gate",
    "damped_field",
    "uniform_bound_scan",
    "embedding_gain",
    "bootstrap_ledger",
]

TIP_EXCLUSION = 1e-3  # samples keep (t_s - t) and |x - x_s| above this


@dataclass(frozen=True)
class ConeSamples:
    """Scattered samples of |f| on a backward cone.

    ``dt_vals`` holds t_s - t, ``r_vals`` the distance to the tip axis; all
    samples satisfy r < t_s - t (inside the cone) and the tip exclusion.
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
        if np.any(self.dt_vals < TIP_EXCLUSION) or np.any(self.r_vals < TIP_EXCLUSION):
            raise ValueError(f"samples must keep a distance {TIP_EXCLUSION} from the tip")

    @property
    def count(self):
        return self.values.size


def _cone_sample_points(cone: ConeSpec, n_samples, rng, dt_range, r_floor):
    """Log-uniform (t_s - t, r) pairs inside the cone, away from the tip."""
    lo, hi = dt_range
    lo = max(lo, r_floor / 0.9)  # leave room for r in [r_floor, 0.95 dt]
    if not r_floor <= lo < hi:
        raise ValueError("dt_range must sit above the tip exclusion radius")
    dts = np.exp(rng.uniform(np.log(lo), np.log(hi), n_samples))
    rs = np.exp(rng.uniform(np.log(r_floor), np.log(dts * 0.95)))
    return dts, rs


def synthesize_singular_field(c, lam, mu, cone: ConeSpec, n_samples=200, noise=0.0, rng=None, dt_range=None) -> ConeSamples:
    """Samples of c / ((t_s - t)^mu r^lam), optionally with multiplicative noise.

    Noise is lognormal: values are multiplied by exp(noise * g), g standard
    normal, so the log-space regression sees additive Gaussian noise.
    """
    if lam < 0 or mu < 0:
        raise ValueError("exponents must be nonnegative")
    if c <= 0:
        raise ValueError("amplitude must be positive")
    rng = rng or np.random.default_rng(0)
    if dt_range is None:
        dt_range = (TIP_EXCLUSION, min(0.05, cone.t_s - cone.t_1))
    dts, rs = _cone_sample_points(cone, n_samples, rng, dt_range, TIP_EXCLUSION)
    vals = c / (dts**mu * rs**lam)
    if noise > 0:
        vals = vals * np.exp(noise * rng.standard_normal(n_samples))
    return ConeSamples(cone, dts, rs, vals)


def sample_smooth_field(velocity_fn, cone: ConeSpec, n_samples=200, rng=None, dt_range=None) -> ConeSamples:
    """Samples |v| of a smooth field on the cone (control experiment input).

    Points are drawn in the same near-tip window the synthetic generator
    uses; the field magnitude is evaluated at x = x_s + r * (random unit
    direction).
    """
    rng = rng or np.random.default_rng(0)
    if dt_range is None:
        dt_range = (TIP_EXCLUSION, min(0.05, cone.t_s - cone.t_1))
    dts, rs = _cone_sample_points(cone, n_samples, rng, dt_range, TIP_EXCLUSION)
    n = cone.n
    dirs = rng.standard_normal((n_samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.asarray(cone.x_s) + rs[:, None] * dirs
    ts = cone.t_s - dts
    vals = np.empty(n_samples)
    for k in range(n_samples):
        v = np.asarray(velocity_fn(ts[k], pts[k : k + 1]))
        vals[k] = np.sqrt(np.sum(v**2))
    return ConeSamples(cone, dts, rs, vals)


@dataclass(frozen=True)
class SingularityFit:
    lam: float
    mu: float
    c: float
    residual: float
    sample_count: int
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

    Rejects degenerate layouts (fewer than 30 samples or less than one
    decade of spread in either regressor).  Negative exponent estimates are
    clamped to zero and flagged.
    """
    if samples.count < 30:
        raise ValueError(f"need at least 30 samples, got {samples.count}")
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
    return SingularityFit(float(lam), float(mu), float(np.exp(log_c)), rms, samples.count, clamped)


def ckn_gate(fit: SingularityFit, kind="velocity") -> CknVerdict:
    """Exponent-window verdict for a fitted singularity order."""
    if kind not in ("velocity", "gradient"):
        raise ValueError("kind must be 'velocity' or 'gradient'")
    if not np.isfinite(fit.residual):
        raise ValueError("fit residual must be finite")
    velocity_ok = fit.mu < VELOCITY_MU_LIMIT and fit.lam < VELOCITY_LAMBDA_LIMIT
    gradient_ok = fit.mu < GRADIENT_MU_LIMIT and fit.lam < GRADIENT_LAMBDA_LIMIT + 0.01
    return CknVerdict(velocity_ok, gradient_ok)


@dataclass(frozen=True)
class DampedFieldReport:
    values: np.ndarray
    max_abs: float
    finite: bool


def damped_field(samples: ConeSamples, lam, mu) -> DampedFieldReport:
    """(t_s - t)^mu r^lam |v| on the sample set; bounded for matching orders."""
    weighted = samples.dt_vals**mu * samples.r_vals**lam * samples.values
    return DampedFieldReport(weighted, float(np.max(np.abs(weighted))), bool(np.all(np.isfinite(weighted))))


@dataclass(frozen=True)
class ScanReport:
    taus: np.ndarray
    values: np.ndarray
    running_sup: np.ndarray
    converged: bool
    cauchy_increment: float
    slope: float
    classification: str


def uniform_bound_scan(evaluate, taus, z_probe) -> ScanReport:
    """Track sup_tau |w(tau, z_probe)| on an increasing tau ladder.

    ``evaluate(tau, z)`` returns the comparison-field magnitude at the probe
    (a fixed offset from the tip axis).  A converging running sup (relative
    Cauchy increment below 1e-3 over the last decade) is the bounded,
    left-continuous outcome; a log-log slope above 0.1 classifies the scan
    as diverging like (1 + tau)^(mu + lam).
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau ladder must be increasing")
    decades = np.log10(taus[-1] / taus[0])
    if decades < 2.0:
        raise ValueError(f"tau ladder covers {decades:.2f} decades; need >= 2")
    vals = np.array([float(np.max(np.abs(evaluate(t, z_probe)))) for t in taus])
    running = np.maximum.accumulate(vals)
    last_decade = taus >= taus[-1] / 10.0
    tail = running[last_decade]
    cauchy = float(tail[-1] - tail[0]) / max(tail[-1], 1e-300)
    positive = vals > 0
    if np.sum(positive) >= 3:
        slope = float(np.polyfit(np.log1p(taus[positive]), np.log(vals[positive]), 1)[0])
    else:
        slope = 0.0
    converged = cauchy < 1e-3
    classification = "bounded" if (converged and slope <= 0.1) else "diverging"
    return ScanReport(taus, vals, running, converged, cauchy, slope, classification)


def tip_ray_values(field_fn, cone: ConeSpec, taus, z_probe):
    """Evaluate |v| along the cylinder ray z = z_probe: the points
    x = x_s + (t_s - t(tau)) z_probe approaching the tip."""
    z_probe = np.asarray(z_probe, dtype=float)
    out = []
    for tau in taus:
        t = float(t_of_tau(tau, cone))
        x = np.asarray(cone.x_s) + (cone.t_s - t) * z_probe
        v = np.asarray(field_fn(t, x[None, :]))
        out.append(float(np.sqrt(np.sum(v**2))))
    return np.asarray(out)


def embedding_gain(r, q, s, p, n) -> bool:
    """Sobolev-scale identity for H^{r,q} c H^{s,p}: 1/q - 1/p = (r - s)/n."""
    if p < 1 or q < 1:
        raise ValueError("integrability exponents must be >= 1")
    return bool(abs(1.0 / q - 1.0 / p - (r - s) / n) <= 1e-12)


@dataclass(frozen=True)
class LedgerEntry:
    s: float
    p: float
    justification: str


def bootstrap_ledger(start=(0.0, 3.0), steps=2):
    """Regularity bookkeeping ladder from an L^p entry point in dimension n = 3.

    Step 0 embeds the start space into its L^2-scale Sobolev image (the
    embedding identity is checked); each further step records a gain of one
    derivative order, landing at H^{k - eps} with eps = 0.01.  The ledger is
    bookkeeping only; no equation is solved.
    """
    n, eps = 3, 0.01
    s0, p0 = start
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    ledger = [LedgerEntry(float(s0), float(p0), "start")]
    if steps == 0:
        return ledger
    # embedding into the L^2 scale: H^{s0, p0} c H^{s_emb, 2} needs
    # 1/p0 - 1/2 = (s0 - s_emb)/n
    s_emb = s0 - n * (1.0 / p0 - 0.5)
    if not embedding_gain(s0, p0, s_emb, 2.0, n):
        raise ValueError("embedding identity failed for the start space")
    ledger = [LedgerEntry(float(s_emb), 2.0, "embedding")]
    for k in range(1, steps + 1):
        ledger.append(LedgerEntry(float(k - eps), 2.0, "derivative-gain"))
    return ledger
