import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb.cone import ConeSpec
from nslb.flows import TaylorGreenFlow
from nslb.singularity import (
    ConeSamples,
    GRADIENT_LAMBDA_LIMIT,
    GRADIENT_MU_LIMIT,
    VELOCITY_LAMBDA_LIMIT,
    VELOCITY_MU_LIMIT,
    ckn_gate,
    fit_singularity_orders,
    sample_smooth_field,
    synthesize_singular_field,
)
from oracles import per_sample_smooth_field

CONE = ConeSpec(t_s=0.6, x_s=(0.15, 0.05), t_1=0.3)
CONE_3D = ConeSpec(t_s=0.6, x_s=(0.15, 0.05, -0.1), t_1=0.3)


def abc_velocity(amplitude, nu=0.05):
    """Decaying ABC flow on the unit 3-torus, (t, (m, 3) points) -> (3, m); t broadcasts."""

    def velocity(t, points):
        x, y, z = 2 * np.pi * np.atleast_2d(np.asarray(points, dtype=float)).T
        a = amplitude * np.exp(-4 * np.pi**2 * nu * np.asarray(t))
        return np.stack([a * (np.sin(z) + np.cos(y)), a * (np.sin(x) + np.cos(z)), a * (np.sin(y) + np.cos(x))])

    return velocity


def test_synthetic_field_hand_value():
    # f = c / ((t_s - t)^mu r^lam) at (t_s - t, r) = (0.5, 0.25)
    assert 3.0 / (0.5**0.3 * 0.25**0.5) == pytest.approx(7.3869, abs=2e-4)
    s = synthesize_singular_field(3.0, 0.5, 0.3, CONE, n_samples=64, rng=np.random.default_rng(0))
    recomputed = 3.0 / (s.dt_vals**0.3 * s.r_vals**0.5)
    assert np.allclose(s.values, recomputed)


def test_synthetic_constant_and_homogeneity():
    s = synthesize_singular_field(2.5, 0.0, 0.0, CONE, n_samples=64, rng=np.random.default_rng(1))
    assert np.allclose(s.values, 2.5)
    # doubling r with lam = 1 halves the value
    assert 1.0 / (0.5**0.0 * 0.02**1.0) == pytest.approx(2.0 * 1.0 / (0.5**0.0 * 0.04**1.0))


def test_samples_respect_cone_and_tip_exclusion():
    s = synthesize_singular_field(1.0, 0.4, 0.2, CONE, n_samples=300, rng=np.random.default_rng(2))
    assert np.all(s.r_vals < s.dt_vals)
    assert np.all(s.r_vals >= 1e-3) and np.all(s.dt_vals >= 1e-3)
    with pytest.raises(ValueError):
        ConeSamples(CONE, np.array([0.01]), np.array([0.02]), np.array([1.0]))  # r >= dt


def test_samples_stay_after_the_cone_entry_time():
    # t_s - t_1 = 0.3 on CONE: t_s - t up to 5 would put samples before t_1 and at t < 0
    with pytest.raises(ValueError, match="t_s - t_1"):
        synthesize_singular_field(3.0, 0.5, 0.2, CONE, n_samples=100, rng=np.random.default_rng(0), dt_range=(0.01, 5.0))
    with pytest.raises(ValueError, match="entry time"):
        ConeSamples(CONE, np.array([0.01, 0.35]), np.array([0.005, 0.02]), np.array([1.0, 1.0]))
    lifetime = CONE.t_s - CONE.t_1
    s = synthesize_singular_field(3.0, 0.5, 0.2, CONE, n_samples=100, rng=np.random.default_rng(0), dt_range=(0.01, lifetime))
    assert np.all(s.dt_vals <= lifetime)
    ConeSamples(CONE, np.array([lifetime]), np.array([0.02]), np.array([1.0]))  # the entry time itself


def test_fit_recovers_exact_orders():
    rng = np.random.default_rng(3)
    s = synthesize_singular_field(3.0, 0.5, 0.3, CONE, n_samples=200, rng=rng)
    fit = fit_singularity_orders(s)
    assert fit.lam == pytest.approx(0.5, rel=0.02)
    assert fit.mu == pytest.approx(0.3, rel=0.02)
    assert fit.c == pytest.approx(3.0, rel=0.02)
    assert fit.residual < 1e-10


def test_fit_constant_field_clamps_to_zero():
    s = synthesize_singular_field(2.0, 0.0, 0.0, CONE, n_samples=100, rng=np.random.default_rng(4))
    fit = fit_singularity_orders(s)
    assert fit.lam <= 1e-12 and fit.mu <= 1e-12


def test_fit_flags_clamped_exponents():
    # |f| = (t_s - t)^0.3 r^0.2 fits negative exponents, clamped to zero and flagged
    s = synthesize_singular_field(1.0, 0.0, 0.0, CONE, n_samples=200, rng=np.random.default_rng(9))
    growing = fit_singularity_orders(ConeSamples(CONE, s.dt_vals, s.r_vals, s.dt_vals**0.3 * s.r_vals**0.2))
    assert growing.lam == 0.0 and growing.mu == 0.0 and growing.clamped
    in_model = fit_singularity_orders(synthesize_singular_field(3.0, 0.7, 0.3, CONE, n_samples=200, rng=np.random.default_rng(10)))
    assert in_model.lam == pytest.approx(0.7, rel=0.02) and in_model.mu == pytest.approx(0.3, rel=0.02)
    assert not in_model.clamped


def test_fit_with_noise():
    rng = np.random.default_rng(5)
    s = synthesize_singular_field(3.0, 0.7, 0.3, CONE, n_samples=240, noise=0.05, rng=rng)
    fit = fit_singularity_orders(s)
    assert abs(fit.lam - 0.7) <= 0.10 * 0.7
    assert abs(fit.mu - 0.3) <= 0.10 * max(0.3, 0.05)


def test_fit_rejects_degenerate_layouts():
    rng = np.random.default_rng(6)
    small = synthesize_singular_field(1.0, 0.5, 0.2, CONE, n_samples=10, rng=rng)
    with pytest.raises(ValueError):
        fit_singularity_orders(small)
    narrow = synthesize_singular_field(1.0, 0.5, 0.2, CONE, n_samples=60, rng=rng, dt_range=(4.0e-3, 6.5e-3))
    with pytest.raises(ValueError):
        fit_singularity_orders(narrow)


def test_smooth_control_fits_near_zero():
    flow = TaylorGreenFlow(nu=0.01, amplitude=1.0)
    s = sample_smooth_field(flow.velocity, CONE, n_samples=240, rng=np.random.default_rng(7))
    fit = fit_singularity_orders(s)
    assert fit.lam <= 0.05 and fit.mu <= 0.05


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 100.0), n=st.sampled_from([2, 3]))
def test_sample_smooth_field_matches_per_sample_loop(seed, amplitude, n):
    # one velocity call on all samples gives the bits of one call per sample
    velocity = TaylorGreenFlow(nu=0.01, amplitude=amplitude).velocity if n == 2 else abc_velocity(amplitude)
    cone = CONE if n == 2 else CONE_3D
    got = sample_smooth_field(velocity, cone, n_samples=240, rng=np.random.default_rng(seed))
    dts, rs, vals = per_sample_smooth_field(velocity, cone, 240, np.random.default_rng(seed))
    assert got.dt_vals.tobytes() == dts.tobytes()
    assert got.r_vals.tobytes() == rs.tobytes()
    assert got.values.tobytes() == vals.tobytes()


def test_sample_smooth_field_calls_velocity_once_with_per_point_times():
    calls = []
    flow = TaylorGreenFlow(nu=0.01, amplitude=1.0)

    def velocity(t, points):
        calls.append((np.asarray(t), np.asarray(points)))
        return flow.velocity(t, points)

    s = sample_smooth_field(velocity, CONE, n_samples=50, rng=np.random.default_rng(3))
    assert len(calls) == 1
    t, pts = calls[0]
    assert t.shape == (50,) and pts.shape == (50, 2)
    assert np.array_equal(t, CONE.t_s - s.dt_vals)


def test_ckn_gate_windows():
    mk = lambda lam, mu: fit_singularity_orders(
        synthesize_singular_field(1.0, lam, mu, CONE, n_samples=120, rng=np.random.default_rng(8))
    )
    # (mu, lam) = (0.4, 0.5): velocity gate fails on mu >= 3/8
    v = ckn_gate(mk(0.5, 0.4))
    assert not v.velocity_ok
    # (0, 0) passes both
    z = ckn_gate(mk(0.0, 0.0))
    assert z.velocity_ok and z.gradient_ok
    # (mu0, lam0) = (0.49, 1.49) passes the gradient window
    g = ckn_gate(mk(1.49, 0.49))
    assert g.gradient_ok


def test_ckn_gate_monotone():
    rng = np.random.default_rng(9)
    base = (0.7, 0.35)
    fits = {}
    for lam, mu in [base, (0.5, 0.35), (0.7, 0.2), (0.5, 0.2)]:
        fits[(lam, mu)] = ckn_gate(
            fit_singularity_orders(synthesize_singular_field(1.0, lam, mu, CONE, n_samples=120, rng=rng))
        )
    if fits[base].velocity_ok:
        assert all(v.velocity_ok for v in fits.values())


def test_gate_limits_are_the_documented_windows():
    assert VELOCITY_MU_LIMIT == 3.0 / 8.0
    assert VELOCITY_LAMBDA_LIMIT == 3.0 / 4.0
    assert GRADIENT_MU_LIMIT == 1.0 / 2.0
    assert GRADIENT_LAMBDA_LIMIT == 3.0 / 2.0
