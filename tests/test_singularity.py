import numpy as np
import pytest

from nslb.cone import ConeSpec
from nslb.flows import TaylorGreenFlow
from nslb.singularity import (
    ConeSamples,
    GRADIENT_LAMBDA_LIMIT,
    GRADIENT_MU_LIMIT,
    VELOCITY_LAMBDA_LIMIT,
    VELOCITY_MU_LIMIT,
    bootstrap_ledger,
    ckn_gate,
    damped_field,
    embedding_gain,
    fit_singularity_orders,
    sample_smooth_field,
    synthesize_singular_field,
    tip_ray_values,
    uniform_bound_scan,
)

CONE = ConeSpec(t_s=0.6, x_s=(0.15, 0.05), t_1=0.3)


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


def test_ckn_gate_windows():
    mk = lambda lam, mu: fit_singularity_orders(
        synthesize_singular_field(1.0, lam, mu, CONE, n_samples=120, rng=np.random.default_rng(8))
    )
    # (mu, lam) = (0.4, 0.5): velocity gate fails on mu >= 3/8
    v = ckn_gate(mk(0.5, 0.4), "velocity")
    assert not v.velocity_ok
    # (0, 0) passes both
    z = ckn_gate(mk(0.0, 0.0), "velocity")
    assert z.velocity_ok and z.gradient_ok
    # (mu0, lam0) = (0.49, 1.49) passes the gradient window
    g = ckn_gate(mk(1.49, 0.49), "gradient")
    assert g.gradient_ok
    with pytest.raises(ValueError):
        ckn_gate(mk(0.0, 0.0), "pressure")


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


def test_damped_field_exact_orders_constant():
    s = synthesize_singular_field(3.0, 0.6, 0.25, CONE, n_samples=150, rng=np.random.default_rng(10))
    rep = damped_field(s, 0.6, 0.25)
    assert rep.finite
    assert np.max(np.abs(rep.values - 3.0)) < 1e-10 * 3.0


def test_damped_field_smooth_input_vanishes_toward_tip():
    flow = TaylorGreenFlow(nu=0.01, amplitude=1.0)
    s = sample_smooth_field(flow.velocity, CONE, n_samples=300, rng=np.random.default_rng(11))
    rep = damped_field(s, 0.1, 0.1)
    near_tip = (s.dt_vals < 3e-3) & (s.r_vals < 3e-3)
    far = (s.dt_vals > 2e-2) | (s.r_vals > 2e-2)
    if np.any(near_tip) and np.any(far):
        assert np.max(rep.values[near_tip]) < np.max(rep.values[far])
    assert rep.max_abs < np.max(s.values)  # weights < 1 on this cone


def test_uniform_bound_scan_smooth_converges():
    flow = TaylorGreenFlow(nu=0.01, amplitude=1.0)
    taus = np.logspace(0, 2.5, 40)
    rep = uniform_bound_scan(
        lambda tau, z: tip_ray_values(flow.velocity, CONE, [tau], z)[0], taus, np.array([0.1, 0.0])
    )
    assert rep.classification == "bounded"
    assert rep.cauchy_increment < 1e-3


def _power_law_field(lam, mu):
    def field(t, pts):
        r = np.linalg.norm(np.asarray(pts) - np.asarray(CONE.x_s), axis=-1)
        return (3.0 / ((CONE.t_s - t) ** mu * np.maximum(r, 1e-300) ** lam))[None]

    return field


@pytest.mark.parametrize("lam,mu", [(0.2, 0.0), (0.7, 0.3), (1.4, 0.45)])
def test_uniform_bound_scan_singular_slope(lam, mu):
    taus = np.logspace(0, 2.5, 40)
    rep = uniform_bound_scan(
        lambda tau, z: tip_ray_values(_power_law_field(lam, mu), CONE, [tau], z)[0],
        taus,
        np.array([0.1, 0.0]),
    )
    assert rep.classification == "diverging"
    assert rep.slope == pytest.approx(lam + mu, abs=0.02)


def test_uniform_bound_scan_validation():
    with pytest.raises(ValueError):
        uniform_bound_scan(lambda tau, z: 1.0, np.logspace(0, 1, 10), np.array([0.1, 0.0]))  # < 2 decades
    with pytest.raises(ValueError):
        uniform_bound_scan(lambda tau, z: 1.0, np.array([1.0, 1.0, 10.0, 100.0]), np.array([0.1, 0.0]))


def test_uniform_bound_scan_zero_field():
    rep = uniform_bound_scan(lambda tau, z: 0.0, np.logspace(0, 2.5, 20), np.array([0.1, 0.0]))
    assert np.all(rep.running_sup == 0.0)
    assert rep.classification == "bounded"


def test_scan_classifier_separates_grid():
    # zero misclassifications over the synthetic exponent grid + smooth control
    taus = np.logspace(0, 2.5, 30)
    probe = np.array([0.1, 0.0])
    for lam in (0.2, 0.7, 1.4):
        for mu in (0.1, 0.3, 0.45, 0.0):
            rep = uniform_bound_scan(
                lambda tau, z: tip_ray_values(_power_law_field(lam, mu), CONE, [tau], z)[0], taus, probe
            )
            assert rep.classification == "diverging", (lam, mu)
    flow = TaylorGreenFlow(nu=0.01, amplitude=1.0)
    rep = uniform_bound_scan(lambda tau, z: tip_ray_values(flow.velocity, CONE, [tau], z)[0], taus, probe)
    assert rep.classification == "bounded"


def test_embedding_gain_identity():
    assert embedding_gain(0.0, 3.0, 0.5, 2.0, 3)  # L^3 into H^{1/2}
    assert embedding_gain(0.7, 2.0, 0.7, 2.0, 3)  # identity embedding
    assert not embedding_gain(0.0, 3.0, 1.0, 2.0, 3)
    with pytest.raises(ValueError):
        embedding_gain(0.0, 0.5, 0.0, 2.0, 3)


def test_bootstrap_ledger():
    ladder = bootstrap_ledger((0.0, 3.0), steps=2)
    assert [(e.s, e.p) for e in ladder] == [(0.5, 2.0), (0.99, 2.0), (1.99, 2.0)]
    assert ladder[0].justification == "embedding"
    assert all(e.justification == "derivative-gain" for e in ladder[1:])
    # consecutive derivative steps gain at most one order
    for prev, nxt in zip(ladder, ladder[1:]):
        assert nxt.s <= prev.s + 1.0 + 1e-12
    only_start = bootstrap_ledger((0.0, 3.0), steps=0)
    assert [(e.s, e.p, e.justification) for e in only_start] == [(0.0, 3.0, "start")]
