import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nslb.rescale
from nslb.flows import perturbed_taylor_green, random_divergence_free, taylor_green
from nslb.rescale import (
    DELTA,
    EPS0,
    RescaleParams,
    S_MAX,
    growth_exponent,
    hm_cm_proxy_norm,
    increment_bound_check,
    mu_of_s,
    r_policy,
    s_of_t,
    t_of_s,
)
from nslb.spectral import PhysicalField, SpectralField, TorusGrid, sobolev_norm, to_grid, to_modes

from oracles import per_index_hm_cm_proxy_norm


def params(**kw):
    base = dict(r=1.0 / 16, t0=0.0, T=1.0)
    base.update(kw)
    return RescaleParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        params(r=-1.0)


def test_s_map_values():
    p = params()
    assert s_of_t(p.t0, p) == 0.0
    assert s_of_t(p.t0 + 0.5, p) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
    with pytest.raises(ValueError):
        s_of_t(p.t0 + 1.0, p)


def test_s_map_inverse_pair():
    p = params(t0=0.25, T=1.5)
    ss = np.linspace(0.0, S_MAX, 500)
    assert np.max(np.abs(s_of_t(t_of_s(ss, p), p) - ss)) < 1e-14
    ts = p.t0 + np.linspace(0.0, 0.5, 500)
    assert np.max(np.abs(t_of_s(s_of_t(ts, p), p) - ts)) < 1e-14
    # strictly increasing
    assert np.all(np.diff(s_of_t(ts, p)) > 0)


def test_mu_value_at_zero():
    p = params(t0=0.0)
    audit = mu_of_s(0.0, p)
    assert audit.mu == pytest.approx(1.0)
    assert audit.mu_tau_k[2] == pytest.approx(p.r)  # (1+0)^2 * 1 * r


@pytest.mark.parametrize("big_t", [0.5, 1.0, 2.0])
def test_mu_lower_bound_sweeps(big_t):
    # worst case: the window ends exactly at the horizon
    p = params(t0=big_t - 0.5, T=big_t)
    lower = 3 * np.sqrt(3) / (8 * (1 + big_t))
    audit = mu_of_s(np.linspace(0.0, S_MAX, 1000), p)
    assert np.all(audit.mu >= lower - 1e-12)
    assert audit.lower_bound == pytest.approx(lower)
    for k in (1, 2):
        assert np.all(audit.mu_tau_k[k] <= p.r * (1 + big_t) * (1 + 1e-12))
    assert audit.bounds_hold


@pytest.mark.parametrize("big_t", [0.5, 1.0, 2.0])
def test_mu_of_s_array_equals_elementwise_calls(big_t):
    p = params(t0=big_t - 0.5, T=big_t)
    svals = np.linspace(0.0, S_MAX, 1000)
    audit = mu_of_s(svals, p)
    points = [mu_of_s(s, p) for s in svals]
    assert audit.s.tobytes() == svals.tobytes()
    assert audit.mu.tobytes() == np.array([a.mu for a in points]).tobytes()
    for k in (1, 2):
        assert audit.mu_tau_k[k].tobytes() == np.array([a.mu_tau_k[k] for a in points]).tobytes()
    assert (audit.lower_bound, audit.upper_bound) == (points[0].lower_bound, points[0].upper_bound)


@pytest.mark.parametrize("index", [37, 513, 998])
@pytest.mark.parametrize("order", ["lower", 1, 2])
def test_bounds_hold_checks_every_point(order, index):
    # a sweep that holds, broken at one interior point off any stride of 10
    audit = mu_of_s(np.linspace(0.0, S_MAX, 1000), params(t0=0.5, T=1.0))
    assert audit.bounds_hold and set(audit.mu_tau_k) == {1, 2}
    if order == "lower":
        mu = audit.mu.copy()
        mu[index] = audit.lower_bound * (1 - 1e-6)
        broken = dataclasses.replace(audit, mu=mu)
    else:
        v = audit.mu_tau_k[order].copy()
        v[index] = audit.upper_bound * (1 + 1e-6)
        broken = dataclasses.replace(audit, mu_tau_k={**audit.mu_tau_k, order: v})
    assert not broken.bounds_hold


def test_r_policy_values():
    p = params(T=1.0)
    assert r_policy(p) == pytest.approx(1.0 / 256.0)
    # monotone decreasing in horizon; halving under (1+T) doubling
    assert r_policy(params(T=2.0)) < r_policy(params(T=1.0))
    assert r_policy(params(T=3.0)) == pytest.approx(r_policy(params(T=1.0)) / 2.0)


def test_growth_exponent_values():
    assert growth_exponent(0.5, 0.0) == pytest.approx(1.5)
    assert growth_exponent(0.9, 0.1) == pytest.approx(1.72)
    # eps0 = 0 collapses to 1 + delta
    for delta in (0.1, 0.4, 0.8):
        assert growth_exponent(delta, 0.0) == pytest.approx(1.0 + delta)


def test_growth_exponent_exceeds_one_on_grid():
    for delta in np.linspace(0.05, 0.95, 19):
        for eps0 in np.linspace(0.0, 0.4, 9):
            assert growth_exponent(delta, eps0) > 1.0


def test_growth_exponent_array_equals_elementwise_calls():
    deltas, eps0s = np.meshgrid(np.linspace(0.05, 0.95, 19), np.linspace(0.0, 0.4, 9))
    loop = np.array([[growth_exponent(d, e) for d, e in zip(dr, er)] for dr, er in zip(deltas, eps0s)])
    assert growth_exponent(deltas, eps0s).tobytes() == loop.tobytes()
    for delta, eps0 in ((np.array([0.5, 1.0]), 0.1), (0.5, np.array([0.0, 0.5])), (np.array([np.nan]), 0.1)):
        with pytest.raises(ValueError):
            growth_exponent(delta, eps0)


def test_hm_cm_proxy_norm_single_mode():
    grid = TorusGrid(2, 16)
    modes = np.zeros((1,) + grid.half_shape, dtype=complex)
    modes[0][1, 0] = 0.5
    modes[0][-1, 0] = 0.5  # cos(2 pi x1)
    v = SpectralField(grid, modes)
    # Sobolev part: sqrt(2 * 0.25 * (1+1)^2) = sqrt(2); C^m part:
    # 1 + 2pi + (2pi)^2 from the sup of the function and its derivatives
    expected = np.sqrt(0.5 * (2.0) ** 2) + 1.0 + 2 * np.pi + (2 * np.pi) ** 2
    assert hm_cm_proxy_norm(v) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 100.0), n=st.sampled_from([2, 3]))
def test_hm_cm_proxy_norm_matches_per_index_loop(seed, amplitude, n):
    # one transform of all derivatives gives the bits of one transform each
    v = random_divergence_free(TorusGrid(n, 16 if n == 2 else 8), np.random.default_rng(seed), rms=amplitude)
    assert np.float64(hm_cm_proxy_norm(v)).tobytes() == np.float64(per_index_hm_cm_proxy_norm(v)).tobytes()


@pytest.mark.parametrize("n, axis", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_hm_cm_proxy_norm_second_derivative_keeps_the_nyquist_mode(n, axis):
    # cos(pi N x_a) has zero first derivatives on the grid (alpha reads
    # Nyquist as 0), but d_a^2 of it is -(pi N)^2 times it, as alpha_sq says
    grid, amplitude = TorusGrid(n, 8), 0.7
    v = to_modes(PhysicalField(grid, amplitude * np.cos(np.pi * grid.N * grid.meshes()[axis])[None]))
    second = hm_cm_proxy_norm(v) - sobolev_norm(v, 2) - amplitude
    assert second == pytest.approx((np.pi * grid.N) ** 2 * amplitude, rel=1e-12)


def test_hm_cm_proxy_norm_transforms_once(monkeypatch):
    calls = []

    def counted(field):
        calls.append(field.modes.shape)
        return to_grid(field)

    monkeypatch.setattr(nslb.rescale, "to_grid", counted)
    grid = TorusGrid(3, 8)
    hm_cm_proxy_norm(random_divergence_free(grid, np.random.default_rng(0)))
    assert calls == [(10 * 3,) + grid.half_shape]  # 1 + 3 + 6 multi-indices, 3 components each


def test_increment_zero_data():
    grid = TorusGrid(2, 16)
    zero = SpectralField(grid, np.zeros((2,) + grid.half_shape, dtype=complex))
    rep = increment_bound_check(zero, 0.05)
    assert np.all(rep.increment_norms == 0.0)
    assert rep.passed  # trivially bounded


def test_increment_slope_superlinear():
    grid = TorusGrid(2, 32)
    v0 = perturbed_taylor_green(grid, 1.0, eps=0.2)
    rep = increment_bound_check(v0, 0.05)
    assert rep.passed
    assert rep.slope >= 1.2
    # the scaling ties r to the step: slope tracks 1 + (1 - eps0)/2
    assert rep.slope == pytest.approx(1.0 + (1.0 - EPS0) / 2.0, abs=0.1)
    assert rep.alpha0_predicted == pytest.approx(growth_exponent(DELTA, EPS0))


def test_increment_pure_vortex_is_roundoff():
    # the unperturbed vortex has projection-null advection: the damped
    # increment is numerically zero at every step size
    grid = TorusGrid(2, 32)
    v0 = taylor_green(grid, 1.0)
    rep = increment_bound_check(v0, 0.05)
    assert np.all(rep.increment_norms < 1e-10)
