"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured figures when it completes.

Run with `pytest tests/test_acceptance.py -v -rA` to see every line.
"""

import json
import time

import numpy as np
import pytest

from nslb.cli import heat_bump_solution, main
from nslb.cone import BallGrid, ConeSpec, CylinderSpec, sample_w_function, t_of_tau, tau_of_t
from nslb.dynamics import SolverConfig, simulate
from nslb.flows import StreamFlow, TaylorGreenFlow, perturbed_taylor_green, taylor_green
from nslb.kernels import KernelSpec, duhamel_residual, kernel_bound_check
from nslb.leray import leray_project, poisson_pressure
from nslb.rescale import RescaleParams, S_MAX, growth_exponent, increment_bound_check, mu_of_s, s_of_t
from nslb.singularity import (
    ckn_gate,
    fit_singularity_orders,
    sample_smooth_field,
    synthesize_singular_field,
)
from nslb.snapshots import read_snapshot, write_snapshot
from nslb.spectral import PhysicalField, TorusGrid, dealias, dealias_mask, divergence, to_modes

from oracles import brute_force_pressure_gradient


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_taylor_green_oracle():
    started = time.perf_counter()
    grid = TorusGrid(2, 32)
    nu = 0.1
    traj = simulate(taylor_green(grid, 1.0), SolverConfig(nu=nu, dt=1e-3, t_end=0.5))
    norm0 = np.sqrt(2 * traj.energies[0])
    worst = 0.0
    for t, e in zip(traj.times, traj.energies):
        expected = norm0 * np.exp(-8 * np.pi**2 * nu * t)
        worst = max(worst, abs(np.sqrt(2 * e) - expected) / expected)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-5
    assert elapsed < 30.0
    report(1, f"Taylor-Green L2 decay matches exp(-8 pi^2 nu t) to {worst:.2e} (<=1e-5) in {elapsed:.1f}s")


def test_criterion_2_leray_projection():
    started = time.perf_counter()
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(123)
    # projected random fields stay solenoidal mode by mode
    worst_div = 0.0
    for seed in range(5):
        raw = np.random.default_rng(seed).standard_normal((2,) + grid.shape)
        pf = leray_project(to_modes(PhysicalField(grid, raw)))
        worst_div = max(worst_div, float(np.max(np.abs(divergence(pf).modes))))
    assert worst_div <= 1e-12
    # pressure gradient against the direct double-sum oracle
    v = dealias(leray_project(to_modes(PhysicalField(grid, rng.standard_normal((2,) + grid.shape)))))
    keep = dealias_mask(grid)
    worst_oracle = 0.0
    p = poisson_pressure(v).modes[0]
    for i in range(2):
        fast = 2j * np.pi * grid.alpha(i) * p
        slow = brute_force_pressure_gradient(v, i)
        worst_oracle = max(worst_oracle, float(np.max(np.abs((fast - slow)[keep]))))
    elapsed = time.perf_counter() - started
    assert worst_oracle <= 1e-10
    assert elapsed < 10.0
    report(
        2,
        f"projection divergence {worst_div:.2e} (<=1e-12), oracle gap {worst_oracle:.2e} (<=1e-10) in {elapsed:.1f}s",
    )


def test_criterion_3_transformation_identities():
    cone = ConeSpec(t_s=1.0, x_s=(0.1, -0.2), t_1=0.5)
    taus = np.logspace(-3, 3, 601)
    ts = t_of_tau(taus, cone)
    ident = float(np.max(np.abs(cone.t_s - ts - cone.t_s / (1 + taus))))
    assert ident <= 1e-14
    h = 1e-6
    probe = np.linspace(0.0, 0.95, 200)
    fd = (tau_of_t(probe + h, cone) - tau_of_t(probe - h, cone)) / (2 * h)
    analytic = cone.t_s / (cone.t_s - probe) ** 2
    fd_err = float(np.max(np.abs(fd - analytic) / analytic))
    assert fd_err <= 1e-6
    # incompressibility of the sampled comparison field at order >= 1.8
    flow = StreamFlow()
    cyl = CylinderSpec.from_cone(cone)
    tau0 = tau_of_t(0.75, cone)
    errs = {}
    for m in (17, 33):
        ball = BallGrid(2, 0.8 * cyl.r_0, m)
        div = ball.divergence(sample_w_function(flow.velocity, cone, tau0, ball))
        errs[m] = float(np.sqrt(np.mean(div[ball.interior] ** 2)))
    order = float(np.log2(errs[17] / errs[33]))
    assert order >= 1.8
    report(3, f"cylinder identity {ident:.1e} (<=1e-14), dtau/dt FD {fd_err:.1e} (<=1e-6), div order {order:.2f} (>=1.8)")


def test_criterion_4_kernel_bounds():
    deltas = (0.25, 0.5, 0.75, 0.9)
    nus = (0.01, 0.1, 1.0)
    lines = []
    for delta in deltas:
        observed = []
        predicted = None
        for nu in nus:
            rep = kernel_bound_check(delta, KernelSpec(nu_eff=nu, n=3), kind="derivative")
            assert rep.passed, f"delta={delta}, nu={nu}"
            observed.append(rep.c_observed)
            predicted = rep.c_predicted
        spread = (max(observed) - min(observed)) / max(observed)
        assert spread <= 1e-9  # diffusivity-independent constant
        lines.append(f"d={delta}: sup {max(observed):.4f} <= {predicted:.4f}")
    report(4, "; ".join(lines) + " (1e-12 slack, nu-independent)")


def test_criterion_5_duhamel_residual():
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    heat = heat_bump_solution(cyl, spec.nu_eff, sigma0=cyl.r_0 / 6.0)
    probes = [[0.0, 0.0], [0.25, 0.0], [0.0, -0.25]]

    def run(m, m_t):
        return duhamel_residual(heat, None, cyl, spec, cyl.t_in + 0.05, m, m_t, probes)

    default = run(33, 8)
    assert default <= 1e-4
    ladder = [run(17, 4), run(25, 6), run(33, 8)]
    decreasing = all(b <= a / 4.0 or b <= 1e-6 for a, b in zip(ladder, ladder[1:]))
    assert decreasing
    report(5, f"pure-heat residual {default:.2e} (<=1e-4), ladder {['%.1e' % r for r in ladder]} refines")


def test_criterion_6_exponent_recovery():
    cone = ConeSpec(t_s=0.6, x_s=(0.15, 0.05), t_1=0.3)
    lams = (0.2, 0.7, 1.4)
    mus = (0.1, 0.3, 0.45, 0.0)
    worst_clean, worst_noisy = 0.0, 0.0
    gate_errors = 0
    rng = np.random.default_rng(2024)
    for lam in lams:
        for mu in mus:
            clean = fit_singularity_orders(
                synthesize_singular_field(3.0, lam, mu, cone, n_samples=240, rng=rng)
            )
            err_clean = max(abs(clean.lam - lam) / max(lam, 0.05), abs(clean.mu - mu) / max(mu, 0.05))
            worst_clean = max(worst_clean, err_clean)
            noisy = fit_singularity_orders(
                synthesize_singular_field(3.0, lam, mu, cone, n_samples=960, noise=0.05, rng=rng)
            )
            err_noisy = max(abs(noisy.lam - lam) / max(lam, 0.05), abs(noisy.mu - mu) / max(mu, 0.05))
            worst_noisy = max(worst_noisy, err_noisy)
            verdict = ckn_gate(clean)
            truth_v = mu < 3.0 / 8.0 and lam < 3.0 / 4.0
            truth_g = mu < 1.0 / 2.0 and lam < 3.0 / 2.0 + 0.01
            if verdict.velocity_ok != truth_v or verdict.gradient_ok != truth_g:
                gate_errors += 1
    assert worst_clean <= 0.02
    assert worst_noisy <= 0.10
    assert gate_errors == 0
    flow = TaylorGreenFlow(nu=0.01, amplitude=1.0)
    control = fit_singularity_orders(sample_smooth_field(flow.velocity, cone, n_samples=240, rng=rng))
    assert control.lam <= 0.05 and control.mu <= 0.05
    report(
        6,
        f"12-case recovery: clean {worst_clean:.3f} (<=0.02), 5% noise {worst_noisy:.3f} (<=0.10), "
        f"gates 12/12, smooth control ({control.lam:.3f}, {control.mu:.3f}) <= 0.05",
    )


def test_criterion_7_rescale_audits():
    svals = np.linspace(0.0, S_MAX, 1000)
    for big_t in (0.5, 1.0, 2.0):
        p = RescaleParams(r=1.0 / 16, t0=big_t - 0.5, T=big_t)
        lower = 3 * np.sqrt(3) / (8 * (1 + big_t))
        margins = [mu_of_s(s, p).mu - lower for s in svals]
        assert min(margins) >= -1e-12
    p0 = RescaleParams(r=1.0 / 16, t0=0.0, T=1.0)
    s_half = float(s_of_t(0.5, p0))
    assert abs(s_half - 1.0 / np.sqrt(3.0)) <= 1e-14
    for delta in np.linspace(0.05, 0.95, 10):
        for eps0 in np.linspace(0.0, 0.4, 9):
            assert growth_exponent(delta, eps0) > 1.0
    grid = TorusGrid(2, 32)
    v0 = perturbed_taylor_green(grid, 1.0, eps=0.2)
    inc = increment_bound_check(v0, 0.05)
    assert inc.slope >= 1.2
    report(
        7,
        f"mu lower bounds hold for T in (0.5,1,2); s(t0+0.5) = 1/sqrt(3) to 1e-14; "
        f"alpha0 > 1 on the grid; increment slope {inc.slope:.2f} (>=1.2, predicted {inc.alpha0_predicted:.2f})",
    )


def test_criterion_8_reproducibility(tmp_path):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("[fitting]\nnoise = 0.05\nsamples = 150\nlambdas = 0.2 0.7\nmus = 0.1 0.3\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["fit-singularity", "--config", str(cfg), "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["fit-singularity", "--config", str(cfg), "--out", str(out_b), "--seed", "99"]) == 0
    rep_a = (out_a / "report.json").read_bytes()
    assert rep_a == (out_b / "report.json").read_bytes()
    grid = TorusGrid(2, 16)
    field = PhysicalField(grid, np.random.default_rng(1).standard_normal((2,) + grid.shape))
    p1, p2 = tmp_path / "s1.nslb", tmp_path / "s2.nslb"
    write_snapshot(p1, field, 0.125)
    back, t = read_snapshot(p1)
    write_snapshot(p2, back, t)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.values.tobytes() == field.values.tobytes()
    report(8, f"byte-identical reports ({len(rep_a)} bytes) and bit-exact snapshot round trips")
