"""Batch front door: `nslb <experiment> --config <path> [--out <dir>] [--seed <u64>]`.

Configs are flat INI files (section headers + key=value).  Every run writes
a deterministic report.json (sorted keys, no timestamps) plus experiment
CSV/snapshot artifacts; clock and environment metadata go to a separate
sidecar so identical config+seed reproduce byte-identical reports.

Exit codes: 0 all enabled assertions pass, 1 a named assertion failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import platform
import sys
import time as _time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cone import ConeSpec, BallGrid, CylinderSpec, dtau_dt, mu_coeffs, sample_w_function, t_of_tau, tau_of_t, transformed_residual
from .dynamics import SolverConfig, hopf_energy_check, simulate
from .flows import StreamFlow, TaylorGreenFlow, perturbed_taylor_green, random_divergence_free, taylor_green
from .kernels import KernelSpec, duhamel_residual, elliptic_integral_check, gaussian, kernel_bound_check
from .rescale import RescaleParams, growth_exponent, increment_bound_check, mu_of_s, r_policy, s_of_t
from .singularity import (
    MIN_SAMPLES,
    ckn_gate,
    fit_singularity_orders,
    sample_smooth_field,
    synthesize_singular_field,
)
from .snapshots import write_snapshot
from .spectral import TorusGrid, _hermitian_to_grid, divergence, sobolev_norm

EXPERIMENTS = {}


class ConfigError(Exception):
    pass


def _register(name):
    def deco(fn):
        EXPERIMENTS[name] = fn
        return fn

    return deco


def tagged(value, provenance):
    """Numeric constant with a provenance tag: paper-window, calibrated, measured."""
    if provenance not in ("paper-window", "calibrated", "measured"):
        raise ValueError(f"unknown provenance {provenance!r}")
    return {"value": value, "provenance": provenance}


class Config:
    """Typed access over a flat INI config with named-field diagnostics."""

    def __init__(self, path):
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (N vs n)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(str(exc))
        if not read:
            raise ConfigError(f"config file not found: {path}")
        self.parser = parser
        self.path = path

    def get(self, section, key, cast=str, default=None, required=False):
        try:
            raw = self.parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if required:
                raise ConfigError(f"missing required field [{section}] {key}")
            return default
        try:
            if cast is bool:
                return self.parser.getboolean(section, key)
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"field [{section}] {key} = {raw!r}: {exc}")

    def floats(self, section, key, default=None):
        """A whitespace- or comma-separated list; a present but empty field is an error."""
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            values = [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"field [{section}] {key}: {exc}")
        if not values:
            raise ConfigError(f"field [{section}] {key} is empty: give at least one value")
        return values


def _initial_field(cfg, grid, rng):
    kind = cfg.get("physics", "initial", default="taylor-green")
    amp = cfg.get("physics", "amplitude", float, default=1.0)
    if kind == "taylor-green":
        return taylor_green(grid, amplitude=amp)
    if kind == "perturbed-taylor-green":
        eps = cfg.get("physics", "perturbation", float, default=0.1)
        return perturbed_taylor_green(grid, amplitude=amp, eps=eps)
    if kind == "random":
        kmax = cfg.get("physics", "kmax", int, default=max(2, grid.N // 4))
        return random_divergence_free(grid, rng, kmax=kmax, rms=amp)
    raise ConfigError(f"field [physics] initial = {kind!r}: unknown initial condition")


@_register("simulate")
def run_simulate(cfg: Config, out: Path, rng):
    n = cfg.get("grid", "n", int, default=2)
    big_n = cfg.get("grid", "N", int, required=True)
    nu = cfg.get("physics", "nu", float, required=True)
    dt = cfg.get("physics", "dt", float, required=True)
    t_end = cfg.get("physics", "t_end", float, required=True)
    stride = cfg.get("physics", "snapshot_stride", int, default=1)
    write_snapshots = cfg.get("output", "snapshots", bool, default=False)
    grid = TorusGrid(n=n, N=big_n)
    v0 = _initial_field(cfg, grid, rng)
    solver = SolverConfig(nu=nu, dt=dt, t_end=t_end, snapshot_stride=stride)
    rows = []

    def observe(t, f):
        # simulate records exactly conjugate-symmetric fields
        if write_snapshots:
            write_snapshot(out / f"state_{len(rows):05d}.nslb", _hermitian_to_grid(f), t)
        rows.append(
            {
                "time": float(t),
                "divergence_max": float(np.max(np.abs(divergence(f).modes))),
                "sobolev_h1": sobolev_norm(f, 1.0),
                "sobolev_h2": sobolev_norm(f, 2.0),
            }
        )

    traj = simulate(v0, solver, observe)
    for row, e, g in zip(rows, traj.energies, traj.gradient_energies):
        row.update(energy=float(e), enstrophy=0.5 * g)
    csv_path = out / "timeseries.csv"
    _write_csv(csv_path, rows, ["time", "energy", "enstrophy", "divergence_max", "sobolev_h1", "sobolev_h2"])

    # The inequality holds up to the trapezoid error of the dissipation
    # integral; estimate that budget from the recorded series itself:
    # err <= (dt_rec^2 / 12) int |f''| with f = nu |grad v|^2.
    diss = np.array([2.0 * nu * r["enstrophy"] for r in rows])
    dt_rec = float(np.mean(np.diff(traj.times))) if traj.times.size > 1 else dt
    curvature = float(np.sum(np.abs(np.diff(diss, 2)))) / dt_rec if diss.size > 2 else 0.0
    hopf_tol = 4.0 * curvature * dt_rec**2 / 12.0 + 1e-10 * max(traj.energies[0], 1e-300)
    hopf = hopf_energy_check(traj, solver, tol=hopf_tol)
    energies = traj.energies
    monotone = bool(np.all(np.diff(energies) <= 1e-10 * max(energies[0], 1e-300)))
    div_ok = bool(max(r["divergence_max"] for r in rows) <= 1e-10)
    checks = {
        "energy_monotone": monotone,
        "divergence_below_1e-10": div_ok,
        "hopf_inequality": bool(hopf.passed),
        "completed": not traj.blew_up,
    }
    report = {
        "experiment": "simulate",
        "grid": {"n": n, "N": big_n},
        "solver": {
            "nu": nu,
            "dt": dt,
            "t_end": t_end,
            "integrator": "if_rk4",
            "stability_ratio": tagged(solver.stability_ratio(grid), "measured"),
        },
        "final_energy": tagged(float(energies[-1]), "measured"),
        "hopf_max_violation": tagged(hopf.max_violation, "measured"),
        "blow_up": traj.blew_up,
        "note": traj.note,
        "checks": checks,
    }
    return report


@_register("transform-check")
def run_transform_check(cfg: Config, out: Path, rng):
    t_s = cfg.get("cone", "t_s", float, default=1.0)
    t_1 = cfg.get("cone", "t_1", float, default=0.5)
    nu = cfg.get("physics", "nu", float, default=0.02)
    cone = ConeSpec(t_s=t_s, x_s=(0.1, -0.2), t_1=t_1)
    cyl = CylinderSpec.from_cone(cone)

    taus = np.logspace(-3, 3, 601)
    ident1 = float(np.max(np.abs(cone.t_s - t_of_tau(taus, cone) - cone.t_s / (1.0 + taus))))
    ts = t_of_tau(taus, cone)
    round_trip = float(np.max(np.abs(tau_of_t(ts, cone) - taus) / np.maximum(taus, 1e-300)))
    h_fd = 1e-6
    t_probe = np.linspace(0.0, t_s - 0.05, 101)
    fd = (tau_of_t(t_probe + h_fd, cone) - tau_of_t(t_probe - h_fd, cone)) / (2 * h_fd)
    analytic = dtau_dt(t_probe, cone)
    fd_err = float(np.max(np.abs(fd - analytic) / analytic))
    mu1_const = float(np.max(np.abs([mu_coeffs(t, cone).mu1 * (1 + t) - 1.0 for t in taus[::50]])))

    flow = TaylorGreenFlow(nu=nu, amplitude=1.0)
    shear = StreamFlow(k1=1, k2=2)
    tau0 = tau_of_t(0.5 * (t_1 + t_s), cone)
    div_norms = {}
    for m in (17, 33):
        ball = BallGrid(cone.n, 0.8 * cyl.r_0, m)
        w = sample_w_function(shear.velocity, cone, tau0, ball)
        div = w.divergence_fd()
        div_norms[m] = float(np.sqrt(np.mean(div[ball.interior] ** 2)))
    div_order = float(np.log2(div_norms[17] / div_norms[33]))

    res = {}
    for m in (17, 33):
        ball = BallGrid(cone.n, 0.8 * cyl.r_0, m)
        res[m] = transformed_residual(flow, cone, tau0, ball, dtau=ball.h).residual_l2
    res_ratio = float(res[17] / res[33])

    checks = {
        "cylinder_identity_1e-14": ident1 <= 1e-14,
        "bijection_1e-14": round_trip <= 1e-13,
        "dtau_dt_fd_1e-6": fd_err <= 1e-6,
        "mu1_times_1plustau_constant": mu1_const <= 1e-12,
        "incompressibility_order_ge_1.8": div_order >= 1.8,
        "residual_refinement_ge_3.5": res_ratio >= 3.5,
    }
    report = {
        "experiment": "transform-check",
        "cone": {"t_s": t_s, "t_1": t_1, "t_in": cyl.t_in, "r_0": cyl.r_0},
        "identity_max_error": tagged(ident1, "measured"),
        "round_trip_max_relative": tagged(round_trip, "measured"),
        "dtau_dt_fd_relative": tagged(fd_err, "measured"),
        "divergence_l2_by_resolution": {str(k): tagged(v, "measured") for k, v in div_norms.items()},
        "divergence_order": tagged(div_order, "measured"),
        "residual_l2_by_resolution": {str(k): tagged(v, "measured") for k, v in res.items()},
        "residual_refinement_ratio": tagged(res_ratio, "measured"),
        "checks": checks,
    }
    return report


@_register("fit-singularity")
def run_fit_singularity(cfg: Config, out: Path, rng):
    noise = cfg.get("fitting", "noise", float, default=0.0)
    n_samples = cfg.get("fitting", "samples", int, default=240)
    if n_samples < MIN_SAMPLES:
        raise ConfigError(f"field [fitting] samples = {n_samples}: need at least {MIN_SAMPLES}")
    tol = cfg.get("fitting", "tolerance", float, default=0.02 if noise == 0 else 0.10)
    lams = cfg.floats("fitting", "lambdas", default=[0.2, 0.7, 1.4])
    mus = cfg.floats("fitting", "mus", default=[0.1, 0.3, 0.45, 0.0])
    cone = ConeSpec(t_s=0.6, x_s=(0.15, 0.05), t_1=0.3)

    cases = []
    ok = True
    for lam in lams:
        for mu in mus:
            samples = synthesize_singular_field(3.0, lam, mu, cone, n_samples=n_samples, noise=noise, rng=rng)
            fit = fit_singularity_orders(samples)
            lam_err = abs(fit.lam - lam) / max(lam, 0.05)
            mu_err = abs(fit.mu - mu) / max(mu, 0.05)
            verdict = ckn_gate(fit, "velocity")
            truth_velocity = mu < 3.0 / 8.0 and lam < 3.0 / 4.0
            case_ok = lam_err <= tol and mu_err <= tol and verdict.velocity_ok == truth_velocity
            ok = ok and case_ok
            cases.append(
                {
                    "lambda_true": lam,
                    "mu_true": mu,
                    "lambda_fit": tagged(fit.lam, "measured"),
                    "mu_fit": tagged(fit.mu, "measured"),
                    "amplitude_fit": tagged(fit.c, "measured"),
                    "residual": tagged(fit.residual, "measured"),
                    "velocity_gate": verdict.velocity_ok,
                    "gradient_gate": verdict.gradient_ok,
                    "within_tolerance": case_ok,
                }
            )

    flow = TaylorGreenFlow(nu=0.01, amplitude=1.0)
    smooth = sample_smooth_field(flow.velocity, cone, n_samples=n_samples, rng=rng)
    smooth_fit = fit_singularity_orders(smooth)
    smooth_ok = smooth_fit.lam <= 0.05 and smooth_fit.mu <= 0.05
    ok = ok and smooth_ok

    report = {
        "experiment": "fit-singularity",
        "noise": noise,
        "tolerance": tol,
        "gates": {
            "velocity_mu_limit": tagged(3.0 / 8.0, "paper-window"),
            "velocity_lambda_limit": tagged(3.0 / 4.0, "paper-window"),
            "gradient_mu_limit": tagged(0.5, "paper-window"),
            "gradient_lambda_limit": tagged(1.5, "paper-window"),
        },
        "cases": cases,
        "smooth_control": {
            "lambda_fit": tagged(smooth_fit.lam, "measured"),
            "mu_fit": tagged(smooth_fit.mu, "measured"),
            "within_0.05": smooth_ok,
        },
        "checks": {"all_cases": ok},
    }
    return report


@_register("verify-kernels")
def run_verify_kernels(cfg: Config, out: Path, rng):
    n = cfg.get("grid", "n", int, default=3)
    deltas = cfg.floats("kernels", "deltas", default=[0.25, 0.5, 0.75, 0.9])
    nus = cfg.floats("kernels", "nus", default=[0.01, 0.1, 1.0])
    if len(set(nus)) < 2:
        # the spread over one diffusivity is 0: the invariance check would pass vacuously
        raise ConfigError(f"field [kernels] nus = {nus}: need at least two distinct diffusivities")
    results = []
    ok = True
    for delta in deltas:
        per_nu = {}
        for nu in nus:
            for kind in ("kernel", "derivative"):
                rep = kernel_bound_check(delta, KernelSpec(nu_eff=nu, n=n), kind=kind)
                per_nu.setdefault(kind, []).append(rep)
                ok = ok and rep.passed
        for kind, reps in per_nu.items():
            observed = [r.c_observed for r in reps]
            spread = (max(observed) - min(observed)) / max(observed)
            ok = ok and spread <= 1e-9
            results.append(
                {
                    "delta": delta,
                    "kind": kind,
                    "c_observed": tagged(max(observed), "measured"),
                    "c_predicted": tagged(reps[0].c_predicted, "calibrated"),
                    "nu_spread": tagged(spread, "measured"),
                    "passed": all(r.passed for r in reps),
                }
            )
    # kernel mass sanity at one diffusivity
    spec = KernelSpec(nu_eff=nus[0], n=2)
    width = 8 * np.sqrt(2 * spec.nu_eff * 0.3)
    ax = (np.arange(256) + 0.5) / 256 * 2 * width - width
    xg, yg = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xg.reshape(-1), yg.reshape(-1)], axis=-1)
    mass = float(np.sum(gaussian(0.3, pts, spec)) * (2 * width / 256) ** 2)
    mass_ok = abs(mass - 1.0) <= 1e-8
    elliptic = elliptic_integral_check(2.0, 0.5, 1.0, [0.05, 0.1, 0.2, 0.3, 0.5, 1.0])
    elliptic_ok = (
        elliptic.bound_holds
        and abs(elliptic.small_x_slope - elliptic.predicted_slope) <= 0.15 * abs(elliptic.predicted_slope)
    )
    ok = ok and mass_ok and elliptic_ok
    report = {
        "experiment": "verify-kernels",
        "dimension": n,
        "bounds": results,
        "kernel_mass": tagged(mass, "measured"),
        "elliptic_integral": {
            "a": elliptic.a,
            "b": elliptic.b,
            "small_x_slope": tagged(elliptic.small_x_slope, "measured"),
            "predicted_slope": tagged(elliptic.predicted_slope, "paper-window"),
            "calibrated_c": tagged(elliptic.calibrated_c, "calibrated"),
        },
        "checks": {"all_bounds": ok, "mass_1e-8": mass_ok, "elliptic_slope_15pct": elliptic_ok},
    }
    return report


@_register("rescale-audit")
def run_rescale_audit(cfg: Config, out: Path, rng):
    horizons = cfg.floats("rescale", "horizons", default=[0.5, 1.0, 2.0])
    sweeps = cfg.get("rescale", "sweep_points", int, default=1000)
    if sweeps < 2:
        raise ConfigError(f"field [rescale] sweep_points = {sweeps}: need at least 2, the two ends of the sweep")
    mu_audits = []
    for big_t in horizons:
        params = RescaleParams(r=1.0 / 16, t0=big_t - 0.5, T=big_t)
        svals = np.linspace(0.0, 1.0 / np.sqrt(3.0), sweeps)
        audits = [mu_of_s(s, params) for s in svals]
        worst = min(a.mu - a.lower_bound for a in audits)
        bound_ok = worst >= -1e-12
        upper_ok = all(a.bounds_hold for a in audits[:: max(1, sweeps // 100)])
        mu_audits.append(
            {
                "T": big_t,
                "lower_bound": tagged(3 * np.sqrt(3) / (8 * (1 + big_t)), "paper-window"),
                "min_margin": tagged(float(worst), "measured"),
                "bounds_hold": bound_ok and upper_ok,
            }
        )
    params = RescaleParams(r=1.0 / 16, t0=0.0, T=1.0)
    s_half = float(s_of_t(0.5, params))
    smap_ok = abs(s_half - 1.0 / np.sqrt(3.0)) <= 1e-14

    alpha_grid_ok = True
    for delta in np.linspace(0.05, 0.95, 10):
        for eps0 in np.linspace(0.0, 0.4, 9):
            alpha_grid_ok = alpha_grid_ok and growth_exponent(delta, eps0) > 1.0

    big_n = cfg.get("grid", "N", int, default=32)
    nu = cfg.get("physics", "nu", float, default=0.05)
    grid = TorusGrid(n=2, N=big_n)
    v0 = perturbed_taylor_green(grid, amplitude=1.0, eps=0.2)
    inc = increment_bound_check(v0, nu, params)

    report = {
        "experiment": "rescale-audit",
        "mu_audits": mu_audits,
        "s_of_half_window": tagged(s_half, "measured"),
        "r_policy_default": tagged(r_policy(params), "calibrated"),
        "alpha0_grid_all_above_1": alpha_grid_ok,
        "increment": {
            "deltas": list(map(float, inc.deltas)),
            "norms": [tagged(float(x), "measured") for x in inc.increment_norms],
            "slope": tagged(inc.slope, "measured"),
            "alpha0_predicted": tagged(inc.alpha0_predicted, "calibrated"),
            "passed": inc.passed,
        },
        "checks": {
            "mu_lower_bounds": all(a["bounds_hold"] for a in mu_audits),
            "s_map_1e-14": smap_ok,
            "alpha0_grid": alpha_grid_ok,
            "increment_slope_ge_1.2": inc.passed,
        },
    }
    return report


@_register("duhamel-residual")
def run_duhamel(cfg: Config, out: Path, rng):
    nu_eff = cfg.get("kernels", "nu_eff", float, default=0.5)
    resolutions = cfg.floats("kernels", "resolutions", default=[17, 25, 33])
    if not all(float(x).is_integer() for x in resolutions):
        raise ConfigError(f"field [kernels] resolutions = {resolutions}: resolutions must be whole numbers")
    resolutions = [int(x) for x in resolutions]
    if len(resolutions) < 2 or any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        # the checks read the residuals as a refinement ladder, and the forced
        # order is a slope between the first and last resolution
        raise ConfigError(f"field [kernels] resolutions = {resolutions}: need at least two, in increasing order")
    spec = KernelSpec(nu_eff=nu_eff, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    horizon = 0.05
    probes = [[0.0, 0.0], [0.25, 0.0], [0.0, -0.25]]  # grid nodes at every resolution used

    heat = heat_bump_solution(cyl, nu_eff, sigma0=cyl.r_0 / 6.0)
    forced, forced_source = forced_bump_solution(cyl, nu_eff, sigma0=cyl.r_0 / 4.5)

    def ladder(m, state, source=None):
        ball = BallGrid(2, cyl.r_0, m)
        m_t = max(4, m // 4)
        ds = horizon / m_t
        snaps = [(cyl.t_in, (ball, state(cyl.t_in, ball)))]
        sources = [] if source else None
        for k in range(m_t):
            s = cyl.t_in + (k + 0.5) * ds
            snaps.append((s, (ball, state(s, ball))))
            if source:
                sources.append(source(s, ball))
        snaps.append((cyl.t_in + horizon, (ball, state(cyl.t_in + horizon, ball))))
        return duhamel_residual(snaps, sources, cyl, spec, probes=probes)

    heat_res = [ladder(m, heat).residual_max for m in resolutions]
    forced_res = [ladder(m, forced, forced_source).residual_max for m in resolutions]
    heat_ok = heat_res[-1] <= 1e-4 and all(
        heat_res[i + 1] <= heat_res[i] or heat_res[i + 1] <= 1e-6 for i in range(len(heat_res) - 1)
    )
    forced_dec = all(f2 < f1 for f1, f2 in zip(forced_res, forced_res[1:]))
    order = float(np.log(forced_res[0] / forced_res[-1]) / np.log(resolutions[-1] / resolutions[0]))
    report = {
        "experiment": "duhamel-residual",
        "nu_eff": nu_eff,
        "resolutions": resolutions,
        "pure_heat_residual_max": [tagged(float(r), "measured") for r in heat_res],
        "forced_residual_max": [tagged(float(r), "measured") for r in forced_res],
        "forced_order": tagged(order, "measured"),
        "checks": {
            "pure_heat_le_1e-4": heat_res[-1] <= 1e-4,
            "pure_heat_refinement": heat_ok,
            "forced_order_ge_1.5": forced_dec and order >= 1.5,
        },
    }
    return report


def heat_bump_solution(cyl: CylinderSpec, nu_eff, sigma0):
    """Free heat evolution of a Gaussian bump supported well inside the base."""

    def state(s, ball):
        pts = ball.points("mask")
        var = sigma0**2 + 2 * nu_eff * (s - cyl.t_in)
        vals = np.zeros(ball.mask.shape)
        vals[ball.mask] = (sigma0**2 / var) * np.exp(-np.sum(pts**2, axis=-1) / (2 * var))
        return vals

    return state


def forced_bump_solution(cyl: CylinderSpec, nu_eff, sigma0):
    """Separable manufactured solution w = g(s) phi(z) with its forcing
    g' phi - nu_eff g Lap phi; phi is a Gaussian bump."""
    rate = 3.0

    def phi(pts):
        return np.exp(-np.sum(pts**2, axis=-1) / (2 * sigma0**2))

    def lap_phi(pts):
        r_sq = np.sum(pts**2, axis=-1)
        return (r_sq / sigma0**4 - 2.0 / sigma0**2) * np.exp(-r_sq / (2 * sigma0**2))

    def g(s):
        return np.exp(-rate * (s - cyl.t_in))

    def state(s, ball):
        vals = np.zeros(ball.mask.shape)
        vals[ball.mask] = g(s) * phi(ball.points("mask"))
        return vals

    def source(s, ball):
        vals = np.zeros(ball.mask.shape)
        pts = ball.points("mask")
        vals[ball.mask] = -rate * g(s) * phi(pts) - nu_eff * g(s) * lap_phi(pts)
        return vals

    return state, source


def _write_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, (float, np.floating)) else v for k, v in row.items()})


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _environment():
    """Interpreter and library versions, and the public scipy subpackages
    loaded so far: an import regression shows up here without a profiler."""
    subpackages = [
        name
        for name, mod in list(sys.modules.items())
        if name.startswith("scipy.") and name.count(".") == 1 and not name.startswith("scipy._") and hasattr(mod, "__path__")
    ]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scipy_subpackages": sorted(subpackages),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="nslb", description="Navier-Stokes laboratory batch runner")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="flat INI config file")
    parser.add_argument("--out", default=None, help="output directory (default: alongside the config)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    args = parser.parse_args(argv)

    try:
        cfg = Config(args.config)
        named = cfg.get("experiment", "name")
        if named is not None and named != args.experiment:
            raise ConfigError(f"field [experiment] name = {named!r} does not match the experiment {args.experiment!r}")
        out = Path(args.out) if args.out else Path(args.config).resolve().parent / "out"
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(args.seed)
        started = _time.time()
        report = EXPERIMENTS[args.experiment](cfg, out, rng)
    except ConfigError as exc:
        print(f"nslb: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"nslb: config error: {exc}", file=sys.stderr)
        return 2

    report["seed"] = args.seed
    report["version"] = __version__
    report_path = out / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")
    with open(out / "report.meta.json", "w") as fh:
        json.dump(
            {
                "wall_seconds": _time.time() - started,
                "timestamp": _time.time(),
                "nslb_threads": os.environ.get("NSLB_THREADS"),
                "environment": _environment(),
            },
            fh,
            indent=2,
        )

    failing = [k for k, v in report["checks"].items() if not v]
    if failing:
        print(f"nslb: assertion failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"nslb: {args.experiment} ok -> {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
