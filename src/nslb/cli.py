"""Batch front door: `nslb <experiment> --config <path> [--out <dir>] [--seed <u64>]`.

Configs are flat INI files (section headers + key=value), checked whole
against the experiment's key table before anything is written.  Every run
writes a deterministic report.json (sorted keys, no timestamps) plus
experiment CSV/snapshot artifacts; clock and environment metadata go to a
separate sidecar so identical config+seed reproduce byte-identical reports.

Exit codes: 0 all enabled assertions pass, 1 a named assertion failed or
the run raised, 2 configuration error (nothing written).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import platform
import resource
import sys
import time as _time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.random  # numpy 2 imports it on first attribute use, which would fall inside a run

from . import __version__
from ._compiled import KERNEL_FILES, SCIPY_VERSION
from .cone import ConeSpec, BallGrid, CylinderSpec, dtau_dt, mu_coeffs, sample_w_function, t_of_tau, tau_of_t, transformed_residual
from .dynamics import SolverConfig, hopf_energy_check, simulate
from .flows import StreamFlow, TaylorGreenFlow, perturbed_taylor_green, random_divergence_free, taylor_green
from .kernels import KernelSpec, _gaussian_sq, duhamel_residual, elliptic_integral_check, kernel_bound_check
from .rescale import S_MAX, RescaleParams, growth_exponent, increment_bound_check, mu_of_s, r_policy, s_of_t
from .singularity import GRADIENT_LAMBDA_LIMIT, GRADIENT_MU_LIMIT, MIN_SAMPLES, VELOCITY_LAMBDA_LIMIT, VELOCITY_MU_LIMIT, ckn_gate
from .singularity import fit_singularity_orders, sample_smooth_field, synthesize_singular_field
from .snapshots import write_snapshot
from .spectral import TorusGrid, divergence, sobolev_norm, to_grid

EXPERIMENTS = {}  # name -> run(p, out), p the checked parameters
SCHEMAS = {}  # name -> (key table, builds), checked by _load
DUHAMEL_CYLINDER = CylinderSpec(t_in=1.0, r_0=0.5)


class ConfigError(Exception):
    pass


def _boolean(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("not a boolean: use 1/yes/true/on or 0/no/false/off") from None


def _finite(raw):
    """A finite float: "nan" and "inf" parse as floats, but no key means them."""
    if not np.isfinite(value := float(raw)):
        raise ValueError("not a finite number")
    return value


def _list(raw, cast=_finite):
    """A whitespace- or comma-separated list of at least one value."""
    values = [cast(tok) for tok in raw.replace(",", " ").split()]
    if not values:
        raise ValueError("empty: give at least one value")
    return values


def _register(name, keys, **builds):
    """Declare an experiment by its key table ((section, key) -> (parse, default or ... if required
    [, bound, reason])) and the library objects built from the checked values (attribute ->
    (make(p), names of the keys make reads)); every table shares the [experiment] name row."""
    named = (str, name, lambda v: v == name, f"does not match the experiment {name!r}")

    def deco(fn):
        EXPERIMENTS[name] = fn
        SCHEMAS[name] = ({("experiment", "name"): named, **keys}, builds)
        return fn

    return deco


def _load(path, experiment, rng):
    """Check the whole config against the experiment's table, then build its library objects;
    return values, objects and ``rng`` as attributes.  ConfigError names every field at fault."""
    keys, builds = SCHEMAS[experiment]
    # no header matches "", so a [DEFAULT] section is an ordinary, unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
    except (configparser.Error, ValueError) as exc:  # ValueError: undecodable bytes
        raise ConfigError(str(exc)) from None
    p, faults = SimpleNamespace(rng=rng), []
    for (section, key), (parse, default, *bound) in keys.items():
        raw = parser.get(section, key, fallback=None)
        if raw is None and default is ...:
            faults.append(f"missing required field [{section}] {key}")
            continue
        try:
            value = default if raw is None else parse(raw)
            if bound and not bound[0](value):
                raise ValueError(bound[1])
            setattr(p, key, value)
        except ValueError as exc:
            faults.append(f"[{section}] {key} = {raw!r}: {exc}")
    for section in parser.sections():
        if not parser.options(section) and all(section != s for s, _ in keys):
            faults.append(f"unknown section [{section}]")
        faults += [f"unknown key [{section}] {key}" for key in parser.options(section) if (section, key) not in keys]
    if faults:
        raise ConfigError(f"{experiment}: " + "; ".join(faults))
    for attr, (make, *reads) in builds.items():
        try:
            setattr(p, attr, make(p))
        except ValueError as exc:
            raise ConfigError(f"{experiment}: {', '.join(f'[{s}] {k}' for s, k in keys if k in reads)}: {exc}") from None
    return p


def tagged(value, provenance):
    """Numeric constant with a provenance tag: paper-window, calibrated, measured."""
    if provenance not in ("paper-window", "calibrated", "measured"):
        raise ValueError(f"unknown provenance {provenance!r}")
    return {"value": value, "provenance": provenance}


def _initial_field(p):
    if p.initial == "random":
        return random_divergence_free(p.grid, p.rng, rms=p.amplitude)
    return taylor_green(p.grid, amplitude=p.amplitude)


@_register(
    "simulate",
    {
        ("grid", "n"): (int, 2),
        ("grid", "N"): (int, ...),
        ("physics", "initial"): (str, "taylor-green", lambda v: v in ("taylor-green", "random"), "must be taylor-green or random"),
        ("physics", "amplitude"): (_finite, 1.0, lambda x: x != 0, "must be nonzero: a zero field passes every check vacuously"),
        ("physics", "nu"): (_finite, ...),
        ("physics", "dt"): (_finite, ...),
        ("physics", "t_end"): (_finite, ...),
        ("physics", "snapshot_stride"): (int, 1),
        ("output", "snapshots"): (_boolean, False),
    },
    grid=(lambda p: TorusGrid(n=p.n, N=p.N), "n", "N"),
    solver=(lambda p: SolverConfig(p.nu, p.dt, p.t_end, p.snapshot_stride), "nu", "dt", "t_end", "snapshot_stride"),
    v0=(_initial_field, "initial", "n"),
)
def run_simulate(p, out: Path):
    rows = []

    def observe(t, f):
        if p.snapshots:
            write_snapshot(out / f"state_{len(rows):05d}.nslb", to_grid(f), t)
        rows.append(
            {
                "time": float(t),
                "divergence_max": float(np.max(np.abs(divergence(f).modes))),
                "sobolev_h1": sobolev_norm(f, 1.0),
                "sobolev_h2": sobolev_norm(f, 2.0),
            }
        )

    traj = simulate(p.v0, p.solver, observe)
    for row, e, g in zip(rows, traj.energies, traj.gradient_energies):
        row.update(energy=float(e), enstrophy=0.5 * g)
    _write_csv(out / "timeseries.csv", rows, ["time", "energy", "enstrophy", "divergence_max", "sobolev_h1", "sobolev_h2"])

    # The inequality holds up to the trapezoid error of the dissipation
    # integral; estimate that budget from the recorded series itself:
    # err <= (dt_rec^2 / 12) int |f''| with f = nu |grad v|^2.
    diss = np.array([2.0 * p.nu * r["enstrophy"] for r in rows])
    dt_rec = float(np.mean(np.diff(traj.times))) if traj.times.size > 1 else p.dt
    curvature = float(np.sum(np.abs(np.diff(diss, 2)))) / dt_rec if diss.size > 2 else 0.0
    hopf_tol = 4.0 * curvature * dt_rec**2 / 12.0 + 1e-10 * max(traj.energies[0], 1e-300)
    hopf = hopf_energy_check(traj, p.solver, tol=hopf_tol)
    monotone = bool(np.all(np.diff(traj.energies) <= 1e-10 * max(traj.energies[0], 1e-300)))
    div_ok = bool(max(r["divergence_max"] for r in rows) <= 1e-10)
    return {
        "grid": {"n": p.n, "N": p.N},
        "solver": {
            "nu": p.nu,
            "dt": p.dt,
            "t_end": p.t_end,
            "integrator": "if_rk4",
            "stability_ratio": tagged(p.solver.stability_ratio(p.grid), "measured"),
        },
        "final_energy": tagged(float(traj.energies[-1]), "measured"),
        "hopf_max_violation": tagged(hopf.max_violation, "measured"),
        "blow_up": traj.blew_up,
        "note": traj.note,
        "checks": {
            "energy_monotone": monotone,
            "divergence_below_1e-10": div_ok,
            "hopf_inequality": bool(hopf.passed),
            "completed": not traj.blew_up,
        },
    }


@_register(
    "transform-check",
    {
        ("cone", "t_s"): (_finite, 1.0),
        ("cone", "t_1"): (_finite, 0.5),
        ("physics", "nu"): (_finite, 0.02, lambda x: x > 0, "must be positive"),
    },
    cone=(lambda p: ConeSpec(t_s=p.t_s, x_s=(0.1, -0.2), t_1=p.t_1), "t_s", "t_1"),
)
def run_transform_check(p, out: Path):
    cone = p.cone
    cyl = CylinderSpec.from_cone(cone)

    taus = np.logspace(-3, 3, 601)
    ident1 = float(np.max(np.abs(cone.t_s - t_of_tau(taus, cone) - cone.t_s / (1.0 + taus))))
    ts = t_of_tau(taus, cone)
    round_trip = float(np.max(np.abs(tau_of_t(ts, cone) - taus) / np.maximum(taus, 1e-300)))
    h_fd = 1e-6
    t_probe = np.linspace(0.0, p.t_s - 0.05, 101)
    fd = (tau_of_t(t_probe + h_fd, cone) - tau_of_t(t_probe - h_fd, cone)) / (2 * h_fd)
    analytic = dtau_dt(t_probe, cone)
    fd_err = float(np.max(np.abs(fd - analytic) / analytic))
    mu1_const = float(np.max(np.abs(mu_coeffs(taus, cone).mu1 * (1 + taus) - 1.0)))

    flow = TaylorGreenFlow(nu=p.nu, amplitude=1.0)
    shear = StreamFlow()
    tau0 = tau_of_t(0.5 * (p.t_1 + p.t_s), cone)
    div_norms, res = {}, {}
    for m in (17, 33):
        ball = BallGrid(cone.n, 0.8 * cyl.r_0, m)
        div = ball.divergence(sample_w_function(shear.velocity, cone, tau0, ball))
        div_norms[m] = float(np.sqrt(np.mean(div[ball.interior] ** 2)))
        # tau0 - dtau must stay >= 0; the committed cone has h < tau0 / 2
        res[m] = transformed_residual(flow, cone, tau0, ball, dtau=min(ball.h, tau0 / 2)).residual_l2
    div_order = float(np.log2(div_norms[17] / div_norms[33]))
    res_ratio = float(res[17] / res[33])

    return {
        "cone": {"t_s": p.t_s, "t_1": p.t_1, "t_in": cyl.t_in, "r_0": cyl.r_0},
        "identity_max_error": tagged(ident1, "measured"),
        "round_trip_max_relative": tagged(round_trip, "measured"),
        "dtau_dt_fd_relative": tagged(fd_err, "measured"),
        "divergence_l2_by_resolution": {str(k): tagged(v, "measured") for k, v in div_norms.items()},
        "divergence_order": tagged(div_order, "measured"),
        "residual_l2_by_resolution": {str(k): tagged(v, "measured") for k, v in res.items()},
        "residual_refinement_ratio": tagged(res_ratio, "measured"),
        "checks": {
            "cylinder_identity_1e-14": ident1 <= 1e-14,
            "bijection_1e-14": round_trip <= 1e-13,
            "dtau_dt_fd_1e-6": fd_err <= 1e-6,
            "mu1_times_1plustau_constant": mu1_const <= 1e-12,
            "incompressibility_order_ge_1.8": div_order >= 1.8,
            "residual_refinement_ge_3.5": res_ratio >= 3.5,
        },
    }


@_register(
    "fit-singularity",
    {
        ("fitting", "noise"): (_finite, 0.0, lambda x: x >= 0, "must be >= 0"),
        ("fitting", "samples"): (int, 240, lambda k: k >= MIN_SAMPLES, f"need at least {MIN_SAMPLES}"),
        ("fitting", "tolerance"): (_finite, None, lambda x: x is None or x > 0, "must be positive"),
        ("fitting", "lambdas"): (_list, (0.2, 0.7, 1.4), lambda xs: all(x >= 0 for x in xs), "must be >= 0"),
        ("fitting", "mus"): (_list, (0.1, 0.3, 0.45, 0.0), lambda xs: all(x >= 0 for x in xs), "must be >= 0"),
    },
)
def run_fit_singularity(p, out: Path):
    tol = p.tolerance if p.tolerance is not None else 0.02 if p.noise == 0 else 0.10
    cone = ConeSpec(t_s=0.6, x_s=(0.15, 0.05), t_1=0.3)

    cases = []
    ok = True
    for lam in p.lambdas:
        for mu in p.mus:
            samples = synthesize_singular_field(3.0, lam, mu, cone, n_samples=p.samples, noise=p.noise, rng=p.rng)
            fit = fit_singularity_orders(samples)
            lam_err = abs(fit.lam - lam) / max(lam, 0.05)
            mu_err = abs(fit.mu - mu) / max(mu, 0.05)
            verdict = ckn_gate(fit)
            truth_velocity = mu < VELOCITY_MU_LIMIT and lam < VELOCITY_LAMBDA_LIMIT
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
    smooth = sample_smooth_field(flow.velocity, cone, n_samples=p.samples, rng=p.rng)
    smooth_fit = fit_singularity_orders(smooth)
    smooth_ok = smooth_fit.lam <= 0.05 and smooth_fit.mu <= 0.05
    ok = ok and smooth_ok

    return {
        "noise": p.noise,
        "tolerance": tol,
        "gates": {
            "velocity_mu_limit": tagged(VELOCITY_MU_LIMIT, "paper-window"),
            "velocity_lambda_limit": tagged(VELOCITY_LAMBDA_LIMIT, "paper-window"),
            "gradient_mu_limit": tagged(GRADIENT_MU_LIMIT, "paper-window"),
            "gradient_lambda_limit": tagged(GRADIENT_LAMBDA_LIMIT, "paper-window"),
        },
        "cases": cases,
        "smooth_control": {
            "lambda_fit": tagged(smooth_fit.lam, "measured"),
            "mu_fit": tagged(smooth_fit.mu, "measured"),
            "within_0.05": smooth_ok,
        },
        "checks": {"all_cases": ok},
    }


@_register(
    "verify-kernels",
    {
        ("grid", "n"): (int, 3, lambda n: n in (2, 3), "must be 2 or 3: the kernel bound needs every delta < n/2"),
        ("kernels", "deltas"): (_list, (0.25, 0.5, 0.75, 0.9), lambda ds: all(0 < d < 1 for d in ds), "must lie in (0, 1)"),
        ("kernels", "nus"): (_list, (0.01, 0.1, 1.0), lambda nus: len(set(nus)) > 1, "need two distinct: one has spread 0"),
    },
    specs=(lambda p: [KernelSpec(nu_eff=nu, n=p.n) for nu in p.nus], "n", "nus"),
)
def run_verify_kernels(p, out: Path):
    results = []
    ok = True
    for delta in p.deltas:
        per_nu = {}
        for spec in p.specs:
            for kind in ("kernel", "derivative"):
                rep = kernel_bound_check(delta, spec, kind=kind)
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
    spec = KernelSpec(nu_eff=p.nus[0], n=2)
    width = 8 * np.sqrt(2 * spec.nu_eff * 0.3)
    ax = (np.arange(256) + 0.5) / 256 * 2 * width - width
    # |y|^2 on the 256 x 256 midpoint grid, row-major as a meshgrid's points
    r_sq = np.add.outer(ax * ax, ax * ax).reshape(-1)
    mass = float(np.sum(_gaussian_sq(0.3, r_sq, spec)) * (2 * width / 256) ** 2)
    mass_ok = abs(mass - 1.0) <= 1e-8
    elliptic = elliptic_integral_check(2.0, 0.5, 1.0, [0.05, 0.1, 0.2, 0.3, 0.5, 1.0])
    elliptic_ok = (
        elliptic.bound_holds
        and abs(elliptic.small_x_slope - elliptic.predicted_slope) <= 0.15 * abs(elliptic.predicted_slope)
    )
    return {
        "dimension": p.n,
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


@_register(
    "rescale-audit",
    {
        # the audited window [T - 0.5, T] must not start before t = 0
        ("rescale", "horizons"): (_list, (0.5, 1.0, 2.0), lambda ts: all(t >= 0.5 for t in ts), "must be >= 0.5"),
        ("rescale", "sweep_points"): (int, 1000, lambda k: k >= 2, "need at least 2, the two ends of the sweep"),
        ("grid", "N"): (int, 32),
        ("physics", "nu"): (_finite, 0.05, lambda x: x > 0, "must be positive"),
    },
    grid=(lambda p: TorusGrid(n=2, N=p.N), "N"),
)
def run_rescale_audit(p, out: Path):
    mu_audits = []
    for big_t in p.horizons:
        params = RescaleParams(r=1.0 / 16, t0=big_t - 0.5, T=big_t)
        audit = mu_of_s(np.linspace(0.0, S_MAX, p.sweep_points), params)
        mu_audits.append(
            {
                "T": big_t,
                "lower_bound": tagged(audit.lower_bound, "paper-window"),
                "min_margin": tagged(float(np.min(audit.mu - audit.lower_bound)), "measured"),
                "bounds_hold": audit.bounds_hold,
            }
        )
    params = RescaleParams(r=1.0 / 16, t0=0.0, T=1.0)
    s_half = float(s_of_t(0.5, params))
    smap_ok = abs(s_half - S_MAX) <= 1e-14

    deltas, eps0s = np.meshgrid(np.linspace(0.05, 0.95, 10), np.linspace(0.0, 0.4, 9))
    alpha_grid_ok = bool(np.all(growth_exponent(deltas, eps0s) > 1.0))

    v0 = perturbed_taylor_green(p.grid, amplitude=1.0, eps=0.2)
    inc = increment_bound_check(v0, p.nu)

    return {
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


@_register(
    "duhamel-residual",
    {
        ("kernels", "nu_eff"): (_finite, 0.5),
        ("kernels", "resolutions"): (
            lambda raw: _list(raw, int),
            (17, 25, 33),
            lambda ms: len(ms) > 1 and sorted(set(ms)) == list(ms),
            "need two or more, increasing: a refinement ladder, with the forced order a slope from the first to the last",
        ),
    },
    spec=(lambda p: KernelSpec(nu_eff=p.nu_eff, n=2), "nu_eff"),
    balls=(lambda p: [BallGrid(2, DUHAMEL_CYLINDER.r_0, m) for m in p.resolutions], "resolutions"),
)
def run_duhamel(p, out: Path):
    nu_eff, resolutions, cyl = p.nu_eff, p.resolutions, DUHAMEL_CYLINDER
    horizon = 0.05
    probes = [[0.0, 0.0], [0.25, 0.0], [0.0, -0.25]]

    heat = heat_bump_solution(cyl, nu_eff, sigma0=cyl.r_0 / 6.0)
    forced, forced_source = forced_bump_solution(cyl, nu_eff, sigma0=cyl.r_0 / 4.5)

    def residual_max(state, source, ball):
        m_t = max(4, ball.m // 4)
        return duhamel_residual(state, source, cyl, p.spec, cyl.t_in + horizon, ball.m, m_t, probes)

    heat_res = [residual_max(heat, None, ball) for ball in p.balls]
    forced_res = [residual_max(forced, forced_source, ball) for ball in p.balls]
    heat_ok = heat_res[-1] <= 1e-4 and all(
        heat_res[i + 1] <= heat_res[i] or heat_res[i + 1] <= 1e-6 for i in range(len(heat_res) - 1)
    )
    forced_dec = all(f2 < f1 for f1, f2 in zip(forced_res, forced_res[1:]))
    order = float(np.log(forced_res[0] / forced_res[-1]) / np.log(resolutions[-1] / resolutions[0]))
    return {
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


def heat_bump_solution(cyl: CylinderSpec, nu_eff, sigma0):
    """Free heat evolution (s, points) -> values of a Gaussian bump well inside the base."""

    def state(s, points):
        var = sigma0**2 + 2 * nu_eff * (s - cyl.t_in)
        return (sigma0**2 / var) * np.exp(-np.sum(points**2, axis=-1) / (2 * var))

    return state


def forced_bump_solution(cyl: CylinderSpec, nu_eff, sigma0):
    """Separable manufactured solution w = g(s) phi(z) with its forcing
    g' phi - nu_eff g Lap phi, as callables (s, points) -> values; phi is a
    Gaussian bump."""
    rate = 3.0

    def phi(pts):
        return np.exp(-np.sum(pts**2, axis=-1) / (2 * sigma0**2))

    def lap_phi(pts):
        r_sq = np.sum(pts**2, axis=-1)
        return (r_sq / sigma0**4 - 2.0 / sigma0**2) * np.exp(-r_sq / (2 * sigma0**2))

    def g(s):
        return np.exp(-rate * (s - cyl.t_in))

    def state(s, points):
        return g(s) * phi(points)

    def source(s, points):
        return -rate * g(s) * phi(points) - nu_eff * g(s) * lap_phi(points)

    return state, source


def _write_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, (float, np.floating)) else v for k, v in row.items()})


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()  # the Python scalar or nested list
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _environment():
    """Interpreter and library versions, and the compiled scipy files nslb
    loaded in place of scipy's Python packages."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": SCIPY_VERSION,
        "scipy_kernels": sorted(path.name for path in KERNEL_FILES),
    }


def _peak_rss_mb():
    """The process's peak resident set size so far, in MB of 2^20 bytes
    (Linux counts ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10


def _u64(raw):
    """An integer seed in [0, 2^64); argparse turns the error into exit 2."""
    try:
        seed = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"{seed} is outside the u64 range [0, 2^64)")
    return seed


def main(argv=None):
    parser = argparse.ArgumentParser(prog="nslb", description="Navier-Stokes laboratory batch runner")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="flat INI config file")
    parser.add_argument("--out", default=None, help="output directory (default: alongside the config)")
    parser.add_argument("--seed", type=_u64, default=0, help="RNG seed (u64)")
    args = parser.parse_args(argv)

    started = _time.time()
    try:
        p = _load(args.config, args.experiment, np.random.default_rng(args.seed))
    except ConfigError as exc:
        print(f"nslb: config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path(args.config).resolve().parent / "out"
    report_path = out / "report.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        report = EXPERIMENTS[args.experiment](p, out)
        report.update(experiment=args.experiment, seed=args.seed, version=__version__)
        report_path.write_text(json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n")
        meta = {
            "wall_seconds": _time.time() - started,
            "timestamp": _time.time(),
            "peak_rss_mb": _peak_rss_mb(),
            "environment": _environment(),
        }
        (out / "report.meta.json").write_text(json.dumps(meta, indent=2))
    except Exception as exc:  # after the check, any failure is the run's, not the config's
        traceback.print_exc()
        print(f"nslb: {args.experiment} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    failing = [k for k, v in report["checks"].items() if not v]
    if failing:
        print(f"nslb: assertion failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"nslb: {args.experiment} ok -> {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
