import csv
import importlib.util
import json
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb import cli
from nslb.cli import EXPERIMENTS, SCHEMAS, ConfigError, _load, _u64, main
from nslb.snapshots import MAGIC, VERSION, SnapshotError, read_snapshot, write_snapshot
from nslb.spectral import PhysicalField, TorusGrid

from oracles import kernel_mass_meshgrid


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SIMULATE_CFG = """
[grid]
n = 2
N = 32

[physics]
initial = taylor-green
amplitude = 1.0
nu = 0.1
dt = 0.001
t_end = 0.1
snapshot_stride = 10

[output]
snapshots = true
"""


def test_snapshot_round_trip_bit_exact(tmp_path):
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(0)
    field = PhysicalField(grid, rng.standard_normal((2,) + grid.shape))
    path = tmp_path / "state.nslb"
    write_snapshot(path, field, 0.375)
    back, t = read_snapshot(path)
    assert t == 0.375
    assert back.values.tobytes() == field.values.tobytes()
    # write-read-write reproduces the file byte for byte
    path2 = tmp_path / "state2.nslb"
    write_snapshot(path2, back, t)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_file_is_header_plus_payload_bytes(tmp_path):
    # the payload is written from the array's buffer, row-major float64,
    # and read back into an array the field owns
    grid = TorusGrid(3, 8)
    values = np.random.default_rng(1).standard_normal((3,) + grid.shape)
    values[0, 0, 0, :3] = -0.0
    path = tmp_path / "state.nslb"
    write_snapshot(path, PhysicalField(grid, values), 0.25)
    header = struct.pack("<4sIIIId", MAGIC, VERSION, 3, 8, 3, 0.25)
    assert path.read_bytes() == header + values.tobytes()
    back, _ = read_snapshot(path)
    assert back.values.flags.owndata and back.values.flags.writeable
    assert back.values.tobytes() == values.tobytes()


def test_snapshot_truncation_rejected(tmp_path):
    grid = TorusGrid(2, 16)
    field = PhysicalField(grid, np.zeros((1,) + grid.shape))
    path = tmp_path / "state.nslb"
    write_snapshot(path, field, 0.0)
    raw = path.read_bytes()
    (tmp_path / "short.nslb").write_bytes(raw[:-17])
    with pytest.raises(SnapshotError, match="byte offset"):
        read_snapshot(tmp_path / "short.nslb")


def test_snapshot_bad_magic_and_version(tmp_path):
    grid = TorusGrid(2, 16)
    field = PhysicalField(grid, np.zeros((1,) + grid.shape))
    path = tmp_path / "state.nslb"
    write_snapshot(path, field, 0.0)
    raw = bytearray(path.read_bytes())
    bad_magic = bytearray(raw)
    bad_magic[:4] = b"XXXX"
    (tmp_path / "bad_magic.nslb").write_bytes(bytes(bad_magic))
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(tmp_path / "bad_magic.nslb")
    bumped = bytearray(raw)
    bumped[4:8] = struct.pack("<I", VERSION + 1)
    (tmp_path / "bumped.nslb").write_bytes(bytes(bumped))
    with pytest.raises(SnapshotError, match="version"):
        read_snapshot(tmp_path / "bumped.nslb")
    assert raw[:4] == MAGIC


def snapshot_bytes(magic, version, n, big_n, ncomp, payload_len, time=0.5):
    return struct.pack("<4sIIIId", magic, version, n, big_n, ncomp, time) + bytes(payload_len)


@pytest.mark.parametrize(
    "n, big_n, ncomp, match",
    [(2, 7, 1, "N must be even"), (2, 4, 2, "N must be even"), (4, 8, 1, "dimension"), (2, 8, 0, "no field components")],
)
def test_snapshot_bad_grid_or_ncomp_rejected(tmp_path, n, big_n, ncomp, match):
    # each payload has the length its header implies
    path = tmp_path / "bad.nslb"
    path.write_bytes(snapshot_bytes(MAGIC, VERSION, n, big_n, ncomp, ncomp * big_n**n * 8))
    with pytest.raises(SnapshotError, match=match):
        read_snapshot(path)


U32_MAX = 2**32 - 1


@settings(max_examples=300, deadline=None)
@given(
    magic=st.sampled_from([MAGIC, b"NSLC", bytes(4)]),
    version=st.sampled_from([VERSION, 0, VERSION + 1, U32_MAX]),
    n=st.one_of(st.integers(0, 5), st.just(U32_MAX)),
    big_n=st.one_of(st.integers(0, 20), st.just(U32_MAX)),
    ncomp=st.one_of(st.integers(0, 4), st.just(U32_MAX)),
    length_change=st.one_of(st.just(0), st.integers(-40, 16)),
)
def test_snapshot_reader_fuzzed_headers(magic, version, n, big_n, ncomp, length_change):
    # the file is the header plus the payload it implies (capped at 1 MiB),
    # then cut or padded; the reader raises SnapshotError or returns exactly
    # what the header declares
    implied = ncomp * big_n**n * 8 if n <= 5 else 0
    raw = snapshot_bytes(magic, version, n, big_n, ncomp, min(implied, 1 << 20))
    raw = raw[: len(raw) + length_change] if length_change < 0 else raw + bytes(length_change)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.nslb"
        path.write_bytes(raw)
        try:
            field, t = read_snapshot(path)
        except SnapshotError:
            return
    assert (magic, version) == (MAGIC, VERSION)
    assert (field.grid.n, field.grid.N, field.ncomp, t) == (n, big_n, ncomp, 0.5)
    assert field.values.shape == (ncomp,) + (big_n,) * n


def test_simulate_experiment_outputs(tmp_path):
    cfg = write_config(tmp_path, SIMULATE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["energy_monotone"]
    assert report["seed"] == 3
    with open(out / "timeseries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    energies = [float(r["energy"]) for r in rows]
    assert all(a >= b for a, b in zip(energies, energies[1:]))
    assert set(rows[0]) == {"time", "energy", "enstrophy", "divergence_max", "sobolev_h1", "sobolev_h2"}
    snaps = sorted(out.glob("state_*.nslb"))
    assert snaps
    field, t0 = read_snapshot(snaps[0])
    assert field.grid.N == 32 and t0 == 0.0


def test_meta_records_peak_rss_and_report_does_not(tmp_path):
    cfg = write_config(tmp_path, SIMULATE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "report.meta.json").read_text())
    assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 0
    assert "rss" not in (out / "report.json").read_text()


def test_reports_byte_identical_for_same_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        """
[fitting]
noise = 0.05
samples = 120
lambdas = 0.2 0.7
mus = 0.1 0.3
""",
    )
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["fit-singularity", "--config", str(cfg), "--out", str(out_a), "--seed", "11"]) == 0
    assert main(["fit-singularity", "--config", str(cfg), "--out", str(out_b), "--seed", "11"]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    # a different seed moves the noisy fits
    assert main(["fit-singularity", "--config", str(cfg), "--out", str(out_c), "--seed", "12"]) == 0
    assert (out_a / "report.json").read_bytes() != (out_c / "report.json").read_bytes()


def test_3d_simulate_outputs_byte_identical_for_same_seed(tmp_path):
    # the in-place RK4 stages and the reused product buffer must not make a
    # run depend on anything but config and seed
    cfg = write_config(
        tmp_path,
        """
[grid]
n = 3
N = 12

[physics]
initial = random
amplitude = 1.0
nu = 0.05
dt = 0.002
t_end = 0.01
snapshot_stride = 1

[output]
snapshots = true
""",
    )
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    names = sorted(p.name for p in outs[0].glob("state_*.nslb"))
    assert len(names) == 6
    assert sorted(p.name for p in outs[1].glob("state_*.nslb")) == names
    for name in ["report.json", "timeseries.csv"] + names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_missing_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[grid]\nn = 2\nN = 32\n\n[physics]\ndt = 0.001\nt_end = 0.1\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "[physics] nu" in err


def test_unparseable_value_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "[grid]\nn = 2\nN = 32\n\n[physics]\nnu = fast\ndt = 0.001\nt_end = 0.1\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "nu" in capsys.readouterr().err


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_bad_snapshot_stride_exits_2(tmp_path, capsys, stride):
    cfg = write_config(tmp_path, SIMULATE_CFG.replace("snapshot_stride = 10", f"snapshot_stride = {stride}"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "snapshot_stride" in err


@pytest.mark.parametrize("spelling", ["ture", "2"])
def test_misspelt_boolean_exits_2(tmp_path, capsys, spelling):
    cfg = write_config(tmp_path, SIMULATE_CFG.replace("snapshots = true", f"snapshots = {spelling}"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "snapshots" in err
    assert not (tmp_path / "out").exists()


def test_non_integer_resolution_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[kernels]\nnu_eff = 0.5\nresolutions = 17.9 25 33\n")
    assert main(["duhamel-residual", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "resolutions" in err


@pytest.mark.parametrize(
    "experiment, text, field",
    [
        ("verify-kernels", "[kernels]\ndeltas =\n", "[kernels] deltas"),
        ("verify-kernels", "[kernels]\nnus =\n", "[kernels] nus"),
        ("fit-singularity", "[fitting]\nlambdas =\n", "[fitting] lambdas"),
        ("rescale-audit", "[rescale]\nhorizons =\n", "[rescale] horizons"),
        ("duhamel-residual", "[kernels]\nresolutions = 17\n", "[kernels] resolutions"),
        ("duhamel-residual", "[kernels]\nresolutions = 17 33 33\n", "[kernels] resolutions"),
        ("verify-kernels", "[kernels]\nnus = 0.1\n", "[kernels] nus"),
        ("verify-kernels", "[kernels]\nnus = 0.1 0.1\n", "[kernels] nus"),
        ("rescale-audit", "[rescale]\nsweep_points = 0\n", "[rescale] sweep_points"),
        ("rescale-audit", "[rescale]\nsweep_points = 1\n", "[rescale] sweep_points"),
        ("fit-singularity", "[fitting]\nsamples = 10\n", "[fitting] samples"),
        ("transform-check", "[physics]\nnu = 0\n", "[physics] nu"),
        ("transform-check", "[physics]\nnu = -1\n", "[physics] nu"),
        ("fit-singularity", "[fitting]\nnoise = -0.5\n", "[fitting] noise"),
    ],
    ids=[
        "deltas",
        "nus",
        "lambdas",
        "horizons",
        "one-resolution",
        "repeated-resolution",
        "one-nu",
        "repeated-nu",
        "no-sweep-points",
        "one-sweep-point",
        "few-samples",
        "zero-nu",
        "negative-nu",
        "negative-noise",
    ],
)
def test_bad_list_field_exits_2(tmp_path, capsys, experiment, text, field):
    # an empty list would pass its checks vacuously (or crash); a resolution
    # ladder that does not strictly increase cannot show convergence, and a
    # single resolution makes the order 0/0; one diffusivity makes the
    # invariance spread 0 by construction; an empty sweep or a sample count
    # the fit rejects must be named as the field, not as a bare error; a
    # viscosity of 0 or a negative noise level would run and pass
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not out.exists()


def simulate_cfg(changes):
    """SIMULATE_CFG with whole lines replaced (old line -> new text; "" drops it)."""
    lines = [changes.get(line, line) for line in SIMULATE_CFG.splitlines()]
    return "\n".join(line for line in lines if line) + "\n"


@pytest.mark.parametrize(
    "experiment, text, field",
    [
        ("simulate", simulate_cfg({"n = 2": "n = 4"}), "[grid] n"),
        ("simulate", simulate_cfg({"N = 32": "N = 6"}), "[grid] N"),
        ("simulate", simulate_cfg({"nu = 0.1": "nu = 0"}), "[physics] nu"),
        ("simulate", simulate_cfg({"amplitude = 1.0": "amplitude = 0"}), "[physics] amplitude"),
        ("simulate", simulate_cfg({"dt = 0.001": "dt = 0.003", "t_end = 0.1": "t_end = 0.002"}), "[physics] t_end"),
        ("simulate", simulate_cfg({"initial = taylor-green": "initial = vortex"}), "[physics] initial"),
        ("simulate", simulate_cfg({"n = 2": "n = 3", "initial = taylor-green": ""}), "[physics] initial"),
        ("simulate", simulate_cfg({"snapshot_stride = 10": "snapshot_strid = 10"}), "[physics] snapshot_strid"),
        ("simulate", simulate_cfg({"snapshots = true": "snapshot = true"}), "[output] snapshot"),
        ("simulate", SIMULATE_CFG + "[phyiscs]\nnu = 0.1\n", "[phyiscs] nu"),
        ("simulate", "[DEFAULT]\nnu = 0.1\n" + simulate_cfg({"nu = 0.1": ""}), "[DEFAULT] nu"),
        ("transform-check", "[cone]\nt_1 = 1.5\n", "[cone] t_1"),
        ("fit-singularity", "[fitting]\nlambdas = -0.2\n", "[fitting] lambdas"),
        ("verify-kernels", "[kernels]\ndeltas = 1.5\n", "[kernels] deltas"),
        ("verify-kernels", "[kernels]\nnus = -0.1 1.0\n", "[kernels] nus"),
        ("verify-kernels", "[grid]\nn = 4\n", "[grid] n"),
        ("verify-kernels", "[grid]\nn = 1\n", "[grid] n"),
        ("rescale-audit", "[physics]\nnu = 0\n", "[physics] nu"),
        ("duhamel-residual", "[kernels]\nresolutions = 5 9\n", "[kernels] resolutions"),
        ("duhamel-residual", "[kernels]\nnu_eff = 0\n", "[kernels] nu_eff"),
        # "nan" and "inf" parse as floats and pass an "x <= 0" guard
        ("simulate", simulate_cfg({"nu = 0.1": "nu = nan"}), "[physics] nu"),
        ("simulate", simulate_cfg({"dt = 0.001": "dt = -inf"}), "[physics] dt"),
        ("simulate", simulate_cfg({"t_end = 0.1": "t_end = inf"}), "[physics] t_end"),
        ("simulate", simulate_cfg({"amplitude = 1.0": "amplitude = inf"}), "[physics] amplitude"),
        ("duhamel-residual", "[kernels]\nnu_eff = nan\n", "[kernels] nu_eff"),
        ("duhamel-residual", "[kernels]\nnu_eff = inf\n", "[kernels] nu_eff"),
        ("verify-kernels", "[kernels]\nnus = 0.1 inf\n", "[kernels] nus"),
        ("rescale-audit", "[rescale]\nhorizons = inf\n", "[rescale] horizons"),
        ("rescale-audit", "[physics]\nnu = inf\n", "[physics] nu"),
        ("transform-check", "[physics]\nnu = inf\n", "[physics] nu"),
        ("transform-check", "[cone]\nt_s = inf\n", "[cone] t_s"),
        ("fit-singularity", "[fitting]\nnoise = inf\n", "[fitting] noise"),
        ("fit-singularity", "[fitting]\ntolerance = nan\n", "[fitting] tolerance"),
        ("fit-singularity", "[fitting]\nmus = 0.1 nan\n", "[fitting] mus"),
        ("fit-singularity", "[fitting]\ntolerance = -0.5\n", "[fitting] tolerance"),
        ("fit-singularity", "[fitting]\ntolerance = 0\n", "[fitting] tolerance"),
    ],
    ids=[
        "dimension-4",
        "odd-small-N",
        "zero-nu",
        "zero-amplitude",
        "t_end-not-whole-steps",
        "unknown-initial",
        "taylor-green-in-3d",
        "misspelt-key",
        "misspelt-output-key",
        "unknown-section",
        "default-section",
        "entry-after-singular-time",
        "negative-lambda",
        "delta-above-1",
        "negative-diffusivity",
        "kernel-dimension-4",
        "kernel-dimension-1",
        "rescale-zero-nu",
        "coarse-balls",
        "zero-nu-eff",
        "nan-nu",
        "minus-inf-dt",
        "inf-t_end",
        "inf-amplitude",
        "nan-nu-eff",
        "inf-nu-eff",
        "inf-in-nus",
        "inf-horizons",
        "rescale-inf-nu",
        "transform-inf-nu",
        "inf-t_s",
        "inf-noise",
        "nan-tolerance",
        "nan-in-mus",
        "negative-tolerance",
        "zero-tolerance",
    ],
)
def test_config_fault_exits_2_before_out_exists(tmp_path, capsys, experiment, text, field):
    # each input fails a key's bound or a library type's own check; both are
    # found before the run, so nothing is written and the field is named
    out = tmp_path / "out"
    assert main([experiment, "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not out.exists()


def test_audits_make_one_call_per_sweep(tmp_path, monkeypatch):
    # rescale-audit: one mu_of_s call per horizon on the whole sweep and one
    # growth_exponent call on the alpha0 grid; transform-check: one mu_coeffs
    # call on all 601 tau
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(np.shape(args[0]))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("mu_of_s", "growth_exponent", "mu_coeffs"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    rescale = write_config(tmp_path, "[rescale]\nhorizons = 0.5 1.0 2.0\nsweep_points = 1000\n", "rescale.cfg")
    assert main(["rescale-audit", "--config", str(rescale), "--out", str(tmp_path / "rescale")]) == 0
    assert main(["transform-check", "--config", str(write_config(tmp_path, "")), "--out", str(tmp_path / "transform")]) == 0
    assert calls == {"mu_of_s": [(1000,)] * 3, "growth_exponent": [(9, 10)], "mu_coeffs": [(601,)]}


def test_run_failure_exits_1_and_names_it(tmp_path, capsys, monkeypatch):
    # a failure after the config check is the run's, not the config's
    def broken(*args, **kwargs):
        raise ValueError("right-hand side is not finite")

    monkeypatch.setattr("nslb.cone.poisson_dirichlet", broken)
    out = tmp_path / "out"
    assert main(["transform-check", "--config", str(write_config(tmp_path, "")), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" not in err
    assert "transform-check failed" in err and "right-hand side is not finite" in err
    assert out.is_dir() and not (out / "report.json").exists()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_key_table_is_well_formed(experiment):
    # values land on one namespace by key name, and a build's error names the
    # keys it reads, so names must be unique and reads must name table keys
    keys, builds = SCHEMAS[experiment]
    names = [key for _, key in keys]
    assert len(set(names)) == len(names)
    assert not set(names) & set(builds) and "rng" not in names
    for make, *reads in builds.values():
        assert reads and set(reads) <= set(names)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_empty_config_runs_on_defaults_or_names_every_required_key(tmp_path, experiment):
    # simulate has the only required keys; the other tables load on defaults
    path = write_config(tmp_path, "")
    if experiment != "simulate":
        _load(path, experiment, np.random.default_rng(0))
        return
    with pytest.raises(ConfigError) as info:
        _load(path, experiment, np.random.default_rng(0))
    for field in ("[grid] N", "[physics] nu", "[physics] dt", "[physics] t_end"):
        assert f"missing required field {field}" in str(info.value)


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5", "seven"])
def test_seed_outside_u64_exits_2_before_out_exists(tmp_path, capsys, seed):
    # the usage promises a u64; argparse rejects anything else before the config is read
    out = tmp_path / "out"
    config = Path(__file__).resolve().parent.parent / "configs" / "fit_singularity.cfg"
    with pytest.raises(SystemExit) as info:
        main(["fit-singularity", "--config", str(config), "--out", str(out), "--seed", seed])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_seed_accepts_both_ends_of_the_u64_range():
    assert _u64("0") == 0 and _u64(str(2**64 - 1)) == 2**64 - 1


def test_assertion_failure_exits_1(tmp_path, capsys):
    # an unresolvably coarse fit tolerance forces a named assertion failure
    cfg = write_config(
        tmp_path,
        """
[fitting]
noise = 0.3
samples = 40
tolerance = 0.0001
lambdas = 0.7
mus = 0.3
""",
    )
    code = main(["fit-singularity", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "1"])
    assert code == 1
    assert "assertion failed" in capsys.readouterr().err


def test_report_constants_carry_provenance(tmp_path):
    cfg = write_config(tmp_path, "[fitting]\nsamples = 120\nlambdas = 0.2\nmus = 0.1\n")
    out = tmp_path / "out"
    assert main(["fit-singularity", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 0
    report = json.loads((out / "report.json").read_text())
    gates = report["gates"]
    assert gates["velocity_mu_limit"] == {"value": 0.375, "provenance": "paper-window"}
    assert report["cases"][0]["lambda_fit"]["provenance"] == "measured"
    # no timestamps inside the deterministic report; clock lives in the sidecar
    assert "timestamp" not in json.dumps(report)
    meta = json.loads((out / "report.meta.json").read_text())
    assert "timestamp" in meta


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_EXPERIMENTS = {
    "duhamel_residual.cfg": "duhamel-residual",
    "fit_singularity.cfg": "fit-singularity",
    "rescale_audit.cfg": "rescale-audit",
    "taylor_green.cfg": "simulate",
    "transform_check.cfg": "transform-check",
    "verify_kernels.cfg": "verify-kernels",
}


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_committed_config_passes_and_is_deterministic(tmp_path, config):
    path = CONFIGS / config
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([CONFIG_EXPERIMENTS[config], "--config", str(path), "--out", str(out), "--seed", "7"]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_benchmark_and_committed_configs_pass_the_config_check(tmp_path):
    # a wrong table row would otherwise first show up as a failed benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_child", CONFIGS.parent / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    configs = [(write_config(tmp_path, child.SOLVER_CONFIG), "simulate")]
    configs += [(CONFIGS / name, experiment) for name, experiment in CONFIG_EXPERIMENTS.items()]
    assert sorted(CONFIG_EXPERIMENTS) == sorted(p.name for p in CONFIGS.glob("*.cfg"))
    for path, experiment in configs:
        _load(path, experiment, np.random.default_rng(0))


def test_same_outputs_tool_runs_what_the_benchmark_runs():
    # tools/same_outputs.py reads the solver config and each config's
    # experiment itself; they must stay the benchmark's and the tests'
    root = CONFIGS.parent
    loaded = {}
    for name, path in (("perfbench_child", root / "perfbench" / "child.py"), ("same_outputs", root / "tools" / "same_outputs.py")):
        spec = importlib.util.spec_from_file_location(name, path)
        loaded[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded[name])
    tool = loaded["same_outputs"]
    assert tool.solver_config() == loaded["perfbench_child"].SOLVER_CONFIG
    assert {path.name: tool.experiment(path) for path in CONFIGS.glob("*.cfg")} == CONFIG_EXPERIMENTS


@pytest.mark.parametrize("nus", ["0.01 0.1", "0.1 1.0", "1.0 0.01"])
def test_kernel_mass_matches_meshgrid_oracle_bit_for_bit(tmp_path, nus):
    # the mass is taken at the first diffusivity from squared radii alone
    path = write_config(tmp_path, f"[kernels]\ndeltas = 0.5\nnus = {nus}\n")
    assert main(["verify-kernels", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    mass = json.loads((tmp_path / "out" / "report.json").read_text())["kernel_mass"]["value"]
    assert struct.pack("<d", mass) == struct.pack("<d", kernel_mass_meshgrid(float(nus.split()[0])))


def test_verify_kernels_kernel_mass_failure_names_only_its_check(tmp_path, capsys, monkeypatch):
    # a doubled kernel fails the mass check alone; the bound scans still pass
    gaussian_sq = cli._gaussian_sq
    monkeypatch.setattr(cli, "_gaussian_sq", lambda t, r_sq, spec: 2.0 * gaussian_sq(t, r_sq, spec))
    out = tmp_path / "out"
    assert main(["verify-kernels", "--config", str(CONFIGS / "verify_kernels.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "nslb: assertion failed: mass_1e-8"
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert [name for name, passed in checks.items() if not passed] == ["mass_1e-8"]


def test_verify_kernels_peaks_at_most_2_mb(tmp_path):
    # the kernel-mass check holds 256^2 squared radii, one negated
    # temporary and the kernel values (1.5 MiB), not a meshgrid and its
    # (65536, 2) points as well (3.5 MiB)
    argv = ["verify-kernels", "--config", str(CONFIGS / "verify_kernels.cfg"), "--out"]
    assert main(argv + [str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main(argv + [str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2**20, peak


def test_config_named_for_another_experiment_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify-kernels", "--config", str(CONFIGS / "taylor_green.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[experiment] name" in err
    assert not out.exists()


def test_config_named_for_its_experiment_runs_and_sidecar_records_environment(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "taylor_green.cfg"), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["experiment"] == "simulate"
    env = json.loads((out / "report.meta.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "scipy", "scipy_kernels"}
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    kernels = env["scipy_kernels"]
    assert kernels == sorted(kernels) and len(kernels) == 2
    assert kernels[0].startswith("_sparsetools") and kernels[1].startswith("pypocketfft")


def _run_with_perfbench(code, argv=()):
    """Run ``code`` in a child Python that imports nslb and the benchmark's
    modules, so the tracer's rebinding does not leak into this process."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    paths = [str(root / "src"), str(root / "perfbench")]
    env["PYTHONPATH"] = os.pathsep.join(paths + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)


def test_benchmark_per_layer_metrics_name_traced_functions():
    # a traced benchmark run rejects a per-layer metric that names no traced
    # nslb function; an untraced run never looks, so a removed or renamed
    # function would go unnoticed without this check
    code = (
        "import importlib, json\n"
        "import run\n"
        "from child import NSLB_MODULES\n"
        "from tracing import Tracer, instrument\n"
        "tracer = Tracer()\n"
        "instrument(tracer, [importlib.import_module('nslb.' + name) for name in NSLB_MODULES])\n"
        "empty = {'import_s': 0.0, 'spans': [], 'counters': {}, 'traced': sorted(tracer.names)}\n"
        "print(json.dumps(sorted(run.layer_metrics([empty]))))\n"
    )
    done = _run_with_perfbench(code)
    assert done.returncode == 0, done.stderr
    declared = json.loads((CONFIGS.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert json.loads(done.stdout.splitlines()[-1]) == sorted(metric["name"] for metric in declared)


def test_traced_simulate_keeps_no_snapshots_and_computes_gradient_energy_once_per_record(tmp_path):
    # the benchmark tracer wraps nslb from outside
    cfg = write_config(
        tmp_path,
        """
[grid]
n = 3
N = 12

[physics]
initial = random
nu = 0.05
dt = 0.002
t_end = 0.01
snapshot_stride = 1

[output]
snapshots = true
""",
    )
    out = tmp_path / "out"
    code = (
        "import importlib, json, sys\n"
        "from child import NSLB_MODULES\n"
        "from tracing import Tracer, instrument\n"
        "modules = [importlib.import_module('nslb.' + name) for name in NSLB_MODULES]\n"
        "tracer = Tracer()\n"
        "instrument(tracer, modules)\n"
        "status = importlib.import_module('nslb.cli').main(sys.argv[1:])\n"
        "calls = sum(span[0] == 'dynamics.gradient_energy' for span in tracer.finish())\n"
        "print(json.dumps({'exit': status, 'counters': tracer.counters, 'gradient_energy_calls': calls}))\n"
    )
    done = _run_with_perfbench(code, ["simulate", "--config", str(cfg), "--out", str(out)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0
    with open(out / "timeseries.csv", newline="") as fh:
        records = len(list(csv.DictReader(fh)))
    assert records == 6 and len(list(out.glob("state_*.nslb"))) == records
    counters = result["counters"]
    assert counters["dynamics.rk4_steps"] == 5
    assert counters["dynamics.snapshots_kept"] == 0
    assert counters["dynamics.retained_mb"] == 0
    assert result["gradient_energy_calls"] == records
