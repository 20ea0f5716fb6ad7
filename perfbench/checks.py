"""Output checks of the benchmark workloads.

Each function returns a list of problems; an empty list means the
operation's outputs are correct.  A non-empty list counts the operation as
failed.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path

TAYLOR_GREEN_RTOL = 1e-5
SNAPSHOT_ENERGY_RTOL = 1e-9
POISSON_MAX_ERROR = 1e-10
# The m=17 -> m=25 residual ratio measures 2.17-2.22 against h^2 ratio 2.25.
RESIDUAL_MIN_ORDER = 1.75
CONE_OPS = ("residual", "poisson", "series", "density")


def _read_config(path):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read(path)
    return parser


def read_timeseries(path):
    """(time, energy) rows of a timeseries.csv."""
    with open(path, newline="") as fh:
        return [(float(row["time"]), float(row["energy"])) for row in csv.DictReader(fh)]


def lab_problems(exit_code, experiment, config_path, out_dir, reference):
    """A committed config run through ``nslb.cli.main``.

    ``reference`` is the report.json of the first repeat with the same seed
    (None on the first repeat); every repeat must reproduce it byte for
    byte.  A Taylor-Green ``simulate`` must also end on the exact decay
    E0 exp(-16 pi^2 nu t_end).
    """
    if exit_code != 0:
        return [f"{experiment}: exit {exit_code}"]
    report_path = Path(out_dir) / "report.json"
    if not report_path.is_file():
        return [f"{experiment}: no report.json"]
    data = report_path.read_bytes()
    problems = []
    if reference is not None and data != reference:
        problems.append(f"{experiment}: report.json differs from the first repeat")
    cfg = _read_config(config_path)
    if experiment == "simulate" and cfg.get("physics", "initial", fallback="taylor-green") == "taylor-green":
        nu = float(cfg.get("physics", "nu"))
        t_end = float(cfg.get("physics", "t_end"))
        rows = read_timeseries(Path(out_dir) / "timeseries.csv")
        expected = rows[0][1] * math.exp(-16 * math.pi**2 * nu * t_end)
        final = json.loads(data)["final_energy"]["value"]
        if not abs(final - expected) <= TAYLOR_GREEN_RTOL * expected:
            problems.append(f"taylor-green final energy {final!r}, exact {expected!r}")
    return problems


def solver_problems(outcome, out_dir):
    """The 3D ``simulate`` run and its snapshot read-back.

    ``outcome`` holds the CLI exit code, the (time, energy) read back from
    every snapshot file or the read error, and the expected snapshot count.
    Every snapshot must match its timeseries.csv row: time exactly, energy
    to round-off.
    """
    if outcome["exit"] != 0:
        return [f"simulate: exit {outcome['exit']}"]
    if outcome.get("readback_error"):
        return [f"snapshot read-back: {outcome['readback_error']}"]
    csv_path = Path(out_dir) / "timeseries.csv"
    if not csv_path.is_file():
        return ["no timeseries.csv"]
    rows = read_timeseries(csv_path)
    snaps = outcome["snapshots"]
    if not len(snaps) == len(rows) == outcome["expected_snapshots"]:
        return [f"{len(snaps)} snapshots, {len(rows)} timeseries rows, expected {outcome['expected_snapshots']}"]
    for k, ((t, e), (t_row, e_row)) in enumerate(zip(snaps, rows)):
        if t != t_row or not abs(e - e_row) <= SNAPSHOT_ENERGY_RTOL * abs(e_row):
            return [f"snapshot {k}: time {t!r} energy {e!r}, timeseries {t_row!r} {e_row!r}"]
    return []


def cone_problems(op, result):
    """One layer call group of ``cone-kernel-3d``."""
    if "error" in result:
        return [f"{op}: {result['error']}"]
    if op == "residual":
        (r_coarse, r_fine), (h_coarse, h_fine) = result["residual_l2"], result["h"]
        order = math.log(r_coarse / r_fine) / math.log(h_coarse / h_fine)
        return [] if order >= RESIDUAL_MIN_ORDER else [f"residual order {order:.3f} < {RESIDUAL_MIN_ORDER}"]
    if op == "poisson":
        err = result["max_error"]
        return [] if err <= POISSON_MAX_ERROR else [f"manufactured Poisson error {err!r}"]
    if op == "series":
        problems = []
        if result["terms"][0] != result["gaussian"]:
            problems.append(f"first term {result['terms'][0]!r} != gaussian {result['gaussian']!r}")
        if not result["tail_converged"]:
            problems.append(f"series tail not converged: {result['terms']}")
        return problems
    if op == "density":
        return [] if all(math.isfinite(x) for x in result["values"]) else [f"density not finite: {result['values']}"]
    raise ValueError(f"unknown operation {op!r}")
