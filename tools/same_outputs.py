#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as a git revision.

    python tools/same_outputs.py REV

Runs, once on the source of REV and once on the working tree:

- every committed ``configs/*.cfg`` at seeds 0 and 7;
- the 3D solver config of ``perfbench/child.py`` (``SOLVER_CONFIG``, every
  snapshot written) at seed 0;
- a 2D ``random`` simulate run (``RANDOM_2D``: N = 24, a multiple of 3, so
  the 2/3 box edge |alpha_k| = 7 lies just inside N/3; every tenth snapshot
  written) at seed 0;
- a 3D ``random`` simulate run (``RANDOM_3D``: N = 24, the same box edge on
  all three axes; every snapshot written) at seed 0, so the random draw's
  mode parity is covered in 3D too;
- a noisy ``fit-singularity`` run (``NOISY_FIT``: noise = 0.05, 960
  samples, so the sampler's lognormal noise draw is covered too) at seeds
  0 and 7;
- a 2D ``verify-kernels`` run (``KERNELS_2D``: ``[grid] n = 2``, the
  config's one other accepted dimension, default deltas and nus) at seed 0;
- the ``cone-kernel-3d`` workload of ``perfbench/child.py`` at seed 0: a
  child calls that file's ``cone_kernel_3d`` and writes its outputs (the
  3D residual, Poisson, series and density results) to
  ``cone_kernel_3d.json``; it exits 1 if any of the four raised.

Both sides use the working tree's configs and ``perfbench/child.py``.  Each run's peak resident set
size (from ``os.wait4``, in MB of 2^20 bytes) is printed for REV and for
the working tree, and, for each seed, the largest peak over the committed
configs' runs on each side with the run that set it: the figure the
benchmark's ``lab-configs`` ``peak_rss_mb`` takes, one child per config.
No peak enters the exit status.  Every output file is then
compared byte for byte, except ``report.meta.json``, whose wall times and
timestamps differ on every run.  Each differing file is printed, and the
exit status is 1 if any file or exit code differs, 0 otherwise.  For a
differing ``.json`` or ``.csv`` file the line also gives the largest
absolute and relative difference of a numeric field and the key where it
is; a ``.csv`` file gets them column by column, with the largest
difference over the largest magnitude in that column.  A field that
differs and is not a number on both sides (a flag, a string, a missing
key) is named.

REV's ``src`` is extracted with ``git archive`` into a temporary directory,
which is removed afterwards; nothing is registered in the repository.
"""

from __future__ import annotations

import ast
import configparser
import csv
import filecmp
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
UNCOMPARED = {"report.meta.json"}
RANDOM_2D = """\
[grid]
n = 2
N = 24

[physics]
initial = random
nu = 0.05
dt = 0.002
t_end = 0.2
snapshot_stride = 10

[output]
snapshots = true
"""
RANDOM_3D = """\
[grid]
n = 3
N = 24

[physics]
initial = random
nu = 0.05
dt = 0.002
t_end = 0.02
snapshot_stride = 1

[output]
snapshots = true
"""
NOISY_FIT = """\
[fitting]
noise = 0.05
samples = 960
"""
KERNELS_2D = """\
[grid]
n = 2
"""
# python -c CONE_KERNEL_3D --out DIR
CONE_KERNEL_3D = f"""\
import importlib, json, sys
from pathlib import Path
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import child
nslb = {{name: importlib.import_module(f"nslb.{{name}}") for name in child.NSLB_MODULES}}
ops = child.cone_kernel_3d({{"seed": 0}}, nslb)()["ops"]
Path(sys.argv[-1]).mkdir(parents=True)
(Path(sys.argv[-1]) / "cone_kernel_3d.json").write_text(json.dumps(ops, indent=1))
sys.exit(1 if any("error" in result for result in ops.values()) else 0)
"""


def solver_config():
    """``SOLVER_CONFIG`` as perfbench/child.py assigns it, read without importing the module."""
    for node in ast.parse((ROOT / "perfbench" / "child.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SOLVER_CONFIG" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("perfbench/child.py assigns no SOLVER_CONFIG")


def experiment(config):
    """A committed config's experiment: its [experiment] name, else its file name."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    parser.read(config)
    return parser.get("experiment", "name", fallback=config.stem.replace("_", "-"))


def run(argv, env):
    """(exit code, peak RSS in MB of 2^20 bytes, stderr text) of one child,
    its peak taken from ``os.wait4`` (``ru_maxrss`` counts KiB on Linux)."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        return proc.returncode, usage.ru_maxrss / 2**10, err.read().decode(errors="replace")


def run_all(src, jobs, out):
    """Run every job, (name, Python arguments), with ``--out`` its own
    directory under ``out``, on the nslb package under ``src``; return {job
    name: (exit code, peak RSS in MB)}."""
    results = {}
    for name, args in jobs:
        argv = [sys.executable, *args, "--out", str(out / name)]
        code, peak, stderr = run(argv, {**os.environ, "PYTHONPATH": str(src)})
        results[name] = code, peak
        if code != 0:
            print(f"{name}: exit {code} on {src}\n{stderr.strip()}", file=sys.stderr)
    return results


def compared_files(out):
    return {p.relative_to(out) for p in out.rglob("*") if p.is_file() and p.name not in UNCOMPARED}


def _leaves(tree, key=""):
    """{dotted key: leaf} of a parsed JSON document."""
    if isinstance(tree, dict):
        return {k: v for name, sub in tree.items() for k, v in _leaves(sub, f"{key}.{name}" if key else name).items()}
    if isinstance(tree, list):
        return {k: v for i, sub in enumerate(tree) for k, v in _leaves(sub, f"{key}[{i}]").items()}
    return {key: tree}


def _csv_fields(path):
    """{(column, row): cell} of a CSV file with a header row."""
    with open(path, newline="") as fh:
        return {(col, row): cell for row, record in enumerate(csv.DictReader(fh)) for col, cell in record.items()}


def _finite(x):
    """x as a float if it is a finite number (a bool is not), else None."""
    if isinstance(x, bool):
        return None
    try:
        x = float(x)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def _largest(moves, name):
    """Text of the largest absolute and relative move among (abs, rel, key) triples."""
    d, _, at_d = max(moves, key=lambda m: m[0])
    _, r, at_r = max(moves, key=lambda m: m[1])
    return f"largest absolute move {d:.3g} at {name(at_d)}, relative {r:.3g} at {name(at_r)}"


def numeric_moves(a, b):
    """How the fields of the .json or .csv files a and b differ, as text;
    None for other files.  A .csv file is reported column by column."""
    if a.suffix == ".json":
        fa, fb = (_leaves(json.loads(p.read_text())) for p in (a, b))
        name = str
    elif a.suffix == ".csv":
        fa, fb = _csv_fields(a), _csv_fields(b)
        name = lambda key: f"{key[0]}[row {key[1]}]"  # noqa: E731
    else:
        return None
    moves, other = [], []
    for key in sorted(fa.keys() | fb.keys(), key=str):
        x, y = _finite(fa.get(key)), _finite(fb.get(key))
        if x is None or y is None:
            if str(fa.get(key)) != str(fb.get(key)):
                other.append(name(key))
        elif x != y:
            moves.append((abs(x - y), abs(x - y) / max(abs(x), abs(y)), key))
    parts = []
    if moves and a.suffix == ".json":
        parts.append(_largest(moves, name))
    for column in sorted({key[0] for *_, key in moves} if a.suffix == ".csv" else ()):
        scale = max(abs(_finite(cell) or 0.0) for key, cell in [*fa.items(), *fb.items()] if key[0] == column)
        mine = [m for m in moves if m[2][0] == column]
        worst = max(d for d, *_ in mine) / scale
        parts.append(f"{column}: {_largest(mine, name)}, {worst:.3g} of the column's largest magnitude")
    if other:
        parts.append("not a number on both sides and different: " + ", ".join(other))
    return "; ".join(parts)


def main(argv=None):
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        raise SystemExit("usage: python tools/same_outputs.py REV")
    git = ["git", "-C", str(ROOT)]
    sha = subprocess.run(git + ["rev-parse", "--verify", f"{args[0]}^{{commit}}"], capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(git + ["archive", "--format=tar", sha, "src"], capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        solver = tmp / "solver.cfg"
        solver.write_text(solver_config())
        random_2d = tmp / "random_2d.cfg"
        random_2d.write_text(RANDOM_2D)
        random_3d = tmp / "random_3d.cfg"
        random_3d.write_text(RANDOM_3D)
        noisy_fit = tmp / "noisy_fit.cfg"
        noisy_fit.write_text(NOISY_FIT)
        kernels_2d = tmp / "kernels_2d.cfg"
        kernels_2d.write_text(KERNELS_2D)
        configs = sorted((ROOT / "configs").glob("*.cfg"))
        def cli(exp, config, seed):
            return ["-m", "nslb.cli", exp, "--config", str(config), "--seed", str(seed)]

        jobs = [(f"{c.stem}-seed{s}", cli(experiment(c), c, s)) for c in configs for s in SEEDS]
        lab = {s: [f"{c.stem}-seed{s}" for c in configs] for s in SEEDS}
        jobs += [
            ("solver-3d-seed0", cli("simulate", solver, 0)),
            ("random-2d-seed0", cli("simulate", random_2d, 0)),
            ("random-3d-seed0", cli("simulate", random_3d, 0)),
            *((f"fit-singularity-noisy-seed{s}", cli("fit-singularity", noisy_fit, s)) for s in SEEDS),
            ("verify-kernels-2d-seed0", cli("verify-kernels", kernels_2d, 0)),
            ("cone-kernel-3d-seed0", ["-c", CONE_KERNEL_3D]),
        ]

        sides = {"rev": tmp / "rev" / "src", "tree": ROOT / "src"}
        results = {side: run_all(src, jobs, tmp / f"out-{side}") for side, src in sides.items()}
        codes = {side: {name: code for name, (code, _) in runs.items()} for side, runs in results.items()}
        files = {side: compared_files(tmp / f"out-{side}") for side in sides}

        differ = [f"{name}: exit {codes['rev'][name]} at {sha[:10]}, {codes['tree'][name]} in the working tree" for name, _ in jobs if codes["rev"][name] != codes["tree"][name]]
        for rel in sorted(files["rev"] | files["tree"]):
            a, b = tmp / "out-rev" / rel, tmp / "out-tree" / rel
            if not (a.is_file() and b.is_file()):
                differ.append(f"{rel}: only {'at ' + sha[:10] if a.is_file() else 'in the working tree'}")
            elif not filecmp.cmp(a, b, shallow=False):
                moves = numeric_moves(a, b)
                differ.append(f"{rel}: bytes differ" + (f"; {moves}" if moves else ""))

    print(f"{len(jobs)} runs, {len(files['rev'] | files['tree'])} files compared against {sha[:10]} ({', '.join(sorted(UNCOMPARED))} excluded)")
    for name, _ in jobs:
        rev, tree = results["rev"][name][1], results["tree"][name][1]
        print(f"peak RSS {name}: {rev:.2f} MB at {sha[:10]}, {tree:.2f} MB in the working tree ({tree - rev:+.2f} MB)")
    for seed, names in lab.items():
        (rev, rev_name), (tree, tree_name) = (max((results[side][name][1], name) for name in names) for side in sides)
        print(f"largest config peak RSS seed {seed}: {rev:.2f} MB ({rev_name}) at {sha[:10]}, {tree:.2f} MB ({tree_name}) in the working tree ({tree - rev:+.2f} MB)")
    for line in differ:
        print(f"DIFFERS {line}")
    print(f"{len(differ)} differ" if differ else "all byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
