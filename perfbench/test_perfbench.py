"""Tests of the benchmark's own output checks and tracer."""

import json
from pathlib import Path

import checks
import child
import run
import tracing
from nslb import cli
from nslb.snapshots import read_snapshot

ROOT = Path(__file__).resolve().parent.parent
FIT_CONFIG = ROOT / "configs" / "fit_singularity.cfg"
SMALL_SIMULATION = """\
[grid]
n = 2
N = 16

[physics]
initial = random
nu = 0.05
dt = 0.01
t_end = 0.03

[output]
snapshots = true
"""


def test_nonzero_exit_fails_the_operation(tmp_path):
    assert cli.main(["fit-singularity", "--config", str(FIT_CONFIG), "--out", str(tmp_path)]) == 0
    assert checks.lab_problems(0, "fit-singularity", FIT_CONFIG, tmp_path, None) == []
    assert checks.lab_problems(1, "fit-singularity", FIT_CONFIG, tmp_path, None)
    assert checks.solver_problems({"exit": 2, "snapshots": [], "expected_snapshots": 0}, tmp_path)
    # a child that dies before writing its result fails every operation it owns
    assert all(run.judge("cone-kernel-3d", {}, None, {}).values())


def test_changed_report_byte_fails_the_operation(tmp_path):
    assert cli.main(["fit-singularity", "--config", str(FIT_CONFIG), "--out", str(tmp_path), "--seed", "3"]) == 0
    report = (tmp_path / "report.json").read_bytes()
    assert checks.lab_problems(0, "fit-singularity", FIT_CONFIG, tmp_path, report) == []
    changed = bytearray(report)
    changed[len(changed) // 2] ^= 1
    assert checks.lab_problems(0, "fit-singularity", FIT_CONFIG, tmp_path, bytes(changed))


def test_truncated_snapshot_fails_the_operation(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_SIMULATION)
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0

    def outcome():
        return {"exit": 0, "expected_snapshots": 4, **child.read_back(tmp_path, read_snapshot)}

    assert checks.solver_problems(outcome(), tmp_path) == []
    last = tmp_path / "state_00003.nslb"
    last.write_bytes(last.read_bytes()[:-1])
    assert checks.solver_problems(outcome(), tmp_path)


def test_self_time_excludes_child_spans():
    ticks = iter(range(10))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    # outer runs 0..5, its children 1..2 and 3..4
    assert tracer.finish() == [["outer", -1, 5.0, 3.0], ["inner", 0, 1.0, 1.0], ["inner", 0, 1.0, 1.0]]


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
