"""Self-tests of the benchmark.

The oracle must fail runs with a perturbed magnetic coupling (including
a NaN one), clean runs must report every metric BENCHMARK.json declares,
and a directory without nilmag's sources must give no result.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import run  # noqa: E402
from reference import REFERENCE_S, SpeedSampler  # noqa: E402
from workloads import Verdict  # noqa: E402


def _run(workload, *extra, trace=0, root=ROOT):
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), *extra,
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize(
    "workload, fault",
    [("verify", "1e-3"), ("verify", "nan"), ("sweep", "1e-3"), ("emit", "1e-3")],
)
def test_oracle_fails_a_perturbed_coupling(workload, fault):
    res = _result(_run(workload, "--fault-j", fault))
    assert res["failed"] > 0
    assert res["correct"] is False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_reports_every_end_to_end_metric(workload):
    res = _result(_run(workload))
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(v["value"] > 0.0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    res = _result(_run(workload, trace=1))
    assert res["correct"] is True
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    # self times partition the root spans, which cover the timed operations
    assert metrics["trace.accounted_ratio"]["value"] == pytest.approx(1.0, abs=1e-3)
    assert 0.0 < metrics["max_error_ratio"]["value"] <= 1.0
    calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    if workload == "verify":
        for module in ("trajectories", "lie_core", "integrator", "geometry"):
            assert any(v > 0 for k, v in calls.items() if k.startswith(module))
        assert metrics["cli_reporting.check.ode_sweep.busy_s"]["value"] > 0.0
    if workload == "sweep":
        assert calls["integrator.batch_step.calls"] == 0.0
        assert calls["integrator.integrate.calls"] == 0.0
        assert calls["lie_core.matrix_exp.calls"] == 4000.0
    if workload == "emit":
        assert metrics["cli_reporting.run_emit.self_s"]["value"] > 0.0
        assert calls["trajectories.magnetic_grid.calls"] == 0.0


def test_no_result_without_the_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("verify", root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_verdict_fails_nan_and_exact_mismatch():
    v = Verdict()
    v.compare("nan", [0.0, math.nan], 1.0)
    assert not v.ok and math.isnan(v.worst_ratio)
    v = Verdict()
    v.compare("exact", [0.0, 1e-300], 0.0)
    assert not v.ok and v.worst_ratio == 0.0
    v = Verdict()
    v.compare("ok", [1e-12, 5e-10], 1e-9)
    assert v.ok and v.worst_ratio == pytest.approx(0.5)


def test_tail_has_ten_samples_above_it():
    values = [float(i) for i in range(100)]
    value, pct, n = run._tail(values)
    assert n == 100 and pct == 90.0
    assert sum(x > value for x in values) == 10
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_speed_sampler_takes_its_own_time_out_of_the_clock():
    speed = SpeedSampler()
    speed.start()
    try:
        t0, c0 = time.perf_counter(), speed.clock()
        while time.perf_counter() - t0 < 1.0:
            pass
        t1, c1 = time.perf_counter(), speed.clock()
    finally:
        speed.stop()
    assert len(speed.durations) >= 3
    assert (t1 - t0) - (c1 - c0) == pytest.approx(sum(speed.durations), abs=1e-4)
    assert speed.scale() == pytest.approx(
        REFERENCE_S / statistics.fmean(speed.durations)
    )
    # an interval with no sample falls back to the three nearest
    assert speed.scale(t1 + 10.0, t1 + 20.0) == pytest.approx(
        REFERENCE_S / statistics.fmean(speed.durations[-3:])
    )
