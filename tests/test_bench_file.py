"""The newest committed BENCH_<n>.json, written by tools/bench_file.py,
holds every metric that BENCHMARK.json declares, finite, for every
workload."""

import importlib.util
import json
import math
import re
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def newest_bench_file():
    files = {int(m[1]): p for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    assert files, "no BENCH_<n>.json at the root of the repo"
    return files[max(files)]


def test_newest_bench_file_declares_every_metric():
    bench = json.loads(newest_bench_file().read_text())
    assert bench["seconds"] >= 15 and bench["repeats"] >= 3
    assert "src_nilmag_lines" in bench["environment"]
    assert bench["tier1"]["exit_code"] == 0 and bench["tier1"]["failed"] == 0
    for workload in (w["name"] for w in DECLARED["workloads"]):
        entry = bench["workloads"][workload]
        for m in DECLARED["end_to_end"]:
            got = entry["end_to_end"][m["name"]]
            assert len(got["values"]) == bench["repeats"], (workload, m["name"])
            for key in ("median", "q1", "q3"):
                assert math.isfinite(got[key]), (workload, m["name"], key)
            assert got["q1"] <= got["median"] <= got["q3"], (workload, m["name"])
        for m in DECLARED["per_layer"]:
            assert math.isfinite(entry["per_layer"][m["name"]]["value"]), (workload, m["name"])


def _writer():
    spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(**metrics):
    return {"result": {"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
                       "attempted": 1, "failed": 0}}


@pytest.mark.parametrize("value", [None, math.nan, math.inf])
def test_writer_names_a_missing_or_non_finite_metric(value):
    writer = _writer()
    declared = {"end_to_end": [{"name": "wall_s", "unit": "s"}],
                "per_layer": [{"name": "busy_s", "unit": "s"}]}
    good = _result(wall_s=1.0, busy_s=2.0)
    bad = _result(wall_s=1.0) if value is None else _result(wall_s=1.0, busy_s=value)
    assert writer.summarise(declared, [good] * 3, good, "w")["per_layer"]["busy_s"]["value"] == 2.0
    with pytest.raises(writer.RunError, match="busy_s"):
        writer.summarise(declared, [good] * 3, bad, "w")


def test_writer_refuses_a_run_with_a_failed_operation(monkeypatch, tmp_path, capsys):
    writer = _writer()

    def perfbench(cmd, cwd, **kwargs):
        # the run exits 0 and writes its result, one of 4 operations failed
        opts = dict(zip(cmd[2::2], cmd[3::2]))
        path = cwd / writer.RESULTS / (
            f"result-{opts['--workload']}-seed{opts['--seed']}-trace{opts['--trace']}.json")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"result": {"attempted": 4, "failed": 1, "metrics": {}}}))
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(writer, "subprocess",
                        SimpleNamespace(run=perfbench, DEVNULL=subprocess.DEVNULL))
    real = writer.run_benchmark
    monkeypatch.setattr(writer, "run_benchmark", lambda *a: real(*a, root=tmp_path))
    out = tmp_path / "BENCH_0.json"
    assert writer.main([str(out)]) == 1
    assert not out.exists()
    assert "1 of 4 operations failed; nothing written" in capsys.readouterr().err


def test_writer_stops_on_a_failing_tier1_run(monkeypatch, tmp_path, capsys):
    writer = _writer()
    done = subprocess.CompletedProcess([], 1, stdout="F.E\n3 passed, 1 failed, 2 errors in 1.0s\n")
    monkeypatch.setattr(writer, "subprocess", SimpleNamespace(run=lambda *a, **k: done))
    tier1 = writer.run_tier1()
    assert (tier1["passed"], tier1["failed"], tier1["errors"], tier1["exit_code"]) == (3, 1, 2, 1)
    # the benchmark runs pass; the failing Tier-1 run alone stops the file
    monkeypatch.setattr(writer, "run_benchmark", lambda *a: {"environment": {}})
    monkeypatch.setattr(writer, "summarise", lambda *a: {})
    out = tmp_path / "BENCH_0.json"
    assert writer.main([str(out)]) == 1
    assert not out.exists()
    assert "tier-1 tests exited with code 1" in capsys.readouterr().err
