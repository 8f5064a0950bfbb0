"""The arithmetic of tools/bench_pairs.py, on made-up numbers: no
benchmark runs and no worktree is made."""

import contextlib
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_pairs")


def _result(value=1.0):
    """A run's result file with every end-to-end metric at value."""
    return {"environment": {"src_nilmag_lines": 1},
            "result": {"attempted": 4, "failed": 0,
                       "metrics": {name: {"value": value} for name in END_TO_END}}}


def test_compare_counts_wins_and_leaves_ties_out(pairs):
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.9, 2.0, 2.5, 4.5, 4.0]  # pair 2 is a tie, pair 4 a loss
    got = pairs.compare(base, change, "lower", 0.25)
    assert got["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "values": base}
    assert got["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0, "values": change}
    assert got["delta_pct"] == pytest.approx(-100.0 / 6.0)
    assert (got["wins"], got["losses"], got["ties"]) == (3, 1, 1)
    assert got["sign_test_p"] == pytest.approx(10 / 16)
    assert not got["gain"] and got["within_bound"]
    # where higher is better the same numbers are one win and three losses
    got = pairs.compare(base, change, "higher", 0.1)
    assert (got["wins"], got["losses"], got["ties"]) == (1, 3, 1)
    assert not got["within_bound"]  # 2.5 is more than a tenth below 3.0


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_base_spread(pairs):
    base = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    got = pairs.compare(base, [b - 0.05 for b in base], "lower", 0.25)
    assert got["wins"] == 10 and got["gain"]
    # winning every pair by less than the interquartile range is no gain
    got = pairs.compare(base, [b - 0.01 for b in base], "lower", 0.25)
    assert got["wins"] == 10 and not got["gain"]
    # nor is a large gap with 8 wins of 10
    change = [b - 0.05 for b in base[:8]] + [b + 0.05 for b in base[8:]]
    got = pairs.compare(base, change, "lower", 0.25)
    assert got["wins"] == 8 and not got["gain"]


def test_sign_test(pairs):
    assert pairs.sign_test_p(10, 0) == 2 / 1024
    assert pairs.sign_test_p(0, 10) == 2 / 1024
    assert pairs.sign_test_p(9, 1) == 22 / 1024
    assert pairs.sign_test_p(5, 5) == 1.0
    assert pairs.sign_test_p(0, 0) == 1.0  # all ties


def test_main_writes_nothing_after_a_failed_run(pairs, monkeypatch, tmp_path, capsys):
    # the base side's second run fails an operation, which bench_file's
    # run_benchmark refuses (tests/test_bench_file.py)
    runs = iter([_result(), _result(), _result()])

    def run_benchmark(*args):
        result = next(runs, None)
        if result is None:
            raise pairs.RunError("run.py in base: 2 of 4 operations failed")
        return result

    monkeypatch.setattr(pairs, "run_benchmark", run_benchmark)
    monkeypatch.setattr(pairs, "git", lambda *a: "")
    monkeypatch.setattr(pairs, "worktree", lambda rev, path: contextlib.nullcontext(tmp_path))
    monkeypatch.setattr(pairs, "PAIRS", 2)
    assert pairs.main(["HEAD", "--workload", "verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "run.py in base: 2 of 4 operations failed; nothing written" in err


def test_main_writes_the_pairs_of_each_workload(pairs, monkeypatch, tmp_path, capsys):
    values = iter([2.0, 1.0, 1.1, 2.1])  # base, change, then change, base
    monkeypatch.setattr(pairs, "run_benchmark", lambda *a: _result(value=next(values)))
    monkeypatch.setattr(pairs, "git", lambda *a: "")
    made = []  # both sides run in a worktree, the change side too
    monkeypatch.setattr(pairs, "worktree", lambda rev, path: made.append(path.name)
                        or contextlib.nullcontext(tmp_path))
    monkeypatch.setattr(pairs, "PAIRS", 2)
    assert pairs.main(["HEAD", "--workload", "emit"]) == 0
    assert made == ["base", "change"]
    entry = json.loads(capsys.readouterr().out)["workloads"]["emit"]
    assert entry["first"] == ["base", "change"]
    assert set(entry["end_to_end"]) == set(END_TO_END)
    wall = entry["end_to_end"]["wall_s"]
    assert wall["base"]["values"] == [2.0, 2.1] and wall["change"]["values"] == [1.0, 1.1]
    assert (wall["wins"], wall["sign_test_p"]) == (2, 0.5)
