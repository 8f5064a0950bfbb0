"""Write a BENCH_<n>.json file: the benchmark's metrics for one commit.

    python3 tools/bench_file.py BENCH_<n>.json

Run from anywhere; the benchmark runs in the checkout that holds this
script.  For each workload declared in BENCHMARK.json it runs
``python3 perfbench/run.py`` unchanged, each run SECONDS long, so that
files of different commits compare: REPEATS untraced runs
(``--trace 0``) at the seeds UNTRACED_SEEDS, which give the median and
quartiles of each end-to-end metric, and one traced run (``--trace 1``)
at TRACED_SEED, which gives the per-layer values.  It then runs the
Tier-1 test command once and records its wall time and counts.  That run
deselects the one test that reads the newest BENCH file
(TIER1_DESELECTED), since the file it is writing does not exist yet.

If a run exits with a code other than 0 or fails an operation, any
declared metric is missing or not finite, or the Tier-1 command exits
with a code other than 0, it names the failure, exits with code 1 and
writes nothing.  A whole run takes about 3.2 minutes on a 2-core
Xeon.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ".perfbench_out"  # perfbench/run.py writes here, in its checkout
UNTRACED_SEEDS = (2201, 2202, 2203)
TRACED_SEED = 2204
REPEATS = len(UNTRACED_SEEDS)
SECONDS = 15.0
TIER1_DESELECTED = "tests/test_bench_file.py::test_newest_bench_file_declares_every_metric"
TIER1_COMMAND = [
    sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
    "--deselect", TIER1_DESELECTED,
]


class RunError(Exception):
    """A run exits with a code other than 0 or fails an operation, or a
    declared metric is missing from its result or is not finite."""


def run_benchmark(workload: str, seed: int, trace: int, root: Path = ROOT) -> dict:
    """One perfbench run in the checkout at root; returns the result file
    it writes, or RunError unless every operation of the run passed."""
    path = root / RESULTS / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)  # never read a stale result
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    print("$", " ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not path.is_file():
        raise RunError(f"{' '.join(cmd[1:])} in {root} exited with code {proc.returncode}")
    result = json.loads(path.read_text())
    if failed := result["result"]["failed"]:
        raise RunError(f"{' '.join(cmd[1:])} in {root}: {failed} of "
                       f"{result['result']['attempted']} operations failed")
    return result


def finite_value(result: dict, workload: str, name: str) -> float:
    """The value of metric `name` in a run's result, or RunError."""
    metric = result["result"]["metrics"].get(name)
    if metric is None:
        raise RunError(f"{workload}: metric {name} is missing")
    value = metric["value"]
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise RunError(f"{workload}: metric {name} is not finite ({value!r})")
    return float(value)


def quartiles(values: list[float]) -> dict:
    """Median and quartiles of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(declared: dict, untraced: list[dict], traced: dict, workload: str) -> dict:
    """One workload's entry: quartiles of each end-to-end metric over the
    untraced runs, and each per-layer value of the traced run."""
    end_to_end = {}
    for m in declared["end_to_end"]:
        values = [finite_value(r, workload, m["name"]) for r in untraced]
        end_to_end[m["name"]] = {"unit": m["unit"], **quartiles(values), "values": values}
    per_layer = {
        m["name"]: {"unit": m["unit"], "value": finite_value(traced, workload, m["name"])}
        for m in declared["per_layer"]
    }
    runs = untraced + [traced]
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "ops_attempted": sum(r["result"]["attempted"] for r in runs),
        "ops_failed": sum(r["result"]["failed"] for r in runs),
    }


def uncommitted_changes() -> bool | None:
    """Whether tracked files differ from the commit named in the
    environment block; None without git."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def run_tier1() -> dict:
    """The Tier-1 command once: wall time and the counts pytest prints."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        TIER1_COMMAND, cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )},
    )
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|skipped|error)", summary)}
    return {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "deselected": [TIER1_DESELECTED],
        "exit_code": proc.returncode,
        "wall_s": wall,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "skipped": counts.get("skipped", 0),
        "errors": counts.get("error", 0),
        "summary": summary,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="the BENCH_<n>.json file to write")
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    workloads, environment = {}, None
    try:
        for w in (d["name"] for d in declared["workloads"]):
            untraced = [run_benchmark(w, seed, 0) for seed in UNTRACED_SEEDS]
            traced = run_benchmark(w, TRACED_SEED, 1)
            workloads[w] = summarise(declared, untraced, traced, w)
            environment = environment or untraced[0]["environment"]
    except RunError as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return 1
    print("$ tier-1 tests", file=sys.stderr, flush=True)
    tier1 = run_tier1()
    if tier1["exit_code"] != 0:
        print(f"error: tier-1 tests exited with code {tier1['exit_code']} "
              f"({tier1['summary']}); nothing written", file=sys.stderr)
        return 1

    bench = {
        "benchmark": " ".join(declared["command"]),
        "seconds": SECONDS,
        "repeats": REPEATS,
        "seeds": {"untraced": list(UNTRACED_SEEDS), "traced": TRACED_SEED},
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive')",
        "environment": environment,
        "uncommitted_changes": uncommitted_changes(),
        "workloads": workloads,
        "tier1": tier1,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
