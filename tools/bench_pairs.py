"""Alternating before/after runs of the benchmark, as JSON on stdout.

    python3 tools/bench_pairs.py BASE [CHANGE] [--workload W] > pairs.json

BASE and CHANGE are git revisions of this repository.  Without CHANGE
the change side is this checkout as it stands: HEAD with its uncommitted
edits to tracked files, as ``git stash create`` records them (stage a new
file to include it).  Each side is checked out in its own temporary git
worktree, so that both run from the same kind of directory (run in this
checkout against a worktree of the same commit, the checkout read
``peak_rss_mb`` 0.2-1.3 MB lower in 9 or 10 of 10 pairs on each
workload).  Both sides run this checkout's perfbench/ and
BENCHMARK.json, copied into each worktree, so that only the code under
test differs.

For each workload (every one BENCHMARK.json declares, or those named
with --workload), each of the PAIRS pairs runs ``perfbench/run.py
--trace 0`` once on each side, for bench_file's SECONDS, pair i with the
seed SEED + i (tools/bench_file.py uses other seeds); the base runs first
in even pairs, the change in odd ones.  For each end-to-end metric the JSON holds each side's values,
median and quartiles, the change of the medians in percent, the pairs the
change won and lost (a tie counts for neither side), the two-sided sign
test's p over the pairs that are not ties, and two verdicts:

- "gain": the change won at least nine tenths of the pairs, and its
  median is better than the base's by more than the base's interquartile
  range;
- "within_bound": the change's median is not worse than the base's by
  more than the metric's bound in BENCHMARK.json.

A run that bench_file's run_benchmark refuses (an exit code other than
0 or a failed operation, on either side) or a metric that is missing or
not finite stops the tool with code 1 before it writes anything.  The
worktrees are removed on every exit.  Ten pairs of 15 s runs of one
workload take about 5 minutes on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_file import SECONDS, RunError, finite_value, quartiles, run_benchmark

ROOT = Path(__file__).resolve().parent.parent
SEED = 2800
PAIRS = 10  # the fewest from which a gain may be claimed


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of wins against losses, ties left out."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's entry from the values of paired runs, pair i being
    (base[i], change[i])."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (b - c) for b, c in zip(base, change, strict=True)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    b, c = quartiles(base), quartiles(change)
    gap = sign * (b["median"] - c["median"])  # > 0 when the change is better
    return {
        "base": {**b, "values": base},
        "change": {**c, "values": change},
        "delta_pct": 100.0 * (c["median"] - b["median"]) / b["median"],
        "wins": wins,
        "losses": losses,
        "ties": len(gains) - wins - losses,
        "sign_test_p": sign_test_p(wins, losses),
        "gain": wins >= 0.9 * len(gains) and gap > b["q3"] - b["q1"],
        "within_bound": -gap <= bound * abs(b["median"]),
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def worktree(rev: str, path: Path):
    """A detached worktree of rev at path, holding this checkout's
    perfbench/ and BENCHMARK.json; removed on exit."""
    git("worktree", "add", "--detach", str(path), rev)
    try:
        shutil.rmtree(path / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
        yield path
    finally:
        git("worktree", "remove", "--force", str(path))


def run_pairs(declared: dict, workload: str, sides: dict) -> dict:
    """One workload's entry: PAIRS alternating runs on both sides."""
    runs = {side: [] for side in sides}
    for i in range(PAIRS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            print(f"# {workload} pair {i + 1}/{PAIRS}, {side}", file=sys.stderr, flush=True)
            runs[side].append(run_benchmark(workload, SEED + i, 0, sides[side]))
    entry = {
        "first": ["base" if i % 2 == 0 else "change" for i in range(PAIRS)],
        "attempted": {side: sum(r["result"]["attempted"] for r in rs)
                      for side, rs in runs.items()},
        "src_nilmag_lines": {side: rs[0]["environment"]["src_nilmag_lines"]
                             for side, rs in runs.items()},
        "end_to_end": {},
    }
    for m in declared["end_to_end"]:
        values = {side: [finite_value(r, workload, m["name"]) for r in rs]
                  for side, rs in runs.items()}
        entry["end_to_end"][m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **compare(values["base"], values["change"], m["better"], m["bound"]),
        }
    return entry


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git revision of the base side")
    p.add_argument("change", nargs="?", help="git revision of the change side "
                   "(default: this checkout, uncommitted edits included)")
    p.add_argument("--workload", action="append", choices=names,
                   help="a workload to run (repeatable; default: all)")
    args = p.parse_args(argv)

    revs = {"base": args.base, "change": args.change}
    commits = {side: git("rev-parse", "--verify", f"{rev or 'HEAD'}^{{commit}}")
               for side, rev in revs.items()}
    edits = "" if args.change else git("stash", "create")
    commits["change"] = edits or commits["change"]
    out = {
        "benchmark": " ".join(declared["command"]) + " --trace 0",
        "sides": {side: {"rev": rev, "commit": commits[side]} for side, rev in revs.items()},
        "uncommitted_changes": bool(edits),
        "pairs": PAIRS,
        "seconds": SECONDS,
        "seeds": [SEED + i for i in range(PAIRS)],
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive')",
        "workloads": {},
    }
    try:
        with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp, \
                contextlib.ExitStack() as stack:
            sides = {side: stack.enter_context(worktree(commit, Path(tmp) / side))
                     for side, commit in commits.items()}
            for w in args.workload or names:
                out["workloads"][w] = run_pairs(declared, w, sides)
    except RunError as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return 1
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
