"""mutation/run.py's sites, mutants, constant lines, choice of values and
child control, on a small source string, made-up runs and a child that
sleeps: no mutant runs."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''\
"""A docstring: a + b * 2.0 is not mutated."""
import numpy as np


def f(x, y):
    # nor is a comment: x - y / 3.0
    add = np.add
    return add(x * 2.0, y) - (x + 0.0) / np.multiply(x, y)
'''


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("mutation_run", ROOT / "mutation" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sites_are_read_from_the_code_alone_in_source_order(harness):
    got = harness.sites(SOURCE)
    assert harness.sites(SOURCE) == got
    assert [(s["line"], s["col"], s["kind"], s["old"], s["new"]) for s in got] == [
        (7, 10, "numpy", "np.add", "np.subtract"),
        (8, 11, "alias", "add", "sub"),
        (8, 17, "binop", "*", "/"),
        (8, 19, "constant", "2.0", "2.02"),
        (8, 27, "binop", "-", "+"),
        (8, 32, "binop", "+", "-"),  # x + 0.0: 0.0 * 1.01 is 0.0, no site
        (8, 39, "binop", "/", "*"),
        (8, 41, "numpy", "np.multiply", "np.divide"),
    ]
    assert {s["function"] for s in got} == {"f"}


def test_each_mutant_compiles_and_changes_its_one_site(harness):
    for site in harness.sites(SOURCE):
        mutant = harness.mutate(SOURCE, site)
        compile(mutant, "mutant", "exec")
        changed = [i + 1 for i, (a, b) in enumerate(zip(SOURCE.splitlines(),
                                                        mutant.splitlines(), strict=True))
                   if a != b]
        assert changed == [site["line"]]


@pytest.mark.parametrize("name", ["_SWEEP_H", "_CONVERGENCE_STEPS"])
def test_each_constant_is_written_into_a_copy_of_its_one_line(harness, name):
    source = (ROOT / "src" / "nilmag" / "cli_reporting.py").read_text()
    candidates, _ = harness.CONSTANTS[name]
    for value in candidates:
        written = harness.with_constants(source, {name: value})
        [(old, new)] = [(a, b) for a, b in zip(source.splitlines(), written.splitlines(),
                                               strict=True) if a != b]
        assert old.startswith(f"{name} = ")
        assert new == harness.run_key(name, value)
    with pytest.raises(ValueError):
        harness.with_constants(SOURCE, {name: candidates[0]})


def test_the_table_names_each_constant_the_harness_varies(harness):
    assert set(harness.CONSTANTS) == {"_SWEEP_H", "_CONVERGENCE_STEPS"}
    runs = harness.settings(harness.CONSTANTS)
    reference = runs.pop(harness.REFERENCE)
    # every other run moves one constant off its reference
    for key, values in runs.items():
        [moved] = [name for name in values if values[name] != reference[name]]
        assert key == harness.run_key(moved, values[moved])


# a made-up table: A read by check "a", B by check "b"
TABLE = {"A": ((1.0, 2.0, 3.0, 4.0), frozenset({"a"})),
         "B": (((1, 2), (2, 4)), frozenset({"b"}))}


def outcome(*failed, code=None):
    return {"exit": 1 if failed else code or 0, "failed": list(failed)}


def test_summary_picks_the_largest_candidate_without_a_lost_kill(harness):
    # mutant 0: killed by "a" in the reference run and at A = 2.0 and 4.0,
    # not at 3.0, and reused at B; mutant 1: a crash without a report, killed everywhere;
    # mutant 2: killed by "c", which reads neither constant, so reused;
    # mutant 3: survives, and is killed only at A = 4.0; mutant 4: killed
    # by "b" in the reference run, so its A runs are reused, and by
    # nothing at B = (2, 4)
    a_runs = {"A = 2.0": outcome("a"), "A = 3.0": outcome(), "A = 4.0": outcome("a")}
    records = [
        (outcome("a"), a_runs),
        (outcome(code=1), {**{k: outcome(code=1) for k in a_runs},
                           "B = (2, 4)": outcome(code=1)}),
        (outcome("c", "a"), {}),
        (outcome(), {"A = 2.0": outcome(), "A = 3.0": outcome(), "A = 4.0": outcome("a"),
                     "B = (2, 4)": outcome()}),
        (outcome("b"), {"B = (2, 4)": outcome()}),
    ]
    mutants = [{"module": "m", "function": "f", "runs": harness.mutant_runs(ref, again, TABLE)}
               for ref, again in records]
    assert mutants[2]["runs"]["A = 3.0"] == {**outcome("c", "a"), "reused": True}
    assert mutants[4]["runs"]["A = 4.0"] == {**outcome("b"), "reused": True}
    assert "reused" not in mutants[4]["runs"]["B = (2, 4)"]

    got = harness.summary(mutants, TABLE)
    assert got["killed"] == 4
    a, b = got["constants"]["A"], got["constants"]["B"]
    assert a["lost_kills"] == {"1.0": [], "2.0": [], "3.0": [0], "4.0": []}
    assert a["killed"] == {"1.0": 4, "2.0": 4, "3.0": 3, "4.0": 5}
    assert a["reused"] == {"1.0": 0, "2.0": 2, "3.0": 2, "4.0": 2}
    assert a["chosen"] == 4.0
    assert b["lost_kills"] == {"(1, 2)": [], "(2, 4)": [4]}
    assert b["reused"] == {"(1, 2)": 0, "(2, 4)": 2}
    assert b["chosen"] == (1, 2)
    assert got["score_per_function"] == {"m.f": [4, 5]}


def test_a_child_that_never_exits_is_stopped_at_its_timeout(harness, tmp_path, monkeypatch):
    started = []
    real = subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    argv = [sys.executable, "-c", "import time; time.sleep(600)"]
    start = time.monotonic()
    [(key, code, _, _)] = harness.run_children([("sleeper", argv, tmp_path, None)], 0.1)
    assert time.monotonic() - start < 30.0
    assert (key, code) == ("sleeper", None)
    # the child was killed and reaped, its process group is gone, and so
    # is its directory
    [child] = started
    assert child.returncode == -signal.SIGKILL
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)
    assert not tmp_path.exists()
