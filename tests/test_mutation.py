"""mutation/run.py's sites, mutants, copies of src/, counts and child
control, on a small source string, made-up outcomes and a child that
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


def test_each_copy_holds_every_unmutated_module_byte_for_byte(harness, tmp_path):
    sources = {f.stem: f.read_text() for f in sorted(harness.SRC.glob("*.py"))}
    assert "cli_reporting" in sources
    mutant = harness.mutate(sources["integrator"], harness.sites(sources["integrator"])[0])
    jobs = [("baseline", None, None), (0, "integrator", mutant)]
    for (key, module, text), (got, argv, cwd, env) in zip(
            jobs, harness._verify_tasks(jobs, sources, tmp_path), strict=True):
        assert got == key
        assert argv[-3:] == ["verify", "--seed", "0"]
        assert env["PYTHONPATH"] == str(cwd / "src")
        pkg = cwd / "src" / "nilmag"
        assert sorted(f.stem for f in pkg.glob("*.py")) == sorted(sources)
        for name, source in sources.items():
            expected = text if name == module else source
            assert (pkg / f"{name}.py").read_bytes() == expected.encode()


def outcome(*failed, code=None):
    return {"exit": 1 if failed else code, "failed": list(failed)}


def test_summary_counts_every_exit_but_0_as_a_kill(harness):
    records = [
        ("f", outcome("a", "b")),                          # a failed check
        ("f", {**outcome(code=1), "error": "ZeroDivisionError: division by zero"}),
        ("g", {**outcome(code=2), "error": "error: velocity must be a unit vector"}),
        ("g", {**outcome(code=None), "timeout": True}),
        ("g", outcome(code=0)),                            # a survivor
        ("h", outcome(code=0)),
    ]
    mutants = [{"id": i, "module": "m", "function": func, **rec}
               for i, (func, rec) in enumerate(records)]
    assert harness.summary(mutants) == {
        "killed": 4,
        "score_per_function": {"m.f": [2, 2], "m.g": [2, 3], "m.h": [0, 1]},
    }


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
