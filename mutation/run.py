"""Mutation testing of ``nilmag verify --seed 0``; writes MUTANTS.json.

    python3 mutation/run.py [--out MUTANTS.json]

Sites.  The mutation sites of the modules in MODULES are read from their
``ast``, so a docstring or a comment is never mutated.  The operators:

- ``+`` <-> ``-`` and ``*`` <-> ``/`` on every binary operation;
- each float constant times 1.01 (one that this leaves unchanged, 0.0,
  is not a site);
- ``np.add`` <-> ``np.subtract`` and ``np.multiply`` <-> ``np.divide``;
- ``add`` <-> ``sub`` at the call sites of batch_step's local aliases.

A mutant is its module's source with that one token replaced, so every
other line stays as it is.  Sites are numbered in module and source
order, the same on every run.

Runs.  Each mutant runs ``nilmag verify --seed 0`` once, in a child
process, on a temporary copy of src/ that holds the mutant and every
other module byte for byte: verify runs at the constants the checkout
ships, and the checked-out source is never changed.  A mutant is killed
when verify exits with a code other than 0 (1 for a failed check or a
crash, 2 for a refused input or a MemoryError) or when it is still
running at the timeout.  Before any mutant, the unmutated copy must
pass, or the harness stops with code 1.

Children.  At most JOBS children run at a time.  Each starts its own
process group with its address space limited to MEMORY_LIMIT bytes
(resource.setrlimit, in the child before it runs), and is stopped with
its group at the timeout.  Every child still running is stopped on any
exit of the harness, Ctrl-C included.

MUTANTS.json holds the number of mutants killed; per function [killed,
mutants]; the wall time; and per mutant its site, its exit code (null
after a timeout) and the names of the checks it failed, with the last
line of stderr ("error") or "timeout" for a run without a report.  To
see what a change to verify does to the kills, run the harness at both
commits with --out and compare the ids killed: the ids stay the same
while the four mutated modules are unchanged.  The full run took 87 s
on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nilmag"
MODULES = ("trajectories", "integrator", "lie_core", "geometry")
JOBS = 2
MEMORY_LIMIT = 1 << 30
TIMEOUT = 60.0
VERIFY = ("verify", "--seed", "0")
# the child: nilmag's command line, from the copy of src/ on its PYTHONPATH
CHILD = "import sys; from nilmag.cli_reporting import main; sys.exit(main(sys.argv[1:]))"

_BINOPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
_NP_SWAPS = {"add": "subtract", "subtract": "add", "multiply": "divide", "divide": "multiply"}
_ALIAS_SWAPS = {"add": "sub", "sub": "add"}


# ---------------------------------------------------------------------------
# sites


def _char_col(lines: list[str], row: int, byte_col: int) -> int:
    """ast's UTF-8 byte column on 1-based line row, as a str index."""
    return len(lines[row - 1].encode()[:byte_col].decode())


def sites(source: str) -> list[dict]:
    """The mutation sites of a module's source, in source order: each with
    its enclosing function, 1-based line, 0-based column, the kind of
    operator, and the text it replaces and puts in its place."""
    lines = source.splitlines(keepends=True)
    ops = {}  # (row, col) of each operator token -> its text
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP:
            ops[tok.start] = tok.string
    found = []

    def add(node_or_pos, func, kind, old, new):
        if isinstance(node_or_pos, ast.AST):
            row = node_or_pos.lineno
            col = _char_col(lines, row, node_or_pos.col_offset)
        else:
            row, col = node_or_pos
        assert lines[row - 1][col:col + len(old)] == old, (row, col, old)
        found.append({"function": func, "line": row, "col": col, "kind": kind,
                      "old": old, "new": new})

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            func = node.name if func == "<module>" else f"{func}.{node.name}"
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            old, new = _BINOPS[type(node.op)]
            left = (node.left.end_lineno,
                    _char_col(lines, node.left.end_lineno, node.left.end_col_offset))
            right = (node.right.lineno,
                     _char_col(lines, node.right.lineno, node.right.col_offset))
            pos = min(p for p, s in ops.items() if s == old and left <= p < right)
            add(pos, func, "binop", old, new)
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            new = node.value * 1.01
            if new != node.value:
                old = ast.get_source_segment(source, node)
                add(node, func, "constant", old, repr(new))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "np" and node.attr in _NP_SWAPS):
            add(node, func, "numpy", f"np.{node.attr}", f"np.{_NP_SWAPS[node.attr]}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _ALIAS_SWAPS):
            add(node.func, func, "alias", node.func.id, _ALIAS_SWAPS[node.func.id])
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return sorted(found, key=lambda s: (s["line"], s["col"]))


def mutate(source: str, site: dict) -> str:
    """source with site's text replaced, nothing else changed."""
    lines = source.splitlines(keepends=True)
    line, col = lines[site["line"] - 1], site["col"]
    assert line[col:col + len(site["old"])] == site["old"], site
    lines[site["line"] - 1] = line[:col] + site["new"] + line[col + len(site["old"]):]
    return "".join(lines)


# ---------------------------------------------------------------------------
# children


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _stop(proc: subprocess.Popen) -> None:
    """Kill proc's process group and reap proc."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_children(tasks, timeout: float):
    """Run each task (key, argv, cwd, env) as a child process, at most JOBS
    at a time; the tasks are read one by one as slots free up.  Yields
    (key, code, stdout, stderr) as each child ends, code None after a
    timeout.  cwd is a directory of the child's own: its output goes to
    files there, and it is removed when the child ends.  Every child
    still running is stopped on any exit."""
    tasks = iter(tasks)
    running = []  # (key, proc, start, cwd)
    try:
        while True:
            while len(running) < JOBS and (task := next(tasks, None)) is not None:
                key, argv, cwd, env = task
                with open(Path(cwd) / "stdout.txt", "wb") as out, \
                        open(Path(cwd) / "stderr.txt", "wb") as err:
                    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                            stdout=out, stderr=err, start_new_session=True,
                                            preexec_fn=_limit_memory)
                running.append((key, proc, time.monotonic(), Path(cwd)))
            if not running:
                return
            time.sleep(0.01)
            for item in list(running):
                key, proc, start, cwd = item
                code = proc.poll()
                if code is None and time.monotonic() - start < timeout:
                    continue
                running.remove(item)
                _stop(proc)
                out, err = ((cwd / f).read_text(errors="replace")
                            for f in ("stdout.txt", "stderr.txt"))
                shutil.rmtree(cwd)
                yield key, code, out, err
    finally:
        for _, proc, _, cwd in running:
            _stop(proc)
            shutil.rmtree(cwd, ignore_errors=True)


def _outcome(code, out: str, err: str) -> dict:
    """One verify run: its exit code, the checks its report failed, and,
    for a run without a report, the last line of its stderr or the
    timeout."""
    rec = {"exit": code, "failed": []}
    try:
        report = json.loads(out)
        rec["failed"] = [c["name"] for c in report["checks"] if not c["pass"]]
    except (ValueError, KeyError, TypeError):
        if code is None:
            rec["timeout"] = True
        else:
            rec["error"] = (err.strip().splitlines() or [""])[-1][:200]
    return rec


def _verify_tasks(jobs, sources: dict, scratch: Path):
    """run_children's task for each (key, module, text) of jobs: verify
    on a copy of src/ whose module holds text and whose other modules are
    sources' byte for byte (module None: no mutant), made under scratch
    when the task is read."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for key, module, text in jobs:
        cwd = Path(tempfile.mkdtemp(dir=scratch))
        pkg = cwd / "src" / "nilmag"
        pkg.mkdir(parents=True)
        for name, source in sources.items():
            (pkg / f"{name}.py").write_text(text if name == module else source)
        yield (key, [sys.executable, "-c", CHILD, *VERIFY], cwd,
               {**env, "PYTHONPATH": str(cwd / "src")})


def _run(jobs: list, sources: dict, scratch: Path) -> dict:
    """{key: outcome} of every job, with progress on stderr."""
    got = {}
    for key, code, out, err in run_children(_verify_tasks(jobs, sources, scratch), TIMEOUT):
        got[key] = _outcome(code, out, err)
        if len(got) % 50 == 0 or len(got) == len(jobs):
            print(f"# {len(got)}/{len(jobs)} runs", file=sys.stderr, flush=True)
    return got


def summary(mutants: list[dict]) -> dict:
    """MUTANTS.json's counts from the outcomes of the mutants."""
    by_function = {}
    for m in mutants:
        score = by_function.setdefault(f"{m['module']}.{m['function']}", [0, 0])
        score[0] += m["exit"] != 0
        score[1] += 1
    return {
        "killed": sum(m["exit"] != 0 for m in mutants),
        "score_per_function": dict(sorted(by_function.items())),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json", help="output file")
    args = p.parse_args(argv)
    t0 = time.monotonic()

    sources = {f.stem: f.read_text() for f in sorted(SRC.glob("*.py"))}
    found = [{"module": module, **site} for module in MODULES for site in sites(sources[module])]
    mutants = [{"id": i, **site} for i, site in enumerate(found)]
    with tempfile.TemporaryDirectory(prefix="nilmag-mutants-") as scratch:
        [base] = _run([("baseline", None, None)], sources, Path(scratch)).values()
        if base["exit"] != 0:
            print(f"error: verify fails without a mutant: {base}", file=sys.stderr)
            return 1
        got = _run([(m["id"], m["module"], mutate(sources[m["module"]], m)) for m in mutants],
                   sources, Path(scratch))
    for m in mutants:
        m.update(got[m["id"]])

    head = {
        "command": "nilmag " + " ".join(VERIFY),
        "modules": list(MODULES),
        "total": len(mutants),
        **summary(mutants),
        "wall_s": round(time.monotonic() - t0, 1),
    }
    text = json.dumps(head, indent=2)[:-2] + ',\n  "mutants": [\n'
    text += ",\n".join("    " + json.dumps(m) for m in mutants) + "\n  ]\n}\n"
    args.out.write_text(text)
    print(json.dumps({key: head[key] for key in ("total", "killed", "wall_s")}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
