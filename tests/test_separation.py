"""The three derivations of a trajectory share no formula code.

`nilmag verify` is evidence for homogeneity only because the closed
forms, the matrix-exponential orbit and RK4 agree while computed apart.
This reads the library's source with ast and checks that separation:
the integrator imports only the shared vocabulary (errors, geometry,
lie_core), which imports no derivation, and inside trajectories no
function reachable from a closed form names the orbit's code, or the
other way round.  cli_reporting is exempt: comparing them is its job.
"""

import ast
from pathlib import Path

import nilmag

SRC = Path(nilmag.__file__).parent
VOCABULARY = {"errors", "geometry", "lie_core"}

CLOSED_FORMS = ("magnetic_point", "magnetic_point_from", "magnetic_velocity", "magnetic_grid")
ORBITS = ("orbit_grid", "homogeneous_generator")
ORBIT_NAMES = {"matrix_exp", "algebra_matrix", *ORBITS}
CLOSED_FORM_NAMES = {"_magnetic_xyz", "_k1_arr", "_k2_arr", "_k3_arr", "_K3_COEFFS"}


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def nilmag_imports(tree):
    """The nilmag modules a module's import statements name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from . import x` names the module x
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nilmag"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("nilmag"))
    return found


def names_reachable(tree, roots):
    """Every name or attribute read in the module-level functions that
    roots call, directly or through each other."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    names, todo, seen = set(), list(roots), set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(functions[fn]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo.extend(n for n in names if n in functions)
    return names


def test_integrator_imports_only_the_shared_vocabulary():
    assert nilmag_imports(parse("integrator")) <= VOCABULARY
    for module in VOCABULARY:
        assert nilmag_imports(parse(module)) <= VOCABULARY, module


def test_closed_forms_reach_no_orbit_code():
    names = names_reachable(parse("trajectories"), CLOSED_FORMS)
    assert not names & ORBIT_NAMES


def test_orbits_reach_no_closed_form_code():
    names = names_reachable(parse("trajectories"), ORBITS)
    assert not names & CLOSED_FORM_NAMES
    assert not [n for n in names if n.startswith("magnetic_")]
