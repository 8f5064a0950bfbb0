"""The library names the benchmark in perfbench/ relies on.

perfbench/tracer.py wraps nilmag functions by name and
perfbench/workloads.py calls homogeneous_generator with five positional
arguments.  Deleting or reshaping one of them breaks the benchmark, so
this test fails at once instead of only in `python3 -m pytest perfbench`.
"""

import importlib.util
from pathlib import Path

from nilmag import OscVector, homogeneous_generator, lie_core, trajectories

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer().Tracer()
    originals = (trajectories.orbit_grid, lie_core.matrix_exp)
    tracer.install()
    try:
        assert trajectories.orbit_grid is not originals[0]
    finally:
        tracer.uninstall()
    assert (trajectories.orbit_grid, lie_core.matrix_exp) == originals


def test_homogeneous_generator_takes_five_positional_arguments():
    assert homogeneous_generator(0.8, 0.0, 0.6, 1.9, 0.5) == OscVector(0.8, 0.0, 0.6, 0.6 + 0.95)


def test_generator_fields_are_python_floats():
    # perfbench/workloads.py writes repr(w.e1) into the argv of its orbit
    # command; numpy 2 prints an np.float64 as "np.float64(0.8)", which the
    # command line refuses, and == cannot tell the two types apart
    w = homogeneous_generator(0.8, 0.0, 0.6, 1.9, 0.5)
    assert type(w.e1) is float
    assert repr(w.e1) == "0.8"
