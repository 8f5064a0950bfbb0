"""Span tracing of nilmag's layers for the benchmark's traced run.

The tracer wraps public functions of each nilmag module at every name a
caller looks up (``nilmag.trajectories.matrix_exp``,
``nilmag.cli_reporting.magnetic_grid``, ...), so calls from inside the
package are seen as well as calls from the benchmark.  Nothing is wrapped
until ``install`` runs, which the benchmark does only in its traced phase.

Each call becomes a span (name, parent, start, end, work count) kept in
flat arrays in memory.  A span's self time is its duration minus the
durations of its children (one thread, so children never overlap).  A
layer's busy time sums its outermost spans only, so a layer function
calling another of the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import nilmag
from nilmag import cli_reporting, geometry, integrator, lie_core, trajectories

_MODULES = (nilmag, lie_core, geometry, trajectories, integrator, cli_reporting)

_CHECKS = (
    "check_orbit_formulas",
    "check_ode_sweep",
    "check_convergence",
    "check_u_tensor",
    "check_go_grid",
    "check_group_identities",
    "check_frame_gram",
    "check_reeb_lorentz",
)

# layer -> (defining module, function names)
LAYERS = {
    "trajectories.magnetic_grid": (trajectories, ("magnetic_grid",)),
    "trajectories.orbit_grid": (trajectories, ("orbit_grid",)),
    "trajectories.scalar": (
        trajectories,
        ("magnetic_point", "magnetic_point_from", "magnetic_velocity"),
    ),
    "lie_core.matrix_exp": (lie_core, ("matrix_exp",)),
    "lie_core.group_ops": (
        lie_core,
        (
            "nil_multiply",
            "osc_multiply",
            "osc_action",
            "osc_to_matrix",
            "algebra_matrix",
            "matrix_to_osc",
            "bracket",
            "exp_nil",
        ),
    ),
    "integrator.batch_step": (integrator, ("batch_step",)),
    "integrator.integrate": (integrator, ("integrate",)),
    "geometry.go_criterion": (geometry, ("go_criterion",)),
    "geometry.frame_ops": (
        geometry,
        ("frame_to_coord", "coord_to_frame", "metric", "contact_form", "lorentz", "cross"),
    ),
    "geometry.u_tensor": (geometry, ("u_tensor",)),
    "cli_reporting.run_emit": (cli_reporting, ("run_emit",)),
    "cli_reporting.run_orbit": (cli_reporting, ("run_orbit",)),
    # check_homogeneity runs twice per verify; its spans are split by q_zero
    "cli_reporting.check.homogeneity_magnetic": (cli_reporting, ("check_homogeneity",)),
    "cli_reporting.check.homogeneity_geodesic": (cli_reporting, ()),
    **{
        f"cli_reporting.check.{fn[len('check_'):]}": (cli_reporting, (fn,))
        for fn in _CHECKS
    },
}
CHECK_LAYERS = tuple(k for k in LAYERS if k.startswith("cli_reporting.check."))


def _points(args, kwargs):
    return np.broadcast(*args[:5]).size


def _gen_steps(args, kwargs):
    w = args[0]
    n = 1 if isinstance(w, lie_core.OscVector) or np.ndim(w) == 1 else len(w)
    return n * int(args[2] if len(args) > 2 else kwargs["steps"])


def _traj(args, kwargs):
    return np.size(args[0][0])


def _steps(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["cfg"]).n


_WORK = {
    "magnetic_grid": _points,
    "orbit_grid": _gen_steps,
    "batch_step": _traj,
    "integrate": _steps,
}


def _homogeneity_layer(args, kwargs):
    q_zero = args[1] if len(args) > 1 else kwargs.get("q_zero", False)
    kind = "geodesic" if q_zero else "magnetic"
    return f"cli_reporting.check.homogeneity_{kind}"


class Tracer:
    """In-memory spans of one process; see the module docstring."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.layer = array("q")
        self.work = array("q")
        self.outer = array("b")
        self._stack: list[int] = []
        self._active = [0] * len(self.layers)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer_id: int, work: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.layer.append(layer_id)
        self.work.append(work)
        self.outer.append(self._active[layer_id] == 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._active[layer_id] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, layer_id: int, start: float) -> None:
        self.end[idx] = time.perf_counter()
        self.start[idx] = start
        self._stack.pop()
        self._active[layer_id] -= 1

    def _wrap(self, fn, layer: str):
        work = _WORK.get(fn.__name__)
        fixed_id = self._layer_id[layer]
        choose = _homogeneity_layer if fn.__name__ == "check_homogeneity" else None
        layer_id_of = self._layer_id
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lid = layer_id_of[choose(args, kwargs)] if choose else fixed_id
            idx = self._open(lid, work(args, kwargs) if work else 0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, lid, start)

        return traced

    def span(self, kind: str) -> "_OpSpan":
        """Root span around one benchmark operation, in layer op.<kind>."""
        name = f"op.{kind}"
        if name not in self._layer_id:
            self._layer_id[name] = len(self.layers)
            self.layers.append(name)
            self._active.append(0)
        return _OpSpan(self, self._layer_id[name])

    def install(self) -> None:
        for layer, (home, names) in LAYERS.items():
            for name in names:
                orig = getattr(home, name)
                wrapped = self._wrap(orig, layer)
                for mod in _MODULES:
                    if mod.__dict__.get(name) is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur, dur - child, parent

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy, self and work per layer, summed over all spans."""
        dur, self_time, _ = self._arrays()
        layer = np.frombuffer(self.layer, dtype=np.int64)
        work = np.frombuffer(self.work, dtype=np.int64)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        totals = {}
        for lid, name in enumerate(self.layers):
            mine = layer == lid
            totals[name] = {
                "calls": int(np.count_nonzero(mine)),
                "busy_s": float(dur[mine & outer].sum()),
                "self_s": float(self_time[mine].sum()),
                "work": int(work[mine].sum()),
            }
        return totals

    def self_time_sum(self) -> float:
        """Self times of every span; equals the summed root durations."""
        return float(self._arrays()[1].sum())

    def save(self, path) -> None:
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            work=np.frombuffer(self.work, dtype=np.int64),
        )


class _OpSpan:
    def __init__(self, tracer: Tracer, layer_id: int) -> None:
        self._tracer = tracer
        self._lid = layer_id

    def __enter__(self):
        self._idx = self._tracer._open(self._lid, 0)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._idx, self._lid, self._start)
