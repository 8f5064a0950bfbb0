"""Fixed-step RK4 integration of the Lorentz equation in coordinates.

Independent of every closed form in trajectories: the right-hand side is
assembled from the coordinate ODE system

    x'' = -(q + cos_theta) y',   y'' = (q + cos_theta) x',

with cos_theta = z' + (x' y - x y')/2 recomputed from the state at every
evaluation and z'' chosen so that cos_theta has zero derivative
identically.  Speed and contact-angle conservation along the numerical
solution are therefore genuine accuracy checks, not built-in identities
of stored quantities.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .geometry import FrameVector, _require_unit, frame_to_coord
from .lie_core import NilPoint, _real_array, _real_count, _real_scalar


@dataclass(frozen=True)
class InitialData:
    """Start point, unit frame velocity, and charge of one trajectory: each
    field one number, else ShapeError (batch_step steps many at once)."""

    start: NilPoint
    velocity: FrameVector
    q: float = 0.0

    def __post_init__(self):
        fields = _require_unit(*astuple(self.velocity), *astuple(self.start), self.q)
        if any(f.ndim for f in fields):
            raise ShapeError(f"one number per field, got shapes {[f.shape for f in fields]}")
        vars(self)["q"] = float(fields[-1])


@dataclass(frozen=True)
class StepConfig:
    """Step size and step count; h*n is the integration span."""

    h: float
    n: int

    def __post_init__(self):
        h = _real_scalar(self.h, "step size")
        # written so that a NaN step fails the test
        if not 0.0 < h < math.inf:
            raise DomainError("step size must be one positive finite number")
        vars(self).update(h=h, n=_real_count(self.n, "step count", 0))


def _rhs(x, y, vx, vy, vz, q):
    ct = vz + 0.5 * (vx * y - x * vy)
    w = q + ct
    ax = -w * vy
    ay = w * vx
    az = -0.5 * (ax * y - x * ay)
    return vx, vy, vz, ax, ay, az


def _step(u, h, q):
    # classical RK4, each stage's arguments written out; _rhs reads no z
    x, y, z, vx, vy, vz = u
    hh, h6 = 0.5 * h, h / 6.0
    a1, b1, c1, d1, e1, f1 = _rhs(x, y, vx, vy, vz, q)
    a2, b2, c2, d2, e2, f2 = _rhs(
        x + hh * a1, y + hh * b1, vx + hh * d1, vy + hh * e1, vz + hh * f1, q
    )
    a3, b3, c3, d3, e3, f3 = _rhs(
        x + hh * a2, y + hh * b2, vx + hh * d2, vy + hh * e2, vz + hh * f2, q
    )
    a4, b4, c4, d4, e4, f4 = _rhs(
        x + h * a3, y + h * b3, vx + h * d3, vy + h * e3, vz + h * f3, q
    )
    return (
        x + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4), y + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
        z + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4), vx + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4),
        vy + h6 * (e1 + 2.0 * e2 + 2.0 * e3 + e4), vz + h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
    )


def rk4_states(init: InitialData, cfg: StepConfig):
    """The RK4 states (x, y, z, vx, vy, vz) at s = 0, h, ..., n*h, as
    tuples of coordinate floats: the one loop stepping a single trajectory.
    """
    p0 = init.start
    cv = frame_to_coord(p0, init.velocity)
    u = (p0.x, p0.y, p0.z, cv.dx, cv.dy, cv.dz)
    yield u
    for _ in range(cfg.n):
        u = _step(u, cfg.h, init.q)
        yield u


def integrate(init: InitialData, cfg: StepConfig) -> np.ndarray:
    """The states of rk4_states as one (n + 1, 6) array whose row k holds
    the coordinates (x, y, z, vx, vy, vz) at s = k*h."""
    return np.array(list(rk4_states(init, cfg)))


# ---------------------------------------------------------------------------
# array version for sweeps over many trajectories at once: the state of n
# trajectories is one (6, n) array whose rows are x, y, z, vx, vy, vz.
# At n = 200 a step costs numpy's per-call overhead, so batch_step writes
# _rhs's formula again, in place on row views built once per (n, thread):
# about 195 ns per trajectory-step, 0.41-0.44 of the 440-480 ns of _step
# on arrays.  Its outputs are positional because numpy parses an out=
# keyword on every call, which made the same calls 1.07 times as long.
# At n = 1, _step takes 2.4 us per step and batch_step 44-48 us, so
# rk4_states steps one trajectory with _step.  (timeit, best of 9
# interleaved repeats of 5 000 steps; 2-core Xeon, Python 3.11.7, numpy
# 2.4.6.)  TestBatch::test_steps_agree_with_scalar_integrator pins every
# column to _step bit for bit.


@functools.lru_cache(maxsize=8)
def _workspace(n, thread):
    """batch_step's buffers for n trajectories in one thread (the thread id
    keys the cache, so two threads never share them).  Stage i holds the
    rows x, y, z, vx, vy, vz, ax, ay, az, so stage i's slope is its last
    six rows."""
    stages = np.empty((4, 9, n))
    t1, t2 = np.empty((2, n))
    points = tuple(stage[:6] for stage in stages)
    slopes = tuple(stage[3:] for stage in stages)
    rows = tuple(tuple(stage) for stage in stages)
    return points, slopes, rows, t1, t2


@np.errstate(over="ignore", invalid="ignore")
def batch_step(state, h, q):
    """One RK4 step on a (6, n) state, as a new (6, n) array; h is one real
    step, q is one charge or an array of n.  Each column equals _step on
    its floats.  Raises DomainError for complex input, ShapeError for
    other shapes.  A non-finite step or an overflowing state gives
    non-finite columns, without a numpy warning."""
    state, q = _real_array(state), _real_array(q)
    h = _real_scalar(h, "step")
    if state.ndim != 2 or state.shape[0] != 6 or (q.ndim and q.shape != state.shape[1:]):
        raise ShapeError(f"expected a (6, n) state and 1 or n charges, "
                         f"got shapes {state.shape} and {q.shape}")
    points, slopes, rows, t1, t2 = _workspace(state.shape[1], threading.get_ident())
    mul, add, sub, neg = np.multiply, np.add, np.subtract, np.negative
    hh = 0.5 * h
    np.copyto(points[0], state)
    for i, (x, y, z, vx, vy, vz, ax, ay, az) in enumerate(rows):
        if i:
            # stage i starts at state + c * slope of stage i - 1, c = hh, hh, h
            mul(slopes[i - 1], h if i == 3 else hh, points[i])
            add(state, points[i], points[i])
        # _rhs, operation by operation: t1 = ct = vz + 0.5 * (vx * y - x * vy)
        mul(vx, y, t1)
        mul(x, vy, t2)
        sub(t1, t2, t1)
        mul(0.5, t1, t1)
        add(vz, t1, t1)
        # t1 = w = q + ct; ax = -w * vy; ay = w * vx
        add(q, t1, t1)
        neg(t1, t2)
        mul(t2, vy, ax)
        mul(t1, vx, ay)
        # az = -0.5 * (ax * y - x * ay)
        mul(ax, y, t1)
        mul(x, ay, t2)
        sub(t1, t2, t1)
        mul(-0.5, t1, az)
    k1, k2, k3, k4 = slopes
    # ((k1 + 2 k2) + 2 k3) + k4, as _step adds them, summed into k1: no
    # slope is read again
    mul(2.0, k2, k2)
    add(k1, k2, k1)
    mul(2.0, k3, k3)
    add(k1, k3, k1)
    add(k1, k4, k1)
    mul(h / 6.0, k1, k1)
    return state + k1
