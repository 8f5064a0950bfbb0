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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import FrameVector, frame_to_coord
from .lie_core import NilPoint
from .trajectories import InitialData


@dataclass(frozen=True)
class StepConfig:
    """Step size and step count; h*n is the integration span."""

    h: float
    n: int

    def __post_init__(self):
        # written so that a NaN step fails the test
        if not 0.0 < self.h < math.inf:
            raise DomainError("step size must be positive and finite")
        if not isinstance(self.n, numbers.Integral):
            raise DomainError("step count must be an integer")
        if self.n < 0:
            raise DomainError("step count must be nonnegative")


def _rhs(x, y, z, vx, vy, vz, q):
    ct = vz + 0.5 * (vx * y - x * vy)
    w = q + ct
    ax = -w * vy
    ay = w * vx
    az = -0.5 * (ax * y - x * ay)
    return vx, vy, vz, ax, ay, az


def _step(u, h, q):
    # classical RK4 on the 6-tuple, each stage's arguments written out
    x, y, z, vx, vy, vz = u
    hh, h6 = 0.5 * h, h / 6.0
    a1, b1, c1, d1, e1, f1 = _rhs(x, y, z, vx, vy, vz, q)
    a2, b2, c2, d2, e2, f2 = _rhs(
        x + hh * a1, y + hh * b1, z + hh * c1, vx + hh * d1, vy + hh * e1, vz + hh * f1, q
    )
    a3, b3, c3, d3, e3, f3 = _rhs(
        x + hh * a2, y + hh * b2, z + hh * c2, vx + hh * d2, vy + hh * e2, vz + hh * f2, q
    )
    a4, b4, c4, d4, e4, f4 = _rhs(
        x + h * a3, y + h * b3, z + h * c3, vx + h * d3, vy + h * e3, vz + h * f3, q
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
# array versions for sweeps over many trajectories at once: the state of n
# trajectories is one (6, n) array whose rows are x, y, z, vx, vy, vz.
# Both RK4 step forms stay on purpose (2-core Xeon, medians of 5 runs): on
# one trajectory _step takes 2.8 us per step against 23 us for batch_step on
# a (6,) array, and rk4_states runs 17,500 steps per verify and 10,000 per
# rk4 emit; at n = 200, batch_step on the (6, n) array takes 370 ns per
# trajectory-step against 520 ns for _step on a tuple of six rows.


def batch_step(state, h, q):
    """One RK4 step on a (6, n) state; q may be an array of n charges."""
    k1 = np.array(_rhs(*state, q))
    k2 = np.array(_rhs(*(state + 0.5 * h * k1), q))
    k3 = np.array(_rhs(*(state + 0.5 * h * k2), q))
    k4 = np.array(_rhs(*(state + h * k3), q))
    return state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def batch_initial_state(starts, velocities):
    """The (6, n) state from (n,3) starts and frame velocities."""
    x0, y0, z0 = np.asarray(starts, dtype=float).T
    a, b, c = np.asarray(velocities, dtype=float).T
    cv = frame_to_coord(NilPoint(x0, y0, z0), FrameVector(a, b, c))
    return np.array((x0, y0, z0, cv.dx, cv.dy, cv.dz))
