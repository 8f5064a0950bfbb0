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


def _rhs(x, y, z, vx, vy, vz, q, j_strength):
    ct = vz + 0.5 * (vx * y - x * vy)
    w = q * j_strength + ct
    ax = -w * vy
    ay = w * vx
    az = -0.5 * (ax * y - x * ay)
    return vx, vy, vz, ax, ay, az


def _step(u, h, q, j):
    # classical RK4 on the flattened 6-tuple
    k1 = _rhs(*u, q, j)
    k2 = _rhs(*(ui + 0.5 * h * ki for ui, ki in zip(u, k1)), q, j)
    k3 = _rhs(*(ui + 0.5 * h * ki for ui, ki in zip(u, k2)), q, j)
    k4 = _rhs(*(ui + h * ki for ui, ki in zip(u, k3)), q, j)
    return tuple(
        ui + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for ui, a, b, c, d in zip(u, k1, k2, k3, k4)
    )


def rk4_states(init: InitialData, cfg: StepConfig, j_strength: float = 1.0):
    """The RK4 states (x, y, z, vx, vy, vz) at s = 0, h, ..., n*h, as
    tuples of coordinate floats: the one loop stepping a single trajectory.

    j_strength rescales the magnetic coupling for the suite's
    fault-injection self-test; leave it at 1.
    """
    p0 = init.start
    cv = frame_to_coord(p0, init.velocity)
    u = (p0.x, p0.y, p0.z, cv.dx, cv.dy, cv.dz)
    yield u
    for _ in range(cfg.n):
        u = _step(u, cfg.h, init.q, j_strength)
        yield u


def integrate(
    init: InitialData, cfg: StepConfig, j_strength: float = 1.0
) -> np.ndarray:
    """The states of rk4_states as one (n + 1, 6) array whose row k holds
    the coordinates (x, y, z, vx, vy, vz) at s = k*h."""
    return np.array(list(rk4_states(init, cfg, j_strength)))


# ---------------------------------------------------------------------------
# array versions for sweeps over many trajectories at once: the state of n
# trajectories is one (6, n) array whose rows are x, y, z, vx, vy, vz
#
# Both RK4 step forms stay on purpose, measured on a 2-core Xeon: for one
# trajectory the tuple form _step takes 11 us per step against 26 us for
# batch_step on a (6,) array, and rk4_states runs 17,500 steps per verify
# and 10,000 per rk4 emit; for n = 200 trajectories batch_step on the
# (6, n) array takes 420 ns per trajectory-step against 695 ns for _step
# on a tuple of six rows.


def batch_rhs(state, q, j_strength=1.0):
    """_rhs on a (6, n) state; q may be an array of n charges."""
    return np.array(_rhs(*state, q, j_strength))


def batch_step(state, h, q, j_strength=1.0):
    """One RK4 step on a (6, n) state."""
    k1 = batch_rhs(state, q, j_strength)
    k2 = batch_rhs(state + 0.5 * h * k1, q, j_strength)
    k3 = batch_rhs(state + 0.5 * h * k2, q, j_strength)
    k4 = batch_rhs(state + h * k3, q, j_strength)
    return state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def batch_initial_state(starts, velocities):
    """The (6, n) state from (n,3) starts and frame velocities."""
    x0, y0, z0 = np.asarray(starts, dtype=float).T
    a, b, c = np.asarray(velocities, dtype=float).T
    cv = frame_to_coord(NilPoint(x0, y0, z0), FrameVector(a, b, c))
    return np.array((x0, y0, z0, cv.dx, cv.dy, cv.dz))
