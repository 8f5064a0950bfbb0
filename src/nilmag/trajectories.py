"""Closed-form geodesics and charged-particle trajectories.

All curves start with unit speed; the charge q couples the velocity to
the magnetic form of the contact structure.  Writing c_q = q + c with c
the (conserved) contact cosine of the initial velocity, the planar part
of a trajectory rotates at rate c_q while the z part combines the linear
Reeb drift with an oscillation.  Everything is expressed through the
kernels

    K1(u) = sin(u)/u,   K2(u) = -2 sin(u/2)^2 / u,   K3(u) = (u - sin u)/u^3,

which are continuous through u = 0, so a single formula covers the
degenerate straight-line case c_q = 0 without a branch switch or
cancellation.

The same trajectories arise as one-parameter orbits exp(s W).o in the
isometry group; homogeneous_generator builds the W matching given
initial data and orbit_grid evaluates the orbit through the matrix
exponential, with no shared code with the closed forms (that equality is
exactly what the verification suite checks).  orbit_point is the
one-step orbit_grid: a single exponential of s W.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .geometry import FrameVector
from .lie_core import NilPoint, OscVector, algebra_matrix, matrix_exp, nil_multiply

# Taylor coefficients of K3, (-1)^k / (2k+3)!; enough terms for |u| < 0.5
_K3_COEFFS = [(-1.0) ** k / math.factorial(2 * k + 3) for k in range(8)]


def _require_unit(a, b, c):
    # the one unit-speed test; written so that a NaN component fails it
    if not np.all(np.abs(a * a + b * b + c * c - 1.0) <= 1e-12):
        raise DomainError("velocity components must be unit vectors")


@dataclass(frozen=True)
class InitialData:
    """Start point, unit frame velocity, and charge of a trajectory."""

    start: NilPoint
    velocity: FrameVector
    q: float = 0.0

    def __post_init__(self):
        _require_unit(self.velocity.a, self.velocity.b, self.velocity.c)


def magnetic_point(a, b, c, q, s) -> NilPoint:
    """Charged trajectory from the origin with initial frame velocity
    (a, b, c), evaluated at arc length s.

    Unit-speed input is required (DomainError otherwise).  q = 0 gives
    the geodesic.  Scalar input gives float coordinates; broadcastable
    arrays give arrays of the broadcast shape.
    """
    return NilPoint(*_magnetic_xyz(a, b, c, q, s))


def magnetic_point_from(
    p0: NilPoint, a: float, b: float, c: float, q: float, s: float
) -> NilPoint:
    """Charged trajectory from an arbitrary start point.

    Left invariance of the metric and of the magnetic form means the
    trajectory is the left translate by p0 of the origin trajectory with
    the same frame velocity; the frame components of the velocity do not
    change under the translation.
    """
    return nil_multiply(p0, magnetic_point(a, b, c, q, s))


def magnetic_velocity(a: float, b: float, c: float, q: float, s: float) -> FrameVector:
    """Frame velocity along the charged trajectory at arc length s.

    The contact cosine c is a first integral, the planar part rotates at
    rate q + c.  Broadcasts and rejects non-unit input like magnetic_point.
    """
    _require_unit(a, b, c)
    u = (q + c) * s
    cu = np.cos(u)
    su = np.sin(u)
    return FrameVector(a * cu - b * su, a * su + b * cu, c)


def homogeneous_generator(
    a: float, b: float, c: float, q: float, j_strength: float = 1.0
) -> OscVector:
    """Algebra element whose orbit through the origin is the charged
    trajectory with initial data (a, b, c) and charge q.

    The rotation coefficient is c + q: c from the contact part of the
    velocity, q from the magnetic coupling.  j_strength rescales the
    coupling; leave it at 1.  Only the benchmark (perfbench/workloads.py)
    still passes it, as the fifth positional argument; the library's own
    fault injection scales the charge q instead.
    """
    return OscVector(a, b, c, c + q * j_strength)


# ---------------------------------------------------------------------------
# the closed-form kernels, evaluated on arrays


def _k1_arr(u: np.ndarray, sin_u: np.ndarray) -> np.ndarray:
    return np.divide(sin_u, u, out=np.ones_like(u), where=u != 0.0)


def _k2_arr(u: np.ndarray) -> np.ndarray:
    s = np.sin(0.5 * u)
    return np.divide(-2.0 * s * s, u, out=np.zeros_like(u), where=u != 0.0)


def _k3_arr(u: np.ndarray, sin_u: np.ndarray) -> np.ndarray:
    small = np.abs(u) < 0.5
    out = np.divide(u - sin_u, u * u * u, out=np.empty_like(u), where=~small)
    u2 = u[small] ** 2
    acc = np.zeros_like(u2)
    for coef in reversed(_K3_COEFFS):
        acc = acc * u2 + coef
    out[small] = acc
    return out


def _magnetic_xyz(a, b, c, q, s):
    """x, y, z of the charged trajectory from the origin, over
    broadcastable inputs; floats for scalar input, else arrays of the
    broadcast shape.  The unit-speed test, q + c and s**3 run at their
    own inputs' shapes, and K1 and K3 share one sin(u)."""
    a, b, c, q, s = (np.asarray(w, dtype=float) for w in (a, b, c, q, s))
    _require_unit(a, b, c)
    cq = q + c
    u = cq * s
    sin_u = np.sin(u)
    k1 = _k1_arr(u, sin_u)
    k2 = _k2_arr(u)
    x = s * (a * k1 + b * k2)
    y = s * (b * k1 - a * k2)
    z = c * s + 0.5 * (a * a + b * b) * cq * s ** 3 * _k3_arr(u, sin_u)
    if np.ndim(x) == 0:
        return float(x), float(y), float(z)
    return x, y, z


def magnetic_grid(a, b, c, q, s_values) -> np.ndarray:
    """magnetic_point as one array of shape broadcast(a, b, c, q,
    s_values) + (3,) holding (x, y, z)."""
    return np.stack(_magnetic_xyz(a, b, c, q, s_values), axis=-1)


def orbit_grid(w, s_max: float, steps: int) -> np.ndarray:
    """Orbit coordinates on the uniform grid s = 0, ds, ..., s_max.

    w is one generator (OscVector of scalars or length-4 array) or a
    stack of shape (n, 4).  Returns (steps+1, 3) or (n, steps+1, 3)
    accordingly.  Raises ShapeError for any other shape of w, and
    DomainError unless steps is an integer of at least 1.

    One matrix exponential M = exp(ds W) per generator.  Only the last
    column M^k e4 of exp(k ds W) is read, so the grid is filled by
    doubling: with P = M^m (by squaring), one batched product P @ cols
    writes the columns m+1 .. 2m of an (n, 4, steps+1) work array from
    its columns 1 .. m, about log2(steps) products in all.
    """
    is_vector = isinstance(w, OscVector)
    rows = np.asarray(astuple(w) if is_vector else w, dtype=float)
    if rows.shape[-1:] != (4,) or rows.ndim > (1 if is_vector else 2):
        raise ShapeError(f"expected 4 components or an (n, 4) stack, got shape {rows.shape}")
    if not (isinstance(steps, numbers.Integral) and steps >= 1):
        raise DomainError("steps must be an integer of at least 1")
    single = rows.ndim == 1
    rows = rows.reshape(-1, 4)
    n = rows.shape[0]
    ds = s_max / steps

    # one matrix_exp per generator, though it takes the whole stack: the
    # benchmark's sweep self-test pins its call count to one per generator
    # until the next benchmark change (ROADMAP item 1)
    step_gens = algebra_matrix(OscVector(*(ds * rows.T)))
    step_mats = np.array([matrix_exp(m) for m in step_gens]).reshape(step_gens.shape)

    # cols[..., k] = M^k e4; the columns written never overlap those read
    cols = np.empty((n, 4, steps + 1))
    cols[:, :, 0] = (0.0, 0.0, 0.0, 1.0)
    cols[:, :, 1] = step_mats[:, :, 3]
    power, m = step_mats, 1
    while m < steps:
        k = min(m, steps - m)
        np.matmul(power, cols[:, :, 1:k + 1], out=cols[:, :, m + 1:m + k + 1])
        m += k
        if m < steps:
            power = power @ power
    out = np.empty((n, steps + 1, 3))
    out[..., 0] = cols[:, 1]
    out[..., 1] = cols[:, 2]
    out[..., 2] = 0.5 * cols[:, 0]
    return out[0] if single else out


def orbit_point(v: OscVector, s: float) -> NilPoint:
    """The orbit exp(s v).o at the origin o: the last row of
    orbit_grid(v, s, 1), one matrix exponential of s v.

    Raises DomainError when the point is not finite (a non-finite or
    overflowing s v).
    """
    # an overflow shows up as a non-finite row, rejected below
    with np.errstate(all="ignore"):
        row = orbit_grid(v, s, 1)[-1]
    if not np.all(np.isfinite(row)):
        raise DomainError("the orbit point is not finite; the generator or s is too large")
    return NilPoint(*row.tolist())
