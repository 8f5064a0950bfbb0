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
exactly what the verification suite checks).
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from .errors import DomainError, ShapeError
from .geometry import FrameVector, _require_unit
from .lie_core import (
    NilPoint, OscVector, _real_array, _real_count, _real_scalar, algebra_matrix, matrix_exp,
    nil_multiply,
)

# Taylor coefficients of K3, (-1)^k / (2k+3)!; enough terms for |u| < 0.5
_K3_COEFFS = [(-1.0) ** k / math.factorial(2 * k + 3) for k in range(8)]


def magnetic_point(a, b, c, q, s) -> NilPoint:
    """Charged trajectory from the origin with initial frame velocity
    (a, b, c), evaluated at arc length s.

    Unit-speed real input is required (DomainError otherwise), and the
    inputs must broadcast together (ShapeError otherwise).  q = 0 gives
    the geodesic.  Scalar input gives float coordinates; broadcastable
    arrays give arrays of the broadcast shape.
    """
    return NilPoint(*_magnetic_xyz(a, b, c, q, s))


def magnetic_point_from(
    p0: NilPoint, a: float, b: float, c: float, q: float, s: float
) -> NilPoint:
    """Charged trajectory from an arbitrary start point.

    Left invariance of the metric and of the magnetic form makes it the
    left translate by p0 of the origin trajectory with the same frame
    velocity (frame components do not change under the translation).
    Rejects bad input as magnetic_point does, and p0 as nil_multiply does.
    """
    return nil_multiply(p0, magnetic_point(a, b, c, q, s))


def magnetic_velocity(a: float, b: float, c: float, q: float, s: float) -> FrameVector:
    """Frame velocity along the charged trajectory at arc length s.

    The contact cosine c is a first integral, the planar part rotates at
    rate q + c.  Broadcasts and rejects bad input like magnetic_point.
    """
    a, b, c, q, s = _require_unit(a, b, c, q, s)
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
    coupling, c + q * j_strength; verify's fault injection sets it.
    Rejects bad input as magnetic_point does, non-unit (a, b, c) included.
    """
    a, b, c, q, j_strength = _require_unit(a, b, c, q, j_strength)
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
    broadcastable inputs, as arrays of the broadcast shape (0-d for
    scalar input).  The unit-speed test, q + c and s**3 run at their
    own inputs' shapes, and K1 and K3 share one sin(u)."""
    a, b, c, q, s = _require_unit(a, b, c, q, s)
    cq = q + c
    u = cq * s
    sin_u = np.sin(u)
    k1 = _k1_arr(u, sin_u)
    k2 = _k2_arr(u)
    x = s * (a * k1 + b * k2)
    y = s * (b * k1 - a * k2)
    z = c * s + 0.5 * (a * a + b * b) * cq * s ** 3 * _k3_arr(u, sin_u)
    return x, y, z


def magnetic_grid(a, b, c, q, s_values) -> np.ndarray:
    """magnetic_point as one array of shape broadcast(a, b, c, q,
    s_values) + (3,) holding (x, y, z)."""
    return np.stack(_magnetic_xyz(a, b, c, q, s_values), axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def orbit_grid(w, s_max: float, steps: int) -> np.ndarray:
    """Orbit coordinates on the uniform grid s = 0, ds, ..., s_max.

    w is one generator (OscVector of scalars or length-4 array) or a
    stack of shape (n, 4).  Returns (steps+1, 3) or (n, steps+1, 3)
    accordingly.  s_max is one real number.  Raises ShapeError for any
    other shape, DomainError for complex input, a grid numpy cannot size
    or unless steps is an integer in [1, 2**63).  A non-finite span or an
    overflowing generator gives non-finite rows, without a numpy warning.

    One stacked matrix_exp gives M = exp(ds W) for every generator.
    Only the last column M^k e4 of exp(k ds W) is read, so the grid is
    filled by doubling: with P = M^m (by squaring), one batched product
    P @ cols writes the columns m+1 .. 2m of an (n, 4, steps+1) work
    array from its columns 1 .. m, about log2(steps) products in all.
    """
    is_vector = isinstance(w, OscVector)
    rows = _real_array(astuple(w) if is_vector else w)
    if rows.shape[-1:] != (4,) or rows.ndim > (1 if is_vector else 2):
        raise ShapeError(f"expected 4 components or an (n, 4) stack, got shape {rows.shape}")
    steps = _real_count(steps, "steps", 1)
    single = rows.ndim == 1
    rows = rows.reshape(-1, 4)
    n = rows.shape[0]
    ds = _real_scalar(s_max, "s_max") / steps

    step_mats = matrix_exp(algebra_matrix(OscVector(*(ds * rows.T))))

    # cols[..., k] = M^k e4; the columns written never overlap those read
    try:
        cols = np.empty((n, 4, steps + 1))
    except ValueError:  # numpy cannot size it; MemoryError passes
        raise DomainError(f"{n} orbits of {steps} steps are too large to allocate") from None
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
