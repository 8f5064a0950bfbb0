"""Left-invariant metric structure on the Heisenberg group.

The metric is dx^2 + dy^2 + alpha^2 with contact form
alpha = dz + (y dx - x dy)/2.  The frame

    E1 = d/dx - (y/2) d/dz,  E2 = d/dy + (x/2) d/dz,  E3 = d/dz

is orthonormal and E3 is the Reeb field of alpha.  Frame components of a
velocity are (a, b, c) with c the cosine of the contact angle.

Also contains the algebra-level tools used by the homogeneity results:
the symmetric tensor measuring failure of natural reductivity, and the
criterion deciding whether a one-parameter orbit is a pre-geodesic.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .lie_core import NilPoint, OscVector, _combines, _read_fields, _real_arrays, bracket


@dataclass(frozen=True)
class FrameVector:
    """Tangent vector by components (a, b, c) on the orthonormal frame."""

    a: float
    b: float
    c: float
    __post_init__ = _read_fields


def _require_unit(a, b, c, *others) -> list[np.ndarray]:
    """The one unit-speed test: a, b, c and others read by _real_arrays,
    then DomainError unless (a, b, c) is a unit vector (a NaN fails)."""
    arrays = _real_arrays(a, b, c, *others)
    a, b, c = arrays[:3]
    if not np.all(np.abs(a * a + b * b + c * c - 1.0) <= 1e-12):
        raise DomainError("velocity components must be unit vectors")
    return arrays


@dataclass(frozen=True)
class CoordVector:
    """Tangent vector by coordinate components (dx, dy, dz)."""

    dx: float
    dy: float
    dz: float
    __post_init__ = _read_fields


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of the pre-geodesic orbit criterion.

    k is the proportionality constant of the defining equation and is
    None when the orbit is not a pre-geodesic.  family names the family
    of generators nearest a pre-geodesic w ("W4*E4", "W3*E3+W4*E4" or
    "W1*E1+W2*E2+W3*(E3+E4)"), and is None exactly when the orbit is not
    a pre-geodesic.
    """

    is_pregeodesic: bool
    k: float | None = None
    family: str | None = None


# bases of the reductive summand m of the two decompositions of the
# oscillator algebra; the complement is the rotation axis E4 in both
DECOMPOSITIONS = {
    "nil3": (OscVector(1, 0, 0, 0), OscVector(0, 1, 0, 0), OscVector(0, 0, 1, 0)),
    "m": (OscVector(1, 0, 0, 0), OscVector(0, 1, 0, 0), OscVector(0, 0, 1, 1)),
}


@_combines
def frame_to_coord(p: NilPoint, v: FrameVector) -> CoordVector:
    """Expand a*E1 + b*E2 + c*E3 at p into coordinate components."""
    return CoordVector(v.a, v.b, v.c - 0.5 * (v.a * p.y - v.b * p.x))


@_combines
def coord_to_frame(p: NilPoint, v: CoordVector) -> FrameVector:
    """Inverse of frame_to_coord at the same base point.

    The c component is the contact form evaluated on v.
    """
    return FrameVector(v.dx, v.dy, v.dz + 0.5 * (v.dx * p.y - p.x * v.dy))


@_combines
def metric(p: NilPoint, v: CoordVector, w: CoordVector) -> float:
    """Riemannian inner product of two coordinate vectors at p."""
    fv = coord_to_frame(p, v)
    fw = coord_to_frame(p, w)
    return fv.a * fw.a + fv.b * fw.b + fv.c * fw.c


def contact_form(p: NilPoint, v: CoordVector) -> float:
    """Evaluate alpha = dz + (y dx - x dy)/2 on v at p."""
    return coord_to_frame(p, v).c


def lorentz(v: FrameVector) -> FrameVector:
    """Lorentz force operator of the magnetic form d(alpha).

    Rotates the contact plane a quarter turn and kills the Reeb
    direction: (a, b, c) -> (-b, a, 0).
    """
    return FrameVector(-v.b, v.a, 0.0)


@_combines
def cross(v: FrameVector, w: FrameVector) -> FrameVector:
    """Cross product in frame components for the metric volume form.

    Oriented so that cross(E1, E2) = E3; then cross(E3, .) agrees with
    lorentz on every vector.
    """
    return FrameVector(
        v.b * w.c - v.c * w.b,
        v.c * w.a - v.a * w.c,
        v.a * w.b - v.b * w.a,
    )


@_combines
def connection(v: FrameVector, w: FrameVector) -> FrameVector:
    """Levi-Civita connection on constant frame fields.

    Bilinear extension of the frame table; derivatives of coefficient
    functions are the caller's job (see curve_acceleration).
    """
    return FrameVector(
        0.5 * (v.b * w.c + v.c * w.b),
        -0.5 * (v.a * w.c + v.c * w.a),
        0.5 * (v.a * w.b - v.b * w.a),
    )


def curve_acceleration(
    x: float,
    y: float,
    dx: float,
    dy: float,
    dz: float,
    ddx: float,
    ddy: float,
    ddz: float,
) -> FrameVector:
    """Covariant acceleration of a coordinate curve, in frame components.

    Args:
        x, y: position at the evaluation parameter (z never enters).
        dx, dy, dz: first derivatives of the coordinates.
        ddx, ddy, ddz: second derivatives.

    Returns the frame components

        (x'' + cos(theta) y',  y'' - cos(theta) x',  (cos theta)')

    with cos(theta) = z' + (x' y - x y')/2 the contact cosine of the
    velocity and (cos theta)' = z'' + (x'' y - x y'')/2.
    """
    x, y, dx, dy, dz, ddx, ddy, ddz = _real_arrays(x, y, dx, dy, dz, ddx, ddy, ddz)
    cos_t = dz + 0.5 * (dx * y - x * dy)
    dcos_t = ddz + 0.5 * (ddx * y - x * ddy)
    return FrameVector(ddx + cos_t * dy, ddy - cos_t * dx, dcos_t)


def _coefficients(basis: Sequence[OscVector], *vs: OscVector) -> np.ndarray:
    """Coordinates of each v on basis + [E4], the rotation axis completing
    it, as column j for vs[j]: one solve for all of them.  Fields may be
    arrays of one broadcast shape S; the result then has shape
    (4, len(vs)) + S.

    The last row is the component along E4; dropping it projects onto
    the span of the basis along the reductive complement.  ShapeError
    unless the fields of vs broadcast together; DomainError unless
    basis + [E4] is a basis of the algebra.
    """
    cols = [[b.e1, b.e2, b.e3, b.e4] for b in basis]
    cols.append([0.0, 0.0, 0.0, 1.0])
    fields = _real_arrays(*(f for v in vs for f in (v.e1, v.e2, v.e3, v.e4)))
    rhs = np.stack(np.broadcast_arrays(*fields))
    rows = rhs.reshape(len(vs), 4, -1).swapaxes(0, 1).reshape(4, -1)
    try:
        sol = np.linalg.solve(np.array(cols).T, rows)
    except np.linalg.LinAlgError:
        raise DomainError("basis + complement is not a basis of the algebra") from None
    return sol.reshape((4, len(vs)) + rhs.shape[1:])


def u_tensor(basis: Sequence[OscVector], x: OscVector, y: OscVector) -> OscVector:
    """Symmetric tensor of a reductive decomposition, on the given basis.

    The basis spans the reductive summand m and is declared orthonormal;
    the complement is the rotation axis E4.  Solves

        2 <U(X,Y), Z> = <X, [Z,Y]_m> + <Y, [Z,X]_m>

    against every basis Z, where [.]_m projects along the complement.
    U vanishes identically exactly when the decomposition is naturally
    reductive.

    Raises ShapeError unless each field is one number, and DomainError
    when x or y is outside the span of the basis (complement part > 1e-12).
    """
    if any(np.ndim(f) for v in (*basis, x, y) for f in vars(v).values()):
        raise ShapeError("u_tensor takes vectors of one number per field")
    # columns: x, y, then [Z, Y] and [Z, X] for each basis Z in turn
    brackets = [w for z in basis for w in (bracket(z, y), bracket(z, x))]
    coef = _coefficients(basis, x, y, *brackets)
    if abs(coef[-1, 0]) > 1e-12 or abs(coef[-1, 1]) > 1e-12:
        raise DomainError("arguments must lie in the span of the basis")
    cx, cy, *bz = coef[:-1].T
    coeffs = [0.5 * (cx @ bz_y + cy @ bz_x) for bz_y, bz_x in zip(bz[::2], bz[1::2])]
    terms = (c * np.array([b.e1, b.e2, b.e3, b.e4]) for c, b in zip(coeffs, basis))
    return OscVector(*sum(terms))


def go_criterion(w: OscVector, decomposition: str = "nil3") -> CriterionResult:
    """Decide whether s -> exp(s w).o is a pre-geodesic of the orbit.

    Tests for a constant k with <[w, V]_m, w_m> = k <w_m, V> for every V
    in the summand, solving for k by least squares and accepting when the
    residual is below 1e-10 * |w|^2, so the answer does not depend on the
    scale of w.  An accepted w gets the nearer family: W3*E3+W4*E4 when
    max(|w1|, |w2|) <= |w4 - w3|, named W4*E4 when also |w3| <= 1e-10 * |w|,
    else W1*E1+W2*E2+W3*(E3+E4).  A vanishing projection w_m (isotropy
    directions, constant orbit) is a pre-geodesic with k = 0.
    decomposition names the summand, a key of DECOMPOSITIONS.

    Fields of w may be arrays of one broadcast shape, tested with one
    solve: is_pregeodesic is then a boolean array, k a float array with
    NaN and family an object array with None where w is rejected.  Scalar
    fields give a bool, a float or None, and a name or None.

    Raises DomainError when a component of w or its squared norm is not
    finite, or when decomposition is not a key of DECOMPOSITIONS.
    """
    comps = (w.e1, w.e2, w.e3, w.e4)
    # products, not **, so that an overflow gives inf instead of raising
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(sum(f * f for f in comps))):
            raise DomainError("generator components and their squared norm must be finite")
    try:
        basis = DECOMPOSITIONS[decomposition]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise DomainError(f"unknown decomposition {decomposition!r}") from None

    # the test runs on u = w / 2^e with 1/2 <= |u| < 1: a power of two
    # scales exactly, so k keeps every bit, and no product of a tiny w
    # underflows
    # math.hypot per generator: numpy has no 4-argument hypot that rounds alike
    norm_u, e = np.frexp(np.array(np.frompyfunc(math.hypot, 4, 1)(*comps), dtype=float))
    u = OscVector(*(np.ldexp(f, -e) for f in comps))
    coef = _coefficients(basis, u, *(bracket(u, v) for v in basis))[:-1]
    coef = np.moveaxis(coef, (0, 1), (-1, -2))
    um, bu = coef[..., 0, :], coef[..., 1:, :]  # shapes S + (3,) and S + (3, 3)
    # every dot product is a (1, 3) @ (3, 1) matmul, numpy's 1-D dot
    lhs = (bu[..., None, :] @ um[..., None, :, None])[..., 0, 0]
    rhs = um  # <u_m, V_i> for an orthonormal basis
    tol = 1e-10

    denom = (rhs[..., None, :] @ rhs[..., None])[..., 0, 0]
    k = (lhs[..., None, :] @ rhs[..., None])[..., 0, 0]
    k = np.divide(k, denom, out=np.zeros_like(k), where=denom != 0.0)
    ok = np.abs(lhs - k[..., None] * rhs).max(axis=-1) <= tol * norm_u * norm_u  # a NaN rejects
    rotation = np.where(np.abs(u.e3) <= tol * norm_u, 1, 2)  # W4*E4 or W3*E3+W4*E4
    pick = ok * np.where(np.maximum(np.abs(u.e1), np.abs(u.e2)) <= np.abs(u.e4 - u.e3), rotation, 3)
    family = np.array([None, "W4*E4", "W3*E3+W4*E4", "W1*E1+W2*E2+W3*(E3+E4)"])[pick]
    k = np.where(ok, np.ldexp(k, e), np.nan)
    if ok.ndim:
        return CriterionResult(ok, k, family)
    return CriterionResult(True, float(k), family) if ok else CriterionResult(False)
