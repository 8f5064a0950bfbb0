"""Group laws and exponential maps for the Heisenberg group and its
isometry group.

The Heisenberg group is modeled on R^3 with the multiplication twisted by
the symplectic area of the (x, y) parts.  Its connected isometry group is
the semidirect product with the circle rotating the (x, y) plane, here
called the oscillator group and handled through canonical coordinates
(x, y, z, t) and a faithful 4x4 matrix representation.

Basis conventions for the oscillator algebra: E1, E2, E3 span the
Heisenberg part, E4 generates the rotation, with

    [E1, E2] = E3,   [E4, E1] = E2,   [E4, E2] = -E1,

and all other basis brackets zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeError

_FLOAT = np.dtype(float)


def _real_array(x) -> np.ndarray:
    """x as a float array, in its own layout.  The fault picks the error:
    ShapeError for ragged input, DomainError for a dtype that is not real
    numeric (numpy would keep a complex value's real part with a warning)."""
    try:
        a = np.asarray(x)
    except ValueError as exc:
        raise ShapeError(f"ragged input: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise DomainError(f"not a real numeric array: dtype {a.dtype}")
    return a if a.dtype is _FLOAT else a.astype(float)


def _real_scalar(x, what: str) -> float:
    """x read by _real_array as one real number, a Python float (NaN, inf
    and negative values pass); ShapeError unless it is a scalar."""
    a = _real_array(x)
    if a.ndim:
        raise ShapeError(f"{what} must be one number, got shape {a.shape}")
    return float(a)


def _real_count(n, what: str, least: int) -> int:
    """n as a count, a Python int: read by _real_scalar, then an integer in [least, 2**63)."""
    _real_scalar(n, what)
    a = np.asarray(n)
    if a.dtype.kind not in "iu" or not least <= a < 2**63:
        raise DomainError(f"{what} must be an integer from {least} to 2**63 - 1")
    return int(a)


def _real_arrays(*xs) -> list[np.ndarray]:
    """Each x read by _real_array, at its own shape; ShapeError unless they
    broadcast together (np.broadcast_shapes has no 32-input limit)."""
    arrays = [_real_array(x) for x in xs]
    try:
        np.broadcast_shapes(*(a.shape for a in arrays))
    except ValueError as exc:
        raise ShapeError(f"inputs do not broadcast together: {exc}") from None
    return arrays


def _combines(fn):
    """Decorator for a function of value types: ShapeError, not numpy's
    bare ValueError, unless the fields of its arguments broadcast together
    (osc_action and contact_form pass theirs on to one that checks)."""

    @functools.wraps(fn)
    def combined(*values):
        _real_arrays(*(f for v in values for f in vars(v).values()))
        return fn(*values)

    return combined


def _read_fields(self) -> None:
    """__post_init__ of the value types: the fields read by _real_arrays,
    a 0-d one kept as a Python float (NaN and inf pass)."""
    fields = vars(self)
    for name, a in zip(list(fields), _real_arrays(*fields.values())):
        fields[name] = a if a.ndim else float(a)


@dataclass(frozen=True)
class OscVector:
    """Oscillator algebra element with coefficients on E1..E4.

    e4 = 0 picks out the Heisenberg subalgebra.
    """

    e1: float
    e2: float
    e3: float
    e4: float = 0.0
    __post_init__ = _read_fields


@dataclass(frozen=True)
class NilPoint:
    """Point (x, y, z) of the Heisenberg group."""

    x: float
    y: float
    z: float
    __post_init__ = _read_fields


@dataclass(frozen=True)
class OscElement:
    """Oscillator group element in canonical coordinates (x, y, z, t).

    t is an angle in radians kept unwrapped, so orbit curves stay
    continuous instead of jumping at +-pi.
    """

    x: float
    y: float
    z: float
    t: float
    __post_init__ = _read_fields


@_combines
def bracket(a: OscVector, b: OscVector) -> OscVector:
    """Lie bracket of two oscillator algebra vectors.

    Bilinear extension of the basis relations listed in the module
    docstring; exact on the input coefficients.
    """
    return OscVector(
        a.e2 * b.e4 - a.e4 * b.e2,
        a.e4 * b.e1 - a.e1 * b.e4,
        a.e1 * b.e2 - a.e2 * b.e1,
        0.0,
    )


@_combines
def nil_multiply(p: NilPoint, q: NilPoint) -> NilPoint:
    """Heisenberg group product."""
    return NilPoint(
        p.x + q.x,
        p.y + q.y,
        p.z + q.z + 0.5 * (p.x * q.y - q.x * p.y),
    )


@_combines
def osc_multiply(g1: OscElement, g2: OscElement) -> OscElement:
    """Oscillator group product in canonical coordinates.

    The first factor rotates the (x, y) part of the second by t1; the t
    coordinates add exactly (no mod 2*pi reduction).  Fields may be
    broadcastable arrays.
    """
    ct = np.cos(g1.t)
    st = np.sin(g1.t)
    return OscElement(
        g1.x + g2.x * ct - g2.y * st,
        g1.y + g2.x * st + g2.y * ct,
        g1.z + g2.z
        + 0.5 * (ct * (g1.x * g2.y - g2.x * g1.y) + st * (g1.x * g2.x + g1.y * g2.y)),
        g1.t + g2.t,
    )


def _matrix_stack(*entries) -> np.ndarray:
    """The 16 row-major entries of a 4x4 matrix, built from read fields, as
    one array of shape broadcast(entries) + (4, 4)."""
    out = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return out.reshape(out.shape[:-1] + (4, 4))


def osc_to_matrix(g: OscElement) -> np.ndarray:
    """Faithful 4x4 matrix form of an oscillator group element; array
    fields give the stack of shape broadcast(fields) + (4, 4)."""
    ct = np.cos(g.t)
    st = np.sin(g.t)
    return _matrix_stack(
        1.0, g.x * st - g.y * ct, g.x * ct + g.y * st, 2.0 * g.z,
        0.0, ct, -st, g.x,
        0.0, st, ct, g.y,
        0.0, 0.0, 0.0, 1.0,
    )


def algebra_matrix(v: OscVector) -> np.ndarray:
    """Matrix form of an oscillator algebra vector.

    Differentiating osc_to_matrix of the coordinate flows at the identity
    gives this shape; matrix commutators of these reproduce bracket().
    Array fields give the stack of shape broadcast(fields) + (4, 4).
    """
    return _matrix_stack(
        0.0, -v.e2, v.e1, 2.0 * v.e3,
        0.0, 0.0, -v.e4, v.e1,
        0.0, v.e4, 0.0, v.e2,
        0.0, 0.0, 0.0, 0.0,
    )


def matrix_to_osc(m: np.ndarray, t_hint: float = 0.0) -> OscElement:
    """Invert osc_to_matrix.

    Reads x, y, z off the last column and the angle with atan2, and
    accepts m only if osc_to_matrix of that element equals it within
    1e-9 in every entry.  The angle is shifted by the multiple of 2*pi
    nearest t_hint, so a caller tracking a continuous curve keeps t
    unwrapped.

    DomainError for a complex m or t_hint, or a non-finite t_hint;
    ShapeError for an array t_hint, or an m that is not of that form.
    """
    a, hint = _real_array(m), _real_scalar(t_hint, "t_hint")
    if not math.isfinite(hint):
        raise DomainError("t_hint must be finite")
    if a.shape != (4, 4):
        raise ShapeError(f"expected a 4x4 matrix, got shape {a.shape}")
    # the comparison below uses >, which a NaN passes
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix has a non-finite entry")
    t0 = math.atan2(a[2, 1], a[1, 1])
    g = OscElement(a[1, 3], a[2, 3], a[0, 3] / 2.0, t0)
    # rebuilt at t0, so the rounding of a large hint stays out of the test
    if np.max(np.abs(osc_to_matrix(g) - a)) > 1e-9:
        raise ShapeError("not the matrix form of an oscillator group element within 1e-9")
    return replace(g, t=t0 + 2.0 * math.pi * round((hint - t0) / (2.0 * math.pi)))


# Taylor degree of matrix_exp.  After scaling ||A||_1 <= 0.5, so the series
# tail past degree m is at most 0.5^(m+1)/(m+1)! (times 1.03); 14 is the
# smallest m that puts it below the double unit roundoff 2^-53, and 15 fills
# the last of four Horner blocks.  Row j holds 1/k! for k = 4j .. 4j+3.
_TAYLOR_DEGREE = 15
_TAYLOR_BLOCKS = np.array(
    [1.0 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1)]
).reshape(-1, 4)


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a fixed Taylor core.

    Takes one square matrix (n, n) or a stack (..., n, n) with n >= 1;
    an empty stack gives an empty stack, any other shape raises
    ShapeError and complex input DomainError.  Each matrix A gets its own
    scaling: A is divided by 2^s with s = ceil(log2(||A||_1 / 0.5)), or
    s = 0 when ||A||_1 <= 0.5, so the scaled matrix has 1-norm <= 0.5.  Core: the
    Taylor polynomial of degree 15 (_TAYLOR_DEGREE), whose truncation
    error is below 0.5^16/16! ~ 7e-19, evaluated by Horner in A^4 over the
    powers I, A, A^2, A^3; the result is squared s times.  A slice of a
    stack gets the same bits as its own 2-D call, and any layout gets the
    bits of its C-order copy.

    Accuracy against 50-digit mpmath, as max error / max(1, max |exp A|):
    below 3e-16 for the orbit step generators (1-norm up to 2), about
    1e-14 for random 4x4 matrices with entries up to 30 (s = 7).
    Cost: 7 + s matrix products, with no per-term test; one matrix runs as
    a stack of one.  On a 2-core Xeon one 4x4 call takes about 30 us at
    s = 0 and 5 us more per squaring, a stack of 1000 about 1.4 ms.

    A matrix with a non-finite entry, or a 1-norm that overflows, comes
    back all-NaN instead of raising, so a NaN reaches the caller's checks;
    the other matrices of its stack are not affected.
    """
    a = _real_array(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ShapeError(f"expected square matrices (..., n, n), got shape {a.shape}")
    one = a.ndim == 2  # one matrix runs as a stack of one
    a = np.ascontiguousarray(a[None] if one else a)  # one layout, one set of bits
    # s = ceil(log2(norm / 0.5)), the fewest halvings to a 1-norm <= 0.5,
    # read exactly off the binary exponent (norm / 0.5 may overflow);
    # ldexp divides exactly by 2^s, even past 2^1023
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    bad = ~np.isfinite(norm)  # those matrices run as zeros, then NaN
    frac, exp2 = np.frexp(np.where(bad, 0.0, norm))
    s = np.maximum(exp2 + (frac > 0.5), 0)
    a = np.ldexp(np.where(bad[..., None, None], 0.0, a), -s[..., None, None])

    n = a.shape[-1]
    powers = np.zeros((4,) + a.shape)
    powers.reshape(4, -1, n * n)[0, :, :: n + 1] = 1.0  # I, cheaper than np.eye
    powers[1] = a
    a2 = np.matmul(a, a, powers[2])
    np.matmul(a2, a, powers[3])
    a4 = a2 @ a2
    # block j is sum_i A^i / (4j + i)!, one coefficient product for all
    blocks = (_TAYLOR_BLOCKS @ powers.reshape(4, -1)).reshape(powers.shape)
    result = blocks[-1]
    for block in blocks[-2::-1]:
        result = result @ a4
        result += block
    # squaring k takes only the matrices with s > k: a finished matrix is
    # neither squared again nor able to overflow
    for k in range(s.max(initial=0)):
        busy = result[s > k]
        result[s > k] = busy @ busy
    result[bad] = np.nan
    return result[0] if one else result


def exp_nil(v: OscVector) -> NilPoint:
    """Heisenberg exponential map.

    In exponential coordinates this is the identity on (e1, e2, e3).
    Satisfies exp(X) exp(Y) = exp(X + Y + [X,Y]/2) since the algebra is
    2-step nilpotent.  Fields may be arrays; every e4 entry must be 0.
    """
    if np.any(v.e4 != 0.0):
        raise DomainError("exp_nil needs a Heisenberg algebra vector (e4 = 0)")
    return NilPoint(v.e1, v.e2, v.e3)


def osc_action(g: OscElement, p: NilPoint) -> NilPoint:
    """Isometric action of the oscillator group on the Heisenberg group.

    g = (a, b, c, t) rotates p in the (x, y) plane by t and then
    left-translates by (a, b, c): the (x, y, z) of g * (p, 0) in the
    group law.
    """
    h = osc_multiply(g, OscElement(p.x, p.y, p.z, 0.0))
    return NilPoint(h.x, h.y, h.z)

