import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from nilmag import (
    NilPoint,
    OscElement,
    OscVector,
    ShapeError,
    algebra_matrix,
    bracket,
    exp_nil,
    matrix_exp,
    matrix_to_osc,
    nil_multiply,
    osc_action,
    osc_multiply,
    osc_to_matrix,
)
from nilmag.errors import DomainError

E1 = OscVector(1.0, 0.0, 0.0, 0.0)
E2 = OscVector(0.0, 1.0, 0.0, 0.0)
E3 = OscVector(0.0, 0.0, 1.0, 0.0)
E4 = OscVector(0.0, 0.0, 0.0, 1.0)
BASIS = (E1, E2, E3, E4)


def exp_osc(v):
    """Oscillator group exponential through the matrix model, with t on
    the branch of v.e4 (the t coordinate of exp(v) is exactly v.e4)."""
    return matrix_to_osc(matrix_exp(algebra_matrix(v)), t_hint=v.e4)


coord = st.floats(-5.0, 5.0)


def vec(v):
    return np.array([v.e1, v.e2, v.e3, v.e4])


def close(u, v, tol=1e-12):
    return float(np.max(np.abs(vec(u) - vec(v)))) <= tol


class TestBracket:
    @pytest.mark.parametrize(
        "i,j,expected",
        [
            (0, 1, E3),
            (3, 0, E2),
            (3, 1, OscVector(-1.0, 0.0, 0.0, 0.0)),
            (0, 2, OscVector(0.0, 0.0, 0.0, 0.0)),
            (1, 2, OscVector(0.0, 0.0, 0.0, 0.0)),
            (2, 3, OscVector(0.0, 0.0, 0.0, 0.0)),
        ],
    )
    def test_basis_table(self, i, j, expected):
        assert bracket(BASIS[i], BASIS[j]) == expected
        flipped = bracket(BASIS[j], BASIS[i])
        assert vec(flipped) == pytest.approx(-vec(expected), abs=0.0)

    def test_mixed_vector(self):
        got = bracket(E4, OscVector(2.0, 3.0, 0.0, 0.0))
        assert got == OscVector(-3.0, 2.0, 0.0, 0.0)

    def test_jacobi_on_basis(self):
        for a in BASIS:
            for b in BASIS:
                for c in BASIS:
                    total = (
                        vec(bracket(a, bracket(b, c)))
                        + vec(bracket(b, bracket(c, a)))
                        + vec(bracket(c, bracket(a, b)))
                    )
                    assert np.all(total == 0.0)

    @given(coord, coord, coord, coord, coord, coord, coord, coord)
    def test_antisymmetry(self, a1, a2, a3, a4, b1, b2, b3, b4):
        a = OscVector(a1, a2, a3, a4)
        b = OscVector(b1, b2, b3, b4)
        assert vec(bracket(a, b)) == pytest.approx(-vec(bracket(b, a)), abs=0.0)


class TestNilMultiply:
    def test_identity(self):
        p = NilPoint(1.5, -2.0, 0.25)
        o = NilPoint(0.0, 0.0, 0.0)
        assert nil_multiply(o, p) == p
        assert nil_multiply(p, o) == p

    def test_cross_term(self):
        got = nil_multiply(NilPoint(1.0, 0.0, 0.0), NilPoint(0.0, 1.0, 0.0))
        assert got == NilPoint(1.0, 1.0, 0.5)

    def test_inverse(self):
        p = NilPoint(0.7, -1.3, 2.1)
        inv = NilPoint(-p.x, -p.y, -p.z)
        assert nil_multiply(p, inv) == NilPoint(0.0, 0.0, 0.0)
        assert nil_multiply(inv, p) == NilPoint(0.0, 0.0, 0.0)

    @given(*(coord for _ in range(9)))
    def test_associativity(self, ax, ay, az, bx, by, bz, cx, cy, cz):
        a = NilPoint(ax, ay, az)
        b = NilPoint(bx, by, bz)
        c = NilPoint(cx, cy, cz)
        left = nil_multiply(nil_multiply(a, b), c)
        right = nil_multiply(a, nil_multiply(b, c))
        assert left.x == pytest.approx(right.x, abs=1e-12)
        assert left.y == pytest.approx(right.y, abs=1e-12)
        assert left.z == pytest.approx(right.z, abs=1e-12)


class TestOscMultiply:
    def test_identity(self):
        g = OscElement(1.0, 2.0, 3.0, 0.5)
        e = OscElement(0.0, 0.0, 0.0, 0.0)
        assert osc_multiply(e, g) == g
        assert osc_multiply(g, e) == g

    def test_quarter_turn(self):
        g = OscElement(1.0, 0.0, 0.0, math.pi / 2)
        h = OscElement(1.0, 0.0, 0.0, 0.0)
        got = osc_multiply(g, h)
        assert got.x == pytest.approx(1.0, abs=1e-15)
        assert got.y == pytest.approx(1.0)
        assert got.z == pytest.approx(0.5)
        assert got.t == math.pi / 2

    def test_pure_rotations_add(self):
        g = osc_multiply(OscElement(0.0, 0.0, 0.0, 0.25), OscElement(0.0, 0.0, 0.0, 1.5))
        assert g == OscElement(0.0, 0.0, 0.0, 1.75)

    def test_nil_subgroup_matches_nil_multiply(self):
        """At t = 0 both factors sit in the nilpotent subgroup."""
        a = NilPoint(0.4, -1.2, 0.9)
        b = NilPoint(2.0, 0.5, -0.3)
        g = osc_multiply(OscElement(a.x, a.y, a.z, 0.0), OscElement(b.x, b.y, b.z, 0.0))
        p = nil_multiply(a, b)
        assert (g.x, g.y, g.z, g.t) == (p.x, p.y, p.z, 0.0)

    def test_array_fields_match_per_element_products(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-5.0, 5.0, (4, 6))
        b = rng.uniform(-5.0, 5.0, (4, 6))
        got = osc_multiply(OscElement(*a), OscElement(*b))
        for i in range(6):
            want = osc_multiply(OscElement(*map(float, a[:, i])), OscElement(*map(float, b[:, i])))
            assert tuple(f[i] for f in (got.x, got.y, got.z, got.t)) == (
                want.x, want.y, want.z, want.t
            )


class TestMatrixForms:
    def test_identity_element(self):
        assert np.array_equal(osc_to_matrix(OscElement(0.0, 0.0, 0.0, 0.0)), np.eye(4))

    def test_known_entries(self):
        m = osc_to_matrix(OscElement(1.0, 2.0, 0.25, 0.0))
        assert m[0, 1] == -2.0
        assert m[0, 2] == 1.0
        assert m[0, 3] == 0.5
        assert m[1, 3] == 1.0
        assert m[2, 3] == 2.0
        assert np.array_equal(m[1:3, 1:3], np.eye(2))

    def test_product_is_matrix_product(self):
        g = OscElement(0.3, -0.7, 0.2, 0.9)
        h = OscElement(-1.1, 0.4, 0.05, -0.6)
        direct = osc_to_matrix(osc_multiply(g, h))
        matprod = osc_to_matrix(g) @ osc_to_matrix(h)
        assert float(np.max(np.abs(direct - matprod))) <= 1e-12

    def test_algebra_matrix_squares_to_zero_when_flat(self):
        # analytically zero; matmul may leave fused-multiply dust
        m = algebra_matrix(OscVector(0.7, -0.2, 1.3, 0.0))
        assert float(np.max(np.abs(m @ m))) <= 1e-15

    @given(coord, coord, coord, st.floats(-3.0, 3.0))
    def test_round_trip(self, x, y, z, t):
        g = OscElement(x, y, z, t)
        back = matrix_to_osc(osc_to_matrix(g))
        assert back.x == pytest.approx(g.x, abs=1e-12)
        assert back.y == pytest.approx(g.y, abs=1e-12)
        assert back.z == pytest.approx(g.z, abs=1e-12)
        assert back.t == pytest.approx(g.t, abs=1e-12)

    def test_branch_hint_unwinds_angle(self):
        t = 2.0 * math.pi + 0.1
        m = osc_to_matrix(OscElement(0.0, 0.0, 0.0, t))
        assert matrix_to_osc(m).t == pytest.approx(0.1, abs=1e-12)
        assert matrix_to_osc(m, t_hint=6.0).t == pytest.approx(t, abs=1e-12)

    def test_rejects_sheared_block(self):
        m = np.eye(4)
        m[1, 2] = 0.5
        with pytest.raises(ShapeError):
            matrix_to_osc(m)

    def test_rejects_non_finite_entry(self):
        m = np.eye(4)
        m[1, 3] = math.nan
        with pytest.raises(ShapeError):
            matrix_to_osc(m)

    def test_orbit_of_nan_generator_is_rejected(self):
        with pytest.raises(ShapeError):
            exp_osc(OscVector(math.nan, 0.0, 1.0, 1.0))

    def test_rejects_reflection(self):
        m = np.eye(4)
        m[1, 1] = -1.0
        with pytest.raises(ShapeError):
            matrix_to_osc(m)

    @pytest.mark.parametrize(
        "form, cls", [(osc_to_matrix, OscElement), (algebra_matrix, OscVector)]
    )
    def test_array_fields_give_the_per_element_stack(self, form, cls):
        rng = np.random.default_rng(2)
        col = rng.uniform(-5.0, 5.0, (3, 1))
        row = rng.uniform(-5.0, 5.0, 2)
        fields = (col, row, -0.0, col + row)
        stack = form(cls(*fields))
        assert stack.shape == (3, 2, 4, 4)
        for i, j in np.ndindex(3, 2):
            one = form(cls(*(float(np.broadcast_to(f, (3, 2))[i, j]) for f in fields)))
            # bit for bit, signed zeros included
            assert stack[i, j].tobytes() == one.tobytes()


def _uniform(seed, scale):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(4, 4)) * scale


def _with_norm1(seed, norm1):
    m = _uniform(seed, 1.0)
    return m * (norm1 / np.abs(m).sum(axis=0).max())


# the generator of unit velocity (0.48, -0.6, 0.64) with charge 1.9
ORBIT_W = OscVector(0.48, -0.6, 0.64, 2.54)

ORACLE_CASES = [
    pytest.param(_uniform(0, 0.5), 1e-14, id="0-0.5-1e-14"),
    pytest.param(_uniform(1, 4.0), 1e-13, id="1-4.0-1e-13"),
    pytest.param(_uniform(2, 10.0), 1e-12, id="2-10.0-1e-12"),
    pytest.param(_uniform(3, 0.01), 1e-15, id="tiny-0.01"),
    # 1-norm just below and just above the scaling threshold 0.5
    pytest.param(_with_norm1(4, 0.5 * (1.0 - 1e-9)), 1e-14, id="norm1-below-0.5"),
    pytest.param(_with_norm1(5, 0.5 * (1.0 + 1e-9)), 1e-14, id="norm1-above-0.5"),
    pytest.param(_uniform(6, 30.0), 1e-12, id="30-many-squarings"),
    # step generators of the orbit grids: verify uses ds = 0.1, the
    # benchmark's sweep spans 0.5 .. 60 over 100 steps
    *(
        pytest.param(algebra_matrix(OscVector(*(ds * vec(ORBIT_W)))), 1e-14, id=f"ds-{ds}")
        for ds in (0.005, 0.05, 0.1, 0.2, 0.6)
    ),
]


def oracle_error(m, got):
    """Max error of got against 50-digit mpmath, over max(1, max |exp m|)."""
    with mpmath.workdps(50):
        ref = mpmath.expm(mpmath.matrix(m.tolist()))
        ref = np.array(ref.tolist(), dtype=float)
    denom = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(got - ref))) / denom


class TestMatrixExp:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent_exponential_is_affine(self):
        v = OscVector(0.7, -0.2, 1.3, 0.0)
        m = algebra_matrix(v)
        assert float(np.max(np.abs(matrix_exp(m) - (np.eye(4) + m)))) <= 1e-15

    def test_rotation_generator(self):
        t = 1.234
        got = matrix_exp(algebra_matrix(OscVector(0.0, 0.0, 0.0, t)))
        want = osc_to_matrix(OscElement(0.0, 0.0, 0.0, t))
        assert float(np.max(np.abs(got - want))) <= 1e-14

    @pytest.mark.parametrize("m,tol", ORACLE_CASES)
    def test_against_high_precision_oracle(self, m, tol):
        assert oracle_error(m, matrix_exp(m)) <= tol

    def test_stack_matches_its_slices_and_the_oracle(self):
        # 1-norms from 0.01 to 30, so s differs from slice to slice
        stack = np.array([case.values[0] for case in ORACLE_CASES])
        got = matrix_exp(stack)
        assert got.shape == stack.shape
        for case, one in zip(ORACLE_CASES, got):
            m, tol = case.values
            assert np.array_equal(one, matrix_exp(m))
            assert oracle_error(m, one) <= tol

    def test_stack_with_two_leading_axes(self):
        stack = np.array([case.values[0] for case in ORACLE_CASES[:12]]).reshape(3, 4, 4, 4)
        got = matrix_exp(stack)
        for i, j in np.ndindex(3, 4):
            assert np.array_equal(got[i, j], matrix_exp(stack[i, j]))

    def test_non_finite_slices_give_nan_alone(self):
        stack = np.array([case.values[0] for case in ORACLE_CASES])
        stack[1, 0, 3] = math.nan
        stack[4, 2, 1] = math.inf
        stack[6, 1, 1] = -math.inf
        # finite entries 1.6e308 and 1e308 in the last column sum to inf
        stack[9] = algebra_matrix(OscVector(1e308, 0.0, 8e307, 0.0))
        with np.errstate(over="ignore"):
            got = matrix_exp(stack)
        nan = np.all(np.isnan(got), axis=(1, 2))
        assert np.flatnonzero(nan).tolist() == [1, 4, 6, 9]
        for m, one in zip(stack[~nan], got[~nan]):
            assert np.array_equal(one, matrix_exp(m))

    def test_finished_slices_are_not_squared_again(self):
        # s = 1025 for the first slice and 10 for the second, whose
        # exponential e^400 I is finite but whose square would overflow (an
        # error under the pytest config)
        stack = np.array([algebra_matrix(OscVector(0.0, 0.0, 0.0, 1e308)), 400.0 * np.eye(4)])
        got = matrix_exp(stack)
        for m, one in zip(stack, got):
            assert np.array_equal(one, matrix_exp(m))

    def test_empty_stack_gives_empty_stack(self):
        got = matrix_exp(np.zeros((0, 4, 4)))
        assert got.shape == (0, 4, 4)

    def test_taylor_core_reaches_double_precision(self):
        # a rotation by 0.5 has 1-norm 0.5, so no squaring hides the
        # Taylor tail: degree 11 leaves 0.5^12/12! ~ 5e-13
        got = matrix_exp(algebra_matrix(OscVector(0.0, 0.0, 0.0, 0.5)))
        want = osc_to_matrix(OscElement(0.0, 0.0, 0.0, 0.5))
        assert float(np.max(np.abs(got - want))) <= 1e-15

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_entry_gives_nan(self, value):
        m = algebra_matrix(OscVector(1.0, 0.0, 1.0, 1.0))
        m[0, 3] = value
        got = matrix_exp(m)
        assert got.shape == (4, 4) and np.all(np.isnan(got))

    def test_overflowing_norm_gives_nan(self):
        # finite entries 1.6e308 and 1e308 in the last column sum to inf
        m = algebra_matrix(OscVector(1e308, 0.0, 8e307, 0.0))
        assert np.all(np.isfinite(m))
        with np.errstate(over="ignore"):
            got = matrix_exp(m)
        assert np.all(np.isnan(got))

    def test_huge_finite_norm_does_not_raise(self):
        # 1-norm 1e308 needs s = 1025 halvings; norm / 0.5 and the float
        # 2.0 ** s both overflow
        got = matrix_exp(algebra_matrix(OscVector(0.0, 0.0, 0.0, 1e308)))
        assert got.shape == (4, 4)

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 4, 3), (0, 0)])
    def test_rejects_non_square_input(self, shape):
        # a vector used to come back as the 4x4 identity; a stack of
        # square matrices, even an empty one, is valid input
        with pytest.raises(ShapeError):
            matrix_exp(np.zeros(shape))


class TestExponentials:
    def test_exp_nil_reeb_direction(self):
        g = exp_nil(OscVector(0.0, 0.0, 2.5, 0.0))
        assert g == NilPoint(0.0, 0.0, 2.5)

    def test_exp_nil_straight_lines(self):
        g = exp_nil(OscVector(1.0, -2.0, 0.5, 0.0))
        assert g == NilPoint(1.0, -2.0, 0.5)

    def test_exp_nil_rejects_rotation_part(self):
        with pytest.raises(DomainError):
            exp_nil(OscVector(1.0, 0.0, 0.0, 0.1))

    def test_exp_nil_takes_array_fields(self):
        g = exp_nil(OscVector(np.ones(2), np.full(2, 2.0), np.full(2, 3.0), np.zeros(2)))
        assert [list(f) for f in (g.x, g.y, g.z)] == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]

    def test_exp_nil_rejects_one_rotation_entry(self):
        with pytest.raises(DomainError):
            exp_nil(OscVector(np.ones(3), np.ones(3), np.ones(3), np.array([0.0, 1e-300, 0.0])))

    @given(*(st.floats(-2.0, 2.0) for _ in range(6)))
    def test_exp_nil_addition_rule(self, a1, a2, a3, b1, b2, b3):
        """Products of exponentials close with a single commutator correction."""
        a = OscVector(a1, a2, a3, 0.0)
        b = OscVector(b1, b2, b3, 0.0)
        comm = bracket(a, b)
        s = OscVector(a1 + b1, a2 + b2, a3 + b3 + 0.5 * comm.e3, 0.0)
        left = nil_multiply(exp_nil(a), exp_nil(b))
        right = exp_nil(s)
        assert left.x == pytest.approx(right.x, abs=1e-12)
        assert left.y == pytest.approx(right.y, abs=1e-12)
        assert left.z == pytest.approx(right.z, abs=1e-12)

    def test_exp_osc_rotation_axis(self):
        g = exp_osc(OscVector(0.0, 0.0, 0.0, 2.5))
        assert g.x == 0.0 and g.y == 0.0 and g.z == 0.0
        assert g.t == pytest.approx(2.5, abs=1e-14)

    def test_exp_osc_central_axis(self):
        g = exp_osc(OscVector(0.0, 0.0, 1.75, 1.75))
        assert g.x == pytest.approx(0.0, abs=1e-14)
        assert g.y == pytest.approx(0.0, abs=1e-14)
        assert g.z == pytest.approx(1.75, abs=1e-13)
        assert g.t == pytest.approx(1.75, abs=1e-14)

    def test_exp_osc_flat_part_matches_exp_nil(self):
        v = OscVector(0.9, -0.4, 0.3, 0.0)
        g = exp_osc(v)
        p = exp_nil(v)
        assert g.x == pytest.approx(p.x, abs=1e-13)
        assert g.y == pytest.approx(p.y, abs=1e-13)
        assert g.z == pytest.approx(p.z, abs=1e-13)
        assert g.t == pytest.approx(0.0, abs=1e-13)

    @given(
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
    )
    def test_exp_osc_one_parameter_property(self, v1, v2, v3, v4, s, u):
        v = OscVector(v1, v2, v3, v4)
        scaled = lambda c: OscVector(c * v1, c * v2, c * v3, c * v4)
        left = osc_multiply(exp_osc(scaled(s)), exp_osc(scaled(u)))
        right = exp_osc(scaled(s + u))
        assert left.x == pytest.approx(right.x, abs=1e-10)
        assert left.y == pytest.approx(right.y, abs=1e-10)
        assert left.z == pytest.approx(right.z, abs=1e-10)
        assert left.t == pytest.approx(right.t, abs=1e-10)


class TestOscAction:
    def test_identity_acts_trivially(self):
        p = NilPoint(0.3, -0.8, 1.1)
        assert osc_action(OscElement(0.0, 0.0, 0.0, 0.0), p) == p

    def test_nil_elements_act_by_group_law(self):
        g = OscElement(0.4, -1.2, 0.9, 0.0)
        p = NilPoint(2.0, 0.5, -0.3)
        assert osc_action(g, p) == nil_multiply(NilPoint(0.4, -1.2, 0.9), p)

    def test_pure_rotation(self):
        got = osc_action(OscElement(0.0, 0.0, 0.0, math.pi / 2), NilPoint(1.0, 0.0, 0.0))
        assert got.x == pytest.approx(0.0, abs=1e-15)
        assert got.y == pytest.approx(1.0)
        assert got.z == pytest.approx(0.0, abs=1e-15)

    @given(*(st.floats(-3.0, 3.0) for _ in range(11)))
    def test_action_respects_products(self, gx, gy, gz, gt, hx, hy, hz, ht, px, py, pz):
        g = OscElement(gx, gy, gz, gt)
        h = OscElement(hx, hy, hz, ht)
        p = NilPoint(px, py, pz)
        joined = osc_action(osc_multiply(g, h), p)
        stepped = osc_action(g, osc_action(h, p))
        assert joined.x == pytest.approx(stepped.x, abs=1e-12)
        assert joined.y == pytest.approx(stepped.y, abs=1e-12)
        assert joined.z == pytest.approx(stepped.z, abs=1e-12)
