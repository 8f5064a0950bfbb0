import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nilmag import (
    CoordVector,
    DomainError,
    FrameVector,
    NilPoint,
    OscVector,
    ShapeError,
    connection,
    contact_form,
    coord_to_frame,
    cross,
    curve_acceleration,
    frame_to_coord,
    go_criterion,
    lorentz,
    metric,
    nil_multiply,
    u_tensor,
)

E1 = FrameVector(1.0, 0.0, 0.0)
E2 = FrameVector(0.0, 1.0, 0.0)
E3 = FrameVector(0.0, 0.0, 1.0)
FRAME = (E1, E2, E3)

OSC_E1 = OscVector(1.0, 0.0, 0.0, 0.0)
OSC_E2 = OscVector(0.0, 1.0, 0.0, 0.0)
OSC_E3 = OscVector(0.0, 0.0, 1.0, 0.0)
OSC_E4 = OscVector(0.0, 0.0, 0.0, 1.0)
NIL_BASIS = (OSC_E1, OSC_E2, OSC_E3)

coord = st.floats(-5.0, 5.0)


def fvec(v):
    return np.array([v.a, v.b, v.c])


class TestFrameConversion:
    def test_known_pair(self):
        got = frame_to_coord(NilPoint(1.0, 2.0, 0.0), FrameVector(1.0, 0.0, 0.0))
        assert got == CoordVector(1.0, 0.0, -1.0)
        back = coord_to_frame(NilPoint(1.0, 2.0, 0.0), got)
        assert back == FrameVector(1.0, 0.0, 0.0)

    def test_vertical_direction_is_position_independent(self):
        for p in (NilPoint(0.0, 0.0, 0.0), NilPoint(3.0, -1.0, 7.0)):
            assert frame_to_coord(p, E3) == CoordVector(0.0, 0.0, 1.0)
            assert coord_to_frame(p, CoordVector(0.0, 0.0, 1.0)) == E3

    @given(coord, coord, coord, coord, coord, coord)
    def test_round_trip(self, x, y, z, a, b, c):
        p = NilPoint(x, y, z)
        v = FrameVector(a, b, c)
        w = coord_to_frame(p, frame_to_coord(p, v))
        assert w.a == v.a and w.b == v.b
        assert w.c == pytest.approx(v.c, abs=1e-12)

    @given(coord, coord, coord, coord, coord, coord)
    def test_round_trip_other_way(self, x, y, z, dx, dy, dz):
        p = NilPoint(x, y, z)
        v = CoordVector(dx, dy, dz)
        w = frame_to_coord(p, coord_to_frame(p, v))
        assert w.dx == v.dx and w.dy == v.dy
        assert w.dz == pytest.approx(v.dz, abs=1e-12)


class TestMetric:
    def test_frame_is_orthonormal_everywhere(self):
        for p in (NilPoint(0.0, 0.0, 0.0), NilPoint(1.5, -0.5, 2.0)):
            for i, u in enumerate(FRAME):
                for j, v in enumerate(FRAME):
                    cu = frame_to_coord(p, u)
                    cv = frame_to_coord(p, v)
                    assert metric(p, cu, cv) == pytest.approx(
                        1.0 if i == j else 0.0, abs=1e-15
                    )

    def test_independent_of_height(self):
        v = CoordVector(0.3, -1.2, 0.7)
        w = CoordVector(1.1, 0.2, -0.4)
        base = metric(NilPoint(2.0, -1.0, 0.0), v, w)
        assert metric(NilPoint(2.0, -1.0, 123.0), v, w) == base

    def test_left_translation_preserves_metric(self):
        """Pushing vectors forward through group translation keeps inner products."""
        rng = np.random.default_rng(7)
        eps = 1e-5
        for _ in range(20):
            gx, gy, gz, px, py, pz = rng.uniform(-2.0, 2.0, size=6)
            g = NilPoint(gx, gy, gz)
            p = NilPoint(px, py, pz)
            v = CoordVector(*rng.uniform(-1.0, 1.0, size=3))
            w = CoordVector(*rng.uniform(-1.0, 1.0, size=3))

            def push(vec):
                out = []
                for k in range(3):
                    step = [0.0, 0.0, 0.0]
                    step[k] = eps
                    plus = nil_multiply(g, NilPoint(p.x + step[0], p.y + step[1], p.z + step[2]))
                    minus = nil_multiply(g, NilPoint(p.x - step[0], p.y - step[1], p.z - step[2]))
                    out.append(
                        np.array([plus.x - minus.x, plus.y - minus.y, plus.z - minus.z])
                        / (2.0 * eps)
                    )
                cols = np.stack(out, axis=1)
                moved = cols @ np.array([vec.dx, vec.dy, vec.dz])
                return CoordVector(*moved)

            before = metric(p, v, w)
            after = metric(nil_multiply(g, p), push(v), push(w))
            assert after == pytest.approx(before, abs=1e-6)


class TestContactForm:
    def test_on_frame_directions(self):
        p = NilPoint(1.0, 2.0, 0.5)
        assert contact_form(p, frame_to_coord(p, E1)) == pytest.approx(0.0, abs=1e-16)
        assert contact_form(p, frame_to_coord(p, E2)) == pytest.approx(0.0, abs=1e-16)
        assert contact_form(p, frame_to_coord(p, E3)) == 1.0

    def test_at_origin_reads_vertical_component(self):
        assert contact_form(NilPoint(0.0, 0.0, 0.0), CoordVector(3.0, -2.0, 0.25)) == 0.25

    def test_matches_frame_component(self):
        p = NilPoint(-0.7, 1.3, 4.0)
        v = CoordVector(0.9, 0.1, -2.0)
        assert contact_form(p, v) == pytest.approx(coord_to_frame(p, v).c, abs=1e-15)


class TestLorentzAndCross:
    def test_rotation_table(self):
        assert lorentz(E1) == FrameVector(0.0, 1.0, 0.0)
        assert lorentz(E2) == FrameVector(-1.0, 0.0, 0.0)
        assert lorentz(E3) == FrameVector(0.0, 0.0, 0.0)

    def test_linearity_example(self):
        assert lorentz(FrameVector(1.0, 1.0, 5.0)) == FrameVector(-1.0, 1.0, 0.0)

    def test_squares_to_minus_identity_on_plane(self):
        v = FrameVector(0.3, -0.8, 0.0)
        assert lorentz(lorentz(v)) == FrameVector(-v.a, -v.b, 0.0)

    def test_cross_table(self):
        assert cross(E1, E2) == E3
        assert cross(E2, E3) == E1
        assert cross(E3, E1) == E2

    def test_cross_with_vertical_is_rotation(self):
        v = FrameVector(1.2, -0.4, 0.9)
        assert cross(E3, v) == lorentz(v)

    @given(coord, coord, coord, coord, coord, coord)
    def test_cross_antisymmetry(self, a1, b1, c1, a2, b2, c2):
        u = FrameVector(a1, b1, c1)
        v = FrameVector(a2, b2, c2)
        assert fvec(cross(u, v)) == pytest.approx(-fvec(cross(v, u)), abs=0.0)


class TestConnection:
    @pytest.mark.parametrize(
        "u,v,expected",
        [
            (E1, E1, FrameVector(0.0, 0.0, 0.0)),
            (E2, E2, FrameVector(0.0, 0.0, 0.0)),
            (E3, E3, FrameVector(0.0, 0.0, 0.0)),
            (E1, E2, FrameVector(0.0, 0.0, 0.5)),
            (E2, E1, FrameVector(0.0, 0.0, -0.5)),
            (E1, E3, FrameVector(0.0, -0.5, 0.0)),
            (E3, E1, FrameVector(0.0, -0.5, 0.0)),
            (E2, E3, FrameVector(0.5, 0.0, 0.0)),
            (E3, E2, FrameVector(0.5, 0.0, 0.0)),
        ],
    )
    def test_basis_table(self, u, v, expected):
        assert connection(u, v) == expected

    def test_bilinear_sample(self):
        got = connection(FrameVector(1.0, 1.0, 0.0), E3)
        assert got == FrameVector(0.5, -0.5, 0.0)

    def test_torsion_matches_commutator(self):
        """The difference connection(u,v) - connection(v,u) is the bracket [u,v]."""
        rng = np.random.default_rng(3)
        for _ in range(25):
            u = FrameVector(*rng.uniform(-2.0, 2.0, size=3))
            v = FrameVector(*rng.uniform(-2.0, 2.0, size=3))
            torsion = fvec(connection(u, v)) - fvec(connection(v, u))
            expected = np.array([0.0, 0.0, u.a * v.b - u.b * v.a])
            assert torsion == pytest.approx(expected, abs=1e-14)

    def test_metric_derivative_vanishes(self):
        """connection(u, .) acts skew-symmetrically, as a metric connection must."""
        rng = np.random.default_rng(4)
        for _ in range(25):
            u, v, w = (FrameVector(*rng.uniform(-2.0, 2.0, size=3)) for _ in range(3))
            lhs = float(fvec(connection(u, v)) @ fvec(w)) + float(
                fvec(v) @ fvec(connection(u, w))
            )
            assert lhs == pytest.approx(0.0, abs=1e-13)


class TestCurveAcceleration:
    def test_vertical_line(self):
        assert curve_acceleration(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0) == FrameVector(
            0.0, 0.0, 0.0
        )

    def test_horizontal_line(self):
        # x(s) = 0.6 s, y(s) = 0.8 s, z = 0 stays horizontal and straight.
        s = 1.7
        got = curve_acceleration(0.6 * s, 0.8 * s, 0.6, 0.8, 0.0, 0.0, 0.0, 0.0)
        assert got.a == pytest.approx(0.0, abs=1e-15)
        assert got.b == pytest.approx(0.0, abs=1e-15)
        assert got.c == pytest.approx(0.0, abs=1e-15)

    def test_unit_circle(self):
        # At s = 0 on (cos s, sin s, 0): position (1,0), velocity (0,1),
        # second derivatives (-1, 0).  The vertical frame component of the
        # velocity is -1/2, so the plane part picks up a rotation term.
        got = curve_acceleration(1.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0)
        assert got.a == pytest.approx(-1.5, abs=1e-15)
        assert got.b == 0.0
        assert got.c == 0.0

    def test_frame_derivative_plus_connection(self):
        """The covariant acceleration is the derivative of the frame
        components plus connection(v, v), to the last bit."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            x, y, dx, dy, dz, ddx, ddy, ddz = rng.uniform(-3.0, 3.0, 8)
            p = NilPoint(x, y, 0.0)
            v = coord_to_frame(p, CoordVector(dx, dy, dz))
            deriv = fvec(coord_to_frame(p, CoordVector(ddx, ddy, ddz)))
            want = deriv + fvec(connection(v, v))
            got = curve_acceleration(x, y, dx, dy, dz, ddx, ddy, ddz)
            assert np.array_equal(fvec(got), want)

    @pytest.mark.parametrize("k", range(8))
    def test_rejects_a_complex_input(self, k):
        # each used to give a complex acceleration, or a complex frame field
        args = [1.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0]
        args[k] = np.array([0.5j])
        with pytest.raises(DomainError, match="complex"):
            curve_acceleration(*args)

    def test_rejects_inputs_that_do_not_broadcast(self):
        with pytest.raises(ShapeError, match="broadcast"):
            curve_acceleration(np.zeros(2), np.zeros(3), 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


class TestUTensor:
    def test_nil3_table(self):
        expected = {
            (0, 2): OscVector(0.0, -0.5, 0.0, 0.0),
            (2, 0): OscVector(0.0, -0.5, 0.0, 0.0),
            (1, 2): OscVector(0.5, 0.0, 0.0, 0.0),
            (2, 1): OscVector(0.5, 0.0, 0.0, 0.0),
        }
        zero = OscVector(0.0, 0.0, 0.0, 0.0)
        for i, x in enumerate(NIL_BASIS):
            for j, y in enumerate(NIL_BASIS):
                want = expected.get((i, j), zero)
                got = u_tensor(NIL_BASIS, x, y)
                assert fvec4(got) == pytest.approx(fvec4(want), abs=1e-12)

    def test_m_basis_vanishes(self):
        basis = (OSC_E1, OSC_E2, OscVector(0.0, 0.0, 1.0, 1.0))
        for x in basis:
            for y in basis:
                got = u_tensor(basis, x, y)
                assert fvec4(got) == pytest.approx(np.zeros(4), abs=1e-12)

    def test_symmetry(self):
        x = OscVector(0.3, -0.7, 1.1, 0.0)
        y = OscVector(-0.2, 0.5, 0.4, 0.0)
        assert fvec4(u_tensor(NIL_BASIS, x, y)) == pytest.approx(
            fvec4(u_tensor(NIL_BASIS, y, x)), abs=1e-13
        )

    def test_one_solve_for_all_coefficients(self, monkeypatch):
        calls = count_solves(monkeypatch)
        u_tensor(NIL_BASIS, OSC_E1, OSC_E3)
        # x, y and the brackets of both with each of the 3 basis vectors
        assert calls == [(4, 8)]

    def test_rejects_vector_outside_span(self):
        with pytest.raises(DomainError):
            u_tensor(NIL_BASIS, OSC_E4, OSC_E1)

    def test_rejects_complex_vector(self):
        # writing the complex field into a float buffer raised a bare TypeError
        with pytest.raises(DomainError, match="complex"):
            u_tensor(NIL_BASIS, OscVector(1j, 0.0, 0.0, 0.0), OSC_E1)

    @pytest.mark.parametrize("k", [0, 3, 4])
    def test_an_array_field_raises_shape_error(self, k):
        # k picks a basis vector, x or y; an array in the span check or in
        # the solve used to raise numpy's bare ValueError
        vectors = [*NIL_BASIS, OSC_E1, OSC_E2]
        vectors[k] = OscVector(*np.multiply.outer(fvec4(vectors[k]), np.ones(2)))
        with pytest.raises(ShapeError, match="one number"):
            u_tensor(vectors[:3], *vectors[3:])

    def test_rejects_singular_basis(self):
        # E4 is the complement, so it cannot also be a basis vector
        with pytest.raises(DomainError):
            u_tensor((OSC_E1, OSC_E2, OSC_E4), OSC_E1, OSC_E2)

    def test_matches_connection_symmetrization(self):
        for x in NIL_BASIS:
            for y in NIL_BASIS:
                u = u_tensor(NIL_BASIS, x, y)
                fx = FrameVector(x.e1, x.e2, x.e3)
                fy = FrameVector(y.e1, y.e2, y.e3)
                sym = 0.5 * (fvec(connection(fx, fy)) + fvec(connection(fy, fx)))
                assert np.array([u.e1, u.e2, u.e3]) == pytest.approx(sym, abs=1e-12)
                assert u.e4 == pytest.approx(0.0, abs=1e-12)


def fvec4(v):
    return np.array([v.e1, v.e2, v.e3, v.e4])


def count_solves(monkeypatch):
    """Record the right-hand-side shape of every np.linalg.solve call."""
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(np.shape(b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


# every generator of verify's go_grid check, {-2..2}^4, one per row
GO_GRID = np.array(list(itertools.product((-2, -1, 0, 1, 2), repeat=4)), dtype=float)


class TestGoCriterion:
    def test_vertical_axis_is_pregeodesic(self):
        res = go_criterion(OscVector(0.0, 0.0, 1.0, 1.0))
        assert res.is_pregeodesic
        assert res.k == pytest.approx(0.0, abs=1e-15)

    def test_plane_direction_with_matched_rotation(self):
        res = go_criterion(OscVector(0.0, 0.0, 2.0, 2.0))
        assert res.is_pregeodesic

    def test_one_solve_for_all_coefficients(self, monkeypatch):
        calls = count_solves(monkeypatch)
        go_criterion(OscVector(1.0, 2.0, 3.0, 3.0), "m")
        # w and its brackets with each of the 3 basis vectors
        assert calls == [(4, 4)]

    def test_generic_direction_fails(self):
        res = go_criterion(OscVector(1.0, 0.0, 1.0, 0.0))
        assert not res.is_pregeodesic
        assert res.k is None

    def test_horizontal_with_no_rotation(self):
        res = go_criterion(OscVector(0.6, 0.8, 0.0, 0.0))
        assert res.is_pregeodesic
        assert res.k == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "w",
        [
            OscVector(math.nan, 0.0, 1.0, 1.0),
            OscVector(0.0, 0.0, math.inf, 1.0),
            OscVector(1e200, 0.0, 1.0, 3.0),  # finite, but its square is not
        ],
        ids=["nan", "inf", "1e200"],
    )
    @pytest.mark.parametrize("decomposition", ["nil3", "m"])
    def test_rejects_non_finite_input(self, w, decomposition):
        with pytest.raises(DomainError):
            go_criterion(w, decomposition)

    def test_rejects_complex_generator(self):
        # OscVector(1j, 0, 0, 0) used to pass as W4*E4 with k = 0
        with pytest.raises(DomainError, match="complex"):
            go_criterion(OscVector(1j, 0.0, 0.0, 0.0))

    def test_rejects_fields_that_do_not_broadcast(self):
        with pytest.raises(ShapeError, match="broadcast"):
            go_criterion(OscVector(np.ones(2), np.ones(3), 0.0, 0.0))

    @pytest.mark.parametrize("decomposition", ["nil", "", ["m"]])
    def test_rejects_unknown_decomposition(self, decomposition):
        with pytest.raises(DomainError):
            go_criterion(OscVector(1.0, 0.0, 1.0, 1.0), decomposition)

    @pytest.mark.parametrize(
        "w, family",
        [
            (OscVector(0.0, 0.0, 0.0, 1.5), "W4*E4"),
            (OscVector(0.0, 0.0, 1.0, -2.0), "W3*E3+W4*E4"),
            (OscVector(0.6, -0.8, 0.3, 0.3), "W1*E1+W2*E2+W3*(E3+E4)"),
            (OscVector(0.6, 0.8, 0.0, 0.0), "W1*E1+W2*E2+W3*(E3+E4)"),
            (OscVector(1.0, 0.0, 1.0, 0.0), None),
            # within 2e-11 of w4 = w3 relative to |w|: accepted, so named
            (OscVector(1e11, 0.0, 1.0, 3.0), "W1*E1+W2*E2+W3*(E3+E4)"),
            # the direction of (1, 0, 1, 0), rejected at every scale
            (OscVector(1e-6, 0.0, 1e-6, 0.0), None),
        ],
    )
    @pytest.mark.parametrize("decomposition", ["nil3", "m"])
    def test_names_the_family(self, w, family, decomposition):
        res = go_criterion(w, decomposition)
        assert res.is_pregeodesic == (family is not None)
        assert res.family == family

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6, 1e11])
    @pytest.mark.parametrize("decomposition", ["nil3", "m"])
    def test_answer_does_not_depend_on_scale(self, scale, decomposition):
        # array calls, which test_array_call_matches_the_scalar_calls ties
        # to the scalar ones
        want = go_criterion(OscVector(*GO_GRID.T), decomposition)
        got = go_criterion(OscVector(*(scale * GO_GRID.T)), decomposition)
        assert got.is_pregeodesic.tolist() == want.is_pregeodesic.tolist()
        assert got.family.tolist() == want.family.tolist()
        assert got.is_pregeodesic.tolist() == [f is not None for f in got.family]

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-3, 1e3, 1e6, 1e11])
    @pytest.mark.parametrize("decomposition", ["nil3", "m"])
    def test_array_call_matches_the_scalar_calls(self, scale, decomposition):
        grid = scale * GO_GRID
        got = go_criterion(OscVector(*grid.T), decomposition)
        assert got.is_pregeodesic.shape == got.k.shape == got.family.shape == (625,)
        for w, ok, k, family in zip(grid, got.is_pregeodesic, got.k, got.family):
            want = go_criterion(OscVector(*w.tolist()), decomposition)
            assert type(want.is_pregeodesic) is bool
            assert (ok, family) == (want.is_pregeodesic, want.family)
            if want.k is None:
                assert math.isnan(k)
            else:
                assert type(want.k) is float
                assert np.float64(want.k).tobytes() == k.tobytes()  # signed zeros too

    def test_array_call_keeps_the_broadcast_shape(self):
        w3 = np.array([[0.0], [1.0]])
        got = go_criterion(OscVector(np.array([0.0, 1.0, 2.0]), 0.0, w3, 1.0))
        assert got.is_pregeodesic.shape == (2, 3)
        assert got.is_pregeodesic.tolist() == [[True, False, False], [True, True, True]]
        assert got.family[1, 2] == "W1*E1+W2*E2+W3*(E3+E4)"

    def test_array_call_makes_one_solve(self, monkeypatch):
        calls = count_solves(monkeypatch)
        go_criterion(OscVector(np.ones(5), 0.0, np.arange(5.0), 1.0), "m")
        # w and its brackets with the 3 basis vectors, for all 5 generators
        assert calls == [(4, 20)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_array_call_rejects_one_non_finite_component(self, bad):
        w3 = np.ones(4)
        w3[2] = bad
        with pytest.raises(DomainError):
            go_criterion(OscVector(0.0, 0.0, w3, 1.0))

    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
    def test_m_decomposition_accepts_large_generators(self, scale):
        # the reductive coefficients come from a square solve, so no
        # absolute residual test can reject a large but valid generator
        rng = np.random.default_rng(int(scale))
        for w in rng.uniform(-scale, scale, (200, 4)):
            go_criterion(OscVector(*w), "m")
        res = go_criterion(OscVector(scale, 0.0, 1.0, 1.0), "m")
        assert res.is_pregeodesic

    def test_decompositions_agree(self):
        # Both reductive splittings single out the same orbit directions.
        cases = [
            OscVector(1.0, 0.0, 0.0, 0.0),
            OscVector(0.0, 0.0, 1.0, 1.0),
            OscVector(0.0, 0.0, 0.0, 1.0),
            OscVector(1.0, 0.0, 1.0, 0.0),
            OscVector(0.5, -1.0, 2.0, 2.0),
        ]
        for w in cases:
            assert (
                go_criterion(w, decomposition="m").is_pregeodesic
                == go_criterion(w, decomposition="nil3").is_pregeodesic
            )
