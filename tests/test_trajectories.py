import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest

from nilmag import (
    DomainError,
    FrameVector,
    NilPoint,
    OscVector,
    ShapeError,
    algebra_matrix,
    curve_acceleration,
    frame_to_coord,
    homogeneous_generator,
    lorentz,
    magnetic_grid,
    magnetic_point,
    magnetic_point_from,
    magnetic_velocity,
    matrix_exp,
    orbit_grid,
    trajectories,
)

ORIGIN = NilPoint(0.0, 0.0, 0.0)


def pvec(p):
    return np.array([p.x, p.y, p.z])


def mp_magnetic(a, b, c, q, s):
    """(x, y, z) of the charged trajectory from the origin at 50 digits.

    Written without the K1-K3 kernels: the planar part is the circle
    (a sin u + b (cos u - 1), b sin u - a (cos u - 1)) / w and the height
    is c s + (a^2 + b^2)(u - sin u) / (2 w^2), with w = q + c and u = w s;
    w = 0 gives the straight line.
    """
    with mpmath.workdps(50):
        a, b, c, q, s = (mpmath.mpf(float(v)) for v in (a, b, c, q, s))
        w = q + c
        if w * s == 0:
            return np.array([float(a * s), float(b * s), float(c * s)])
        u = w * s
        x = (a * mpmath.sin(u) + b * (mpmath.cos(u) - 1)) / w
        y = (b * mpmath.sin(u) - a * (mpmath.cos(u) - 1)) / w
        z = c * s + (a * a + b * b) * (u - mpmath.sin(u)) / (2 * w * w)
        return np.array([float(x), float(y), float(z)])


def random_unit(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return float(v[0]), float(v[1]), float(v[2])


class TestGeodesicPoint:
    """Geodesics are the charge-free trajectories, magnetic_point at q = 0."""

    def test_vertical_axis(self):
        for s in (0.0, 0.5, -3.0, 12.0):
            assert magnetic_point(0.0, 0.0, 1.0, 0.0, s) == NilPoint(0.0, 0.0, s)

    def test_horizontal_line(self):
        for s in (0.25, 1.0, 4.0):
            assert magnetic_point(0.6, 0.8, 0.0, 0.0, s) == NilPoint(0.6 * s, 0.8 * s, 0.0)

    def test_slant_half_period(self):
        # With vertical component 0.6 the planar projection is a circle
        # traversed with angular rate 0.6; at s = pi/0.6 it has made half
        # a turn, landing on the y axis at the circle diameter 8/3.
        s = math.pi / 0.6
        p = magnetic_point(0.8, 0.0, 0.6, 0.0, s)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert p.z == pytest.approx(17.0 * math.pi / 9.0, rel=1e-12)

    def test_rejects_non_unit_velocity(self):
        with pytest.raises(DomainError):
            magnetic_point(1.0, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            magnetic_point(0.5, 0.0, 0.0, 1.0, 1.0)


class TestMagneticPoint:
    def test_zero_charge_is_geodesic(self):
        # the geodesic's planar part turns at the contact rate c alone
        for s in (0.3, 1.7, 6.0):
            p = magnetic_point(0.8, 0.0, 0.6, 0.0, s)
            assert pvec(p) == pytest.approx(mp_magnetic(0.8, 0.0, 0.6, 0.0, s), abs=1e-13)

    @pytest.mark.parametrize("s", [0.25, 0.5, 2.0, 7.3])
    def test_unit_charge_circle(self, s):
        p = magnetic_point(1.0, 0.0, 0.0, 1.0, s)
        assert p.x == pytest.approx(math.sin(s), abs=5e-15)
        assert p.y == pytest.approx(1.0 - math.cos(s), abs=5e-15)
        assert p.z == pytest.approx((s - math.sin(s)) / 2.0, rel=1e-13, abs=1e-16)

    def test_rejects_nan_velocity(self):
        with pytest.raises(DomainError):
            magnetic_point(math.nan, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            magnetic_grid(np.array([1.0, math.nan]), 0.0, 0.0, 1.0, 1.0)

    def test_charge_cancels_rotation(self):
        # q = -c freezes the planar rotation, the path is a straight line.
        for s in (0.5, 2.0):
            assert magnetic_point(0.8, 0.0, 0.6, -0.6, s) == NilPoint(0.8 * s, 0.0, 0.6 * s)

    @pytest.mark.parametrize("q", [5e-9, -5e-9, 1e-8, -1e-8, 2e-8, -2e-8])
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
    def test_continuous_through_zero_rotation(self, q, s):
        """Tiny charges must land next to the zero-charge line, with no jump."""
        p = magnetic_point(0.6, 0.8, 0.0, q, s)
        assert abs(p.x - 0.6 * s) <= 1e-8
        assert abs(p.y - 0.8 * s) <= 1e-8
        assert abs(p.z) <= 1e-8

    def test_satisfies_lorentz_equation(self):
        """Acceleration along the path equals charge times the rotated velocity."""
        for a, b, c, q in [(0.8, 0.0, 0.6, 1.9), (0.0, 1.0, 0.0, 0.3), (0.48, -0.6, 0.64, -0.7)]:
            cq = q + c
            for s in (0.4, 1.3, 3.1):
                u = cq * s
                va = a * math.cos(u) - b * math.sin(u)
                vb = a * math.sin(u) + b * math.cos(u)
                p = magnetic_point(a, b, c, q, s)
                dz = c - 0.5 * (va * p.y - vb * p.x)
                dda = -cq * vb
                ddb = cq * va
                ddz = -0.5 * (dda * p.y - ddb * p.x)
                acc = curve_acceleration(p.x, p.y, va, vb, dz, dda, ddb, ddz)
                want = lorentz(FrameVector(va, vb, c))
                assert acc.a == pytest.approx(q * want.a, abs=1e-13)
                assert acc.b == pytest.approx(q * want.b, abs=1e-13)
                assert acc.c == pytest.approx(0.0, abs=1e-13)


class TestMagneticVelocity:
    def test_initial_value(self):
        assert magnetic_velocity(0.8, 0.0, 0.6, 1.9, 0.0) == FrameVector(0.8, 0.0, 0.6)

    def test_vertical_component_is_constant(self):
        for s in (0.0, 1.0, 5.5):
            v = magnetic_velocity(0.6, 0.8, 0.0, 2.0, s)
            assert v.c == 0.0
            assert magnetic_velocity(0.0, 0.0, 1.0, 2.0, s) == FrameVector(0.0, 0.0, 1.0)

    def test_speed_is_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = random_unit(rng)
            q = float(rng.uniform(-2.0, 2.0))
            s = float(rng.uniform(-5.0, 5.0))
            v = magnetic_velocity(a, b, c, q, s)
            assert v.a**2 + v.b**2 + v.c**2 == pytest.approx(1.0, abs=2e-15)

    def test_matches_position_derivative(self):
        eps = 1e-5
        for a, b, c, q in [(0.8, 0.0, 0.6, 1.9), (0.0, 1.0, 0.0, 0.3), (0.48, -0.6, 0.64, -0.7)]:
            for s in (0.7, 2.3):
                plus = magnetic_point(a, b, c, q, s + eps)
                minus = magnetic_point(a, b, c, q, s - eps)
                fd = (pvec(plus) - pvec(minus)) / (2.0 * eps)
                p = magnetic_point(a, b, c, q, s)
                v = frame_to_coord(p, magnetic_velocity(a, b, c, q, s))
                assert fd == pytest.approx([v.dx, v.dy, v.dz], abs=1e-6)


    @pytest.mark.parametrize("a, b, c", [(2.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (0.6, 0.0, 0.0)])
    def test_rejects_non_unit_velocity(self, a, b, c):
        with pytest.raises(DomainError):
            magnetic_velocity(a, b, c, 0.0, 1.0)
        with pytest.raises(DomainError):
            magnetic_velocity(np.array([0.6, a]), np.array([0.0, b]), np.array([0.8, c]), 1.9,
                              np.linspace(0.0, 1.0, 4)[:, None])

    def test_empty_velocity_arrays_pass(self):
        empty = np.array([])
        v = magnetic_velocity(empty, empty, empty, 1.9, 2.0)
        assert v.a.shape == v.b.shape == (0,)


# (function, arguments) with one complex input each; the real parts
# are valid input.  The arguments are built in the test, as a complex
# start point raises when it is built
COMPLEX_INPUTS = [
    (magnetic_point, lambda: (np.array([0.6 + 0j]), 0.0, 0.8, 0.0, 1.0)),
    (magnetic_grid, lambda: (0.6, 0.0, 0.8, 0.0, np.linspace(0.0, 1.0, 3) + 0j)),
    (magnetic_velocity, lambda: (0.6, 0.0, 0.8, 1j, 1.0)),
    (homogeneous_generator, lambda: (0.6, 0.0, 0.8, 1.0 + 2j)),
    (magnetic_point_from, lambda: (NilPoint(1j, 0.0, 0.0), 0.6, 0.0, 0.8, 0.0, 1.0)),
]
# the same with inputs whose shapes do not broadcast together
MISMATCHED_INPUTS = [
    (magnetic_point, (np.full(2, 0.6), np.zeros(3), np.full(2, 0.8), 0.0, 1.0)),
    (magnetic_grid, (0.6, 0.0, 0.8, np.zeros(2), np.zeros(3))),
    (magnetic_velocity, (np.full(2, 0.6), np.zeros(3), np.full(2, 0.8), 0.0, 1.0)),
    (homogeneous_generator, (np.full(2, 0.6), 0.0, np.full(2, 0.8), np.zeros(3))),
    (magnetic_point_from, (NilPoint(np.zeros(2), 0.0, 0.0), 0.6, 0.0, 0.8, 0.0, np.zeros(3))),
]


class TestClosedFormInput:
    """The closed forms and homogeneous_generator refuse what numpy would
    truncate or fail on: complex input, or shapes that do not broadcast."""

    @pytest.mark.parametrize("fn, args", COMPLEX_INPUTS,
                             ids=[f.__name__ for f, _ in COMPLEX_INPUTS])
    def test_rejects_complex_input(self, fn, args):
        with pytest.raises(DomainError, match="complex"):
            fn(*args())

    @pytest.mark.parametrize("fn, args", MISMATCHED_INPUTS,
                             ids=[f.__name__ for f, _ in MISMATCHED_INPUTS])
    def test_rejects_inputs_that_do_not_broadcast(self, fn, args):
        with pytest.raises(ShapeError, match="broadcast"):
            fn(*args)


class TestMagneticPointFrom:
    def test_origin_start_reduces(self):
        got = magnetic_point_from(ORIGIN, 0.8, 0.0, 0.6, 1.9, 2.0)
        assert got == magnetic_point(0.8, 0.0, 0.6, 1.9, 2.0)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_translated_circle(self, s):
        p = magnetic_point_from(NilPoint(1.0, 2.0, 0.0), 1.0, 0.0, 0.0, 1.0, s)
        assert p.x == pytest.approx(1.0 + math.sin(s), abs=1e-14)
        assert p.y == pytest.approx(3.0 - math.cos(s), abs=1e-14)
        want_z = (s - math.sin(s)) / 2.0 + 0.5 * ((1.0 - math.cos(s)) - 2.0 * math.sin(s))
        assert p.z == pytest.approx(want_z, abs=1e-13)

    def test_straight_descent(self):
        a = math.sqrt(0.75)
        for s in (0.5, 3.0):
            got = magnetic_point_from(NilPoint(0.0, 0.0, 1.0), a, 0.0, -0.5, 0.5, s)
            assert got.x == a * s
            assert got.y == 0.0
            assert got.z == 1.0 - 0.5 * s

    def test_height_offset_identity(self):
        """The start point enters the height through one closed expression."""
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            a, b, c = random_unit(rng)
            q = float(rng.uniform(-2.0, 2.0))
            if abs(q + c) < 0.1:
                continue
            p0 = NilPoint(*rng.uniform(-2.0, 2.0, size=3))
            s = float(rng.uniform(0.2, 5.0))
            cq = q + c
            u = cq * s
            planar = a * a + b * b
            got = magnetic_point_from(p0, a, b, c, q, s)
            lhs = got.z - (p0.z + (c + planar / (2.0 * cq)) * s)
            rhs = (
                (a * p0.x + b * p0.y) * (1.0 - math.cos(u))
                + (b * p0.x - a * p0.y - planar / cq) * math.sin(u)
            ) / (2.0 * cq)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            checked += 1


class TestHomogeneousGenerator:
    def test_plain_cases(self):
        assert homogeneous_generator(1.0, 0.0, 0.0, 0.0) == OscVector(1.0, 0.0, 0.0, 0.0)
        assert homogeneous_generator(0.0, 0.0, 1.0, 0.0) == OscVector(0.0, 0.0, 1.0, 1.0)
        assert homogeneous_generator(0.8, 0.0, 0.6, 1.9) == OscVector(0.8, 0.0, 0.6, 2.5)

    def test_charge_sits_in_isotropy_part(self):
        w = homogeneous_generator(0.8, 0.0, 0.6, 1.9)
        # on m = span{E1, E2, E3 + E4} the isotropy part is (e4 - e3) E4
        # and the m part e1 E1 + e2 E2 + e3 (E3 + E4)
        assert w.e4 - w.e3 == 1.9
        assert (w.e1, w.e2, w.e3) == (0.8, 0.0, 0.6)

    def test_strength_scales_coupling(self):
        w = homogeneous_generator(0.0, 1.0, 0.0, 2.0, j_strength=0.5)
        assert w.e4 == 1.0

    @pytest.mark.parametrize("a, b, c", [(1.0, 1.0, 1.0), (math.nan, 0.0, 1.0)])
    def test_rejects_non_unit_velocity(self, a, b, c):
        # as magnetic_point does: every trajectory starts with unit speed
        with pytest.raises(DomainError):
            homogeneous_generator(a, b, c, 0.0)


class TestOrbitEndpoint:
    """The orbit point exp(s W).o, the last row of the one-step orbit_grid."""

    def test_central_direction(self):
        for s in (0.1, 2.0, -4.0):
            assert orbit_grid(OscVector(0.0, 0.0, 1.0, 0.0), s, 1)[-1].tolist() == [0.0, 0.0, s]

    def test_rotation_direction_fixes_origin(self):
        for s in (0.3, 5.0):
            assert orbit_grid(OscVector(0.0, 0.0, 0.0, 1.0), s, 1)[-1].tolist() == [0.0] * 3

    def test_at_zero(self):
        assert orbit_grid(OscVector(0.4, -1.0, 0.7, 0.2), 0.0, 1)[-1].tolist() == [0.0] * 3

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.7])
    def test_mixed_direction_closed_form(self, s):
        x, y, z = orbit_grid(OscVector(1.0, 0.0, 1.0, 1.0), s, 1)[-1]
        assert x == pytest.approx(math.sin(s), abs=1e-10)
        assert y == pytest.approx(1.0 - math.cos(s), abs=1e-10)
        assert z == pytest.approx((3.0 * s - math.sin(s)) / 2.0, abs=1e-10)

    @pytest.mark.parametrize(
        "a,b,c,q",
        [(1.0, 0.0, 0.0, 1.0), (0.8, 0.0, 0.6, 1.9), (0.48, -0.6, 0.64, -0.7)],
    )
    def test_orbit_traces_trajectory(self, a, b, c, q):
        w = homogeneous_generator(a, b, c, q)
        for s in (0.25, 1.0, 2.9):
            got = orbit_grid(w, s, 1)[-1]
            want = magnetic_point(a, b, c, q, s)
            assert got == pytest.approx(pvec(want), abs=1e-12)


class TestGrids:
    def test_magnetic_grid_matches_scalar(self):
        """Each grid row matches the 50-digit reference at its own s."""
        s = np.array([0.0, 0.4, 1.1, 2.8])
        grid = magnetic_grid(0.8, 0.0, 0.6, 1.9, s)
        assert grid.shape == (4, 3)
        for i, si in enumerate(s):
            assert grid[i] == pytest.approx(mp_magnetic(0.8, 0.0, 0.6, 1.9, si), abs=1e-13)

    def test_magnetic_grid_scalar_input(self):
        got = magnetic_grid(1.0, 0.0, 0.0, 1.0, 0.7)
        assert got.shape == (3,)
        assert got == pytest.approx(mp_magnetic(1.0, 0.0, 0.0, 1.0, 0.7), abs=1e-14)

    def test_magnetic_grid_broadcasts(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        s = np.array([0.5, 1.0, 1.5])
        grid = magnetic_grid(a, b, 0.0, 0.3, s)
        assert grid.shape == (2, 3, 3)
        for i in range(2):
            for j in range(3):
                want = mp_magnetic(a[i, 0], b[i, 0], 0.0, 0.3, s[j])
                assert grid[i, j] == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("q", [-0.64, 1.3, -2.1])
    def test_magnetic_grid_matches_mpmath(self, q):
        """Rotation angles u = (q + c) s of none (q = -c), either sign,
        either side of the K3 Taylor switch at |u| = 0.5, and many turns,
        out to |u| = 1e4 where K3's cube is largest."""
        a, b, c = 0.48, -0.6, 0.64
        u = np.array([0.0, 1e-9, 0.25, 0.5 - 1e-9, 0.5 + 1e-9, 0.75, 30.0, 117.5, 400.0,
                      1234.5, 5e3, 1e4])
        s = u if q == -c else u / (q + c)
        if q != -c:
            assert np.array_equal(np.abs((q + c) * s) < 0.5, u < 0.5)
        grid = magnetic_grid(a, b, c, q, s)
        for i, si in enumerate(s):
            want = mp_magnetic(a, b, c, q, si)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(grid[i] - want)) <= 1e-14 * scale

    def test_magnetic_point_on_arrays_matches_scalar_calls_exactly(self):
        a, b, c = 0.48, -0.6, 0.64
        q = np.array([[-0.64], [1.3], [-2.1]])
        # both sides of |u| = 0.5 for q + c = 1.94 and for q + c = -1.46
        s = np.array([0.0, 1e-9, 0.2, 0.2577, 0.2578, 0.3424, 0.3426, 2.0, 90.0])
        p = magnetic_point(a, b, c, q, s)
        assert p.x.shape == (3, 9)
        for i in range(3):
            for j in range(9):
                want = magnetic_point(a, b, c, float(q[i, 0]), float(s[j]))
                assert type(want.x) is float
                assert (p.x[i, j], p.y[i, j], p.z[i, j]) == (want.x, want.y, want.z)

        # the ode sweep's layout: one velocity and charge per column, s
        # down the rows; the first column is the straight line q = -c
        a = np.array([0.6, 0.48, 0.0, -0.8])
        b = np.array([0.0, -0.6, 0.6, 0.0])
        c = np.array([0.8, 0.64, -0.8, 0.6])
        q = np.array([-0.8, 1.3, -2.1, 0.4])
        s = np.array([[0.0], [0.2], [0.3], [2.0], [90.0]])
        p = magnetic_point(a, b, c, q, s)
        assert p.x.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                want = magnetic_point(a[j], b[j], c[j], q[j], float(s[i, 0]))
                assert (p.x[i, j], p.y[i, j], p.z[i, j]) == (want.x, want.y, want.z)

    def test_magnetic_grid_rejects_non_unit(self):
        with pytest.raises(DomainError):
            magnetic_grid(1.0, 1.0, 0.0, 0.0, np.array([0.5]))

    def test_magnetic_grid_unit_test_on_empty_and_column_arrays(self):
        assert magnetic_grid(0.8, 0, 0.6, 1.9, np.array([])).shape == (0, 3)
        empty = np.array([])
        assert magnetic_grid(empty, empty, empty, 0, 1).shape == (0, 3)
        # one bad velocity among three still fails on the (5, 3) grid
        s = np.linspace(0.0, 1.0, 5)[:, None]
        for bad in (math.nan, 0.5):
            a = np.array([0.6, 0.0, bad])
            with pytest.raises(DomainError):
                magnetic_grid(a, np.array([0.0, 0.6, 0.0]), 0.8, np.zeros(3), s)

    def test_orbit_grid_rows_match_one_step_orbits(self):
        w = homogeneous_generator(0.48, -0.6, 0.64, 1.9)
        grid = orbit_grid(w, 5.0, 50)
        assert grid.shape == (51, 3)
        for i in (0, 1, 17, 50):
            s = 5.0 * i / 50
            assert grid[i] == pytest.approx(orbit_grid(w, s, 1)[-1], abs=1e-12)

    def test_orbit_grid_builds_the_step_generators_in_one_call(self, monkeypatch):
        calls = []
        build = trajectories.algebra_matrix

        def counting(v):
            calls.append(np.shape(v.e1))
            return build(v)

        monkeypatch.setattr(trajectories, "algebra_matrix", counting)
        gens = [astuple(homogeneous_generator(0.48, -0.6, 0.64, q)) for q in (0.0, 1.0, 2.0)]
        grid = orbit_grid(np.array(gens), 5.0, 50)
        assert calls == [(3,)]
        for w, orbit in zip(gens, grid):
            assert orbit[-1] == pytest.approx(orbit_grid(OscVector(*w), 5.0, 1)[-1], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_orbit_grid_takes_one_matrix_exp_per_grid(self, monkeypatch, n):
        calls = []
        exp = trajectories.matrix_exp

        def counting(m):
            calls.append(np.shape(m))
            return exp(m)

        monkeypatch.setattr(trajectories, "matrix_exp", counting)
        orbit_grid(np.random.default_rng(n).uniform(-2.0, 2.0, (n, 4)), 5.0, 9)
        assert calls == [(n, 4, 4)]

    @pytest.mark.parametrize("s_max", [0.5, 5.0, 20.0, 60.0])
    def test_orbit_grid_rows_have_the_bits_of_their_own_grid(self, s_max):
        # ten of each kind of instance of the benchmark's sweep: generic,
        # straight lines (q = -c), small |u|, Reeb velocities and geodesics;
        # from span 20 on their step matrices take different scalings in
        # one stack
        rng = np.random.default_rng([27, int(s_max)])
        vel = rng.normal(size=(50, 3))
        a, b, c = (vel / np.linalg.norm(vel, axis=1, keepdims=True)).T
        q = rng.uniform(-2.0, 2.0, 50)
        q[10:20] = -c[10:20]
        q[20:30] = -c[20:30] + rng.uniform(-0.4, 0.4, 10) / s_max
        a[30:40], b[30:40], c[30:40] = 0.0, 0.0, rng.choice([-1.0, 1.0], 10)
        q[40:] = 0.0
        w = homogeneous_generator(a, b, c, q)
        gens = np.column_stack([w.e1, w.e2, w.e3, w.e4])
        grid = orbit_grid(gens, s_max, 100)
        for row, gen in zip(grid, gens):
            assert np.array_equal(row, orbit_grid(gen, s_max, 100))

    def test_orbit_grid_has_the_bits_of_its_c_order_copy(self):
        fortran = np.asfortranarray(np.random.default_rng(23).uniform(-2.0, 2.0, (9, 4)))
        for w in (fortran, fortran[::-1]):
            copy = np.ascontiguousarray(w)
            assert np.array_equal(orbit_grid(w, 5.0, 50), orbit_grid(copy, 5.0, 50))

    @pytest.mark.parametrize("steps", [0, -1])
    def test_orbit_grid_rejects_fewer_than_one_step(self, steps):
        with pytest.raises(DomainError):
            orbit_grid(OscVector(1.0, 0.0, 1.0, 1.0), 2.0, steps)

    def test_orbit_grid_rejects_fractional_steps(self):
        with pytest.raises(DomainError):
            orbit_grid(OscVector(1.0, 0.0, 1.0, 1.0), 2.0, 2.5)

    def test_orbit_grid_reads_a_0d_integer_array_as_its_count(self):
        w = OscVector(1.0, 0.0, 1.0, 1.0)
        assert np.array_equal(orbit_grid(w, 2.0, np.array(3)), orbit_grid(w, 2.0, 3))

    @pytest.mark.parametrize(
        "steps, error",
        [(np.array([3]), ShapeError), (2**62, DomainError), (2**63, DomainError),
         (10**30, DomainError)],
        ids=["(1,)", "2**62", "2**63", "10**30"],
    )
    def test_orbit_grid_rejects_a_count_it_cannot_read_or_size(self, steps, error):
        # these used to raise DomainError for the shape and numpy's bare
        # ValueError ("array is too big", "maximum allowed dimension
        # exceeded") for the counts
        with pytest.raises(error):
            orbit_grid(OscVector(1.0, 0.0, 1.0, 1.0), 2.0, steps)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 5), (2, 2, 4)])
    def test_orbit_grid_rejects_wrong_generator_shape(self, shape):
        # a (n, 3) stack used to give the orbits of (w1, w2, w3, 0)
        with pytest.raises(ShapeError):
            orbit_grid(np.ones(shape), 2.0, 4)

    def test_orbit_grid_rejects_oscvector_of_arrays(self):
        # four generators in one OscVector used to be read transposed
        w = OscVector(np.ones(4), np.zeros(4), np.ones(4), np.arange(4.0))
        with pytest.raises(ShapeError):
            orbit_grid(w, 2.0, 4)

    def test_orbit_grid_rejects_ragged_stack(self):
        # numpy's own ValueError used to escape
        with pytest.raises(ShapeError):
            orbit_grid([[1, 0, 1], [1, 0, 1, 1]], 1.0, 2)

    def test_orbit_grid_rejects_oscvector_with_ragged_field(self):
        with pytest.raises(ShapeError):
            orbit_grid(OscVector(np.array([1.0, 2.0]), 0.0, 0.0, 0.0), 1.0, 2)

    @pytest.mark.parametrize(
        "w, s_max",
        [
            (lambda: [[1, 0.5j, 0, 0]], 1.0),
            # built in the test: a complex field raises when it is built
            (lambda: OscVector(1.0, 0.5j, 0.0, 0.0), 1.0),
            # a complex span makes every step generator ds * W complex
            (lambda: np.array([[1.0, 0.0, 1.0, 1.0]]), 2 + 1j),
            (lambda: OscVector(1.0, 0.0, 1.0, 1.0), 1j),
        ],
        ids=["w0", "w1", "complex s_max", "imaginary s_max"],
    )
    def test_orbit_grid_rejects_complex_generator(self, w, s_max):
        # each used to give the orbit of the real parts, with only a
        # ComplexWarning: of (1, 0, 0, 0), to s_max = 2, and all zeros
        with pytest.raises(DomainError, match="complex"):
            orbit_grid(w(), s_max, 1)

    @pytest.mark.parametrize(
        "s_max, error", [("x", DomainError), (np.array([1.0, 2.0]), ShapeError)],
        ids=["string", "two spans"],
    )
    def test_orbit_grid_rejects_a_span_that_is_not_one_real_number(self, s_max, error):
        # a bare TypeError and a bare ValueError used to escape
        with pytest.raises(error):
            orbit_grid(OscVector(0.6, 0.0, 0.8, 1.0), s_max, 4)

    def test_orbit_grid_reads_its_span_as_a_python_float(self):
        # an np.float32 span used to give its step ds in float32
        w = OscVector(0.6, 0.0, 0.8, 1.0)
        s_max = np.float32(0.1)
        for same in (s_max, np.array(s_max)):
            assert np.array_equal(orbit_grid(w, same, 3), orbit_grid(w, float(s_max), 3))
        # NaN, inf and negative spans are evaluated, not refused
        for s_max in (-2.0, math.nan, math.inf):
            assert orbit_grid(w, s_max, 3).shape == (4, 3)

    @pytest.mark.parametrize(
        "w, s_max, steps",
        [
            (OscVector(0.6, 0.0, 0.8, 1.0), math.inf, 3),
            (OscVector(1e200, 0.0, 1e200, 1e200), 1.0, 4),
        ],
        ids=["infinite span", "overflowing generator"],
    )
    def test_orbit_grid_gives_nan_rows_without_a_warning(self, w, s_max, steps):
        # numpy used to warn "invalid value encountered in multiply" at
        # ds * W, and "overflow encountered in matmul" in the squarings
        grid = orbit_grid(w, s_max, steps)
        assert np.array_equal(grid[0], np.zeros(3))
        assert np.isnan(grid[1:]).all()

    def test_orbit_grid_batch(self):
        w1 = homogeneous_generator(1.0, 0.0, 0.0, 1.0)
        w2 = homogeneous_generator(0.0, 0.0, 1.0, 0.0)
        batch = np.array(
            [[w1.e1, w1.e2, w1.e3, w1.e4], [w2.e1, w2.e2, w2.e3, w2.e4]]
        )
        grid = orbit_grid(batch, 2.0, 20)
        assert grid.shape == (2, 21, 3)
        assert grid[0] == pytest.approx(orbit_grid(w1, 2.0, 20), abs=1e-14)
        assert grid[1] == pytest.approx(orbit_grid(w2, 2.0, 20), abs=1e-14)


def stepwise_orbit_grid(w, s_max, steps):
    """The orbit recurrence one 4x4 product per grid step, M^k = M^(k-1) M
    with M = matrix_exp(algebra_matrix(ds W)): the reference loop that
    orbit_grid's doubling replaces."""
    rows = np.asarray(w, dtype=float).reshape(-1, 4)
    step_gens = algebra_matrix(OscVector(*(s_max / steps * rows.T)))
    step_mats = np.array([matrix_exp(m) for m in step_gens]).reshape(step_gens.shape)
    out = np.zeros((len(rows), steps + 1, 3))
    cur = np.broadcast_to(np.eye(4), step_mats.shape).copy()
    for k in range(1, steps + 1):
        cur = cur @ step_mats
        out[:, k, 0] = cur[:, 1, 3]
        out[:, k, 1] = cur[:, 2, 3]
        out[:, k, 2] = 0.5 * cur[:, 0, 3]
    return out


def mp_orbit_point(step_gen, k):
    """(x, y, z) read off a 50-digit mpmath expm of k times the float step
    generator step_gen, the last column of exp(k ds W)."""
    with mpmath.workdps(50):
        e = mpmath.expm(k * mpmath.matrix(step_gen.tolist()))
        return np.array([float(e[1, 3]), float(e[2, 3]), float(e[0, 3] / 2)])


class TestOrbitGridAccuracy:
    """orbit_grid and the stepwise loop against mpmath, at sampled k.

    Both are held to one bound, 64 k 2^-52 max(1, |exact|), |exact| the
    largest coordinate of the exact point.  At k = 1 the error is
    matrix_exp's own, which both share: up to about 30 units of 2^-52 for
    the step generators here (1-norm near 20), measured at k = 1 .. 3 on
    all 4097 generators of the stack below, of which the test samples
    nine.  Every further product adds a few units, so the error grows
    linearly in k for either evaluation order.
    """

    @staticmethod
    def assert_accurate(w, s_max, steps, gens, ks):
        w = np.asarray(w, dtype=float).reshape(-1, 4)
        step_gens = algebra_matrix(OscVector(*(s_max / steps * w.T)))
        grids = orbit_grid(w, s_max, steps), stepwise_orbit_grid(w, s_max, steps)
        for i in gens:
            for k in ks:
                exact = mp_orbit_point(step_gens[i], k)
                bound = 64 * max(k, 1) * 2.0 ** -52 * max(1.0, np.max(np.abs(exact)))
                for grid in grids:
                    assert np.max(np.abs(grid[i, k] - exact)) <= bound, (i, k)

    def test_long_single_generator(self):
        # k on both sides of the doublings at 2^10 and 2^13, and the end
        ks = [0, 1, 2, 3, 1023, 1024, 1025, 8191, 8192, 8193, 16420, 16421]
        w = np.random.default_rng(16421).uniform(-2.0, 2.0, 4)
        self.assert_accurate(w, 7300.0, 16421, [0], ks)

    def test_wide_stack_of_three_steps(self):
        w = np.random.default_rng(4097).uniform(-2.0, 2.0, (4097, 4))
        self.assert_accurate(w, 7.3, 3, range(0, 4097, 512), [1, 2, 3])

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 7, 8, 9, 100])
    def test_short_grids(self, steps):
        w = np.random.default_rng(steps).uniform(-2.0, 2.0, (2, 4))
        ks = range(steps + 1) if steps < 10 else [1, 2, 3, 16, 17, 33, 64, 65, 99, 100]
        self.assert_accurate(w, 7.3, steps, [1], ks)

    @pytest.mark.parametrize("steps", [1, 6])
    def test_empty_stack(self, steps):
        assert orbit_grid(np.zeros((0, 4)), 7.3, steps).shape == (0, steps + 1, 3)

    def test_one_step_is_the_one_product_of_the_stepwise_loop(self):
        # the one-step grid, exp(s W).o alone: the bytes, so signed zeros count too
        rng = np.random.default_rng(1)
        w = rng.uniform(-2.0, 2.0, (100, 4))
        w[rng.random(w.shape) < 0.3] = 0.0
        w[rng.random(w.shape) < 0.1] *= -1.0
        for s in (0.0, -0.0, 0.7, -2.5, 40.0):
            got = orbit_grid(w, s, 1)
            assert got.tobytes() == stepwise_orbit_grid(w, s, 1).tobytes()


def gather_scatter_k3(u, sin_u):
    """K3 with both branches gathered from u and scattered back: the
    Taylor series at |u| < 0.5, (u - sin u) / u^3 elsewhere."""
    out = np.empty_like(u)
    small = np.abs(u) < 0.5
    u2 = u[small] ** 2
    acc = np.zeros_like(u2)
    for coef in reversed(trajectories._K3_COEFFS):
        acc = acc * u2 + coef
    out[small] = acc
    ub = u[~small]
    out[~small] = (ub - sin_u[~small]) / (ub * ub * ub)
    return out


class TestK3MatchesGatherScatter:
    @staticmethod
    def assert_same(u):
        u = np.asarray(u, dtype=float)
        sin_u = np.sin(u)
        got = trajectories._k3_arr(u, sin_u)
        want = gather_scatter_k3(u, sin_u)
        assert got.shape == u.shape
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize(
        "shape, bound",
        [
            ((100, 200), 20.0),  # one block of the ODE sweep
            ((1000, 101), 30.0),
            ((10001,), 0.5),  # every point takes the Taylor branch
        ],
    )
    def test_random_grid(self, shape, bound):
        rng = np.random.default_rng(list(shape))
        u = rng.uniform(-bound, bound, shape)
        u[rng.random(shape) < 0.01] = 0.0
        self.assert_same(u)

    @pytest.mark.parametrize("u", [0.0, 0.3, -0.3, 0.5, 0.7, -2.5])
    def test_zero_dimensional(self, u):
        self.assert_same(u)

    def test_empty(self):
        self.assert_same(np.empty(0))

    def test_edge_values(self):
        self.assert_same(
            [0.0, -0.0, 0.5, -0.5, np.nextafter(0.5, 0.0), 1e-300, 5e-324, np.nan]
        )

    def test_overflow_and_infinity(self):
        # these warn in both forms: u^3 overflows, sin(inf) is invalid
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_same([6e102, 1e103, -1e103, np.inf, -np.inf, 0.25])
