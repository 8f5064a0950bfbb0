import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nilmag import (
    CoordVector,
    DomainError,
    FrameVector,
    InitialData,
    NilPoint,
    ShapeError,
    StepConfig,
    coord_to_frame,
    frame_to_coord,
    integrate,
    magnetic_grid,
    magnetic_point_from,
    magnetic_velocity,
)
from nilmag import cli_reporting
from nilmag.cli_reporting import (
    _CONVERGENCE_STEPS,
    _SWEEP_BLOCK,
    _SWEEP_H,
    check_convergence,
    check_ode_sweep,
)
from nilmag.integrator import _rhs, _step, batch_step, rk4_states

ORIGIN = NilPoint(0.0, 0.0, 0.0)


def closed_form_errors(init, cfg, states):
    """Errors of the (n + 1, 6) RK4 states against the closed forms on
    the grid s = k*h: the largest coordinate distance to
    magnetic_point_from, the largest speed drift of the numeric frame
    velocity, and the largest distance of its contact cosine from the
    closed form's magnetic_velocity."""
    s = np.arange(cfg.n + 1) * cfg.h
    v = init.velocity
    p = magnetic_point_from(init.start, v.a, v.b, v.c, init.q, s)
    closed_v = magnetic_velocity(v.a, v.b, v.c, init.q, s)
    x, y, z, vx, vy, vz = states.T
    dist = np.sqrt((x - p.x) ** 2 + (y - p.y) ** 2 + (z - p.z) ** 2)
    fv = coord_to_frame(NilPoint(x, y, z), CoordVector(vx, vy, vz))
    speed = np.sqrt(fv.a ** 2 + fv.b ** 2 + fv.c ** 2)
    # np.max keeps a NaN that Python's max would drop
    return (
        float(np.max(dist)),
        float(np.max(np.abs(speed - 1.0))),
        float(np.max(np.abs(fv.c - closed_v.c))),
    )


def random_unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rhs_of(x, y, vx, vy, vz, q):
    """_rhs on one state without its z, which _rhs does not read, as a
    list of six floats."""
    return [float(d) for d in _rhs(x, y, vx, vy, vz, q)]


class TestLorentzRhs:
    def test_vertical_flow_is_straight(self):
        for q in (0.0, 1.0, -3.7):
            assert rhs_of(0.0, 0.0, 0.0, 0.0, 1.0, q) == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_horizontal_flow_without_charge(self):
        assert rhs_of(0.0, 0.0, 0.6, 0.8, 0.0, 0.0) == [0.6, 0.8, 0.0, 0.0, 0.0, 0.0]

    def test_charged_horizontal_flow_curves(self):
        assert rhs_of(0.0, 0.0, 1.0, 0.0, 0.0, 1.0) == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]

    def test_conserves_contact_cosine(self):
        # The derivative of vz + (vx y - x vy)/2 along the flow must cancel.
        rng = np.random.default_rng(2)
        for _ in range(25):
            # the same draws as with z, which _rhs does not read
            x, y, _, vx, vy, vz = rng.uniform(-2.0, 2.0, size=6)
            q = float(rng.uniform(-2.0, 2.0))
            dx, dy, dz, ax, ay, az = rhs_of(x, y, vx, vy, vz, q)
            ct_dot = az + 0.5 * (ax * y + vx * vy - dx * vy - x * ay)
            assert ct_dot == pytest.approx(0.0, abs=1e-14)


class TestInitialData:
    def test_holds_fields(self):
        init = InitialData(NilPoint(1.0, 0.0, 0.0), FrameVector(0.0, 1.0, 0.0))
        assert init.q == 0.0
        assert init.velocity.b == 1.0

    def test_rejects_non_unit_velocity(self):
        with pytest.raises(DomainError):
            InitialData(ORIGIN, FrameVector(0.9, 0.0, 0.0))

    def test_rejects_nan_velocity(self):
        with pytest.raises(DomainError):
            InitialData(ORIGIN, FrameVector(math.nan, 0.0, 1.0))

    def test_rejects_complex_charge(self):
        with pytest.raises(DomainError, match="complex"):
            InitialData(ORIGIN, FrameVector(0.6, 0.0, 0.8), 1j)

    def test_rejects_complex_start(self):
        # rk4_states used to yield complex states from it
        with pytest.raises(DomainError, match="complex"):
            InitialData(NilPoint(1j, 0.0, 0.0), FrameVector(0.6, 0.0, 0.8))

    def test_rejects_a_start_that_does_not_broadcast_with_the_velocity(self):
        # each object reads its own fields; only InitialData sees both, and
        # without its check rk4_states raises numpy's bare ValueError
        start = NilPoint(np.zeros(2), 0.0, 0.0)
        with pytest.raises(ShapeError, match="broadcast"):
            InitialData(start, FrameVector(np.full(3, 0.6), 0.0, np.full(3, 0.8)))


class TestIntegrate:
    def test_vertical_line_long_run(self):
        init = InitialData(ORIGIN, FrameVector(0.0, 0.0, 1.0), q=0.7)
        states = integrate(init, StepConfig(h=1e-3, n=10000))
        assert states.shape == (10001, 6)
        x, y, z = states[-1, :3]
        assert abs(x) <= 1e-10
        assert abs(y) <= 1e-10
        assert abs(z - 10.0) <= 1e-10

    def test_zero_steps_returns_initial_sample(self):
        init = InitialData(NilPoint(1.0, -2.0, 0.5), FrameVector(0.6, 0.0, 0.8), q=1.0)
        states = integrate(init, StepConfig(h=0.1, n=0))
        assert states.shape == (1, 6)
        point = NilPoint(*states[0, :3])
        assert point == init.start
        fv = coord_to_frame(point, CoordVector(*states[0, 3:]))
        assert fv.a == pytest.approx(0.6, abs=1e-15)
        assert fv.c == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2500])
    def test_last_state_is_last_sample(self, n):
        # a charge scaled by 1.01, as the suite's fault injection passes it
        init = InitialData(
            NilPoint(0.3, -0.2, 0.1), FrameVector(0.8, 0.0, 0.6), q=1.9 * 1.01
        )
        cfg = StepConfig(h=4e-3, n=n)
        for count, u in enumerate(rk4_states(init, cfg), start=1):
            pass
        assert count == n + 1
        assert tuple(integrate(init, cfg)[-1]) == u

    def test_matches_closed_form_on_circle(self):
        init = InitialData(ORIGIN, FrameVector(1.0, 0.0, 0.0), q=1.0)
        cfg = StepConfig(h=1e-3, n=10000)
        pos_err, speed_drift, angle_drift = closed_form_errors(init, cfg, integrate(init, cfg))
        assert pos_err <= 1e-6
        assert speed_drift <= 1e-8
        assert angle_drift <= 1e-8

    def test_matches_closed_form_off_origin(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a, b, c = random_unit_rows(rng, 1)[0]
            init = InitialData(
                NilPoint(*rng.uniform(-1.0, 1.0, size=3)),
                FrameVector(float(a), float(b), float(c)),
                q=float(rng.uniform(-2.0, 2.0)),
            )
            cfg = StepConfig(h=1e-3, n=2000)
            pos_err, _, _ = closed_form_errors(init, cfg, integrate(init, cfg))
            assert pos_err <= 1e-6


class TestStepConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(DomainError):
            StepConfig(h=0.0, n=10)
        with pytest.raises(DomainError):
            StepConfig(h=-1e-3, n=10)
        with pytest.raises(DomainError):
            StepConfig(h=1e-3, n=-1)
        with pytest.raises(DomainError):
            StepConfig(h=math.inf, n=3)
        with pytest.raises(DomainError):
            StepConfig(h=math.nan, n=3)
        with pytest.raises(DomainError):
            StepConfig(h=1e-3, n=2.5)
        with pytest.raises(DomainError):
            StepConfig(h=1e-3, n=3.0)

    def test_accepts_zero_steps(self):
        cfg = StepConfig(h=0.5, n=0)
        assert cfg.h == 0.5

    @pytest.mark.parametrize(
        "h, error",
        [(1j, DomainError), (1e-3 + 0j, DomainError), (np.ones(2), ShapeError)],
        ids=["complex", "real complex", "array"],
    )
    def test_rejects_a_step_that_is_not_one_real_number(self, h, error):
        # a bare TypeError and a ValueError used to escape the range test
        with pytest.raises(error):
            StepConfig(h, 3)

    def test_step_is_read_as_a_float(self):
        assert type(StepConfig(np.float64(1e-3), 3).h) is float
        assert StepConfig(1, 3).h == 1.0


class TestBatch:
    def test_steps_agree_with_scalar_integrator(self):
        # every column of every step equals _step on that column's floats,
        # bit for bit; n = 3, 7, 3 resizes batch_step's cached workspace
        # and comes back to a used one
        rng = np.random.default_rng(29)
        h = 1e-3
        for n, charge in ((3, "array"), (7, "scalar"), (3, "one nan")):
            starts = rng.uniform(-1.0, 1.0, size=(n, 3))
            vels = random_unit_rows(rng, n)
            if charge == "scalar":
                q = float(rng.uniform(-2.0, 2.0))
                qs = [q] * n
            else:
                q = rng.uniform(-2.0, 2.0, size=n)
                if charge == "one nan":
                    q[1] = math.nan
                qs = [float(qj) for qj in q]

            p0 = NilPoint(*starts.T)
            cv = frame_to_coord(p0, FrameVector(*vels.T))
            state = np.array((p0.x, p0.y, p0.z, cv.dx, cv.dy, cv.dz))
            for _ in range(200):
                before = state.copy()
                stepped = batch_step(state, h, q)
                # the array an earlier call returned is not reused
                assert np.array_equal(state, before, equal_nan=True)
                for j in range(n):
                    want = _step(tuple(float(v) for v in state[:, j]), h, qs[j])
                    assert np.array_equal(stepped[:, j], want, equal_nan=True)
                state = stepped

            nan_columns = np.isnan(state).any(axis=0)
            assert list(nan_columns) == [charge == "one nan" and j == 1 for j in range(n)]

    @pytest.mark.parametrize(
        "state_shape, q_shape",
        [((6,), ()), ((5, 4), ()), ((7, 4), ()), ((6, 4, 2), ()), ((6, 4), (5,))],
    )
    def test_rejects_a_wrong_shape(self, state_shape, q_shape):
        with pytest.raises(ShapeError):
            batch_step(np.zeros(state_shape), 1e-3, np.ones(q_shape))

    @pytest.mark.parametrize(
        "state, q",
        [(np.full((6, 1), 1e-3j), 0.0), (np.zeros((6, 1)), 1j)],
        ids=["state", "charge"],
    )
    def test_rejects_complex_input(self, state, q):
        # numpy's own TypeError used to escape from the float workspace
        with pytest.raises(DomainError, match="complex"):
            batch_step(state, 1e-3, q)

    @pytest.mark.parametrize(
        "h, error",
        [(1j, DomainError), ("x", DomainError), (np.array([1e-3, 2e-3]), ShapeError)],
        ids=["complex", "string", "two steps"],
    )
    def test_rejects_a_step_that_is_not_one_real_number(self, h, error):
        # numpy's UFuncTypeError, a bare TypeError and a bare ValueError
        # used to escape from the arithmetic
        with pytest.raises(error):
            batch_step(np.zeros((6, 2)), h, 0.5)

    def test_step_is_read_as_a_python_float(self):
        # an np.float32 step used to give h / 2 and h / 6 in float32
        rng = np.random.default_rng(37)
        state, q = rng.uniform(-1.0, 1.0, size=(6, 4)), rng.uniform(-2.0, 2.0, size=4)
        h = np.float32(1e-3)
        for same in (h, np.array(h)):
            assert np.array_equal(batch_step(state, same, q), batch_step(state, float(h), q))
        # NaN, inf and negative steps are stepped, not refused
        for h in (-1e-3, math.nan, math.inf):
            assert batch_step(state, h, q).shape == (6, 4)

    @pytest.mark.parametrize(
        "state, h",
        [(np.ones((6, 2)), math.inf), (np.full((6, 2), 1e200), 1e-3),
         (np.full((6, 2), math.inf), 1e-3)],
        ids=["infinite step", "overflowing state", "infinite state"],
    )
    def test_gives_nan_columns_without_a_warning(self, state, h):
        # numpy used to warn "invalid value encountered in add", "overflow
        # encountered in multiply" and "invalid value encountered in subtract"
        assert np.isnan(batch_step(state, h, 0.5)).all()

    def test_threads_do_not_share_a_workspace(self):
        # four threads step states of the same width, switching as often as
        # the interpreter allows; one workspace shared between them would
        # mix one thread's stages into another's
        rng = np.random.default_rng(31)
        starts = [rng.uniform(-1.0, 1.0, size=(6, 5)) for _ in range(4)]
        q = rng.uniform(-2.0, 2.0, size=5)

        def run(state):
            for _ in range(300):
                state = batch_step(state, 1e-2, q)
            return state

        want = [run(state) for state in starts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(run, starts, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def generator_step(u, h, q):
    """The RK4 step as it was written with generator expressions and zip:
    the reference that integrator._step must match bit for bit.  _rhs
    takes each stage's state without its z."""

    def rhs(x, y, z, vx, vy, vz):
        return _rhs(x, y, vx, vy, vz, q)

    k1 = rhs(*u)
    k2 = rhs(*(ui + 0.5 * h * ki for ui, ki in zip(u, k1)))
    k3 = rhs(*(ui + 0.5 * h * ki for ui, ki in zip(u, k2)))
    k4 = rhs(*(ui + h * ki for ui, ki in zip(u, k3)))
    return tuple(
        ui + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for ui, a, b, c, d in zip(u, k1, k2, k3, k4)
    )


class TestScalarStep:
    @pytest.mark.parametrize(
        "velocity, q",
        [
            ((0.48, -0.6, 0.64), 1.3),
            ((0.6, 0.0, 0.8), -0.8),  # q = -c: a straight line
            ((0.8, 0.0, 0.6), 1.9 * 1.01),
        ],
    )
    def test_states_match_generator_step_exactly(self, velocity, q):
        init = InitialData(NilPoint(0.3, -1.2, 2.0), FrameVector(*velocity), q)
        states = list(rk4_states(init, StepConfig(h=0.013, n=2500)))
        u = states[0]
        want = [u]
        for _ in range(2500):
            u = generator_step(u, 0.013, q)
            want.append(u)
        assert states == want

    def test_nan_charge_propagates(self):
        init = InitialData(ORIGIN, FrameVector(0.6, 0.0, 0.8), math.nan)
        states = np.array(list(rk4_states(init, StepConfig(h=0.01, n=10))))
        assert np.all(np.isfinite(states[0]))
        assert np.all(np.isnan(states[1:]))


def stepwise_ode_sweep(seed, n, h, s_max):
    """check_ode_sweep's three errors, one magnetic_grid call per step."""
    rng = np.random.default_rng([seed, 4])
    v = rng.normal(size=(n, 3))
    vel = v / np.linalg.norm(v, axis=1, keepdims=True)
    q = rng.uniform(-2.0, 2.0, n)
    starts = rng.uniform(-2.0, 2.0, (n, 3))
    a, b, c = vel[:, 0], vel[:, 1], vel[:, 2]
    x0, y0, z0 = starts[:, 0], starts[:, 1], starts[:, 2]

    cv = frame_to_coord(NilPoint(x0, y0, z0), FrameVector(a, b, c))
    state = np.array((x0, y0, z0, cv.dx, cv.dy, cv.dz))
    ct0 = state[5] + 0.5 * (state[3] * state[1] - state[0] * state[4])
    pos_err2 = speed_err = angle_err = 0.0
    for k in range(1, int(round(s_max / h)) + 1):
        state = batch_step(state, h, q)
        x, y, z, vx, vy, vz = state
        origin = magnetic_grid(a, b, c, q, k * h)
        cx = x0 + origin[:, 0]
        cy = y0 + origin[:, 1]
        cz = z0 + origin[:, 2] + 0.5 * (x0 * origin[:, 1] - origin[:, 0] * y0)
        d2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
        pos_err2 = max(pos_err2, float(np.max(d2)))
        ct = vz + 0.5 * (vx * y - x * vy)
        speed = np.sqrt(vx * vx + vy * vy + ct * ct)
        speed_err = max(speed_err, float(np.max(np.abs(speed - 1.0))))
        angle_err = max(angle_err, float(np.max(np.abs(ct - ct0))))
    return [math.sqrt(pos_err2), speed_err, angle_err]


class TestBlockedSweep:
    @pytest.mark.parametrize(
        "n, blocks",
        [
            (7, 1.23),  # a full block and a partial one
            (1, 2.5),
            (3, 2.0),  # a whole number of blocks
        ],
    )
    def test_matches_stepwise_sweep_exactly(self, n, blocks):
        # s_max in blocks of steps, so each case covers the same blocks at
        # any _SWEEP_H
        s_max = blocks * _SWEEP_H * _SWEEP_BLOCK
        results = check_ode_sweep(11, n=n, s_max=s_max)
        assert [r.max_error for r in results] == stepwise_ode_sweep(11, n, _SWEEP_H, s_max)
        assert all(r.max_error > 0.0 for r in results)

    def test_a_small_charge_fault_fails_the_closed_form_check(self):
        # the smallest coupling fault probed, q * (1 + 3e-8) in the
        # integrator, failed ode_vs_closed_form at every step from 1e-3 to
        # 5e-3 (at 5e-3 its error reads 1.52 times the tolerance); a step
        # that loses it has lost sensitivity
        result = check_ode_sweep(0, j_strength=1.0 + 3e-8)[0]
        assert result.name == "ode_vs_closed_form"
        assert not result.passed


class TestConvergenceSteps:
    def test_steps_halve_and_cover_the_span_in_whole_steps(self):
        for h in _CONVERGENCE_STEPS:
            assert round(10.0 / h) * h == pytest.approx(10.0, rel=1e-12)
        for h, half in zip(_CONVERGENCE_STEPS, _CONVERGENCE_STEPS[1:]):
            assert half == h / 2.0

    def test_ratios_are_those_of_a_fourth_order_step(self, monkeypatch):
        # each halving shrinks the error about 16-fold: a step so large
        # that the error is not yet shrinking as h^4 passes the check's
        # bound of 12 too (at 3.2e-2, 1.6e-2, 8e-3 the first ratio is
        # about 1e5), so the ratios are pinned here
        seen = {}
        real = cli_reporting._result

        def spy(name, errors, tol):
            seen[name] = np.asarray(errors)
            return real(name, errors, tol)

        monkeypatch.setattr(cli_reporting, "_result", spy)
        assert check_convergence().passed
        ratios = 12.0 - seen["convergence_order"]
        assert ratios.shape == (len(_CONVERGENCE_STEPS) - 1,)
        assert np.all((15.0 <= ratios) & (ratios <= 16.5)), ratios

    def test_a_small_charge_fault_fails_the_order_check(self):
        # q * (1 + 1e-6) in the integrator leaves ratios near 1: the error
        # of the fault, not of the step, dominates
        result = check_convergence(1.0 + 1e-6)
        assert result.name == "convergence_order"
        assert not result.passed
