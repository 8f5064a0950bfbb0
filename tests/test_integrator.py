import math

import numpy as np
import pytest

from nilmag import (
    CoordVector,
    DomainError,
    FrameVector,
    GridMismatch,
    InitialData,
    NilPoint,
    State,
    StepConfig,
    TrajectorySample,
    compare,
    coord_to_frame,
    frame_to_coord,
    integrate,
    lorentz_rhs,
    magnetic_grid,
    magnetic_point_from,
    magnetic_velocity,
)
from nilmag.cli_reporting import check_ode_sweep
from nilmag.integrator import batch_initial_state, batch_step, rk4_states

ORIGIN = NilPoint(0.0, 0.0, 0.0)


def closed_form_samples(init, h, n):
    out = []
    for k in range(n + 1):
        s = k * h
        p = magnetic_point_from(init.start, init.velocity.a, init.velocity.b, init.velocity.c, init.q, s)
        v = magnetic_velocity(init.velocity.a, init.velocity.b, init.velocity.c, init.q, s)
        out.append(TrajectorySample.of(s, p, v))
    return out


def random_unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestLorentzRhs:
    def test_vertical_flow_is_straight(self):
        for q in (0.0, 1.0, -3.7):
            d = lorentz_rhs(State(0.0, 0.0, 0.0, 0.0, 0.0, 1.0), q)
            assert d == State(0.0, 0.0, 1.0, 0.0, 0.0, 0.0)

    def test_horizontal_flow_without_charge(self):
        d = lorentz_rhs(State(0.0, 0.0, 0.0, 0.6, 0.8, 0.0), 0.0)
        assert d == State(0.6, 0.8, 0.0, 0.0, 0.0, 0.0)

    def test_charged_horizontal_flow_curves(self):
        d = lorentz_rhs(State(0.0, 0.0, 0.0, 1.0, 0.0, 0.0), 1.0)
        assert d == State(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    def test_conserves_contact_cosine(self):
        # The derivative of vz + (vx y - x vy)/2 along the flow must cancel.
        rng = np.random.default_rng(2)
        for _ in range(25):
            x, y, z, vx, vy, vz = rng.uniform(-2.0, 2.0, size=6)
            q = float(rng.uniform(-2.0, 2.0))
            d = lorentz_rhs(State(x, y, z, vx, vy, vz), q)
            ct_dot = d.vz + 0.5 * (d.vx * y + vx * vy - d.x * vy - x * d.vy)
            assert ct_dot == pytest.approx(0.0, abs=1e-14)


class TestIntegrate:
    def test_vertical_line_long_run(self):
        init = InitialData(ORIGIN, FrameVector(0.0, 0.0, 1.0), q=0.7)
        samples = integrate(init, StepConfig(h=1e-3, n=10000))
        assert len(samples) == 10001
        final = samples[-1]
        assert final.s == pytest.approx(10.0, abs=1e-12)
        assert abs(final.point.x) <= 1e-10
        assert abs(final.point.y) <= 1e-10
        assert abs(final.point.z - 10.0) <= 1e-10

    def test_zero_steps_returns_initial_sample(self):
        init = InitialData(NilPoint(1.0, -2.0, 0.5), FrameVector(0.6, 0.0, 0.8), q=1.0)
        samples = integrate(init, StepConfig(h=0.1, n=0))
        assert len(samples) == 1
        only = samples[0]
        assert only.s == 0.0
        assert only.point == init.start
        assert only.velocity.a == pytest.approx(0.6, abs=1e-15)
        assert only.velocity.c == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2500])
    def test_last_state_is_last_sample(self, n):
        init = InitialData(NilPoint(0.3, -0.2, 0.1), FrameVector(0.8, 0.0, 0.6), q=1.9)
        cfg = StepConfig(h=4e-3, n=n)
        for count, u in enumerate(rk4_states(init, cfg, 1.01), start=1):
            pass
        last = integrate(init, cfg, 1.01)[-1]
        assert count == n + 1
        assert NilPoint(*u[:3]) == last.point
        assert coord_to_frame(last.point, CoordVector(*u[3:])) == last.velocity

    def test_matches_closed_form_on_circle(self):
        init = InitialData(ORIGIN, FrameVector(1.0, 0.0, 0.0), q=1.0)
        cfg = StepConfig(h=1e-3, n=10000)
        numeric = integrate(init, cfg)
        report = compare(closed_form_samples(init, cfg.h, cfg.n), numeric)
        assert report.max_position_error <= 1e-6
        assert report.max_speed_drift <= 1e-8
        assert report.max_angle_drift <= 1e-8

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
            report = compare(closed_form_samples(init, cfg.h, cfg.n), integrate(init, cfg))
            assert report.max_position_error <= 1e-6


class TestCompare:
    def test_identical_lists(self):
        init = InitialData(ORIGIN, FrameVector(1.0, 0.0, 0.0), q=1.0)
        samples = closed_form_samples(init, 0.1, 10)
        report = compare(samples, samples)
        assert report.max_position_error == 0.0
        assert report.max_angle_drift == 0.0
        assert report.max_speed_drift <= 1e-15

    def test_rejects_different_lengths(self):
        init = InitialData(ORIGIN, FrameVector(1.0, 0.0, 0.0), q=1.0)
        with pytest.raises(GridMismatch):
            compare(closed_form_samples(init, 0.1, 10), closed_form_samples(init, 0.1, 9))

    def test_rejects_shifted_grid(self):
        init = InitialData(ORIGIN, FrameVector(1.0, 0.0, 0.0), q=1.0)
        with pytest.raises(GridMismatch):
            compare(closed_form_samples(init, 0.1, 10), closed_form_samples(init, 0.1001, 10))

    def test_keeps_nan(self):
        init = InitialData(ORIGIN, FrameVector(1.0, 0.0, 0.0), q=1.0)
        closed = closed_form_samples(init, 0.1, 100)
        numeric = list(closed)
        nan = math.nan
        numeric[50] = TrajectorySample.of(
            closed[50].s, NilPoint(nan, nan, nan), FrameVector(nan, nan, nan)
        )
        report = compare(closed, numeric)
        assert math.isnan(report.max_position_error)
        assert math.isnan(report.max_speed_drift)
        assert math.isnan(report.max_angle_drift)


class TestStepConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(DomainError):
            StepConfig(h=0.0, n=10)
        with pytest.raises(DomainError):
            StepConfig(h=-1e-3, n=10)
        with pytest.raises(DomainError):
            StepConfig(h=1e-3, n=-1)

    def test_accepts_zero_steps(self):
        cfg = StepConfig(h=0.5, n=0)
        assert cfg.h == 0.5


class TestBatch:
    def test_initial_state_matches_frame_conversion(self):
        starts = np.array([[1.0, 2.0, 0.0], [-0.5, 0.3, 1.0]])
        vels = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        x, y, z, vx, vy, vz = batch_initial_state(starts, vels)
        for i in range(2):
            cv = frame_to_coord(
                NilPoint(*starts[i]), FrameVector(*vels[i])
            )
            assert (vx[i], vy[i], vz[i]) == (cv.dx, cv.dy, cv.dz)
        assert np.array_equal(x, starts[:, 0])

    def test_steps_agree_with_scalar_integrator(self):
        rng = np.random.default_rng(29)
        starts = rng.uniform(-1.0, 1.0, size=(3, 3))
        vels = random_unit_rows(rng, 3)
        qs = rng.uniform(-2.0, 2.0, size=3)
        h, n = 1e-3, 200

        state = batch_initial_state(starts, vels)
        for _ in range(n):
            state = batch_step(state, h, qs)

        for i in range(3):
            init = InitialData(
                NilPoint(*starts[i]),
                FrameVector(*(float(v) for v in vels[i])),
                q=float(qs[i]),
            )
            final = integrate(init, StepConfig(h=h, n=n))[-1]
            assert abs(state[0][i] - final.point.x) <= 1e-13
            assert abs(state[1][i] - final.point.y) <= 1e-13
            assert abs(state[2][i] - final.point.z) <= 1e-13
            assert abs(state[3][i] - frame_to_coord(final.point, final.velocity).dx) <= 1e-13


def stepwise_ode_sweep(seed, n, h, s_max):
    """check_ode_sweep's three errors, one magnetic_grid call per step."""
    rng = np.random.default_rng([seed, 4])
    v = rng.normal(size=(n, 3))
    vel = v / np.linalg.norm(v, axis=1, keepdims=True)
    q = rng.uniform(-2.0, 2.0, n)
    starts = rng.uniform(-2.0, 2.0, (n, 3))
    a, b, c = vel[:, 0], vel[:, 1], vel[:, 2]
    x0, y0, z0 = starts[:, 0], starts[:, 1], starts[:, 2]

    state = batch_initial_state(starts, vel)
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
        "n, s_max",
        [
            (7, 0.1234),  # 123 steps: a full block and a partial one
            (1, 0.25),
            (3, 0.2),  # a whole number of blocks
        ],
    )
    def test_matches_stepwise_sweep_exactly(self, n, s_max):
        results = check_ode_sweep(11, n=n, h=1e-3, s_max=s_max)
        assert [r.max_error for r in results] == stepwise_ode_sweep(11, n, 1e-3, s_max)
        assert all(r.max_error > 0.0 for r in results)
