"""Command-line interface and verification sweeps.

Four subcommands:

    emit       sample one trajectory to CSV or JSON
    orbit      sample a one-parameter orbit exp(s W).o
    criterion  run the pre-geodesic test on a generator W
    verify     run the full verification suite, JSON report to stdout

Exit codes: 0 success / suite passed, 1 suite failed, 2 bad usage or
configuration.  All randomness comes from numpy's default generator
(PCG64) seeded with --seed, so runs are reproducible byte for byte.
Floats are written with repr, which round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (
    FrameVector,
    coord_to_frame,
    contact_form,
    cross,
    frame_to_coord,
    go_criterion,
    lorentz,
    metric,
    u_tensor,
)
from .integrator import StepConfig, batch_initial_state, batch_step, integrate
from .lie_core import (
    NilPoint,
    OscElement,
    OscVector,
    algebra_matrix,
    bracket,
    exp_nil,
    matrix_exp,
    nil_multiply,
    osc_multiply,
    osc_to_matrix,
)
from .trajectories import (
    InitialData,
    homogeneous_generator,
    magnetic_grid,
    magnetic_point,
    magnetic_point_from,
    magnetic_velocity,
    orbit_grid,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    passed: bool


@dataclass
class RunConfig:
    """Parsed and validated command-line configuration."""

    command: str
    a: float = 0.0
    b: float = 0.0
    c: float = 1.0
    q: float = 0.0
    x0: float = 0.0
    y0: float = 0.0
    z0: float = 0.0
    s_max: float = 10.0
    steps: int = 100
    h: float = 1e-3
    seed: int = 0
    format: str = "csv"
    out: str | None = None
    source: str = "closed"
    w: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    decomposition: str = "nil3"
    fault_j: float = 0.0


def _result(name: str, err, tol: float) -> CheckResult:
    """A check outcome; a non-finite error is reported as inf and fails."""
    err = float(err)
    if not math.isfinite(err):
        err = math.inf
    return CheckResult(name, err, tol, bool(err <= tol))


def _unit_velocities(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# individual checks


def check_homogeneity(
    seed: int, q_zero: bool = False, n: int = 1000, j_strength: float = 1.0
) -> CheckResult:
    """Closed-form trajectories against group orbits, random sweep.

    n random unit initial velocities with charges in [-2, 2] (or all
    zero), compared on a 101-point grid over [0, 10].
    """
    rng = np.random.default_rng([seed, 2 if q_zero else 1])
    vel = _unit_velocities(rng, n)
    a, b, c = vel[:, 0], vel[:, 1], vel[:, 2]
    q = np.zeros(n) if q_zero else rng.uniform(-2.0, 2.0, n)

    s_grid = np.linspace(0.0, 10.0, 101)
    closed = magnetic_grid(a[:, None], b[:, None], c[:, None], q[:, None], s_grid)
    gens = np.column_stack([a, b, c, c + q * j_strength])
    orbits = orbit_grid(gens, 10.0, 100)

    err = np.max(np.linalg.norm(closed - orbits, axis=-1))
    name = "homogeneity_geodesic" if q_zero else "homogeneity_magnetic"
    return _result(name, err, 1e-9)


def check_orbit_formulas(seed: int, n: int = 500) -> CheckResult:
    """Matrix-exponential orbits against the literal coordinate display
    for uncharged slant generators.

    The display divides by the contact component twice, so instances are
    drawn with |c| >= 0.05; below that the printed formula itself loses
    digits while the kernel form stays accurate.
    """
    rng = np.random.default_rng([seed, 3])
    vel = _unit_velocities(rng, n)
    bad = np.abs(vel[:, 2]) < 0.05
    while np.any(bad):
        vel[bad] = _unit_velocities(rng, int(bad.sum()))
        bad = np.abs(vel[:, 2]) < 0.05
    a, b, c = vel[:, 0:1], vel[:, 1:2], vel[:, 2:3]

    s = np.linspace(0.0, 10.0, 101)
    cs = c * s
    a2 = a * a + b * b
    x = (-b + a * np.sin(cs) + b * np.cos(cs)) / c
    y = (a - a * np.cos(cs) + b * np.sin(cs)) / c
    z = (-a2 * np.sin(cs) + cs * (a2 + 2.0 * c * c)) / (2.0 * c * c)
    literal = np.stack([x, y, z], axis=-1)

    gens = np.column_stack([vel, vel[:, 2]])
    orbits = orbit_grid(gens, 10.0, 100)
    err = np.max(np.abs(literal - orbits))
    return _result("orbit_coordinate_formulas", err, 1e-10)


# steps of check_ode_sweep per magnetic_grid call; its temporaries are a few
# dozen arrays of _SWEEP_BLOCK * n floats, so the block stays small
_SWEEP_BLOCK = 100


def check_ode_sweep(
    seed: int,
    n: int = 200,
    h: float = 1e-3,
    s_max: float = 10.0,
    j_strength: float = 1.0,
) -> list[CheckResult]:
    """RK4 against the closed forms, plus conservation drifts.

    n random instances with random start points in [-2, 2]^3, integrated
    across [0, s_max]; position error is compared against the
    left-translated closed form at every step.  The RK4 states of a block
    of _SWEEP_BLOCK steps are buffered and compared in one pass, with the
    closed form on the whole (block, n) grid of s = k*h, so memory stays
    bounded by block x n whatever the step count.
    """
    rng = np.random.default_rng([seed, 4])
    vel = _unit_velocities(rng, n)
    q = rng.uniform(-2.0, 2.0, n)
    starts = rng.uniform(-2.0, 2.0, (n, 3))
    a, b, c = vel[:, 0], vel[:, 1], vel[:, 2]
    x0, y0, z0 = starts[:, 0], starts[:, 1], starts[:, 2]

    state = batch_initial_state(starts, vel)
    ct0 = state[5] + 0.5 * (state[3] * state[1] - state[0] * state[4])

    nsteps = int(round(s_max / h))
    states = np.empty((_SWEEP_BLOCK, 6, n))
    # np.maximum keeps a NaN that Python's max would drop
    pos_err2 = speed_err = angle_err = 0.0
    for k0 in range(1, nsteps + 1, _SWEEP_BLOCK):
        m = min(_SWEEP_BLOCK, nsteps + 1 - k0)
        for i in range(m):
            state = batch_step(state, h, q, j_strength)
            states[i] = state
        x, y, z, vx, vy, vz = states[:m].transpose(1, 0, 2)

        s = np.arange(k0, k0 + m)[:, None] * h
        origin = magnetic_grid(a, b, c, q, s)
        cx = x0 + origin[..., 0]
        cy = y0 + origin[..., 1]
        cz = z0 + origin[..., 2] + 0.5 * (x0 * origin[..., 1] - origin[..., 0] * y0)
        d2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
        pos_err2 = np.maximum(pos_err2, np.max(d2))

        ct = vz + 0.5 * (vx * y - x * vy)
        speed = np.sqrt(vx * vx + vy * vy + ct * ct)
        speed_err = np.maximum(speed_err, np.max(np.abs(speed - 1.0)))
        angle_err = np.maximum(angle_err, np.max(np.abs(ct - ct0)))

    return [
        _result("ode_vs_closed_form", np.sqrt(pos_err2), 1e-6),
        _result("conservation_speed", speed_err, 1e-8),
        _result("conservation_contact_angle", angle_err, 1e-8),
    ]


def check_convergence(j_strength: float = 1.0) -> CheckResult:
    """Order of convergence of the integrator on one slant instance.

    Halving the step must shrink the final-point error by at least 12
    (the fourth-order ideal is 16).  Reported max_error is the shortfall
    12 - min(ratio), clamped at zero, or inf when a ratio is not finite
    (a NaN or zero error proves no order).
    """
    a, b, c, q = 0.8, 0.0, 0.6, 1.9
    target = magnetic_point(a, b, c, q, 10.0)
    init = InitialData(NilPoint(0.0, 0.0, 0.0), FrameVector(a, b, c), q)

    errs = []
    for h, n in ((4e-3, 2500), (2e-3, 5000), (1e-3, 10000)):
        last = integrate(init, StepConfig(h, n), j_strength)[-1].point
        errs.append(
            math.dist((last.x, last.y, last.z), (target.x, target.y, target.z))
        )
    ratios = [
        errs[i] / errs[i + 1] if errs[i + 1] > 0.0 else math.inf
        for i in range(len(errs) - 1)
    ]
    if all(math.isfinite(r) for r in ratios):
        shortfall = max(0.0, 12.0 - min(ratios))
    else:
        shortfall = math.inf
    return _result("convergence_order", shortfall, 0.0)


def check_u_tensor() -> CheckResult:
    """Tensor table on the Heisenberg decomposition and vanishing on the
    naturally reductive one."""
    e1 = OscVector(1, 0, 0, 0)
    e2 = OscVector(0, 1, 0, 0)
    e3 = OscVector(0, 0, 1, 0)
    nil3 = [e1, e2, e3]
    zero = (0.0, 0.0, 0.0, 0.0)
    # U(E1, E3) = -E2/2 and U(E2, E3) = E1/2, symmetric, rest zero
    expected = {
        (0, 2): (0.0, -0.5, 0.0, 0.0),
        (2, 0): (0.0, -0.5, 0.0, 0.0),
        (1, 2): (0.5, 0.0, 0.0, 0.0),
        (2, 1): (0.5, 0.0, 0.0, 0.0),
    }

    err = 0.0
    for i, x in enumerate(nil3):
        for j, y in enumerate(nil3):
            u = u_tensor(nil3, x, y)
            want = expected.get((i, j), zero)
            err = max(
                err,
                abs(u.e1 - want[0]),
                abs(u.e2 - want[1]),
                abs(u.e3 - want[2]),
                abs(u.e4 - want[3]),
            )

    m_basis = [e1, e2, OscVector(0, 0, 1, 1)]
    for x in m_basis:
        for y in m_basis:
            u = u_tensor(m_basis, x, y)
            err = max(err, abs(u.e1), abs(u.e2), abs(u.e3), abs(u.e4))
    return _result("u_tensor_table", err, 1e-12)


def check_go_grid() -> CheckResult:
    """Pre-geodesic classification on the integer grid {-2..2}^4.

    The accepted set must be exactly the union of the two families
    w4 == w3 and w1 == w2 == 0; max_error counts mismatches.
    """
    mismatches = 0
    vals = (-2, -1, 0, 1, 2)
    for w1 in vals:
        for w2 in vals:
            for w3 in vals:
                for w4 in vals:
                    expected = (w4 == w3) or (w1 == 0 and w2 == 0)
                    got = go_criterion(OscVector(w1, w2, w3, w4), "nil3")
                    if got.is_pregeodesic != expected:
                        mismatches += 1
    return _result("go_grid_classification", float(mismatches), 0.0)


def check_group_identities(seed: int, n: int = 1000) -> list[CheckResult]:
    """Subgroup product, matrix factorization, and the nilpotent BCH
    identity on random coordinates in [-5, 5]."""
    rng = np.random.default_rng([seed, 5])
    sub_err = 0.0
    fac_err = 0.0
    bch_err = 0.0
    for _ in range(n):
        x, y, z, t = rng.uniform(-5.0, 5.0, 4)
        g = osc_multiply(OscElement(x, y, z, 0.0), OscElement(0.0, 0.0, 0.0, t))
        sub_err = max(
            sub_err, abs(g.x - x), abs(g.y - y), abs(g.z - z), abs(g.t - t)
        )

        m = matrix_exp(algebra_matrix(OscVector(x, y, z, 0.0))) @ matrix_exp(
            algebra_matrix(OscVector(0.0, 0.0, 0.0, t))
        )
        fac_err = max(fac_err, float(np.max(np.abs(m - osc_to_matrix(OscElement(x, y, z, t))))))

        ux, uy, uz = rng.uniform(-5.0, 5.0, 3)
        vx, vy, vz = rng.uniform(-5.0, 5.0, 3)
        xv = OscVector(ux, uy, uz, 0.0)
        yv = OscVector(vx, vy, vz, 0.0)
        br = bracket(xv, yv)
        lhs = nil_multiply(exp_nil(xv), exp_nil(yv))
        rhs = exp_nil(
            OscVector(
                xv.e1 + yv.e1 + 0.5 * br.e1,
                xv.e2 + yv.e2 + 0.5 * br.e2,
                xv.e3 + yv.e3 + 0.5 * br.e3,
                0.0,
            )
        )
        bch_err = max(
            bch_err, abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.z - rhs.z)
        )
    return [
        _result("matrix_subgroup_product", sub_err, 1e-12),
        _result("group_factorization", fac_err, 1e-11),
        _result("bch_nil", bch_err, 1e-12),
    ]


def check_frame_gram(seed: int, n: int = 1000) -> CheckResult:
    """Orthonormality of the frame under the coordinate metric at random
    points."""
    rng = np.random.default_rng([seed, 6])
    frame = [FrameVector(1, 0, 0), FrameVector(0, 1, 0), FrameVector(0, 0, 1)]
    err = 0.0
    for _ in range(n):
        p = NilPoint(*rng.uniform(-5.0, 5.0, 3))
        coords = [frame_to_coord(p, f) for f in frame]
        for i in range(3):
            for j in range(3):
                g = metric(p, coords[i], coords[j])
                err = max(err, abs(g - (1.0 if i == j else 0.0)))
    return _result("frame_gram", err, 1e-13)


def check_reeb_lorentz() -> CheckResult:
    """Exact identities: alpha(E3) = 1, lorentz(E3) = 0, and agreement of
    cross(E3, .) with lorentz on the frame."""
    e3 = FrameVector(0.0, 0.0, 1.0)
    points = [
        NilPoint(0.0, 0.0, 0.0),
        NilPoint(1.0, 2.0, 0.0),
        NilPoint(-3.0, 5.0, 7.0),
        NilPoint(0.5, -0.25, 2.0),
    ]
    err = 0.0
    for p in points:
        err = max(err, abs(contact_form(p, frame_to_coord(p, e3)) - 1.0))

    l3 = lorentz(e3)
    err = max(err, abs(l3.a), abs(l3.b), abs(l3.c))

    for f in (FrameVector(1, 0, 0), FrameVector(0, 1, 0), e3):
        cv = cross(e3, f)
        lv = lorentz(f)
        err = max(err, abs(cv.a - lv.a), abs(cv.b - lv.b), abs(cv.c - lv.c))
    return _result("reeb_lorentz_identities", err, 0.0)


def run_checks(seed: int, j_strength: float = 1.0) -> list[CheckResult]:
    """All verification checks, sorted by name."""
    checks = [
        check_homogeneity(seed, q_zero=False, j_strength=j_strength),
        check_homogeneity(seed, q_zero=True),
        check_orbit_formulas(seed),
        *check_ode_sweep(seed, j_strength=j_strength),
        check_convergence(j_strength),
        check_u_tensor(),
        check_go_grid(),
        *check_group_identities(seed),
        check_frame_gram(seed),
        check_reeb_lorentz(),
    ]
    return sorted(checks, key=lambda c: c.name)


def build_report(checks: list[CheckResult]) -> VerifyReport:
    return VerifyReport(tuple(checks), all(c.passed for c in checks))


def report_json(report: VerifyReport) -> str:
    obj = {
        "checks": [
            {
                "name": c.name,
                "max_error": c.max_error,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "pass": report.passed,
    }
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands


def _fmt(v) -> str:
    return repr(float(v))


def _emit_rows(cfg: RunConfig) -> list[tuple[float, ...]]:
    p0 = NilPoint(cfg.x0, cfg.y0, cfg.z0)
    rows = []
    if cfg.source == "closed":
        for i in range(cfg.steps + 1):
            s = i * cfg.s_max / cfg.steps
            point = magnetic_point_from(p0, cfg.a, cfg.b, cfg.c, cfg.q, s)
            fv = magnetic_velocity(cfg.a, cfg.b, cfg.c, cfg.q, s)
            cv = frame_to_coord(point, fv)
            speed = math.sqrt(fv.a ** 2 + fv.b ** 2 + fv.c ** 2)
            rows.append(
                (s, point.x, point.y, point.z, cv.dx, cv.dy, cv.dz, fv.c, speed)
            )
    else:
        # land the RK4 steps exactly on the requested grid
        per = max(1, round((cfg.s_max / cfg.steps) / cfg.h))
        h_eff = cfg.s_max / (cfg.steps * per)
        init = InitialData(p0, FrameVector(cfg.a, cfg.b, cfg.c), cfg.q)
        samples = integrate(init, StepConfig(h_eff, cfg.steps * per))
        for sample in samples[::per]:
            cv = frame_to_coord(sample.point, sample.velocity)
            rows.append(
                (
                    sample.s,
                    sample.point.x,
                    sample.point.y,
                    sample.point.z,
                    cv.dx,
                    cv.dy,
                    cv.dz,
                    sample.cos_theta,
                    sample.speed,
                )
            )
    return rows


_EMIT_FIELDS = ("s", "x", "y", "z", "vx", "vy", "vz", "cos_theta", "speed")


def run_emit(cfg: RunConfig) -> str:
    rows = _emit_rows(cfg)
    if cfg.format == "json":
        obj = {
            "samples": [
                {k: float(v) for k, v in zip(_EMIT_FIELDS, row)} for row in rows
            ]
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = [",".join(_EMIT_FIELDS)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def run_orbit(cfg: RunConfig) -> str:
    coords = orbit_grid(np.array(cfg.w), cfg.s_max, cfg.steps)
    rows = [
        (i * cfg.s_max / cfg.steps, coords[i, 0], coords[i, 1], coords[i, 2])
        for i in range(cfg.steps + 1)
    ]
    if cfg.format == "json":
        obj = {
            "samples": [
                {k: float(v) for k, v in zip(("s", "x", "y", "z"), row)}
                for row in rows
            ]
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = ["s,x,y,z"]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _family_label(w: OscVector) -> str | None:
    eps = 1e-12
    if abs(w.e1) <= eps and abs(w.e2) <= eps and abs(w.e3) <= eps:
        return "W4*E4"
    if abs(w.e1) <= eps and abs(w.e2) <= eps:
        return "W3*E3+W4*E4"
    if abs(w.e4 - w.e3) <= eps:
        return "W1*E1+W2*E2+W3*(E3+E4)"
    return None


def run_criterion(cfg: RunConfig) -> str:
    w = OscVector(*cfg.w)
    res = go_criterion(w, cfg.decomposition)
    family = _family_label(w) if res.is_pregeodesic else None
    if cfg.format == "json":
        obj = {
            "is_pregeodesic": res.is_pregeodesic,
            "k": res.k,
            "family": family,
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = [
        f"is_pregeodesic: {'true' if res.is_pregeodesic else 'false'}",
        f"k: {_fmt(res.k) if res.k is not None else 'none'}",
        f"family: {family if family is not None else 'none'}",
    ]
    return "\n".join(lines) + "\n"


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.command in ("emit", "orbit"):
        if cfg.steps < 1:
            raise DomainError("steps must be at least 1")
        if not (cfg.s_max > 0.0):
            raise DomainError("s-max must be positive")
    if cfg.command == "emit":
        if not (cfg.h > 0.0):
            raise DomainError("h must be positive")
        norm = math.sqrt(cfg.a ** 2 + cfg.b ** 2 + cfg.c ** 2)
        if abs(norm - 1.0) > 1e-6:
            raise DomainError(
                f"velocity (a, b, c) has norm {norm:.8g}, more than 1e-6 from 1"
            )
        cfg.a, cfg.b, cfg.c = cfg.a / norm, cfg.b / norm, cfg.c / norm
    if cfg.command in ("criterion", "orbit"):
        if not all(math.isfinite(v) for v in cfg.w):
            raise DomainError("W components must be finite")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmag",
        description="Magnetic trajectories on the Heisenberg group: "
        "closed forms, group orbits, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit", help="sample one trajectory to CSV or JSON")
    emit.add_argument("--a", type=float, default=0.0, help="frame velocity, first component")
    emit.add_argument("--b", type=float, default=0.0, help="frame velocity, second component")
    emit.add_argument("--c", type=float, default=1.0, help="frame velocity, contact component")
    emit.add_argument("--q", type=float, default=0.0, help="charge")
    emit.add_argument("--x0", type=float, default=0.0, help="start point x")
    emit.add_argument("--y0", type=float, default=0.0, help="start point y")
    emit.add_argument("--z0", type=float, default=0.0, help="start point z")
    emit.add_argument("--s-max", type=float, default=10.0, help="arc length span")
    emit.add_argument("--steps", type=int, default=100, help="grid intervals (rows - 1)")
    emit.add_argument("--h", type=float, default=1e-3, help="integrator step (rk4 source)")
    emit.add_argument("--source", choices=("closed", "rk4"), default="closed",
                      help="closed form or numerical integration")
    emit.add_argument("--format", choices=("csv", "json"), default="csv")
    emit.add_argument("--out", default=None, help="output file (default stdout)")

    orbit = sub.add_parser("orbit", help="sample the orbit exp(s W).o")
    for i in (1, 2, 3, 4):
        orbit.add_argument(f"--w{i}", type=float, required=True,
                           help=f"generator component on E{i}")
    orbit.add_argument("--s-max", type=float, default=10.0)
    orbit.add_argument("--steps", type=int, default=100)
    orbit.add_argument("--format", choices=("csv", "json"), default="csv")
    orbit.add_argument("--out", default=None)

    crit = sub.add_parser("criterion", help="pre-geodesic test for a generator W")
    for i in (1, 2, 3, 4):
        crit.add_argument(f"--w{i}", type=float, required=True,
                          help=f"generator component on E{i}")
    crit.add_argument("--decomposition", choices=("nil3", "m"), default="nil3")
    crit.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--seed", type=int, default=0, help="sweep seed (PCG64)")
    verify.add_argument("--fault-j", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("a", "b", "c", "q", "x0", "y0", "z0", "s_max", "steps", "h",
                 "seed", "format", "out", "source", "decomposition", "fault_j"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "w1"):
        cfg.w = (args.w1, args.w2, args.w3, args.w4)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _validate(_config_from_args(args))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.command == "verify":
        report = build_report(run_checks(cfg.seed, 1.0 + cfg.fault_j))
        sys.stdout.write(report_json(report))
        return 0 if report.passed else 1

    if cfg.command == "emit":
        text = run_emit(cfg)
    elif cfg.command == "orbit":
        text = run_orbit(cfg)
    else:
        text = run_criterion(cfg)

    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
