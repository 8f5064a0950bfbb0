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
from dataclasses import asdict, astuple, dataclass
from itertools import islice, product

import numpy as np

from .errors import DomainError
from .geometry import (
    DECOMPOSITIONS,
    CoordVector,
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
from .integrator import InitialData, StepConfig, batch_step, rk4_states
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


def _result(name: str, errors, tol: float) -> CheckResult:
    """A check outcome from its errors over all instances: their maximum,
    0 for none, with a NaN or inf reported as inf, which fails."""
    err = float(np.max(errors, initial=0.0))
    if not math.isfinite(err):
        err = math.inf
    return CheckResult(name, err, tol, bool(err <= tol))


def _unit_velocities(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# individual checks


def check_homogeneity(seed: int, q_zero: bool = False, j_strength: float = 1.0) -> CheckResult:
    """Closed-form trajectories against group orbits, random sweep.

    1000 random unit initial velocities with charges in [-2, 2] (or all
    zero), compared on a 101-point grid over [0, 10] with the orbits of
    their homogeneous_generator.
    """
    n = 1000
    rng = np.random.default_rng([seed, 2 if q_zero else 1])
    vel = _unit_velocities(rng, n)
    a, b, c = vel[:, 0], vel[:, 1], vel[:, 2]
    q = np.zeros(n) if q_zero else rng.uniform(-2.0, 2.0, n)

    s_grid = np.linspace(0.0, 10.0, 101)
    closed = magnetic_grid(a[:, None], b[:, None], c[:, None], q[:, None], s_grid)
    gens = np.column_stack(astuple(homogeneous_generator(a, b, c, q, j_strength)))
    orbits = orbit_grid(gens, 10.0, 100)

    err = np.linalg.norm(closed - orbits, axis=-1)
    name = "homogeneity_geodesic" if q_zero else "homogeneity_magnetic"
    return _result(name, err, 1e-9)


def check_orbit_formulas(seed: int) -> CheckResult:
    """Matrix-exponential orbits against the literal coordinate display
    for 500 random uncharged slant generators.

    The display divides by the contact component twice, so instances are
    drawn with |c| >= 0.05; below that the printed formula itself loses
    digits while the kernel form stays accurate.
    """
    rng = np.random.default_rng([seed, 3])
    vel = _unit_velocities(rng, 500)
    while np.any(bad := np.abs(vel[:, 2]) < 0.05):
        vel[bad] = _unit_velocities(rng, int(bad.sum()))
    a, b, c = vel[:, 0:1], vel[:, 1:2], vel[:, 2:3]

    s = np.linspace(0.0, 10.0, 101)
    cs = c * s
    a2 = a * a + b * b
    x = (-b + a * np.sin(cs) + b * np.cos(cs)) / c
    y = (a - a * np.cos(cs) + b * np.sin(cs)) / c
    z = (-a2 * np.sin(cs) + cs * (a2 + 2.0 * c * c)) / (2.0 * c * c)
    literal = np.stack([x, y, z], axis=-1)

    gens = np.column_stack(astuple(homogeneous_generator(*vel.T, 0.0)))
    orbits = orbit_grid(gens, 10.0, 100)
    return _result("orbit_coordinate_formulas", np.abs(literal - orbits), 1e-10)


# steps of check_ode_sweep per closed-form call; its temporaries are a few
# dozen arrays of _SWEEP_BLOCK * n floats, so the block stays small
_SWEEP_BLOCK = 100
# the RK4 step of check_ode_sweep: 2000 steps over [0, 10].  RK4's error
# is O(h^4); mutation/run.py killed the same mutants at 5e-3 as at 1e-3
# (CHANGES.md; the runs are in MUTANTS.json at commit fce9cee)
_SWEEP_H = 5e-3


def check_ode_sweep(seed: int, j_strength: float = 1.0) -> list[CheckResult]:
    """RK4 against the closed forms, plus conservation drifts.

    200 random instances with random start points in [-2, 2]^3, integrated
    across [0, 10]; position error is compared against the
    left-translated closed form at every step.  The RK4 states of a block
    of _SWEEP_BLOCK steps are buffered and compared in one pass, with the
    closed form on the whole (block, n) grid of s = k*_SWEEP_H, so memory
    stays bounded by block x n.  The steps fill whole blocks (a test
    checks that _SWEEP_BLOCK divides round(10 / _SWEEP_H)).
    """
    n = 200
    rng = np.random.default_rng([seed, 4])
    vel = _unit_velocities(rng, n)
    q = rng.uniform(-2.0, 2.0, n)
    starts = rng.uniform(-2.0, 2.0, (n, 3))
    a, b, c = vel[:, 0], vel[:, 1], vel[:, 2]
    p0 = NilPoint(starts[:, 0], starts[:, 1], starts[:, 2])
    # the charge the integrator sees; j_strength = 1 leaves q as it is
    q_rk4 = q * j_strength

    cv = frame_to_coord(p0, FrameVector(a, b, c))
    state = np.array((p0.x, p0.y, p0.z, cv.dx, cv.dy, cv.dz))
    ct0 = coord_to_frame(p0, cv).c

    nsteps = round(10.0 / _SWEEP_H)
    states = np.empty((_SWEEP_BLOCK, 6, n))
    # running maxima over the steps, one per trajectory
    pos_err2 = speed_err = angle_err = np.zeros(n)
    for k0 in range(1, nsteps + 1, _SWEEP_BLOCK):
        for i in range(_SWEEP_BLOCK):
            state = batch_step(state, _SWEEP_H, q_rk4)
            states[i] = state
        x, y, z, vx, vy, vz = states.transpose(1, 0, 2)

        s = np.arange(k0, k0 + _SWEEP_BLOCK)[:, None] * _SWEEP_H
        closed = magnetic_point_from(p0, a, b, c, q, s)
        d2 = (x - closed.x) ** 2 + (y - closed.y) ** 2 + (z - closed.z) ** 2
        pos_err2 = np.maximum(pos_err2, np.max(d2, axis=0))

        fv = coord_to_frame(NilPoint(x, y, z), CoordVector(vx, vy, vz))
        speed = np.sqrt(fv.a ** 2 + fv.b ** 2 + fv.c ** 2)
        speed_err = np.maximum(speed_err, np.max(np.abs(speed - 1.0), axis=0))
        angle_err = np.maximum(angle_err, np.max(np.abs(fv.c - ct0), axis=0))

    return [
        _result("ode_vs_closed_form", np.sqrt(pos_err2), 1e-6),
        _result("conservation_speed", speed_err, 1e-8),
        _result("conservation_contact_angle", angle_err, 1e-8),
    ]


# the RK4 steps of check_convergence over [0, 10], each half the one
# before: 4375 steps in all.  mutation/run.py killed the same mutants at
# these as at (4e-3, 2e-3, 1e-3) (CHANGES.md; MUTANTS.json at fce9cee)
_CONVERGENCE_STEPS = (1.6e-2, 8e-3, 4e-3)


def check_convergence(j_strength: float = 1.0) -> CheckResult:
    """Order of convergence of the integrator on one slant instance.

    Halving the step must shrink the final-point error by at least 12
    (the fourth-order ideal is 16).  The error of a halving is its
    shortfall 12 - ratio, or inf when the ratio is not finite (a NaN or
    zero error proves no order); the reducer clamps it at zero.
    """
    a, b, c, q = 0.8, 0.0, 0.6, 1.9
    target = magnetic_point(a, b, c, q, 10.0)
    init = InitialData(NilPoint(0.0, 0.0, 0.0), FrameVector(a, b, c), q * j_strength)

    errs = []
    for h in _CONVERGENCE_STEPS:
        for u in rk4_states(init, StepConfig(h, round(10.0 / h))):
            pass
        errs.append(math.dist(u[:3], (target.x, target.y, target.z)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.divide(errs[:-1], errs[1:])
    shortfall = np.where(np.isfinite(ratios), 12.0 - ratios, math.inf)
    return _result("convergence_order", shortfall, 0.0)


def check_u_tensor() -> CheckResult:
    """Tensor table on the Heisenberg decomposition and vanishing on the
    naturally reductive one."""
    # [decomposition, i, j] holds U(E_i, E_j): on nil3, U(E1, E3) = -E2/2
    # and U(E2, E3) = E1/2, symmetric; zero elsewhere and on m
    expected = np.zeros((2, 3, 3, 4))
    expected[0, 0, 2, 1] = expected[0, 2, 0, 1] = -0.5
    expected[0, 1, 2, 0] = expected[0, 2, 1, 0] = 0.5
    got = [
        [[astuple(u_tensor(basis, x, y)) for y in basis] for x in basis]
        for basis in (DECOMPOSITIONS["nil3"], DECOMPOSITIONS["m"])
    ]
    return _result("u_tensor_table", np.abs(np.subtract(got, expected)), 1e-12)


def check_go_grid() -> CheckResult:
    """Pre-geodesic classification on the integer grid {-2..2}^4.

    The accepted set must be exactly the union of the two families
    w4 == w3 and w1 == w2 == 0, and an accepted point must be named for
    the second family (W4*E4 when w3 == 0) whenever it lies in it; a
    misclassified or misnamed point has error 1.
    """
    w1, w2, w3, w4 = np.array(list(product((-2, -1, 0, 1, 2), repeat=4)), dtype=float).T
    planar = (w1 == 0) & (w2 == 0)
    expected = (w4 == w3) | planar
    rotation = np.where(w3 == 0, "W4*E4", "W3*E3+W4*E4")
    family = np.where(planar, rotation, "W1*E1+W2*E2+W3*(E3+E4)")
    got = go_criterion(OscVector(w1, w2, w3, w4), "nil3")
    wrong = (got.is_pregeodesic != expected) | (got.family != np.where(expected, family, None))
    return _result("go_grid_classification", wrong, 0.0)


def check_group_identities(seed: int) -> list[CheckResult]:
    """Subgroup product, matrix factorization, and the nilpotent BCH
    identity on 1000 random coordinate draws in [-5, 5]."""
    rng = np.random.default_rng([seed, 5])
    # row i holds instance i: (x, y, z, t), then the two BCH vectors
    draws = rng.uniform(-5.0, 5.0, (1000, 10))
    x, y, z, t = draws[:, :4].T
    g = osc_multiply(OscElement(x, y, z, 0.0), OscElement(0.0, 0.0, 0.0, t))
    sub_devs = (g.x - x, g.y - y, g.z - z, g.t - t)

    # one matrix_exp per factor on the (1000, 4, 4) stack of its matrix forms
    exp_t = matrix_exp(algebra_matrix(OscVector(x, y, z, 0.0)))
    exp_r = matrix_exp(algebra_matrix(OscVector(0.0, 0.0, 0.0, t)))
    fac_devs = exp_t @ exp_r - osc_to_matrix(OscElement(x, y, z, t))

    xv = OscVector(*draws[:, 4:7].T, 0.0)
    yv = OscVector(*draws[:, 7:].T, 0.0)
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
    bch_devs = (lhs.x - rhs.x, lhs.y - rhs.y, lhs.z - rhs.z)
    return [
        _result("matrix_subgroup_product", np.abs(sub_devs), 1e-12),
        _result("group_factorization", np.abs(fac_devs), 1e-11),
        _result("bch_nil", np.abs(bch_devs), 1e-12),
    ]


def check_frame_gram(seed: int) -> CheckResult:
    """Orthonormality of the frame under the coordinate metric at 1000
    random points."""
    rng = np.random.default_rng([seed, 6])
    p = NilPoint(*rng.uniform(-5.0, 5.0, (1000, 3)).T)
    frame = [FrameVector(1, 0, 0), FrameVector(0, 1, 0), FrameVector(0, 0, 1)]
    coords = [frame_to_coord(p, f) for f in frame]
    # gram[i, j] holds <E_i, E_j> at every point
    gram = np.array([[metric(p, u, v) for v in coords] for u in coords])
    return _result("frame_gram", np.abs(gram.T - np.eye(3)), 1e-13)


def check_reeb_lorentz() -> CheckResult:
    """Exact identities: alpha(E3) = 1, cross(E_i, E_j) = eps_ijk E_k on
    every frame pair, and lorentz = cross(E3, .) on the frame, where the
    Levi-Civita symbol is eps_ijk = (i - j)(j - k)(k - i)/2."""
    e3 = FrameVector(0.0, 0.0, 1.0)
    frame = (FrameVector(1, 0, 0), FrameVector(0, 1, 0), e3)
    i, j, k = np.indices((3, 3, 3))
    eps = (i - j) * (j - k) * (k - i) / 2
    points = [
        NilPoint(0.0, 0.0, 0.0),
        NilPoint(1.0, 2.0, 0.0),
        NilPoint(-3.0, 5.0, 7.0),
        NilPoint(0.5, -0.25, 2.0),
    ]
    devs = [contact_form(p, frame_to_coord(p, e3)) - 1.0 for p in points]
    # rows 0-2 hold cross(E_i, .) on the frame, row 3 lorentz
    got = [[astuple(cross(u, v)) for v in frame] for u in frame]
    got.append([astuple(lorentz(v)) for v in frame])
    devs.extend(np.subtract(got, [*eps, eps[2]]).ravel())
    return _result("reeb_lorentz_identities", np.abs(devs), 0.0)


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


def report_json(checks: list[CheckResult]) -> str:
    """The report as strict JSON: a non-finite max_error is written null."""
    obj = {
        "checks": [
            {
                "name": c.name,
                "max_error": c.max_error if math.isfinite(c.max_error) else None,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in checks
        ],
        "pass": all(c.passed for c in checks),
    }
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# commands


_EMIT_FIELDS = ("s", "x", "y", "z", "vx", "vy", "vz", "cos_theta", "speed")
_ORBIT_FIELDS = ("s", "x", "y", "z")
# the largest table has steps + 1 rows of len(_EMIT_FIELDS) floats; numpy
# refuses an array past intp bytes with a ValueError, not a MemoryError
_MAX_STEPS = np.iinfo(np.intp).max // (8 * len(_EMIT_FIELDS)) - 1


def _grid(args: argparse.Namespace) -> np.ndarray:
    """s = 0, ..., s-max in steps intervals; too many rows fail here, before any step."""
    if not 1 <= args.steps <= _MAX_STEPS:
        raise DomainError(f"steps must be between 1 and {_MAX_STEPS}")
    if not (args.s_max > 0.0):
        raise DomainError("s-max must be positive")
    return np.arange(args.steps + 1) * args.s_max / args.steps


def _emit_rows(args: argparse.Namespace) -> np.ndarray:
    """The emit table: closed forms or every per-th RK4 state, then one
    row builder for both sources."""
    s = _grid(args)
    if not (args.h > 0.0):
        raise DomainError("h must be positive")
    # the RK4 steps per row; islice refuses a stride past 2**63 - 1
    if args.source == "rk4" and not args.s_max / args.steps / args.h < 2.0 ** 63:
        raise DomainError("s-max / (steps * h) must be below 2**63")
    try:
        norm = math.sqrt(args.a ** 2 + args.b ** 2 + args.c ** 2)
    except OverflowError:
        raise DomainError("velocity (a, b, c) is too large to normalise") from None
    if abs(norm - 1.0) > 1e-6:
        raise DomainError(f"velocity (a, b, c) has norm {norm:.8g}, more than 1e-6 from 1")
    a, b, c = args.a / norm, args.b / norm, args.c / norm
    p0 = NilPoint(args.x0, args.y0, args.z0)
    if args.source == "closed":
        point = magnetic_point_from(p0, a, b, c, args.q, s)
        fv = magnetic_velocity(a, b, c, args.q, s)
        cv = frame_to_coord(point, fv)
    else:
        # land the RK4 steps exactly on the requested grid
        per = max(1, round((args.s_max / args.steps) / args.h))
        n = args.steps * per
        h_eff = args.s_max / n
        s = np.arange(0, n + 1, per) * h_eff
        init = InitialData(p0, FrameVector(a, b, c), args.q)
        kept = islice(rk4_states(init, StepConfig(h_eff, n)), 0, None, per)
        states = np.array(list(kept))
        point = NilPoint(*states[:, :3].T)
        cv = CoordVector(*states[:, 3:].T)
        fv = coord_to_frame(point, cv)
    speed = np.sqrt(fv.a ** 2 + fv.b ** 2 + fv.c ** 2)
    cols = (s, point.x, point.y, point.z, cv.dx, cv.dy, cv.dz, fv.c, speed)
    return np.column_stack(np.broadcast_arrays(*cols))


def _serialise(fields: tuple[str, ...], rows: np.ndarray, fmt: str) -> str:
    """CSV or JSON text of a (rows >= 1, fields) array in one %r format pass."""
    if not np.all(np.isfinite(rows)):
        raise DomainError("the output would hold non-finite values; the inputs are too large")
    if fmt == "json":
        row = "    {\n" + ",\n".join(f'      "{f}": %r' for f in fields) + "\n    }"
        head, sep, tail = '{\n  "samples": [\n', ",\n", "\n  ]\n}\n"
    else:
        head, sep, tail = ",".join(fields) + "\n", "\n", "\n"
        row = ",".join(["%r"] * len(fields))
    return head + sep.join([row] * len(rows)) % tuple(rows.ravel().tolist()) + tail


def run_emit(args: argparse.Namespace) -> tuple[str, int]:
    return _serialise(_EMIT_FIELDS, _emit_rows(args), args.format), 0


def _generator(args: argparse.Namespace) -> OscVector:
    return OscVector(args.w1, args.w2, args.w3, args.w4)


def run_orbit(args: argparse.Namespace) -> tuple[str, int]:
    s = _grid(args)
    coords = orbit_grid(_generator(args), args.s_max, args.steps)
    return _serialise(_ORBIT_FIELDS, np.column_stack((s, coords)), args.format), 0


def run_criterion(args: argparse.Namespace) -> tuple[str, int]:
    res = go_criterion(_generator(args), args.decomposition)
    if args.format == "json":
        return json.dumps(asdict(res), indent=2) + "\n", 0
    # a header and one row; a missing k or family is an empty field
    k = "" if res.k is None else repr(res.k)
    row = f"{str(res.is_pregeodesic).lower()},{k},{res.family or ''}"
    return f"is_pregeodesic,k,family\n{row}\n", 0


def run_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.seed < 0:
        raise DomainError("seed must be non-negative")
    checks = run_checks(args.seed, 1.0 + args.fault_j)
    return report_json(checks), 0 if all(c.passed for c in checks) else 1


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with `--q -8e-1` joined as `--q=-8e-1`, which argparse reads
    as the flag's value: on its own it reads only -1 or -.5 that way and
    takes any other token that starts with '-' for an option.  Each such
    token that float() reads is joined to a long flag before it, other
    than --help and one with '=' in it; the flag's type then checks it.
    """
    joined = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        try:
            negative = arg.startswith("-") and float(arg) is not None  # or ValueError
        except ValueError:
            negative = False
        if negative and prev.startswith("--") and prev not in ("--", "--help") and "=" not in prev:
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmag",
        description="Magnetic trajectories on the Heisenberg group: "
        "closed forms, group orbits, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the run_* names are looked up here, at call time, so a wrapper
    # installed on the module (the benchmark's tracer) is the one called

    emit = sub.add_parser("emit", help="sample one trajectory to CSV or JSON")
    emit.add_argument("--a", type=float, default=0.0, help="frame velocity, first component")
    emit.add_argument("--b", type=float, default=0.0, help="frame velocity, second component")
    emit.add_argument("--c", type=float, default=1.0, help="frame velocity, contact component")
    emit.add_argument("--q", type=float, default=0.0, help="charge")
    emit.add_argument("--x0", type=float, default=0.0, help="start point x")
    emit.add_argument("--y0", type=float, default=0.0, help="start point y")
    emit.add_argument("--z0", type=float, default=0.0, help="start point z")
    emit.add_argument("--h", type=float, default=1e-3, help="integrator step (rk4 source)")
    emit.add_argument("--source", choices=("closed", "rk4"), default="closed",
                      help="closed form or numerical integration")
    emit.set_defaults(run=run_emit)

    orbit = sub.add_parser("orbit", help="sample the orbit exp(s W).o")
    orbit.set_defaults(run=run_orbit)

    crit = sub.add_parser("criterion", help="pre-geodesic test for a generator W")
    crit.add_argument("--decomposition", choices=tuple(DECOMPOSITIONS), default="nil3")
    crit.set_defaults(run=run_criterion, out=None)

    # flags shared by several commands, each declared once
    for cmd in (orbit, crit):
        for i in (1, 2, 3, 4):
            cmd.add_argument(f"--w{i}", type=float, required=True,
                             help=f"generator component on E{i}")
    for cmd in (emit, orbit):
        cmd.add_argument("--s-max", type=float, default=10.0,
                         help="grid span: s runs from 0 to s-max")
        cmd.add_argument("--steps", type=int, default=100, help="grid intervals (rows - 1)")
        cmd.add_argument("--out", default=None, help="output file (default stdout)")
    for cmd in (emit, orbit, crit):
        cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format: csv (a header and rows) or json")

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--seed", type=int, default=0, help="sweep seed (PCG64)")
    verify.add_argument("--fault-j", type=float, default=0.0, help=argparse.SUPPRESS)
    verify.set_defaults(run=run_verify, out=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negative_values(argv))
    try:
        # a NaN fault_j feeds the suite a NaN coupling; each run_* checks its other flags
        for name, value in vars(args).items():
            if isinstance(value, float) and name != "fault_j" and not math.isfinite(value):
                raise DomainError(f"--{name.replace('_', '-')} must be finite")
        # overflow gives a non-finite value, which _serialise rejects and
        # _result fails, so numpy's warnings are not needed
        with np.errstate(all="ignore"):
            text, code = args.run(args)
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (DomainError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
