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
from .integrator import StepConfig, batch_initial_state, batch_step, rk4_states
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
    zero), compared on a 101-point grid over [0, 10] with the orbits of
    their homogeneous_generator.
    """
    rng = np.random.default_rng([seed, 2 if q_zero else 1])
    vel = _unit_velocities(rng, n)
    a, b, c = vel[:, 0], vel[:, 1], vel[:, 2]
    q = np.zeros(n) if q_zero else rng.uniform(-2.0, 2.0, n)

    s_grid = np.linspace(0.0, 10.0, 101)
    closed = magnetic_grid(a[:, None], b[:, None], c[:, None], q[:, None], s_grid)
    gens = np.column_stack(astuple(homogeneous_generator(a, b, c, q * j_strength)))
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

    gens = np.column_stack(astuple(homogeneous_generator(*vel.T, 0.0)))
    orbits = orbit_grid(gens, 10.0, 100)
    err = np.max(np.abs(literal - orbits))
    return _result("orbit_coordinate_formulas", err, 1e-10)


# steps of check_ode_sweep per closed-form call; its temporaries are a few
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
    p0 = NilPoint(starts[:, 0], starts[:, 1], starts[:, 2])
    # the charge the integrator sees; j_strength = 1 leaves q as it is
    q_rk4 = q * j_strength

    state = batch_initial_state(starts, vel)
    ct0 = coord_to_frame(NilPoint(*state[:3]), CoordVector(*state[3:])).c

    nsteps = int(round(s_max / h))
    states = np.empty((_SWEEP_BLOCK, 6, n))
    # np.maximum keeps a NaN that Python's max would drop
    pos_err2 = speed_err = angle_err = 0.0
    for k0 in range(1, nsteps + 1, _SWEEP_BLOCK):
        m = min(_SWEEP_BLOCK, nsteps + 1 - k0)
        for i in range(m):
            state = batch_step(state, h, q_rk4)
            states[i] = state
        x, y, z, vx, vy, vz = states[:m].transpose(1, 0, 2)

        s = np.arange(k0, k0 + m)[:, None] * h
        closed = magnetic_point_from(p0, a, b, c, q, s)
        d2 = (x - closed.x) ** 2 + (y - closed.y) ** 2 + (z - closed.z) ** 2
        pos_err2 = np.maximum(pos_err2, np.max(d2))

        fv = coord_to_frame(NilPoint(x, y, z), CoordVector(vx, vy, vz))
        speed = np.sqrt(fv.a ** 2 + fv.b ** 2 + fv.c ** 2)
        speed_err = np.maximum(speed_err, np.max(np.abs(speed - 1.0)))
        angle_err = np.maximum(angle_err, np.max(np.abs(fv.c - ct0)))

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
    init = InitialData(NilPoint(0.0, 0.0, 0.0), FrameVector(a, b, c), q * j_strength)

    errs = []
    for h, n in ((4e-3, 2500), (2e-3, 5000), (1e-3, 10000)):
        for u in rk4_states(init, StepConfig(h, n)):
            pass
        errs.append(math.dist(u[:3], (target.x, target.y, target.z)))
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
    nil3 = DECOMPOSITIONS["nil3"]
    zero = (0.0, 0.0, 0.0, 0.0)
    # U(E1, E3) = -E2/2 and U(E2, E3) = E1/2, symmetric, rest zero
    expected = {
        (0, 2): (0.0, -0.5, 0.0, 0.0),
        (2, 0): (0.0, -0.5, 0.0, 0.0),
        (1, 2): (0.5, 0.0, 0.0, 0.0),
        (2, 1): (0.5, 0.0, 0.0, 0.0),
    }

    # deviations are collected and reduced with np.max, which keeps a NaN
    # that Python's max would drop; the other scalar-loop checks do the same
    devs = []
    for i, x in enumerate(nil3):
        for j, y in enumerate(nil3):
            u = u_tensor(nil3, x, y)
            devs.append(np.subtract(astuple(u), expected.get((i, j), zero)))

    m_basis = DECOMPOSITIONS["m"]
    for x in m_basis:
        for y in m_basis:
            devs.append(astuple(u_tensor(m_basis, x, y)))
    return _result("u_tensor_table", np.max(np.abs(devs)), 1e-12)


def check_go_grid() -> CheckResult:
    """Pre-geodesic classification on the integer grid {-2..2}^4.

    The accepted set must be exactly the union of the two families
    w4 == w3 and w1 == w2 == 0; max_error counts mismatches.
    """
    w1, w2, w3, w4 = np.array(list(product((-2, -1, 0, 1, 2), repeat=4)), dtype=float).T
    expected = (w4 == w3) | ((w1 == 0) & (w2 == 0))
    got = go_criterion(OscVector(w1, w2, w3, w4), "nil3")
    return _result("go_grid_classification", np.count_nonzero(got.is_pregeodesic != expected), 0.0)


def check_group_identities(seed: int, n: int = 1000) -> list[CheckResult]:
    """Subgroup product, matrix factorization, and the nilpotent BCH
    identity on random coordinates in [-5, 5]."""
    rng = np.random.default_rng([seed, 5])
    # row i holds instance i: (x, y, z, t), then the two BCH vectors
    draws = rng.uniform(-5.0, 5.0, (n, 10))
    x, y, z, t = draws[:, :4].T
    g = osc_multiply(OscElement(x, y, z, 0.0), OscElement(0.0, 0.0, 0.0, t))
    sub_devs = (g.x - x, g.y - y, g.z - z, g.t - t)

    # one matrix_exp per factor on the (n, 4, 4) stack of its matrix forms
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
        _result("matrix_subgroup_product", np.max(np.abs(sub_devs)), 1e-12),
        _result("group_factorization", np.max(np.abs(fac_devs)), 1e-11),
        _result("bch_nil", np.max(np.abs(bch_devs)), 1e-12),
    ]


def check_frame_gram(seed: int, n: int = 1000) -> CheckResult:
    """Orthonormality of the frame under the coordinate metric at random
    points."""
    rng = np.random.default_rng([seed, 6])
    p = NilPoint(*rng.uniform(-5.0, 5.0, (n, 3)).T)
    frame = [FrameVector(1, 0, 0), FrameVector(0, 1, 0), FrameVector(0, 0, 1)]
    coords = [frame_to_coord(p, f) for f in frame]
    # gram[i, j] holds <E_i, E_j> at every point
    gram = np.array([[metric(p, u, v) for v in coords] for u in coords])
    return _result("frame_gram", np.max(np.abs(gram.T - np.eye(3))), 1e-13)


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
    devs = [contact_form(p, frame_to_coord(p, e3)) - 1.0 for p in points]
    devs.extend(astuple(lorentz(e3)))
    for f in (FrameVector(1, 0, 0), FrameVector(0, 1, 0), e3):
        devs.extend(np.subtract(astuple(cross(e3, f)), astuple(lorentz(f))))
    return _result("reeb_lorentz_identities", np.max(np.abs(devs)), 0.0)


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


def _emit_rows(args: argparse.Namespace) -> np.ndarray:
    """The emit table: closed forms or every per-th RK4 state, then one
    row builder for both sources."""
    p0 = NilPoint(args.x0, args.y0, args.z0)
    if args.source == "closed":
        s = np.arange(args.steps + 1) * args.s_max / args.steps
        point = magnetic_point_from(p0, args.a, args.b, args.c, args.q, s)
        fv = magnetic_velocity(args.a, args.b, args.c, args.q, s)
        cv = frame_to_coord(point, fv)
    else:
        # land the RK4 steps exactly on the requested grid
        per = max(1, round((args.s_max / args.steps) / args.h))
        n = args.steps * per
        h_eff = args.s_max / n
        # the grid first: a row count too large to allocate fails here,
        # before any RK4 step
        s = np.arange(0, n + 1, per) * h_eff
        init = InitialData(p0, FrameVector(args.a, args.b, args.c), args.q)
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


def run_emit(args: argparse.Namespace) -> str:
    return _serialise(_EMIT_FIELDS, _emit_rows(args), args.format)


def _generator(args: argparse.Namespace) -> OscVector:
    return OscVector(args.w1, args.w2, args.w3, args.w4)


def run_orbit(args: argparse.Namespace) -> str:
    coords = orbit_grid(_generator(args), args.s_max, args.steps)
    s = np.arange(args.steps + 1) * args.s_max / args.steps
    return _serialise(_ORBIT_FIELDS, np.column_stack((s, coords)), args.format)


def run_criterion(args: argparse.Namespace) -> str:
    res = go_criterion(_generator(args), args.decomposition)
    if args.format == "json":
        return json.dumps(asdict(res), indent=2) + "\n"
    # a header and one row; a missing k or family is an empty field
    k = "" if res.k is None else repr(res.k)
    return f"is_pregeodesic,k,family\n{str(res.is_pregeodesic).lower()},{k},{res.family or ''}\n"


def _validate(args: argparse.Namespace) -> None:
    """Reject out-of-domain flags with DomainError and normalise the emit
    velocity; fault_j is exempt so the suite can be fed a NaN coupling."""
    for name, value in vars(args).items():
        if isinstance(value, float) and name != "fault_j" and not math.isfinite(value):
            raise DomainError(f"--{name.replace('_', '-')} must be finite")
    if args.command == "verify" and args.seed < 0:
        raise DomainError("seed must be non-negative")
    if args.command in ("emit", "orbit"):
        if args.steps < 1:
            raise DomainError("steps must be at least 1")
        if not (args.s_max > 0.0):
            raise DomainError("s-max must be positive")
    if args.command == "emit":
        if not (args.h > 0.0):
            raise DomainError("h must be positive")
        # the RK4 steps per row; islice refuses a stride past 2**63 - 1
        if args.source == "rk4" and not args.s_max / args.steps / args.h < 2.0 ** 63:
            raise DomainError("s-max / (steps * h) must be below 2**63")
        norm = math.sqrt(args.a ** 2 + args.b ** 2 + args.c ** 2)
        if abs(norm - 1.0) > 1e-6:
            raise DomainError(
                f"velocity (a, b, c) has norm {norm:.8g}, more than 1e-6 from 1"
            )
        args.a, args.b, args.c = args.a / norm, args.b / norm, args.c / norm


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser whose float flags take any negative float.

    argparse reads a value that starts with '-' as an option unless it
    looks like -1 or -.5, so `--q -8e-1` or `--w1 -inf` would fail with
    "expected one argument".  Such a value after one of this parser's
    float flags is joined to it as `--q=-8e-1`, which argparse reads as
    the flag's value; -inf and nan still reach _validate.
    """

    def __init__(self, *args, **kwargs):
        self.float_flags = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.type is float:
            self.float_flags.update(action.option_strings)
        return action

    def parse_known_args(self, args, namespace=None):
        # the parent parser hands a subcommand its argument list
        joined = []
        for arg in args:
            negative = arg.startswith("-") and _is_float(arg)
            if negative and joined and joined[-1] in self.float_flags:
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmag",
        description="Magnetic trajectories on the Heisenberg group: "
        "closed forms, group orbits, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
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
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        if args.command != "verify":
            # overflow shows up as a non-finite output value, which
            # _serialise rejects, so numpy's warnings are not needed
            with np.errstate(all="ignore"):
                text = args.run(args)
            if args.out is not None:
                with open(args.out, "w") as fh:
                    fh.write(text)
    except (DomainError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        checks = run_checks(args.seed, 1.0 + args.fault_j)
        sys.stdout.write(report_json(checks))
        return 0 if all(c.passed for c in checks) else 1
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
