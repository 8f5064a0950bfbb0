"""The three workloads of the nilmag benchmark.

Each workload turns (seed, round index) into inputs, runs one round of
operations against nilmag and checks every operation's output with a
NaN-proof oracle.  A round is a fixed amount of work; the benchmark times
only the nilmag calls of each operation, never input generation or the
oracle, with the ``clock`` each round is given (perf_counter, or one that
leaves out the reference samples of reference.py).

    verify  one operation is ``nilmag verify --seed s`` run in-process
    sweep   one operation is a large batch of generators: closed forms
            through ``magnetic_grid`` against ``exp(sW).o`` orbits through
            ``orbit_grid`` on a shared grid
    emit    one operation is one ``emit`` / ``orbit`` command with 10k rows;
            a round runs the closed, rk4 and orbit sources for one set of
            initial data in CSV and JSON and cross-checks them

``fault_j`` perturbs the magnetic coupling for the oracle's self-test:
verify receives it as ``--fault-j``, sweep and emit build their generators
with ``j_strength = 1 + fault_j``.  It is 0 in every measured run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from nilmag import cli_reporting, trajectories

# salts keep the input streams of the workloads apart for the same seed
_VERIFY_SALT, _SWEEP_SALT, _EMIT_SALT = 101, 102, 103

# sizes of the default verify sweeps, used only to count the trajectory
# points one verify produces (a closed-form point, an orbit grid point or
# an RK4 state): homogeneity x2 (closed + orbit, 1000 x 101 each),
# orbit_coordinate_formulas (500 x 101 orbit points), ode_sweep (200
# trajectories x 10000 steps, RK4 and closed form), convergence (RK4 runs
# of 2500, 5000 and 10000 steps plus one closed-form target)
VERIFY_POINTS = (
    2 * 2 * 1000 * 101 + 500 * 101 + 2 * 200 * 10_000 + (2501 + 5001 + 10_001) + 1
)

# sweep: four groups of 1000 generators, 100 grid intervals each; the
# spans give step matrices with 1-norm below and above matrix_exp's 0.5
# threshold, so it runs both with and without squarings
SWEEP_GROUP = 1000
SWEEP_STEPS = 100
SWEEP_SPANS = (0.5, 5.0, 20.0, 60.0)
SWEEP_POINTS = 2 * SWEEP_GROUP * (SWEEP_STEPS + 1) * len(SWEEP_SPANS)
# bytes of one group's closed-form and orbit arrays, to compare with L2
SWEEP_GROUP_BYTES = 2 * SWEEP_GROUP * (SWEEP_STEPS + 1) * 3 * 8

EMIT_STEPS = 10_000
EMIT_H = 1e-3
EMIT_FIELDS = ("s", "x", "y", "z", "vx", "vy", "vz", "cos_theta", "speed")
ORBIT_FIELDS = ("s", "x", "y", "z")
EMIT_POINTS = 6 * (EMIT_STEPS + 1)

ORBIT_TOL = 1e-9  # closed form against orbit
RK4_TOL = 1e-6  # closed form against RK4

# the checks a verify report must contain; a report with fewer checks
# passes nothing
VERIFY_CHECKS = (
    "bch_nil",
    "conservation_contact_angle",
    "conservation_speed",
    "convergence_order",
    "frame_gram",
    "go_grid_classification",
    "group_factorization",
    "homogeneity_geodesic",
    "homogeneity_magnetic",
    "matrix_subgroup_product",
    "ode_vs_closed_form",
    "orbit_coordinate_formulas",
    "reeb_lorentz_identities",
    "u_tensor_table",
)


class Verdict:
    """Oracle state of one operation.

    Every reduction goes through numpy (np.max propagates NaN) and every
    compared value must be finite, so a NaN can fail a comparison but
    never pass one.
    """

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.worst_ratio = 0.0  # worst max_error / tolerance, tolerance > 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def compare(self, what: str, errors, tol: float) -> float:
        """Record max(errors) against tol; return the max error.

        A tolerance of 0 demands exact agreement and counts only as pass
        or fail, never in worst_ratio.
        """
        errors = np.asarray(errors, dtype=float)
        err = float(np.max(errors)) if errors.size else 0.0
        if not np.isfinite(err):
            self.fail(f"{what}: non-finite error {err!r}")
        elif err > tol:
            self.fail(f"{what}: error {err!r} above tolerance {tol!r}")
        if tol > 0.0:
            self.worst_ratio = float(np.max([self.worst_ratio, err / tol]))
        return err

    def finite(self, what: str, values) -> None:
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            self.fail(f"{what}: non-finite value")


@dataclass
class OpResult:
    """One operation: its latency, its oracle verdict and what it produced."""

    kind: str
    latency_s: float
    verdict: Verdict
    bytes_out: int = 0
    check_errors: dict = field(default_factory=dict)


def _timed_main(
    argv: list[str], span, clock
) -> tuple[float, int | None, str, str | None]:
    """Run cli_reporting.main in-process; return latency, exit code,
    stdout text and the error, if it raised."""
    out = io.StringIO()
    code, error = None, None
    with span:
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out):
                code = cli_reporting.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising operation is a failed one
            error = f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
    return latency, code, out.getvalue(), error


def _unit_velocities(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# verify


def verify_inputs(seed: int, rnd: int, fault_j: float) -> list[str]:
    s = int(np.random.default_rng([seed, _VERIFY_SALT, rnd]).integers(0, 2**31))
    argv = ["verify", "--seed", str(s)]
    if fault_j:
        argv += ["--fault-j", repr(fault_j)]
    return argv


def verify_round(argv: list[str], span, clock) -> list[OpResult]:
    latency, code, text, error = _timed_main(argv, span("verify"), clock)
    verdict = Verdict()
    errors: dict[str, float] = {}
    if error is not None:
        verdict.fail(error)
    elif code != 0:
        verdict.fail(f"exit code {code}")
    try:
        report = json.loads(text)
        checks = {c["name"]: c for c in report["checks"]}
        if report["pass"] is not True:
            verdict.fail("report pass is not true")
        for name in VERIFY_CHECKS:
            if name not in checks:
                verdict.fail(f"{name}: missing from the report")
        for name, c in checks.items():
            err, tol = float(c["max_error"]), float(c["tolerance"])
            if c["pass"] is not True:
                verdict.fail(f"{name}: pass is not true")
            if not (np.isfinite(tol) and tol >= 0.0):
                verdict.fail(f"{name}: bad tolerance {tol!r}")
            else:
                verdict.compare(name, [err], tol)
            errors[name] = err
    except (ValueError, KeyError, TypeError) as exc:
        verdict.fail(f"unreadable report: {exc!r}")
    return [OpResult("verify", latency, verdict, len(text), errors)]


# ---------------------------------------------------------------------------
# sweep


@dataclass
class SweepGroup:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    q: np.ndarray
    s_max: float


def sweep_inputs(seed: int, rnd: int, fault_j: float):
    """Four groups, one per grid span, each mixing five kinds of instance:
    generic charges, straight lines (q = -c), small |u| that takes the
    Taylor branch of K3, Reeb velocities (a = b = 0, c = +-1) and
    geodesics (q = 0)."""
    rng = np.random.default_rng([seed, _SWEEP_SALT, rnd])
    groups = []
    for s_max in SWEEP_SPANS:
        n = SWEEP_GROUP
        vel = _unit_velocities(rng, n)
        a, b, c = vel[:, 0].copy(), vel[:, 1].copy(), vel[:, 2].copy()
        q = rng.uniform(-2.0, 2.0, n)
        kind = rng.integers(0, 5, n)
        straight = kind == 1
        q[straight] = -c[straight]
        taylor = kind == 2
        q[taylor] = -c[taylor] + rng.uniform(-0.4, 0.4, taylor.sum()) / s_max
        reeb = kind == 3
        a[reeb] = 0.0
        b[reeb] = 0.0
        c[reeb] = rng.choice([-1.0, 1.0], reeb.sum())
        q[kind == 4] = 0.0
        groups.append(SweepGroup(a, b, c, q, s_max))
    return groups, 1.0 + fault_j


def sweep_round(inputs, span, clock) -> list[OpResult]:
    groups, j_strength = inputs
    verdict = Verdict()
    results = []
    error = None
    with span("sweep"):
        t0 = clock()
        try:
            for g in groups:
                w = trajectories.homogeneous_generator(g.a, g.b, g.c, g.q, j_strength)
                gens = np.column_stack([w.e1, w.e2, w.e3, w.e4])
                s = np.arange(SWEEP_STEPS + 1) * (g.s_max / SWEEP_STEPS)
                col = (slice(None), None)
                closed = trajectories.magnetic_grid(
                    g.a[col], g.b[col], g.c[col], g.q[col], s
                )
                orbit = trajectories.orbit_grid(gens, g.s_max, SWEEP_STEPS)
                results.append((g.s_max, closed, orbit))
        except Exception as exc:  # a raising operation is a failed one
            error = f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
    if error is not None:
        verdict.fail(error)
    shape = (SWEEP_GROUP, SWEEP_STEPS + 1, 3)
    for s_max, closed, orbit in results:
        if closed.shape != shape or orbit.shape != shape:
            verdict.fail(f"s_max={s_max}: shapes {closed.shape}, {orbit.shape}")
            continue
        verdict.finite(f"closed s_max={s_max}", closed)
        verdict.finite(f"orbit s_max={s_max}", orbit)
        dist = np.linalg.norm(closed - orbit, axis=-1)
        verdict.compare(f"orbit vs closed s_max={s_max}", dist, ORBIT_TOL)
    return [OpResult("sweep", latency, verdict)]


# ---------------------------------------------------------------------------
# emit


@dataclass
class EmitInputs:
    p0: tuple[float, float, float]
    argv: dict  # (source, format) -> argv


def emit_inputs(seed: int, rnd: int, fault_j: float) -> EmitInputs:
    rng = np.random.default_rng([seed, _EMIT_SALT, rnd])
    a, b, c = map(float, _unit_velocities(rng, 1)[0])
    q = float(rng.uniform(-2.0, 2.0))
    x0, y0, z0 = map(float, rng.uniform(-2.0, 2.0, 3))
    # below s_max = 15 the rk4 source lands one step per row
    s_max = float(rng.uniform(5.0, 14.0))
    grid = ["--s-max", repr(s_max), "--steps", str(EMIT_STEPS)]
    start = ["--x0", repr(x0), "--y0", repr(y0), "--z0", repr(z0)]
    vel = ["--a", repr(a), "--b", repr(b), "--c", repr(c), "--q", repr(q)]
    w = trajectories.homogeneous_generator(a, b, c, q, 1.0 + fault_j)
    gen = [f"--w{i}" for i in (1, 2, 3, 4)]
    gen = [x for pair in zip(gen, map(repr, (w.e1, w.e2, w.e3, w.e4))) for x in pair]
    argv = {}
    for fmt in ("csv", "json"):
        tail = grid + ["--format", fmt]
        argv["closed", fmt] = ["emit", *vel, *start, "--source", "closed", *tail]
        argv["rk4", fmt] = [
            "emit", *vel, *start, "--source", "rk4", "--h", repr(EMIT_H), *tail
        ]
        argv["orbit", fmt] = ["orbit", *gen, *tail]
    return EmitInputs((x0, y0, z0), argv)


def _parse(text: str, fmt: str, fields: tuple[str, ...]) -> np.ndarray:
    """Rows of an emit / orbit output as a float array, or ValueError."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != ",".join(fields):
            raise ValueError("unexpected CSV header")
        rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    else:
        samples = json.loads(text)["samples"]
        rows = np.array([[s[k] for k in fields] for s in samples], dtype=float)
    if rows.shape != (EMIT_STEPS + 1, len(fields)):
        raise ValueError(f"expected {EMIT_STEPS + 1} rows, got shape {rows.shape}")
    return rows


def emit_round(inputs: EmitInputs, span, clock) -> list[OpResult]:
    ops, rows = {}, {}
    for (source, fmt), argv in inputs.argv.items():
        latency, code, text, error = _timed_main(
            argv, span(f"emit.{source}"), clock
        )
        verdict = Verdict()
        if error is not None:
            verdict.fail(error)
        elif code != 0:
            verdict.fail(f"exit code {code}")
        fields = ORBIT_FIELDS if source == "orbit" else EMIT_FIELDS
        try:
            rows[source, fmt] = _parse(text, fmt, fields)
            verdict.finite(f"{source} {fmt}", rows[source, fmt])
        except (ValueError, KeyError, TypeError) as exc:
            verdict.fail(f"{source} {fmt}: {exc}")
        ops[source, fmt] = OpResult(f"{source}.{fmt}", latency, verdict, len(text))

    # JSON must carry exactly the CSV values (both print floats by repr)
    for source in ("closed", "rk4", "orbit"):
        if (source, "csv") in rows and (source, "json") in rows:
            diff = np.abs(rows[source, "csv"] - rows[source, "json"])
            ops[source, "json"].verdict.compare(f"{source} json vs csv", diff, 0.0)

    # orbit from the origin, left-translated to the start point, against
    # the closed form; rk4 against the closed form on every column
    x0, y0, z0 = inputs.p0
    for fmt in ("csv", "json"):
        closed = rows.get(("closed", fmt))
        if closed is None:
            for source in ("orbit", "rk4"):
                ops[source, fmt].verdict.fail("no closed-form reference to check")
            continue
        orbit = rows.get(("orbit", fmt))
        if orbit is not None:
            s, x, y, z = orbit.T
            moved = np.stack(
                [s, x0 + x, y0 + y, z0 + z + 0.5 * (x0 * y - x * y0)], axis=1
            )
            ops["orbit", fmt].verdict.compare(
                "orbit vs closed", np.abs(moved - closed[:, :4]), ORBIT_TOL
            )
        rk4 = rows.get(("rk4", fmt))
        if rk4 is not None:
            ops["rk4", fmt].verdict.compare(
                "rk4 vs closed", np.abs(rk4 - closed), RK4_TOL
            )
    return list(ops.values())


WORKLOADS = {
    "verify": (verify_inputs, verify_round, VERIFY_POINTS),
    "sweep": (sweep_inputs, sweep_round, SWEEP_POINTS),
    "emit": (emit_inputs, emit_round, EMIT_POINTS),
}
