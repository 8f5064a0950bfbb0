"""nilmag benchmark: one closed-loop client driving nilmag in-process.

    python3 perfbench/run.py --workload {verify,sweep,emit} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; nilmag is imported from its ``src``.
One thread, one client: each operation starts when the previous one has
returned and been checked.  Rounds of operations (a fixed amount of work
each, inputs drawn from the seed and the round index) repeat until
``--seconds`` have passed.  In the untraced rounds of --trace 0 a timer
runs a fixed reference computation every 0.2 s, and times are reported
scaled to its speed (see reference.py); the times as measured are
printed as details.

--trace 0 prints the end-to-end metrics, measured with no tracing.
--trace 1 runs the same rounds untraced for half the time, then again
with every layer wrapped (see tracer.py), and prints the per-layer
metrics, per round.  Either way the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full result,
with the run's environment, goes to .perfbench_out/ in the checkout, and
the traced run's spans next to it.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("verify", "sweep", "emit")
SETUP_REPEATS = 9


def _import_nilmag():
    """Import nilmag from this checkout's src, or exit without a result."""
    pkg = SRC / "nilmag"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from the root of a nilmag checkout")
    sys.path.insert(0, str(SRC))
    import nilmag

    if Path(nilmag.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported nilmag from {nilmag.__file__}, not from {pkg}")
    return nilmag


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # perturbs the magnetic coupling; the oracle's self-test sets it
    p.add_argument("--fault-j", type=float, default=0.0, help=argparse.SUPPRESS)
    # internal: the fresh process whose lifetime setup_s measures
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_sampler(args, speed):
    """Time fresh processes that import nilmag and generate the workload's
    first inputs.  The samples are spread over the timed phase, so that
    setup_s sees the same machine state as the other metrics.  The speed
    sampler pauses while each one runs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    times: list[float] = []

    def sample(elapsed: float) -> None:
        if len(times) >= SETUP_REPEATS or elapsed < len(times) * args.seconds / SETUP_REPEATS:
            return
        speed.stop()
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        speed.start()
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed:\n{proc.stderr}")

    return times, sample


def _untraced(kind: str) -> nullcontext:
    return nullcontext()


def _run_rounds(
    workloads, args, span, clock=time.perf_counter, seconds=None, rounds=None,
    between=None,
):
    """Closed loop: run `rounds` rounds, or as many as fit in `seconds`
    (at least one; a round is not started if the mean round so far would
    end past `seconds`).  `between(elapsed)` runs before each round.
    Returns the rounds and the perf_counter interval of each."""
    make_inputs, run_round, _ = workloads.WORKLOADS[args.workload]
    done, spans = [], []
    began = time.perf_counter()
    while True:
        if between is not None:
            between(time.perf_counter() - began)
        inputs = make_inputs(args.seed, len(done), args.fault_j)
        t0 = time.perf_counter()
        done.append(run_round(inputs, span, clock))
        spans.append((t0, time.perf_counter()))
        if rounds is not None:
            if len(done) >= rounds:
                return done, spans
        else:
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / len(done) > seconds:
                return done, spans


def _round_walls(rounds, scales=None) -> list[float]:
    """Wall time of each round, scaled to the reference speed if `scales`
    are given."""
    walls = [sum(op.latency_s for op in ops) for ops in rounds]
    if scales is None:
        return walls
    return [w * s for w, s in zip(walls, scales)]


def _tail(values: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ten samples above
    it: (value, percentile, sample count).  Below 11 samples that
    percentile does not exist and the maximum (p100) is reported."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def _max_error_ratio(ops) -> float:
    """Worst max_error / tolerance over every comparison with a positive
    tolerance; NaN if any was NaN."""
    return float(np.max([op.verdict.worst_ratio for op in ops]))


def _end_to_end(workloads, args, rounds, scales, setup_times, setup_scale):
    ops = [op for ops in rounds for op in ops]
    wall = statistics.fmean(_round_walls(rounds, scales))
    lat_ms = [op.latency_s * s * 1e3 for ops, s in zip(rounds, scales) for op in ops]
    tail, pct, n = _tail(lat_ms)
    points = workloads.WORKLOADS[args.workload][2]
    metrics = {
        "setup_s": _metric(statistics.median(setup_times) * setup_scale, "s"),
        "wall_s": _metric(wall, "s"),
        "points_per_s": _metric(points / wall, "1/s"),
        "op_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "op_tail_ms": _metric(tail, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    measured_ms = [op.latency_s * 1e3 for op in ops]
    details = {
        "rounds": len(rounds),
        "points_per_round": points,
        "op_tail_percentile": pct,
        "op_samples": n,
        "max_error_ratio": _max_error_ratio(ops),
        # as measured, before scaling to the reference speed
        "measured_setup_s": statistics.median(setup_times),
        "measured_wall_s": statistics.fmean(_round_walls(rounds)),
        "measured_op_p50_ms": statistics.median(measured_ms),
        "measured_op_tail_ms": _tail(measured_ms)[0],
        "round_scales": scales,
        "setup_samples_s": setup_times,
    }
    if args.workload == "sweep":
        details["sweep_group_bytes"] = workloads.SWEEP_GROUP_BYTES
    return metrics, details


def _per_layer(workloads, tracer_mod, tracer, traced, untraced):
    n = len(traced)
    tot = tracer.layer_totals()
    m = {}

    def put(name, value, unit):
        m[name] = _metric(value, unit)

    def per_unit(busy_s, work, scale):
        return busy_s * scale / work if work else 0.0

    for layer, work_name, scale, unit_name in (
        ("trajectories.magnetic_grid", "points", 1e9, "ns_per_point"),
        ("trajectories.orbit_grid", "gen_steps", 1e9, "ns_per_gen_step"),
        ("integrator.batch_step", "traj_steps", 1e9, "ns_per_traj_step"),
        ("integrator.integrate", "steps", 1e6, "us_per_step"),
        ("lie_core.matrix_exp", None, 1e6, "us_per_call"),
    ):
        t = tot[layer]
        work = t["work"] if work_name else t["calls"]
        put(f"{layer}.calls", t["calls"] / n, "count")
        if work_name:
            put(f"{layer}.{work_name}", work / n, "count")
        put(f"{layer}.busy_s", t["busy_s"] / n, "s")
        if layer in ("trajectories.orbit_grid", "integrator.integrate"):
            put(f"{layer}.self_s", t["self_s"] / n, "s")
        put(f"{layer}.{unit_name}", per_unit(t["busy_s"], work, scale), unit_name[:2])
    for layer in (
        "trajectories.scalar",
        "lie_core.group_ops",
        "geometry.go_criterion",
        "geometry.frame_ops",
        "geometry.u_tensor",
    ):
        put(f"{layer}.calls", tot[layer]["calls"] / n, "count")
        put(f"{layer}.busy_s", tot[layer]["busy_s"] / n, "s")
    for layer in tracer_mod.CHECK_LAYERS:
        put(f"{layer}.busy_s", tot[layer]["busy_s"] / n, "s")
    ops = [op for ops in traced + untraced for op in ops]
    put("max_error_ratio", _max_error_ratio(ops), "ratio")
    for check in workloads.VERIFY_CHECKS:
        errs = [op.check_errors[check] for op in ops if check in op.check_errors]
        put(f"cli_reporting.check.{check}.max_error", np.max(errs) if errs else 0.0, "abs")
    for layer in ("cli_reporting.run_emit", "cli_reporting.run_orbit"):
        put(f"{layer}.self_s", tot[layer]["self_s"] / n, "s")
    put(
        "cli_reporting.bytes_out",
        sum(op.bytes_out for ops in traced for op in ops) / n,
        "B",
    )
    traced_walls = _round_walls(traced)
    put(
        "trace.overhead_s",
        statistics.fmean(traced_walls) - statistics.fmean(_round_walls(untraced)),
        "s",
    )
    put("trace.accounted_ratio", tracer.self_time_sum() / sum(traced_walls), "ratio")
    top = sorted(
        ((v["self_s"] / n, k) for k, v in tot.items() if v["calls"]), reverse=True
    )
    return m, {"rounds": n, "self_s_per_round": {k: s for s, k in top}}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_nilmag()
    import workloads
    from reference import SpeedSampler

    make_inputs = workloads.WORKLOADS[args.workload][0]
    if args.setup_only:
        make_inputs(args.seed, 0, args.fault_j)
        return 0

    from environment import environment

    env = environment(ROOT, THREAD_VARS)
    if args.trace == 0:
        speed = SpeedSampler()
        setup_times, sample_setup = _setup_sampler(args, speed)
        speed.start()
        try:
            rounds, spans = _run_rounds(
                workloads, args, _untraced, speed.clock, args.seconds,
                between=sample_setup,
            )
            while len(setup_times) < SETUP_REPEATS:
                sample_setup(math.inf)
        finally:
            speed.stop()
        metrics, details = _end_to_end(
            workloads, args, rounds, [speed.scale(*s) for s in spans],
            setup_times, speed.scale(),
        )
        details["reference_samples"] = len(speed.durations)
        all_rounds = rounds
    else:
        import tracer as tracer_mod

        untraced, _ = _run_rounds(
            workloads, args, _untraced, seconds=args.seconds / 2.0
        )
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced, _ = _run_rounds(
                workloads, args, tracer.span, rounds=len(untraced)
            )
        finally:
            tracer.uninstall()
        metrics, details = _per_layer(workloads, tracer_mod, tracer, traced, untraced)
        all_rounds = untraced + traced

    ops = [op for ops in all_rounds for op in ops]
    failed = [op for op in ops if not op.verdict.ok]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    details["failed_ratio"] = len(failed) / len(ops)
    details["failures"] = [f"{op.kind}: {op.verdict.failures[:3]}" for op in failed[:5]]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(OUT / f"spans-{stem}.npz")
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "details": details,
                   "op_latencies_ms": [[op.kind, op.latency_s * 1e3] for op in ops],
                   "result": result}, fh, indent=2)

    print(f"environment {json.dumps(env)}")
    for key, value in details.items():
        print(f"detail {key} = {json.dumps(value)}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
