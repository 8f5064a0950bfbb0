import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nilmag import (
    DomainError,
    FrameVector,
    InitialData,
    NilPoint,
    OscVector,
    StepConfig,
    cli_reporting,
    orbit_grid,
)
from nilmag.cli_reporting import (
    _EMIT_FIELDS,
    _ORBIT_FIELDS,
    _build_parser,
    _emit_rows,
    _join_negative_values,
    _result,
    _serialise,
    _validate,
    main,
    report_json,
)
from nilmag.integrator import rk4_states

CHECK_NAMES = [
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
]

# a row count whose arrays (about 80 TB) are far beyond any RAM, so the
# allocation is refused at once; a count whose arrays could be allocated
# would fill the memory instead
TOO_MANY_STEPS = str(10**13)

GOLDEN = Path(__file__).parent / "golden"

# the README's emit, orbit and criterion command lines, pinned byte for byte
GOLDEN_RUNS = {
    "emit_closed": ("emit", "--a", "0.8", "--b", "0", "--c", "0.6", "--q", "1.9",
                    "--s-max", "10", "--steps", "100"),
    "emit_rk4": ("emit", "--a", "1", "--b", "0", "--c", "0", "--q", "1",
                 "--source", "rk4", "--h", "1e-3"),
    # q = -c: a straight line, u = 0 on the whole grid (K3's Taylor branch)
    "emit_line": ("emit", "--a", "0.6", "--b", "0", "--c", "0.8", "--q", "-0.8",
                  "--s-max", "5", "--steps", "50"),
    "orbit": ("orbit", "--w1", "1", "--w2", "0", "--w3", "1", "--w4", "1",
              "--s-max", "6.28", "--steps", "50"),
    # ds W has 1-norm 1.56: each step exponential squares twice (s = 2)
    "orbit_squared": ("orbit", "--w1", "0.3", "--w2", "-0.7", "--w3", "0.5", "--w4", "1.9",
                      "--s-max", "60", "--steps", "100"),
    "criterion": ("criterion", "--w1", "0", "--w2", "0", "--w3", "1", "--w4", "1"),
    "criterion_m": ("criterion", "--w1", "1", "--w2", "0", "--w3", "1", "--w4", "0",
                    "--decomposition", "m"),
}


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestEmit:
    def test_default_vertical_line(self, capsys):
        code, out, _ = run_cli(capsys, "emit", "--steps", "5", "--s-max", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s", "x", "y", "z", "vx", "vy", "vz", "cos_theta", "speed"]
        assert len(rows) == 6
        for row in rows:
            s, x, y, z, vx, vy, vz, ct, speed = row
            assert (x, y) == (0.0, 0.0)
            assert z == s
            assert (vx, vy, vz) == (0.0, 0.0, 1.0)
            assert ct == 1.0 and speed == 1.0

    def test_single_interval_gives_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "emit", "--steps", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert rows[0][0] == 0.0
        assert rows[1][0] == 10.0

    def test_horizontal_start_stays_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, "emit", "--a", "0.6", "--b", "0.8", "--c", "0", "--steps", "10"
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert row[3] == 0.0
            assert row[7] == 0.0
            assert abs(row[8] - 1.0) <= 1e-15

    def test_output_is_deterministic(self, capsys):
        args = ("emit", "--a", "0.8", "--c", "0.6", "--q", "1.9", "--steps", "40")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_survives_reparse(self, capsys):
        """repr formatting must round-trip, so reading and rewriting changes nothing."""
        _, out, _ = run_cli(
            capsys, "emit", "--a", "0.8", "--c", "0.6", "--q", "-0.3", "--steps", "25"
        )
        header, rows = parse_csv(out)
        rebuilt = "\n".join(
            [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
        ) + "\n"
        assert rebuilt == out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "emit", "--steps", "3", "--format", "json", "--s-max", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["samples"]
        assert len(data["samples"]) == 4
        for sample in data["samples"]:
            assert list(sample) == ["s", "x", "y", "z", "vx", "vy", "vz", "cos_theta", "speed"]
        assert data["samples"][3]["z"] == 1.0

    def test_rk4_source_matches_closed(self, capsys):
        common = ("--a", "1", "--b", "0", "--c", "0", "--q", "1", "--s-max", "5", "--steps", "20")
        _, closed, _ = run_cli(capsys, "emit", *common)
        _, numeric, _ = run_cli(capsys, "emit", *common, "--source", "rk4")
        _, crows = parse_csv(closed)
        _, nrows = parse_csv(numeric)
        assert len(crows) == len(nrows)
        for cr, nr in zip(crows, nrows):
            assert abs(cr[0] - nr[0]) <= 1e-12
            for j in range(1, 9):
                assert abs(cr[j] - nr[j]) <= 1e-6

    @pytest.mark.parametrize("h, per", [(0.05, 1), (0.01, 5), (0.003, 17)])
    def test_rk4_rows_are_the_generator_states(self, h, per):
        args = _build_parser().parse_args(
            ["emit", "--a", "0.8", "--c", "0.6", "--q", "1.9", "--x0", "0.3",
             "--y0", "-1.1", "--z0", "2", "--s-max", "2", "--steps", "40",
             "--h", repr(h), "--source", "rk4"]
        )
        _validate(args)
        rows = _emit_rows(args)
        h_eff = 2.0 / (40 * per)
        init = InitialData(
            NilPoint(0.3, -1.1, 2.0), FrameVector(args.a, args.b, args.c), 1.9
        )
        states = list(rk4_states(init, StepConfig(h_eff, 40 * per)))
        assert rows.shape == (41, 9)
        for k, row in enumerate(rows):
            assert row[0] == k * per * h_eff
            assert tuple(row[1:7]) == states[k * per]

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "line.csv"
        code, out, _ = run_cli(capsys, "emit", "--steps", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert header[0] == "s"
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "command", [("emit",), ("orbit", "--w1", "1", "--w2", "0", "--w3", "1", "--w4", "1")]
    )
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, command):
        target = tmp_path / "missing" / "line.csv"
        code, out, err = run_cli(capsys, *command, "--steps", "2", "--out", str(target))
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert not target.exists()

    def test_rejects_non_unit_velocity(self, capsys):
        code, out, err = run_cli(capsys, "emit", "--a", "1", "--c", "1")
        assert code == 2
        assert out == ""
        assert "norm" in err

    @pytest.mark.parametrize("flag", ["--a", "--b", "--c"])
    def test_rejects_velocity_whose_square_overflows(self, capsys, flag):
        # 1e200 passes the finite-flag check, but its square overflows
        code, out, err = run_cli(capsys, "emit", "--a", "0", "--b", "0", "--c", "0", flag, "1e200")
        assert code == 2
        assert out == "" and err.startswith("error:") and "velocity" in err

    def test_normalizes_near_unit_velocity(self, capsys):
        code, out, _ = run_cli(
            capsys, "emit", "--a", "1.0000005", "--c", "0", "--steps", "1", "--s-max", "1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(rows[0][4] - 1.0) <= 1e-12
        assert abs(rows[1][8] - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "flags",
        [
            ("--steps", "0"),
            ("--s-max", "0"),
            ("--s-max", "-2"),
            ("--h", "0"),
            ("--a", "nan"),
            ("--q", "nan"),
            ("--x0", "nan"),
            ("--s-max", "inf"),
            ("--s-max", "1e308"),
            ("--s-max", "1e308", "--source", "rk4"),
        ],
    )
    def test_rejects_bad_grid(self, capsys, flags):
        code, _, err = run_cli(capsys, "emit", *flags)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("source", ["closed", "rk4"])
    def test_refuses_a_grid_too_large_to_allocate(self, capsys, monkeypatch, source):
        def no_stepping(*args):
            raise AssertionError("RK4 ran before the grid was allocated")

        monkeypatch.setattr(cli_reporting, "rk4_states", no_stepping)
        code, out, err = run_cli(
            capsys, "emit", "--steps", TOO_MANY_STEPS, "--source", source
        )
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("s_max", ["1e20", "1e300"])
    def test_refuses_rk4_steps_per_row_past_int64(self, capsys, monkeypatch, s_max):
        # 1e20 / 1e-3 = 1e23 RK4 steps per row; islice takes no stride that large
        def no_stepping(*args):
            raise AssertionError("RK4 ran for a step count that was to be refused")

        monkeypatch.setattr(cli_reporting, "rk4_states", no_stepping)
        code, out, err = run_cli(
            capsys, "emit", "--source", "rk4", "--s-max", s_max, "--steps", "1", "--h", "1e-3"
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and "2**63" in err


def criterion_row(text):
    """The one row of criterion's CSV, keyed by its header."""
    (row,) = csv.DictReader(io.StringIO(text))
    return row


class TestCriterion:
    @staticmethod
    def w_args(w1, w2, w3, w4):
        return ("--w1", str(w1), "--w2", str(w2), "--w3", str(w3), "--w4", str(w4))

    def test_vertical_generator(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", *self.w_args(0, 0, 1, 1))
        assert code == 0
        assert out == "is_pregeodesic,k,family\ntrue,0.0,W3*E3+W4*E4\n"

    def test_rotation_axis(self, capsys):
        _, out, _ = run_cli(capsys, "criterion", *self.w_args(0, 0, 0, 1))
        assert criterion_row(out) == {"is_pregeodesic": "true", "k": "0.0", "family": "W4*E4"}

    def test_generic_direction(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", *self.w_args(1, 0, 1, 0))
        assert code == 0
        assert out == "is_pregeodesic,k,family\nfalse,,\n"

    def test_csv_writes_k_by_repr(self, capsys):
        w = (0.3, -0.7, 0.1, 0.1)
        want = cli_reporting.go_criterion(OscVector(*w))
        assert want.is_pregeodesic
        _, out, _ = run_cli(capsys, "criterion", *self.w_args(*map(repr, w)))
        assert criterion_row(out)["k"] == repr(want.k)

    def test_json_output(self, capsys):
        _, out, _ = run_cli(
            capsys, "criterion", *self.w_args(1, 0, 0, 0), "--format", "json"
        )
        data = json.loads(out)
        assert data == {
            "is_pregeodesic": True,
            "k": 0.0,
            "family": "W1*E1+W2*E2+W3*(E3+E4)",
        }

    def test_m_decomposition_flag(self, capsys):
        _, out, _ = run_cli(
            capsys, "criterion", *self.w_args(1, 0, 1, 1), "--decomposition", "m"
        )
        assert criterion_row(out)["is_pregeodesic"] == "true"

    @pytest.mark.parametrize("w1", [1959, 1e5])
    def test_m_decomposition_large_component(self, capsys, w1):
        code, out, _ = run_cli(
            capsys, "criterion", *self.w_args(w1, 0, 1, 1), "--decomposition", "m"
        )
        assert code == 0
        assert out == "is_pregeodesic,k,family\ntrue,0.0,W1*E1+W2*E2+W3*(E3+E4)\n"

    @pytest.mark.parametrize("w", [(1e11, 0, 1, 3), (1e-6, 0, 1e-6, 0)])
    @pytest.mark.parametrize("decomposition", ["nil3", "m"])
    def test_pregeodesic_always_names_its_family(self, capsys, w, decomposition):
        code, out, _ = run_cli(
            capsys, "criterion", *self.w_args(*w), "--decomposition", decomposition
        )
        assert code == 0
        row = criterion_row(out)
        assert (row["is_pregeodesic"] == "true") == (row["family"] != "")

    def test_missing_component_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["criterion", "--w1", "1", "--w2", "0", "--w3", "0"])
        assert exc.value.code == 2

    def test_rejects_nan(self, capsys):
        code, _, err = run_cli(capsys, "criterion", *self.w_args("nan", 0, 1, 1))
        assert code == 2
        assert "finite" in err

    def test_rejects_overflowing_squared_norm(self, capsys):
        # 1e200 passes the finite-flag check, but its square overflows
        code, _, err = run_cli(capsys, "criterion", *self.w_args("1e200", 0, 1, 3))
        assert code == 2
        assert err.startswith("error:") and "finite" in err


class TestOrbit:
    def test_header_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "orbit",
            "--w1", "1", "--w2", "0", "--w3", "1", "--w4", "1",
            "--steps", "4", "--s-max", "2",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s", "x", "y", "z"]
        assert len(rows) == 5
        w = OscVector(1.0, 0.0, 1.0, 1.0)
        for i, row in enumerate(rows):
            s = 2.0 * i / 4
            x, y, z = orbit_grid(w, s, 1)[-1]
            assert row[0] == s
            assert abs(row[1] - x) <= 1e-12
            assert abs(row[2] - y) <= 1e-12
            assert abs(row[3] - z) <= 1e-12

    @pytest.mark.parametrize(
        "flags",
        [
            ("--w1", "1e308", "--w2", "0", "--w3", "1", "--w4", "1", "--steps", "3"),
            ("--w1", "1", "--w2", "0", "--w3", "1", "--w4", "1",
             "--s-max", "1e308", "--steps", "1"),
        ],
    )
    def test_rejects_overflowing_generator(self, capsys, flags):
        # the step generator s_max / steps * W has an infinite entry
        code, out, err = run_cli(capsys, "orbit", *flags)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_refuses_a_grid_too_large_to_allocate(self, capsys):
        code, out, err = run_cli(
            capsys,
            "orbit",
            "--w1", "1", "--w2", "0", "--w3", "1", "--w4", "1",
            "--steps", TOO_MANY_STEPS,
        )
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_json_output(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "orbit",
            "--w1", "0", "--w2", "0", "--w3", "1", "--w4", "0",
            "--steps", "2", "--s-max", "1", "--format", "json",
        )
        data = json.loads(out)
        assert [sample["z"] for sample in data["samples"]] == [0.0, 0.5, 1.0]


@pytest.mark.parametrize(
    "command",
    [("emit",), ("emit", "--source", "rk4"),
     ("orbit", "--w1", "1", "--w2", "0", "--w3", "1", "--w4", "1")],
    ids=["closed", "rk4", "orbit"],
)
# past int64, and 2**60 rows of 8-byte floats (2**63 bytes): numpy cannot
# size either array, where TOO_MANY_STEPS only cannot be allocated
@pytest.mark.parametrize("steps", [str(10**20), str(2**60)])
def test_refuses_a_step_count_numpy_cannot_size(capsys, command, steps):
    code, out, err = run_cli(capsys, *command, "--steps", steps)
    assert code == 2
    assert out == "" and err.startswith("error:")


# doubles whose repr takes each of its forms: signed zero, subnormal,
# exponent notation on both sides, the largest finite magnitudes
EDGE_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, 1e22, 1.7976931348623157e308, -1.7976931348623157e308]


def reference_text(fields, rows, fmt):
    """The emit/orbit text as the json module and a repr join write it."""
    rows = rows.tolist()
    if fmt == "json":
        return json.dumps({"samples": [dict(zip(fields, r)) for r in rows]}, indent=2) + "\n"
    return "\n".join([",".join(fields)] + [",".join(map(repr, r)) for r in rows]) + "\n"


class TestSerialise:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, 2, 10001])
    @pytest.mark.parametrize("fields", [_EMIT_FIELDS, _ORBIT_FIELDS], ids=["emit", "orbit"])
    def test_matches_reference_writer(self, fields, n, fmt):
        rng = np.random.default_rng([n, len(fields)])
        rows = rng.normal(size=(n, len(fields))) * 10.0 ** rng.integers(-300, 300, (n, len(fields)))
        rows.flat[: len(EDGE_FLOATS)] = EDGE_FLOATS[: rows.size]
        assert _serialise(fields, rows, fmt) == reference_text(fields, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edge_rows_match_reference_writer(self, fmt):
        rows = np.repeat(np.array(EDGE_FLOATS)[:, None], len(_EMIT_FIELDS), axis=1)
        assert _serialise(_EMIT_FIELDS, rows, fmt) == reference_text(_EMIT_FIELDS, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rows(self, bad, fmt):
        rows = np.ones((3, len(_ORBIT_FIELDS)))
        rows[1, 2] = bad
        with pytest.raises(DomainError):
            _serialise(_ORBIT_FIELDS, rows, fmt)


def seeded_command(seed, source):
    """An emit (closed or rk4) or orbit command line with 200 intervals
    and arguments drawn from the seed."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    q, x0, y0, z0 = rng.uniform(-2.0, 2.0, 4)
    w = rng.uniform(-2.0, 2.0, 4)
    s_max = rng.uniform(1.0, 10.0)
    if source == "orbit":
        names, values = ("w1", "w2", "w3", "w4"), w
    else:
        names, values = ("a", "b", "c", "q", "x0", "y0", "z0"), (*v, q, x0, y0, z0)
    flags = [f for name, value in zip(names, values) for f in (f"--{name}", repr(float(value)))]
    command = ["orbit" if source == "orbit" else "emit", *flags, "--s-max", repr(s_max)]
    if source == "rk4":
        command += ["--source", "rk4", "--h", "1e-2"]
    return command + ["--steps", "200"]


class TestCrossFormat:
    """The CSV and JSON texts of one command hold the same doubles, and the
    JSON is what json.dumps(indent=2) writes for them."""

    @pytest.mark.parametrize("source", ["closed", "rk4", "orbit"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_json_values_equal_csv_rows(self, capsys, seed, source):
        command = seeded_command(seed, source)
        code, csv_text, _ = run_cli(capsys, *command, "--format", "csv")
        assert code == 0
        code, json_text, _ = run_cli(capsys, *command, "--format", "json")
        assert code == 0
        header, rows = parse_csv(csv_text)
        samples = json.loads(json_text)["samples"]
        assert [list(sample) for sample in samples] == [header] * len(rows)
        assert [list(sample.values()) for sample in samples] == rows
        assert len(rows) == 201
        assert json_text == json.dumps(json.loads(json_text), indent=2) + "\n"


@pytest.fixture(scope="module")
def verify_seed7():
    """Exit code and stdout of one `nilmag verify --seed 7`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--seed", "7"])
    return code, out.getvalue()


class TestVerify:
    def test_suite_passes_and_reports(self, verify_seed7):
        code, out = verify_seed7
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert [c["name"] for c in data["checks"]] == CHECK_NAMES
        for check in data["checks"]:
            assert set(check) == {"name", "max_error", "tolerance", "pass"}
            assert check["pass"] is True
            assert check["max_error"] <= check["tolerance"]

    def test_non_finite_error_is_strict_json_null(self):
        text = report_json([_result("x", math.nan, 0.0)])

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        data = json.loads(text, parse_constant=reject)
        assert data["checks"][0]["max_error"] is None
        assert data["pass"] is False

    def test_fault_j_accepts_nan(self):
        args = _build_parser().parse_args(["verify", "--fault-j", "nan"])
        _validate(args)
        assert math.isnan(args.fault_j)

    def test_overflowing_fault_writes_no_warning(self, capsys, monkeypatch):
        # verify runs under main's errstate like every command: an
        # overflowing coupling fails its check and writes nothing to stderr
        def overflowing_checks(seed, j_strength):
            return [_result("homogeneity_magnetic", np.array([2.0]) * j_strength, 1e-9)]

        monkeypatch.setattr(cli_reporting, "run_checks", overflowing_checks)
        code, out, err = run_cli(capsys, "verify", "--fault-j", "1e308")
        assert code == 1 and json.loads(out)["pass"] is False
        assert err == ""

    def test_rejects_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert out == "" and err.startswith("error:") and "seed" in err


# every float flag of each command, after the flags the command requires
FLOAT_FLAGS = [
    *(("emit", flag) for flag in ("a", "b", "c", "q", "x0", "y0", "z0", "h", "s-max")),
    *(("orbit", flag) for flag in ("w1", "w2", "w3", "w4", "s-max")),
    *(("criterion", flag) for flag in ("w1", "w2", "w3", "w4")),
    ("verify", "fault-j"),
]
REQUIRED = {"orbit": ("--w1", "1", "--w2", "0", "--w3", "1", "--w4", "1")}
REQUIRED["criterion"] = REQUIRED["orbit"]


class TestNegativeFloatValues:
    """A negative value in exponent notation, or -inf, is read as the
    flag's value and not as an unknown option."""

    @pytest.mark.parametrize("text", ["-8e-1", "-1e-05", "-inf"])
    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
    def test_every_float_flag_takes_the_value(self, command, flag, text):
        argv = [command, *REQUIRED.get(command, ()), f"--{flag}", text]
        args = _build_parser().parse_args(_join_negative_values(argv))
        assert getattr(args, flag.replace("-", "_")) == float(text)

    def test_help_is_never_joined(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--help", "-1"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nilmag emit")

    def test_abbreviated_flag_takes_the_value(self, capsys):
        # --s-m is argparse's prefix of --s-max, so the value reaches _validate
        code, out, err = run_cli(capsys, "emit", "--s-m", "-1e0")
        assert (code, out, err) == (2, "", "error: s-max must be positive\n")

    def test_int_flag_checks_the_joined_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--steps", "-1e3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid int value: '-1e3'" in err

    def test_only_numbers_after_long_flags_are_joined(self):
        argv = ["emit", "--q", "-x", "--q=-1", "-2e0", "-h", "-1e0", "--", "-3e0", "--a", "-4e0"]
        assert _join_negative_values(argv) == [*argv[:9], "--a=-4e0"]

    def test_emit_writes_the_bytes_of_the_joined_form(self, capsys):
        flags = ("emit", "--a", "0.6", "--b", "0", "--c", "0.8", "--steps", "20")
        code, spaced, _ = run_cli(capsys, *flags, "--q", "-8e-1")
        assert code == 0
        assert run_cli(capsys, *flags, "--q=-8e-1") == (0, spaced, "")

    def test_orbit_takes_a_repr_value(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--w1", repr(-1e-05), "--w2", "0",
                               "--w3", "1", "--w4", "1")
        assert code == 0 and out.startswith("s,x,y,z\n")

    def test_verify_runs_with_the_fault(self, capsys, monkeypatch):
        # the suite itself is test_criterion_9_fault_sensitivity's; here
        # only the value reaching it and the exit code of a failed check
        runs = []

        def failing_checks(seed, j_strength):
            runs.append((seed, j_strength))
            return [_result("homogeneity_magnetic", 1.0, 1e-9)]

        monkeypatch.setattr(cli_reporting, "run_checks", failing_checks)
        code, out, _ = run_cli(capsys, "verify", "--fault-j", "-1e-3")
        assert (code, runs) == (1, [(0, 1.0 - 1e-3)])
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize(
        "command, flag", [("emit", "q"), ("orbit", "w1"), ("criterion", "w4")]
    )
    def test_minus_infinity_is_refused_by_validation(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, *REQUIRED.get(command, ()), f"--{flag}", "-inf")
        assert code == 2
        assert out == "" and err == f"error: --{flag} must be finite\n"

    def test_other_option_like_values_still_fail(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--q", "-x"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestGolden:
    """Output bytes against the files in tests/golden.

    The files hold the bytes for the numpy build and CPU they were
    written on: numpy picks its sin, cos and pow loops by build and CPU,
    so on another machine the last bits may differ (README, Determinism).
    A regeneration changes the output, and CHANGES.md records it with the
    old and new values.
    """

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_command_output(self, capsys, name, fmt):
        code, out, _ = run_cli(capsys, *GOLDEN_RUNS[name], "--format", fmt)
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()

    def test_verify_report(self, verify_seed7):
        _, out = verify_seed7
        assert out.encode() == (GOLDEN / "verify_seed7.json").read_bytes()


class TestInvocation:
    def test_module_entry(self):
        # the child imports nilmag from the same src directory as this test
        src = str(Path(cli_reporting.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nilmag.cli_reporting", "emit", "--steps", "1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("s,x,y,z,")

    def test_console_script(self):
        if shutil.which("nilmag") is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            ["nilmag", "criterion", "--w1", "0", "--w2", "0", "--w3", "0", "--w4", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert criterion_row(proc.stdout)["family"] == "W4*E4"

    def test_console_script_declaration(self, capsys):
        # what an install would put on PATH as `nilmag`, run in process
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["nilmag"]
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        code = entry(["criterion", "--w1", "0", "--w2", "0", "--w3", "0", "--w4", "2"])
        assert code == 0
        assert criterion_row(capsys.readouterr().out)["family"] == "W4*E4"
