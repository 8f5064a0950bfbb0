"""End-to-end acceptance gate.

One test per numbered criterion, so a verbose pytest run shows one
pass/fail line for each.  These call the same check functions the
`nilmag verify` command uses, at full sweep sizes.
"""

import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from nilmag import (
    FrameVector,
    NilPoint,
    OscElement,
    OscVector,
    cli_reporting,
    contact_form,
    go_criterion,
    matrix_exp,
    metric,
    nil_multiply,
    orbit_grid,
    osc_multiply,
    u_tensor,
)
from nilmag.cli_reporting import (
    CheckResult,
    check_convergence,
    check_frame_gram,
    check_go_grid,
    check_group_identities,
    check_homogeneity,
    check_ode_sweep,
    check_orbit_formulas,
    check_reeb_lorentz,
    check_u_tensor,
    main,
    run_checks,
)
from nilmag.geometry import DECOMPOSITIONS

SEED = 0


def require(result):
    __tracebackhide__ = True
    print(f"{result.name}: max_error={result.max_error:.3e} tolerance={result.tolerance:.0e}")
    assert result.passed, (
        f"{result.name}: max_error={result.max_error} exceeds {result.tolerance}"
    )


@pytest.fixture(scope="module")
def ode_sweep():
    return check_ode_sweep(SEED)


def test_criterion_1_trajectories_are_group_orbits():
    require(check_homogeneity(SEED))


def test_criterion_2_geodesics_orbits_and_coordinates():
    require(check_homogeneity(SEED, q_zero=True))
    require(check_orbit_formulas(SEED))


def test_criterion_3_integrator_matches_closed_forms(ode_sweep):
    position, _, _ = ode_sweep
    require(position)
    require(check_convergence())


def test_criterion_4_conserved_quantities(ode_sweep):
    _, speed, angle = ode_sweep
    require(speed)
    require(angle)


def test_criterion_5_symmetrized_connection_table():
    require(check_u_tensor())


def test_criterion_6_pregeodesic_families():
    result = check_go_grid()
    require(result)
    assert result.max_error == 0.0


def test_criterion_7_group_identities():
    for result in check_group_identities(SEED):
        require(result)


def test_criterion_8_frame_and_rotation_identities():
    require(check_frame_gram(SEED))
    exact = check_reeb_lorentz()
    require(exact)
    assert exact.max_error == 0.0


def test_criterion_9_fault_sensitivity(capsys):
    """A 1e-3 coupling fault must break the orbit and integrator checks."""
    code = main(["verify", "--fault-j", "1e-3"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert '"pass": false' in out
    passed = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert passed["homogeneity_magnetic"] is False
    assert passed["ode_vs_closed_form"] is False


def count_calls(monkeypatch, name):
    """Record the shape of the first argument of every call of
    cli_reporting's name."""
    calls = []
    real = getattr(cli_reporting, name)

    def counting(arg, *rest):
        calls.append(np.shape(arg.e1) if isinstance(arg, OscVector) else np.shape(arg))
        return real(arg, *rest)

    monkeypatch.setattr(cli_reporting, name, counting)
    return calls


def test_group_identities_take_one_matrix_exp_per_factor(monkeypatch):
    calls = count_calls(monkeypatch, "matrix_exp")
    assert all(r.passed for r in check_group_identities(SEED))
    assert calls == [(1000, 4, 4)] * 2


def test_go_grid_takes_one_criterion_call(monkeypatch):
    calls = count_calls(monkeypatch, "go_criterion")
    assert check_go_grid().passed
    assert calls == [(625,)]


def test_wrong_generator_coefficient_fails_homogeneity(monkeypatch):
    """The orbit checks must run the library's generator: a 1% error in
    either term of its rotation coefficient has to fail them."""

    def wrong_charge(a, b, c, q, j_strength=1.0):
        return OscVector(a, b, c, c + 1.01 * q * j_strength)

    def wrong_contact(a, b, c, q, j_strength=1.0):
        return OscVector(a, b, c, 1.01 * c + q * j_strength)

    monkeypatch.setattr(cli_reporting, "homogeneous_generator", wrong_charge)
    assert not check_homogeneity(SEED).passed
    monkeypatch.setattr(cli_reporting, "homogeneous_generator", wrong_contact)
    assert not check_orbit_formulas(SEED).passed


def test_wrong_cross_sign_fails_reeb_lorentz(monkeypatch):
    """The check must compare cross on every frame pair: a sign error in
    a term that cross(E3, .) never reads has to fail it."""

    def wrong(v, w):
        return FrameVector(
            v.b * w.c - v.c * w.b,
            v.c * w.a + v.a * w.c,
            v.a * w.b - v.b * w.a,
        )

    monkeypatch.setattr(cli_reporting, "cross", wrong)
    assert not check_reeb_lorentz().passed


def test_wrong_family_name_fails_go_grid(monkeypatch):
    """The grid must compare each accepted point's family name: the rule
    with |w4 + w3| for |w4 - w3| accepts the same points and has to fail."""

    def wrong(w, decomposition):
        res = go_criterion(w, decomposition)
        rotation = np.where(w.e3 == 0, "W4*E4", "W3*E3+W4*E4")
        near = np.maximum(np.abs(w.e1), np.abs(w.e2)) <= np.abs(w.e4 + w.e3)
        family = np.where(near, rotation, "W1*E1+W2*E2+W3*(E3+E4)")
        return replace(res, family=np.where(res.is_pregeodesic, family, None))

    monkeypatch.setattr(cli_reporting, "go_criterion", wrong)
    result = check_go_grid()
    assert not result.passed
    assert result.max_error == 1.0


def test_wrong_contact_cosine_fails_the_contact_angle(monkeypatch):
    """The sweep must read the contact cosine from coord_to_frame: a 2%
    error in its twist term has to fail the conservation check."""

    def wrong(p, v):
        return FrameVector(v.dx, v.dy, v.dz + 0.51 * (v.dx * p.y - p.x * v.dy))

    monkeypatch.setattr(cli_reporting, "coord_to_frame", wrong)
    results = {r.name: r for r in check_ode_sweep(SEED)}
    assert not results["conservation_contact_angle"].passed


def test_nan_coupling_fails_the_integrator_checks():
    """A NaN coupling must fail the sweep and the convergence order, not
    vanish from their maxima."""
    results = check_ode_sweep(SEED, j_strength=math.nan)
    results.append(check_convergence(math.nan))
    assert [r.name for r in results] == [
        "ode_vs_closed_form",
        "conservation_speed",
        "conservation_contact_angle",
        "convergence_order",
    ]
    for result in results:
        assert not result.passed
        assert result.max_error == math.inf


def one_nan(values, index):
    """A float copy of values with the entry at index set to NaN."""
    out = np.array(values, dtype=float)
    out[index] = math.nan
    return out


def orbit_grid_one_nan(*args):
    # one point of one orbit
    return one_nan(orbit_grid(*args), (2, 50))


def u_tensor_one_nan(basis, x, y):
    # one pair of one decomposition: U(E1, E2) on the Heisenberg basis
    if basis is DECOMPOSITIONS["nil3"] and (x, y) == basis[:2]:
        return OscVector(math.nan, 0.0, 0.0, 0.0)
    return u_tensor(basis, x, y)


# report name -> (function replaced, its stand-in giving one NaN instance,
# check) at verify's sizes; the NaN is in instance 2 or 3
NAN_INSTANCES = {
    "bch_nil": (
        "nil_multiply",
        lambda p, q: NilPoint(*one_nan(astuple(nil_multiply(p, q)), (0, 3))),
        lambda: check_group_identities(SEED)[2],
    ),
    "frame_gram": (
        "metric",
        lambda p, v, w: one_nan(metric(p, v, w), 2),
        lambda: check_frame_gram(SEED),
    ),
    "group_factorization": (
        "matrix_exp",
        lambda m: one_nan(matrix_exp(m), 3),
        lambda: check_group_identities(SEED)[1],
    ),
    "homogeneity_geodesic": (
        "orbit_grid",
        orbit_grid_one_nan,
        lambda: check_homogeneity(SEED, q_zero=True),
    ),
    "homogeneity_magnetic": (
        "orbit_grid",
        orbit_grid_one_nan,
        lambda: check_homogeneity(SEED),
    ),
    "matrix_subgroup_product": (
        "osc_multiply",
        lambda g, h: OscElement(*one_nan(astuple(osc_multiply(g, h)), (0, 3))),
        lambda: check_group_identities(SEED)[0],
    ),
    "orbit_coordinate_formulas": (
        "orbit_grid",
        orbit_grid_one_nan,
        lambda: check_orbit_formulas(SEED),
    ),
    "reeb_lorentz_identities": (
        "contact_form",
        # the third of the check's four points
        lambda p, v: math.nan if p.x == -3.0 else contact_form(p, v),
        check_reeb_lorentz,
    ),
    "u_tensor_table": ("u_tensor", u_tensor_one_nan, check_u_tensor),
}


@pytest.mark.parametrize("result_name", list(NAN_INSTANCES))
def test_one_nan_instance_fails_its_check(monkeypatch, result_name):
    """A NaN in one instance of a check must fail it with inf, not drop
    out of the maximum."""
    name, fake, check = NAN_INSTANCES[result_name]
    monkeypatch.setattr(cli_reporting, name, fake)
    result = check()
    assert result.name == result_name
    assert not result.passed
    assert result.max_error == math.inf


@pytest.mark.parametrize("flips", [1, 3])
def test_misclassified_grid_points_fail_with_error_one(monkeypatch, flips):
    """The grid compares booleans, so no NaN reaches it: a misclassified
    point has error 1, however many there are."""

    def flipped(w, decomposition):
        res = go_criterion(w, decomposition)
        wrong = np.arange(res.is_pregeodesic.size) < flips
        return replace(res, is_pregeodesic=res.is_pregeodesic ^ wrong)

    monkeypatch.setattr(cli_reporting, "go_criterion", flipped)
    result = check_go_grid()
    assert not result.passed
    assert result.max_error == 1.0


# check function -> the names of the results it returns
CHECK_RESULTS = {
    "check_orbit_formulas": ["orbit_coordinate_formulas"],
    "check_ode_sweep": ["ode_vs_closed_form", "conservation_speed", "conservation_contact_angle"],
    "check_convergence": ["convergence_order"],
    "check_u_tensor": ["u_tensor_table"],
    "check_go_grid": ["go_grid_classification"],
    "check_group_identities": ["matrix_subgroup_product", "group_factorization", "bch_nil"],
    "check_frame_gram": ["frame_gram"],
    "check_reeb_lorentz": ["reeb_lorentz_identities"],
}


def test_run_checks_looks_up_each_check_on_the_module(monkeypatch):
    """run_checks must call the check_* attributes of cli_reporting, which
    the benchmark's tracer wraps for its per-check spans; the tracer tells
    check_homogeneity's two calls apart by q_zero, the second positional
    argument or the keyword."""
    calls = []

    def stub(fn, names):
        def check(*args, **kwargs):
            calls.append(fn)
            results = [CheckResult(name, 0.0, 0.0, True) for name in names]
            return results if len(results) > 1 else results[0]

        return check

    def homogeneity(*args, **kwargs):
        q_zero = args[1] if len(args) > 1 else kwargs.get("q_zero", False)
        calls.append(f"check_homogeneity q_zero={q_zero}")
        kind = "geodesic" if q_zero else "magnetic"
        return CheckResult(f"homogeneity_{kind}", 0.0, 0.0, True)

    for fn, names in CHECK_RESULTS.items():
        monkeypatch.setattr(cli_reporting, fn, stub(fn, names))
    monkeypatch.setattr(cli_reporting, "check_homogeneity", homogeneity)

    results = run_checks(SEED)
    names = [n for group in CHECK_RESULTS.values() for n in group]
    names += ["homogeneity_geodesic", "homogeneity_magnetic"]
    assert [r.name for r in results] == sorted(names)
    homogeneity_calls = ["check_homogeneity q_zero=False", "check_homogeneity q_zero=True"]
    assert sorted(calls) == sorted([*CHECK_RESULTS, *homogeneity_calls])
