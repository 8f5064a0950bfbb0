"""End-to-end acceptance gate.

One test per numbered criterion, so a verbose pytest run shows one
pass/fail line for each.  These call the same check functions the
`nilmag verify` command uses, at full sweep sizes.
"""

import math

import pytest

from nilmag import FrameVector, OscElement, OscVector, cli_reporting
from nilmag.cli_reporting import (
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
)

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
    faulted = check_homogeneity(SEED, n=50, j_strength=1.001)
    assert not faulted.passed

    position, _, _ = check_ode_sweep(SEED, n=20, j_strength=1.001)
    assert not position.passed

    code = main(["verify", "--fault-j", "1e-3"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert '"pass": false' in out


def test_wrong_generator_coefficient_fails_homogeneity(monkeypatch):
    """The orbit checks must run the library's generator: a 1% error in
    either term of its rotation coefficient has to fail them."""

    def wrong_charge(a, b, c, q, j_strength=1.0):
        return OscVector(a, b, c, c + 1.01 * q * j_strength)

    def wrong_contact(a, b, c, q, j_strength=1.0):
        return OscVector(a, b, c, 1.01 * c + q * j_strength)

    monkeypatch.setattr(cli_reporting, "homogeneous_generator", wrong_charge)
    assert not check_homogeneity(SEED, n=50).passed
    monkeypatch.setattr(cli_reporting, "homogeneous_generator", wrong_contact)
    assert not check_orbit_formulas(SEED, n=50).passed


def test_wrong_contact_cosine_fails_the_contact_angle(monkeypatch):
    """The sweep must read the contact cosine from coord_to_frame: a 2%
    error in its twist term has to fail the conservation check."""

    def wrong(p, v):
        return FrameVector(v.dx, v.dy, v.dz + 0.51 * (v.dx * p.y - p.x * v.dy))

    monkeypatch.setattr(cli_reporting, "coord_to_frame", wrong)
    results = {r.name: r for r in check_ode_sweep(SEED, n=20)}
    assert not results["conservation_contact_angle"].passed


def test_nan_coupling_fails_the_integrator_checks():
    """A NaN coupling must fail the sweep and the convergence order, not
    vanish from their maxima."""
    results = check_ode_sweep(SEED, n=20, j_strength=math.nan)
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


# function replaced by one returning NaN -> (check, name of its failing result)
NAN_FAULTS = {
    "metric": (
        lambda *args: math.nan,
        lambda: check_frame_gram(SEED, n=5),
        "frame_gram",
    ),
    "osc_multiply": (
        lambda *args: OscElement(math.nan, 0.0, 0.0, 0.0),
        lambda: check_group_identities(SEED, n=5)[0],
        "matrix_subgroup_product",
    ),
    "u_tensor": (
        lambda *args: OscVector(math.nan, 0.0, 0.0, 0.0),
        check_u_tensor,
        "u_tensor_table",
    ),
    "contact_form": (
        lambda *args: math.nan,
        check_reeb_lorentz,
        "reeb_lorentz_identities",
    ),
}


@pytest.mark.parametrize("name", list(NAN_FAULTS))
def test_nan_in_a_scalar_loop_check_fails_it(monkeypatch, name):
    """A NaN from the function under test must fail its check with inf,
    not drop out of the maximum."""
    fake, check, result_name = NAN_FAULTS[name]
    monkeypatch.setattr(cli_reporting, name, fake)
    result = check()
    assert result.name == result_name
    assert not result.passed
    assert result.max_error == math.inf
