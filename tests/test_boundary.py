"""The library boundary: one input rule for every export.

A value type reads its fields when it is built: a complex field raises
DomainError, fields that do not broadcast raise ShapeError, NaN and inf
pass, and a scalar field comes back as a Python float.  A function that
combines value types raises ShapeError when their fields do not
broadcast together.  The sweep feeds NaN, +-inf, 1e308 and a complex
value into one argument or field of each export at a time; each call
must raise DomainError or ShapeError, or return a result with no complex
field.  Non-finite output is allowed, so
numpy's overflow warnings are silenced for the call.
"""

import math
from dataclasses import fields, is_dataclass
from functools import partial
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nilmag
from nilmag import (
    CoordVector,
    DomainError,
    FrameVector,
    InitialData,
    NilPoint,
    OscElement,
    OscVector,
    ShapeError,
    StepConfig,
)
from nilmag.geometry import DECOMPOSITIONS

VALUE_TYPES = [NilPoint, OscVector, OscElement, FrameVector, CoordVector]
COMBINATORS = [
    "bracket", "nil_multiply", "osc_multiply", "osc_action", "frame_to_coord",
    "coord_to_frame", "metric", "contact_form", "cross", "connection",
]
# the exports that take no input the rule covers: the errors and the
# record go_criterion returns
NOT_SWEPT = {"DomainError", "ShapeError", "CriterionResult"}

P, V, W = (0.5, -1.0, 2.0), (0.6, 0.0, 0.8), (0.8, 0.0, 0.6, 2.5)
G = (0.5, -1.0, 2.0, 0.3)
OSC_MATRIX = tuple(nilmag.osc_to_matrix(OscElement(*G)).ravel())


def _matrix(*entries):
    """The square matrix of the row-major entries."""
    n = math.isqrt(len(entries))
    return np.reshape(entries, (n, n))


# a call is (function, arguments), an argument a number or a call: value
# types are built inside the call, so a bad field raises there
INIT = (InitialData, [(NilPoint, P), (FrameVector, V), 1.9])
CASES = {
    "NilPoint": (NilPoint, P),
    "OscVector": (OscVector, W),
    "OscElement": (OscElement, G),
    "FrameVector": (FrameVector, V),
    "CoordVector": (CoordVector, V),
    "InitialData": INIT,
    "StepConfig": (StepConfig, [1e-3, 3]),
    "integrate": (nilmag.integrate, [INIT, (StepConfig, [0.1, 3])]),
    "bracket": (nilmag.bracket, [(OscVector, W), (OscVector, G)]),
    "nil_multiply": (nilmag.nil_multiply, [(NilPoint, P), (NilPoint, V)]),
    "osc_multiply": (nilmag.osc_multiply, [(OscElement, G), (OscElement, W)]),
    "osc_action": (nilmag.osc_action, [(OscElement, G), (NilPoint, P)]),
    "exp_nil": (nilmag.exp_nil, [(OscVector, V + (0.0,))]),
    "osc_to_matrix": (nilmag.osc_to_matrix, [(OscElement, G)]),
    "algebra_matrix": (nilmag.algebra_matrix, [(OscVector, W)]),
    "matrix_exp": (nilmag.matrix_exp, [(_matrix, (0.1, 0.2, -0.3, 0.4))]),
    "matrix_to_osc": (nilmag.matrix_to_osc, [(_matrix, OSC_MATRIX), 0.3]),
    "frame_to_coord": (nilmag.frame_to_coord, [(NilPoint, P), (FrameVector, V)]),
    "coord_to_frame": (nilmag.coord_to_frame, [(NilPoint, P), (CoordVector, V)]),
    "metric": (nilmag.metric, [(NilPoint, P), (CoordVector, V), (CoordVector, P)]),
    "contact_form": (nilmag.contact_form, [(NilPoint, P), (CoordVector, V)]),
    "lorentz": (nilmag.lorentz, [(FrameVector, V)]),
    "cross": (nilmag.cross, [(FrameVector, V), (FrameVector, P)]),
    "connection": (nilmag.connection, [(FrameVector, V), (FrameVector, P)]),
    "curve_acceleration": (nilmag.curve_acceleration, P + V + (0.1, -0.2)),
    "u_tensor": (
        partial(nilmag.u_tensor, DECOMPOSITIONS["nil3"]),
        [(OscVector, V + (0.0,)), (OscVector, P + (0.0,))],
    ),
    "go_criterion": (nilmag.go_criterion, [(OscVector, W)]),
    "magnetic_point": (nilmag.magnetic_point, V + (1.9, 2.0)),
    "magnetic_grid": (nilmag.magnetic_grid, V + (1.9, 2.0)),
    "magnetic_velocity": (nilmag.magnetic_velocity, V + (1.9, 2.0)),
    "magnetic_point_from": (nilmag.magnetic_point_from, [(NilPoint, P), *V, 1.9, 2.0]),
    "homogeneous_generator": (nilmag.homogeneous_generator, V + (1.9, 0.5)),
    "orbit_grid": (nilmag.orbit_grid, [(OscVector, W), 3.0, 2]),
}

BAD = [math.nan, math.inf, -math.inf, 1e308, 0.5 + 1j]


def _leaves(call):
    """The numbers of a call, in order."""
    if isinstance(call, tuple):
        return [x for arg in call[1] for x in _leaves(arg)]
    return [call]


def _run(call, leaves):
    """Make the call, taking its numbers in order from the iterator leaves."""
    if isinstance(call, tuple):
        fn, args = call
        return fn(*[_run(arg, leaves) for arg in args])
    return next(leaves)


def _fields(value):
    """Every field of a result, nested value types unpacked."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _fields(getattr(value, f.name))
    else:
        yield value


def test_the_sweep_covers_every_export():
    public = {k: v for k, v in vars(nilmag).items() if not k.startswith("_")}
    exports = {k for k, v in public.items() if not isinstance(v, ModuleType)}
    assert exports == set(CASES) | NOT_SWEPT


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_leaves_give_real_output(name):
    out = _run(CASES[name], iter(_leaves(CASES[name])))
    assert not any(np.iscomplexobj(v) for v in _fields(out))


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_bad_leaf_raises_a_library_error_or_gives_real_output(name):
    leaves = _leaves(CASES[name])

    # the space is small and finite: hypothesis exhausts it and stops
    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.sampled_from(range(len(leaves))), st.sampled_from(BAD))
    def one_bad_leaf(k, bad):
        try:
            with np.errstate(all="ignore"):
                out = _run(CASES[name], iter(leaves[:k] + [bad] + leaves[k + 1:]))
        except (DomainError, ShapeError):
            return
        assert not any(np.iscomplexobj(v) for v in _fields(out)), (k, bad, out)

    one_bad_leaf()


@pytest.mark.parametrize("name", COMBINATORS)
def test_values_that_do_not_broadcast_together_raise_shape_error(name):
    # each value is valid alone: the first has fields of length 2, the
    # others of length 3; numpy's bare ValueError used to escape
    fn, args = CASES[name]
    values = [
        cls(*np.multiply.outer(fields, np.ones(n))) for (cls, fields), n in zip(args, (2, 3, 3))
    ]
    with pytest.raises(ShapeError, match="broadcast"):
        fn(*values)


class TestValueTypes:
    @pytest.mark.parametrize("cls", VALUE_TYPES)
    def test_a_complex_field_raises_domain_error(self, cls):
        n = len(fields(cls))
        for k in range(n):
            with pytest.raises(DomainError, match="complex"):
                cls(*(0.5 + 1j if i == k else 0.0 for i in range(n)))

    @pytest.mark.parametrize("cls", VALUE_TYPES)
    def test_fields_that_do_not_broadcast_raise_shape_error(self, cls):
        with pytest.raises(ShapeError, match="broadcast"):
            cls(np.zeros(2), np.zeros(3), *[0.0] * (len(fields(cls)) - 2))

    @pytest.mark.parametrize("cls", VALUE_TYPES)
    def test_a_ragged_field_raises_shape_error(self, cls):
        with pytest.raises(ShapeError, match="ragged"):
            cls([[1.0, 2.0], [3.0]], *[0.0] * (len(fields(cls)) - 1))

    @pytest.mark.parametrize("cls", VALUE_TYPES)
    def test_a_non_numeric_field_raises_domain_error(self, cls):
        with pytest.raises(DomainError, match="numeric"):
            cls(None, *[0.0] * (len(fields(cls)) - 1))

    @pytest.mark.parametrize("cls", VALUE_TYPES)
    def test_non_finite_fields_are_kept(self, cls):
        values = [math.nan, math.inf, -math.inf, 1e308][: len(fields(cls))]
        got = [getattr(cls(*values), f.name) for f in fields(cls)]
        assert np.array_equal(got, values, equal_nan=True)

    @pytest.mark.parametrize("cls", VALUE_TYPES)
    def test_scalar_fields_come_back_as_floats(self, cls):
        # numpy scalars, 0-d arrays, ints and bools alike
        values = [np.float64(0.8), np.array(0.5), 2, True][: len(fields(cls))]
        got = [getattr(cls(*values), f.name) for f in fields(cls)]
        assert [type(v) for v in got] == [float] * len(got)
        assert got == [float(v) for v in values]

    @pytest.mark.parametrize("cls", VALUE_TYPES)
    def test_array_fields_keep_their_layout(self, cls):
        # a strided float view is read without a copy
        view = np.zeros((4, 6))[:, ::2]
        got = cls(view, *[0.0] * (len(fields(cls)) - 1))
        assert getattr(got, fields(cls)[0].name) is view


class TestComputedOnTheReadInput:
    """A function computes on the arrays its input rule returns, so a
    float32 or a list gives the bits of the same numbers as float64."""

    Q32 = np.float32(0.3)  # its float64 value is 0.30000001192092896

    def test_a_float32_charge_gives_the_float64_generator(self):
        got = nilmag.homogeneous_generator(*V, self.Q32)
        assert got == nilmag.homogeneous_generator(*V, float(self.Q32))
        assert got.e4 == 1.100000011920929

    def test_a_float32_charge_gives_the_float64_velocity(self):
        got = nilmag.magnetic_velocity(*V, self.Q32, 2.0)
        assert got == nilmag.magnetic_velocity(*V, float(self.Q32), 2.0)

    def test_a_float32_charge_integrates_in_float64(self):
        def states(q):
            init = InitialData(NilPoint(*P), FrameVector(*V), q)
            return nilmag.integrate(init, StepConfig(1e-3, 100))

        init = InitialData(NilPoint(*P), FrameVector(*V), np.float32(0.5))
        assert type(init.q) is float
        got = states(np.float32(0.5))
        assert got.dtype == np.float64
        assert np.array_equal(got, states(0.5))

    def test_lists_give_the_velocity_of_arrays(self):
        got = nilmag.magnetic_velocity([0.6], [0.0], [0.8], 0.5, 1.0)
        want = nilmag.magnetic_velocity(*np.array([[0.6], [0.0], [0.8]]), 0.5, 1.0)
        assert all(np.array_equal(g, w) for g, w in zip(_fields(got), _fields(want)))

    TWO_STARTS = ([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "start, velocity, q",
        [
            (P, V, [0.5]),
            (P, V, np.array([0.5, 0.6])),
            # these three were built, and integrate then raised numpy's bare
            # ValueError or returned an (n + 1, 6, 2) array
            (([0.0], 0.0, 0.0), V, 0.5),
            (TWO_STARTS, V, 0.5),
            (TWO_STARTS, ([0.6, 0.0], [0.0, 0.6], [0.8, 0.8]), [0.5, 0.6]),
        ],
        ids=["q1", "q2", "x1", "p2", "all2"],
    )
    def test_an_array_field_raises_shape_error(self, start, velocity, q):
        # InitialData is one trajectory; batch_step steps many
        with pytest.raises(ShapeError, match="one number per field"):
            InitialData(NilPoint(*start), FrameVector(*velocity), q)
