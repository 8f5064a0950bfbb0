"""Magnetic geodesics on the Heisenberg group and their realization as
one-parameter orbits of the isometry group."""

from .errors import DomainError, ShapeError
from .geometry import (
    CoordVector,
    CriterionResult,
    FrameVector,
    connection,
    contact_form,
    coord_to_frame,
    cross,
    curve_acceleration,
    frame_to_coord,
    go_criterion,
    lorentz,
    metric,
    u_tensor,
)
from .integrator import InitialData, StepConfig, integrate
from .lie_core import (
    NilPoint,
    OscElement,
    OscVector,
    algebra_matrix,
    bracket,
    exp_nil,
    matrix_exp,
    matrix_to_osc,
    nil_multiply,
    osc_action,
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

__version__ = "0.1.0"
