"""Numerical laboratory for expansivity, shadowing and entropy of flows."""

from .spaces import (
    CircleUnion,
    FiniteSet,
    Interval01,
    Point,
    SingularSet,
    Space,
    Torus2,
    exp_radii,
    harmonic_radii,
    space_from_config,
)
from .flows import (
    FlowModel,
    OrbitSample,
    field_norm,
    flow_from_config,
    integrate_flow,
    interval_flow,
    interval_flow_transit_time,
    min_orbit_diameter,
    rotation_flow,
    sample_orbit,
    suspension_doubling,
    trivial_flow,
)
from .alignment import (
    AlignmentResult,
    Reparam,
    align,
    recompute_cost,
    rep_epsilon_check,
)
from .expansivity import (
    PropertyReport,
    ball_inclusion_check,
    check_equicontinuity,
    check_property,
    comparability_constants,
    default_pair_grid,
    delta_star,
    hierarchy_check,
    local_norm_constant,
    return_time_bound_check,
)
from .shadowing import (
    PseudoOrbit,
    ShadowResult,
    cumulative_clock,
    find_shadow,
    generate_pseudo_orbit,
)
from .entropy import (
    EntropyEstimate,
    SpanningEstimate,
    entropy_estimate,
    h_star_estimate,
    spanning_cardinality,
    x_delta_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
