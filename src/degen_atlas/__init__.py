"""Exact-arithmetic toolkit for two-component degenerations of quartic K3s.

The library computes, from first principles and entirely in exact
integer arithmetic:

* the generalized root lattice attached to each of the nine two-component
  central fibers of degree-4 Type II degenerations,
* the relations the period morphism imposes on the blown-up points of the
  elliptic double curve, certified by integer span membership, and
* the wall-and-chamber decomposition of the effective lifted-polarization
  cone of each central fiber, with the stable model at every ray.

An independent elliptic-curve oracle over small prime fields corroborates
the formal point relations numerically.
"""

from .exact_lattice import (
    GramForm,
    enumerate_short,
    in_span,
    snf,
)
from .surface_pair import (
    SurfaceModel,
    build_model,
    catalogue,
    catalogue_ids,
    catalogue_model,
    curve_catalogue,
    flop,
    flop_all,
    intersect,
    parse_class,
    surface_name,
)
from .root_classifier import (
    classify,
    generalized_roots,
    script_L,
    type_string,
    verify_classification,
)
from .period_relations import (
    Divisor,
    RelationSystem,
    derive,
    imposed_relations,
    psi,
    restriction_dictionary,
    relation_rows,
    verify_relations,
)
from .chamber_walk import (
    fan_diagram,
    lift_fan,
    next_wall,
    stable_model_at,
    verify_fans,
)
from .ec_oracle import (
    pinned_curves,
    randomized_membership_test,
    sample_config,
)

__version__ = "0.1.0"
