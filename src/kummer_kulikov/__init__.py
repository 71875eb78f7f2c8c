"""Invariants of Kulikov models of degenerating Kummer surfaces.

Given split degeneration data (X, Y, φ, a, b) of an abelian surface, this
package computes the combinatorial and linear-algebraic invariants of the
associated Kummer surface's semistable model: certified periodic
triangulations (semistable fans in slice form), Néron component groups,
dual complexes and their inversion quotients, component-count and
base-change formulas, and the monodromy-based type I/II/III classification.
"""

from .complexes import (
    BaseChangeCounts,
    ComponentCounts,
    DeltaComplex,
    InvolutionAction,
    KulikovType,
    base_change_counts,
    classify_kummer_type,
    complex_to_json,
    component_counts,
    dual_complex,
    euler_characteristic,
    h_quotient,
)
from .degeneration import (
    ConePoint,
    DegenerationData,
    GammaElement,
    ValidationReport,
    a_value,
    base_change,
    from_json_dict,
    gamma_act,
    h_invariance_check,
    is_even,
    to_json_dict,
    validate,
)
from .fan import (
    LatticeSimplex,
    PeriodicTriangulation,
    PolarizationForm,
    auto_scale,
    certify,
    check_gamma_admissible,
    check_h_freeness,
    check_property_d,
    check_semistable,
    default_polarization_form,
    fan_from_json,
    fan_to_json,
    is_unimodular,
    standard_triangulation,
    vertices_complete,
)
from .lattice import (
    ComponentGroup,
    IntMatrix,
    component_group,
    smith_normal_form,
    two_torsion_order,
)
from .monodromy import (
    KummerOperator,
    RationalOperator,
    TwoTorsionPermutation,
    exp_nilpotent,
    kummer_monodromy,
    log_unipotent,
    nilpotency_index,
    quadratic_twist_character,
    standard_N,
    toric_rank_from_N,
    two_torsion_trivial,
    type_from_index,
    unipotent_or_negative,
    wedge_square,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
