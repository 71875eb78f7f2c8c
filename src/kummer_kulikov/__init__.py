"""Invariants of Kulikov models of degenerating Kummer surfaces.

Given split degeneration data (X, Y, φ, a, b) of an abelian surface, this
package computes the combinatorial and linear-algebraic invariants of the
associated Kummer surface's semistable model: certified periodic
triangulations (semistable fans in slice form), Néron component groups,
dual complexes and their inversion quotients, component-count and
base-change formulas, and the monodromy-based type I/II/III classification.

The exports resolve lazily (PEP 562): a name imports its submodule on first
access, so importing the package loads no layer, and a command line call
loads only the layers it runs.
"""

import importlib

# Each submodule, itself an export, and the names it defines.
_EXPORTS = {
    "complexes": (
        "BaseChangeCounts", "ComponentCounts", "DeltaComplex", "KulikovType",
        "base_change_counts", "classify_kummer_type", "complex_to_json", "component_counts",
        "dual_complex", "euler_characteristic", "h_quotient",
    ),
    "degeneration": (
        "ConePoint", "DegenerationData", "GammaElement", "ValidationReport", "a_value",
        "base_change", "from_json_dict", "gamma_act", "h_invariance_check", "is_even",
        "to_json_dict", "validate",
    ),
    "errors": (),
    "fan": (
        "Certificate", "LatticeSimplex", "PeriodicTriangulation", "auto_scale", "certify",
        "check_gamma_admissible", "check_h_freeness", "check_property_d", "check_semistable",
        "fan_from_json", "fan_to_json", "is_unimodular", "standard_triangulation",
        "vertices_complete",
    ),
    "lattice": (
        "ComponentGroup", "IntMatrix", "component_group", "smith_normal_form",
        "two_torsion_order",
    ),
    "monodromy": (
        "KummerOperator", "RationalOperator", "TwoTorsionPermutation", "exp_nilpotent",
        "kummer_monodromy", "log_unipotent", "nilpotency_index", "standard_N",
        "toric_rank_from_N", "two_torsion_trivial", "type_from_index",
        "unipotent_or_negative", "wedge_square",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
