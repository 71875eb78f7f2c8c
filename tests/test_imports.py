"""The import contract: each command loads only the layers it runs, and the
package's lazily resolved exports are the submodules' own objects."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kummer_kulikov

SRC = Path(kummer_kulikov.__file__).resolve().parents[1]
INPUTS = Path(__file__).parent / "data" / "golden" / "inputs"
DATUM = INPUTS / "d_diag22.json"
FAN = INPUTS / "f_standard_diag44.json"

# The package's exports, by the submodule that defines them.
EXPORTS = {
    "complexes": [
        "BaseChangeCounts", "ComponentCounts", "DeltaComplex", "KulikovType",
        "base_change_counts", "classify_kummer_type", "complex_to_json", "component_counts",
        "dual_complex", "euler_characteristic", "h_quotient",
    ],
    "degeneration": [
        "ConePoint", "DegenerationData", "GammaElement", "ValidationReport", "a_value",
        "base_change", "from_json_dict", "gamma_act", "h_invariance_check", "is_even",
        "to_json_dict", "validate",
    ],
    "errors": [],
    "fan": [
        "Certificate", "LatticeSimplex", "PeriodicTriangulation", "auto_scale", "certify",
        "check_gamma_admissible", "check_h_freeness", "check_property_d", "check_semistable",
        "fan_from_json", "fan_to_json", "is_unimodular", "standard_triangulation",
        "vertices_complete",
    ],
    "lattice": [
        "ComponentGroup", "IntMatrix", "component_group", "smith_normal_form",
        "two_torsion_order",
    ],
    "monodromy": [
        "KummerOperator", "RationalOperator", "TwoTorsionPermutation", "exp_nilpotent",
        "kummer_monodromy", "log_unipotent", "nilpotency_index", "standard_N",
        "toric_rank_from_N", "two_torsion_trivial", "type_from_index",
        "unipotent_or_negative", "wedge_square",
    ],
}

# What a fresh interpreter loads besides the stdlib: the package, then `main`
# on the given arguments.
PROBE = """
import json, sys
before = set(sys.modules)
import kummer_kulikov
if sys.argv[1:]:
    from kummer_kulikov.cli import main
    code = main(sys.argv[1:])
else:
    code = None
loaded = set(sys.modules) - before
sys.stdout.write("\\n" + json.dumps({
    "code": code,
    "layers": sorted(m for m in loaded if m.startswith("kummer_kulikov.")),
    "fractions": "fractions" in loaded}))
"""

BASE = ["degeneration", "errors", "lattice"]


@pytest.mark.parametrize("argv, code, layers, fractions", [
    ([], None, [], False),
    (["validate", str(DATUM)], 0, ["cli", *BASE], False),
    (["base-change", str(DATUM), "--e", "3"], 0, ["cli", "complexes", *BASE], False),
    (["fan", "check", str(FAN)], 0, ["cli", "fan", *BASE], False),
    (["complex", "quotient", str(FAN)], 0, ["cli", "complexes", "fan", *BASE], False),
    (["monodromy", "--toric-rank", "2"], 0, ["cli", "complexes", "monodromy", *BASE], True),
], ids=["import", "validate", "base-change", "fan-check", "complex-quotient", "monodromy"])
def test_each_command_imports_only_its_layers(argv, code, layers, fractions):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv, *(["--quiet"] if argv else [])],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    expected = sorted(f"kummer_kulikov.{n}" for n in layers)
    assert probe == {"code": code, "layers": expected, "fractions": fractions}


def test_exports_are_the_submodules_own_objects():
    names = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])
    assert len(names) == 61
    assert kummer_kulikov.__all__ == names
    assert set(names) <= set(dir(kummer_kulikov))
    for module, exports in EXPORTS.items():
        sub = importlib.import_module(f"kummer_kulikov.{module}")
        assert getattr(kummer_kulikov, module) is sub
        for name in exports:
            assert getattr(kummer_kulikov, name) is getattr(sub, name), name
    assert kummer_kulikov.certify is kummer_kulikov.fan.certify
    namespace = {}
    exec("from kummer_kulikov import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == names
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        kummer_kulikov.nonexistent
