"""svlab: exact-arithmetic verification toolkit for positivity and
non-vanishing questions on ruled surfaces in small characteristic.

The names below are imported from their layer on first access, so
``import svlab`` loads no layer."""

from .lazy import lazy_getattr

__version__ = "0.1.0"

_LAYERS = {
    ".charpcurve": (
        "ArtinSchreier", "Hyperelliptic", "TangoCertificate", "TangoPlane",
        "certify_tango",
    ),
    ".construct": (
        "CounterexamplePackage", "PackageError", "PackageVerification",
        "build_package", "build_surface", "h1_lower_bound_audit",
        "verify_package",
    ),
    ".fibered": (
        "FiberComponent", "FiberTree", "FiberTreeError", "FiberedModel",
        "MinimalityAudit", "blow_up_on_component", "blow_up_on_edge",
        "component", "contract_component", "minimality_audit",
        "reduce_model", "reduce_tree",
    ),
    ".kltcalc": (
        "ArrangementError", "BlowupRecord", "ClusterArrangement",
        "ClusterNode", "WeightedBranch", "blowup_step", "is_klt",
    ),
    ".lattice": (
        "BlowupPoint", "DivisorClass", "LatticeError", "ModelMismatch",
        "PositivityVerdict", "RuledModel", "UnsupportedRegime",
        "adjunction_pa", "candidate_curve_constraints",
        "certify_positivity", "disjoint_multisection", "intersect",
        "pullback_blowup", "riemann_roch_chi",
    ),
    ".nonvanish": (
        "InconsistentScenario", "InvalidScenario", "Scenario",
        "ScenarioError", "Verdict", "classify", "decide",
    ),
}

_SOURCES = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_SOURCES)

__getattr__ = lazy_getattr(globals(), _SOURCES)
