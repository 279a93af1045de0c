"""Centralizer algebras of finite permutation groups over prime fields.

The package computes the orbital (2-orbit) configuration of a permutation
group, builds the endomorphism algebra of the natural permutation module
as a structure-constant algebra over F_p, and decides whether that algebra
carries a nondegenerate symmetric associative bilinear form, returning a
witness functional or a negative certificate.
"""

from .errors import InputError, PermsymError, VerificationError
from .exactlin import BinaryField, PrimeField
from .perm import (
    ActionClassification,
    GroupChecks,
    Permutation,
    PermutationGroup,
    action_on_cosets,
    action_on_ksubsets,
    classify_action,
    group_theoretic_checks,
    minimal_block,
    orbits,
    parse_generator_text,
    parse_permutation,
)
from .coherent import (
    AxiomReport,
    CoherentConfiguration,
    adjacency_product_check,
    intersection_tensor,
    two_orbits,
    verify_cc_axioms,
)
from .catalog import CatalogInstance, build_instance, catalog_entries
from .endo import (
    PairingForm,
    RadicalSeries,
    SCAlgebra,
    SchurRing,
    StructureReport,
    SymmetricVerdict,
    centralizer_algebra,
    centralizer_oracle,
    hecke_check,
    is_symmetric,
    natural_form,
    nilpotent_free_check,
    radical_chain,
    schur_ring_from_action,
    schur_vs_centralizer,
    structure_report,
)
from .analysis import AnalysisReport, Configuration, configuration, run_analysis

__version__ = "0.1.0"

__all__ = [
    "ActionClassification",
    "AnalysisReport",
    "AxiomReport",
    "BinaryField",
    "CatalogInstance",
    "CoherentConfiguration",
    "Configuration",
    "GroupChecks",
    "InputError",
    "PairingForm",
    "Permutation",
    "PermutationGroup",
    "PermsymError",
    "PrimeField",
    "RadicalSeries",
    "SCAlgebra",
    "SchurRing",
    "StructureReport",
    "SymmetricVerdict",
    "VerificationError",
    "action_on_cosets",
    "action_on_ksubsets",
    "adjacency_product_check",
    "build_instance",
    "catalog_entries",
    "centralizer_algebra",
    "centralizer_oracle",
    "classify_action",
    "configuration",
    "group_theoretic_checks",
    "hecke_check",
    "intersection_tensor",
    "is_symmetric",
    "minimal_block",
    "natural_form",
    "nilpotent_free_check",
    "orbits",
    "parse_generator_text",
    "parse_permutation",
    "radical_chain",
    "run_analysis",
    "schur_ring_from_action",
    "schur_vs_centralizer",
    "structure_report",
    "two_orbits",
    "verify_cc_axioms",
]
