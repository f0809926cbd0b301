"""Equidecomposability types and stationary measures on finite spaces.

The core objects: partial bijections and their inverse monoids, finite
measurable spaces with a monoid of symmetries, the commutative monoid
of equidecomposability types with its decision procedures, idempotent
scale lattices with per-scale quantity groups, exact stationary-measure
synthesis, and symbolic certificates for two infinite examples (integer
translations, free-group translations).
"""

from .congruence import (
    Budget,
    Decision,
    EQUAL,
    ExtVec,
    LEQ,
    NOT_EQUAL,
    NOT_LEQ,
    UNKNOWN,
)
from .certificates import (
    Certificate,
    CertificateReport,
    builtin_f2_duplication,
    builtin_galileo,
    certificate_mutations,
    verify_certificate,
)
from .corpus import (
    fixture_spaces,
    random_corpus,
    statspace_from_maps,
    statspace_from_partial_maps,
)
from .errors import (
    BudgetExhaustedError,
    ContractError,
    MalformedCertificateError,
    NormalizationImpossibleError,
    TypemonoidError,
)
from .lattice import (
    IdempotentLattice,
    embed,
    enumerate_idempotents,
    grothendieck_diff,
    idempotent_of,
    quantity_add,
    quantity_eq,
)
from .measures import (
    RationalStationaryMeasure,
    colimit_increasing,
    continuity_suite,
    extend_T_measure,
    hierarchical_measure,
    is_paradoxical,
    null_ideal,
    synthesize_classical_measure,
    tarski_T_measure,
)
from .monoid import (
    InverseMonoidTable,
    check_inverse_monoid,
    natural_partial_order,
)
from .partial_bijection import (
    PartialBijection,
    closure,
    symmetric_inverse_monoid,
    wagner_preston,
)
from .spaces import (
    FiniteMeasurableSpace,
    StatMorphism,
    StatSpace,
    build_space,
    validate_action,
    validate_morphism,
)
from .types import TarskiType, TypeEngine, relation_basis
from .words import ReducedWordDFA, compile_word_regex, left_translate
from .zsets import EventuallyPeriodicZSet, ep_set

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "Decision",
    "EQUAL",
    "NOT_EQUAL",
    "LEQ",
    "NOT_LEQ",
    "UNKNOWN",
    "ExtVec",
    "Certificate",
    "CertificateReport",
    "builtin_galileo",
    "builtin_f2_duplication",
    "certificate_mutations",
    "verify_certificate",
    "fixture_spaces",
    "random_corpus",
    "statspace_from_maps",
    "statspace_from_partial_maps",
    "TypemonoidError",
    "BudgetExhaustedError",
    "ContractError",
    "MalformedCertificateError",
    "NormalizationImpossibleError",
    "IdempotentLattice",
    "enumerate_idempotents",
    "idempotent_of",
    "embed",
    "grothendieck_diff",
    "quantity_add",
    "quantity_eq",
    "RationalStationaryMeasure",
    "is_paradoxical",
    "synthesize_classical_measure",
    "tarski_T_measure",
    "extend_T_measure",
    "hierarchical_measure",
    "null_ideal",
    "colimit_increasing",
    "continuity_suite",
    "InverseMonoidTable",
    "check_inverse_monoid",
    "natural_partial_order",
    "wagner_preston",
    "PartialBijection",
    "closure",
    "symmetric_inverse_monoid",
    "FiniteMeasurableSpace",
    "StatSpace",
    "StatMorphism",
    "build_space",
    "validate_action",
    "validate_morphism",
    "TarskiType",
    "TypeEngine",
    "relation_basis",
    "ReducedWordDFA",
    "compile_word_regex",
    "left_translate",
    "EventuallyPeriodicZSet",
    "ep_set",
]
