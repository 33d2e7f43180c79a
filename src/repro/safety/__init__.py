"""Safety, relative safety, effective syntax, and the paper's reductions."""

from .classes import FinitenessStatus, QueryClass, SafetyVerdict
from .domain_independence import (
    active_domain_formula,
    answer_over_universe,
    check_domain_independence,
    fact_2_1_query,
)
from .effective_syntax import (
    ActiveDomainSyntax,
    EffectiveSyntax,
    ExtendedActiveDomainSyntax,
    FinitizationSyntax,
)
from .extension import OrderedExtensionDomain, extension_with_effective_syntax
from .finitization import (
    finitization_bound_part,
    finitize,
    is_finitization_of,
    split_finitization,
)
from .reductions import (
    CONSTANT_PLACEHOLDER,
    REDUCTION_SCHEMA,
    RELATION_NAME,
    TotalityEnumerator,
    extract_halting_instance,
    fresh_total_machine_not_in,
    halting_reduction,
    machine_halts_within,
    machine_is_total_on_sample,
    query_answer_when_finite,
    totality_equivalence_sentence,
    totality_query,
    totality_query_with_relation,
)
from .relative_safety import (
    EqualityRelativeSafety,
    FreshElementProbe,
    OrderedRelativeSafety,
    RelativeSafetyDecider,
    RelativeSafetyUndecidable,
    SuccessorRelativeSafety,
    TraceRelativeSafety,
)

__all__ = [
    "QueryClass", "FinitenessStatus", "SafetyVerdict",
    "finitize", "finitization_bound_part", "split_finitization", "is_finitization_of",
    "EffectiveSyntax", "ActiveDomainSyntax", "FinitizationSyntax",
    "ExtendedActiveDomainSyntax",
    "RelativeSafetyDecider", "EqualityRelativeSafety", "FreshElementProbe",
    "OrderedRelativeSafety",
    "SuccessorRelativeSafety", "TraceRelativeSafety", "RelativeSafetyUndecidable",
    "active_domain_formula", "fact_2_1_query", "check_domain_independence",
    "answer_over_universe",
    "totality_query", "totality_query_with_relation", "totality_equivalence_sentence",
    "halting_reduction", "extract_halting_instance", "machine_halts_within",
    "machine_is_total_on_sample", "query_answer_when_finite",
    "TotalityEnumerator", "fresh_total_machine_not_in",
    "REDUCTION_SCHEMA", "RELATION_NAME", "CONSTANT_PLACEHOLDER",
    "OrderedExtensionDomain", "extension_with_effective_syntax",
]
