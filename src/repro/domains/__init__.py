"""Domains: carriers, signatures, recursive evaluation, decision procedures."""

from .base import Domain, DomainError, TheoryUndecidableError
from .cyclic import CyclicSuccessorDomain
from .dense_order import DenseOrderDomain
from .difference import IntegerDifferenceDomain
from .equality import EqualityDomain
from .lex_strings import ShortlexStringDomain
from .nat_order import NaturalOrderDomain
from .packs import (
    DomainPack,
    PackCorpus,
    PackQuery,
    PackSentence,
    UnknownDomainError,
    available_domains,
    domain_aliases,
    get_domain,
    get_pack,
    register_pack,
    resolve_domain_name,
    temporary_pack,
    unregister_pack,
)
from .presburger import (
    LinTerm,
    PresburgerDomain,
    eliminate_presburger_quantifiers,
    linearize_term,
)
from .reach_traces import (
    REACH_SIGNATURE,
    AtLeastConstraint,
    ExactlyConstraint,
    ReachTracesDomain,
    eliminate_reach_quantifiers,
    expand_trace_predicate,
    lemma_a2_conflicts,
    lemma_a2_satisfiable,
    lemma_a2_witness,
    padded_prefix,
    starts_with_padded,
)
from .signature import Signature
from .successor import (
    SuccessorDomain,
    eliminate_successor_quantifiers,
    extended_active_domain_elements,
    extended_active_domain_radius,
)
from .traces_domain import TraceDomain

__all__ = [
    "Signature", "Domain", "DomainError", "TheoryUndecidableError",
    "DomainPack", "PackCorpus", "PackQuery", "PackSentence",
    "UnknownDomainError", "register_pack", "unregister_pack", "temporary_pack",
    "get_pack", "get_domain", "resolve_domain_name", "available_domains",
    "domain_aliases",
    "EqualityDomain",
    "DenseOrderDomain", "IntegerDifferenceDomain",
    "CyclicSuccessorDomain", "ShortlexStringDomain",
    "PresburgerDomain", "NaturalOrderDomain", "LinTerm",
    "linearize_term", "eliminate_presburger_quantifiers",
    "SuccessorDomain", "eliminate_successor_quantifiers",
    "extended_active_domain_radius", "extended_active_domain_elements",
    "TraceDomain", "ReachTracesDomain", "REACH_SIGNATURE",
    "AtLeastConstraint", "ExactlyConstraint",
    "lemma_a2_satisfiable", "lemma_a2_conflicts", "lemma_a2_witness",
    "padded_prefix", "starts_with_padded",
    "expand_trace_predicate", "eliminate_reach_quantifiers",
]
