"""Relational database substrate: schemas, states, calculus, compiled algebra plans."""

from .active_domain import (
    active_domain,
    active_domain_of_query,
    active_domain_of_state,
)
from .calculus import (
    Interpretation,
    evaluate_formula,
    evaluate_query,
    evaluate_query_active_domain,
    evaluate_term,
)
from .columnar import (
    EncodeCacheInfo,
    VectorizationError,
    encode_cache_info,
    run_plan_vectorized,
    vectorization_obstacle,
)
from .compile import CompilationError, CompiledQuery, compile_query
from .exec import ExecutionStats, plan_summary, run_plan
from .schema import DatabaseSchema, RelationSchema
from .state import DatabaseState, Delta, Element, Relation, Row
from .translate import (
    database_predicates_in,
    expand_database_atoms,
    is_pure_domain_formula,
)

__all__ = [
    "RelationSchema", "DatabaseSchema",
    "Relation", "DatabaseState", "Delta", "Element", "Row",
    "active_domain", "active_domain_of_state", "active_domain_of_query",
    "expand_database_atoms", "is_pure_domain_formula", "database_predicates_in",
    "Interpretation", "evaluate_term", "evaluate_formula", "evaluate_query",
    "evaluate_query_active_domain",
    "CompilationError", "CompiledQuery", "compile_query",
    "run_plan", "plan_summary", "ExecutionStats",
    "VectorizationError", "run_plan_vectorized", "vectorization_obstacle",
    "EncodeCacheInfo", "encode_cache_info",
]
