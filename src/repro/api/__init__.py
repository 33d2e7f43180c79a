"""The public front door: ``repro.connect`` and the Session pipeline.

See ``API.md`` at the repository root for the full guide.  In short::

    import repro

    session = repro.connect(domain="presburger")
    answer = session.query("x < 5", budget=repro.Budget(max_rows=10))

The subsystem re-exports everything a caller needs: the session itself, the
budget, the plan hierarchy, the answer hierarchy, and the domain registry.
"""

from ..domains.packs import (
    DomainPack,
    UnknownDomainError,
    available_domains,
    domain_aliases,
    get_domain,
    get_pack,
    register_pack,
    resolve_domain_name,
)
from ..engine.answers import Answer, FiniteAnswer, InfiniteAnswer, UnknownAnswer
from ..engine.budget import Budget, BudgetClock
from ..engine.plan_cache import PlanCache, PlanCacheInfo
from ..engine.plans import (
    STRATEGIES,
    ActiveDomainPlan,
    CompiledAlgebraPlan,
    EnumerationPlan,
    GuardedOutcome,
    GuardedPlan,
    Plan,
)
from ..relational.state import Delta
from .planner import PlanError, Planner
from .session import QueryAnalysis, QueryResult, Session, SessionError, connect

__all__ = [
    "connect", "Session", "SessionError", "QueryAnalysis", "QueryResult",
    "Planner", "PlanError",
    "Budget", "BudgetClock",
    "Plan", "ActiveDomainPlan", "CompiledAlgebraPlan", "EnumerationPlan",
    "GuardedPlan", "GuardedOutcome", "STRATEGIES",
    "PlanCache", "PlanCacheInfo",
    "Delta",
    "Answer", "FiniteAnswer", "InfiniteAnswer", "UnknownAnswer",
    "DomainPack", "UnknownDomainError", "register_pack", "get_domain",
    "get_pack", "resolve_domain_name", "available_domains", "domain_aliases",
]
