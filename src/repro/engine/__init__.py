"""Query answering: plans, budgets, the Section 1.1 algorithm, guards.

The front door is :func:`repro.connect` (see :mod:`repro.api`), whose
:class:`~repro.api.Planner` picks one of the
:class:`~repro.engine.plans.Plan` classes defined here.
"""

from .answers import Answer, FiniteAnswer, InfiniteAnswer, UnknownAnswer
from .budget import Budget, BudgetClock
from .enumeration import answer_by_enumeration, enumerate_tuples
from .plan_cache import PlanCache, PlanCacheInfo
from .plans import (
    STRATEGIES,
    ActiveDomainPlan,
    CompiledAlgebraPlan,
    EnumerationPlan,
    GuardedOutcome,
    GuardedPlan,
    Plan,
    VectorizedAlgebraPlan,
)

__all__ = [
    "Answer", "FiniteAnswer", "InfiniteAnswer", "UnknownAnswer",
    "Budget", "BudgetClock",
    "Plan", "ActiveDomainPlan", "CompiledAlgebraPlan", "VectorizedAlgebraPlan",
    "EnumerationPlan",
    "GuardedPlan", "GuardedOutcome", "STRATEGIES",
    "PlanCache", "PlanCacheInfo",
    "answer_by_enumeration", "enumerate_tuples",
]
