"""The planner: strategy selection as a first-class, explainable object.

Given a domain (plus optional guards), :class:`Planner` turns a strategy
request into a concrete :class:`~repro.engine.plans.Plan`:

* ``"auto"`` — the default pipeline: guard with the domain's relative-safety
  decider / effective syntax when the registry provides one, then evaluate by
  enumeration (decidable theory) or active-domain semantics (otherwise);
* ``"guarded"`` — like ``"auto"`` but fails loudly when no guard exists
  (e.g. the trace domain, Theorems 3.1/3.3);
* ``"active-domain"`` / ``"compiled"`` / ``"vectorized"`` / ``"incremental"``
  / ``"enumeration"`` — force a bare strategy, bypassing the guards (useful
  for studying budget exhaustion on infinite queries, or for benchmarking one
  execution substrate directly).

Every returned plan answers :meth:`~repro.engine.plans.Plan.explain` with the
reason for the choice.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..domains.base import Domain
from ..engine.answer_cache import AnswerCache
from ..engine.budget import Budget, CancelToken
from ..engine.plan_cache import PlanCache
from ..engine.plans import (
    PLAN_TABLE, STRATEGIES, GuardedPlan, Plan, build_plan, plan_for_strategy,
)
from ..relational.state import Element
from ..safety.effective_syntax import EffectiveSyntax
from ..safety.relative_safety import EqualityRelativeSafety, RelativeSafetyDecider

__all__ = ["Planner", "PlanError"]


class PlanError(ValueError):
    """Raised when no plan can satisfy the requested strategy."""


class Planner:
    """Choose evaluation plans for one domain / guard configuration."""

    def __init__(
        self,
        domain: Domain,
        *,
        syntax: Optional[EffectiveSyntax] = None,
        safety: Optional[RelativeSafetyDecider] = None,
        finite_is_domain_independent: bool = False,
        supports_compiled_algebra: bool = False,
        supports_vectorized: bool = False,
        finite_carrier: bool = False,
        plan_cache: Optional[PlanCache] = None,
        answer_cache: Optional[AnswerCache] = None,
    ):
        self._domain = domain
        self._syntax = syntax
        self._safety = safety
        self._finite_is_di = finite_is_domain_independent
        self._compilable = supports_compiled_algebra
        self._vectorizable = supports_vectorized
        self._finite_carrier = finite_carrier
        self._plan_cache = plan_cache
        self._answer_cache = answer_cache

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def guarded(self) -> bool:
        """True iff the planner has at least one guard to install."""
        return self._syntax is not None or self._safety is not None

    def plan(
        self,
        strategy: str = "auto",
        budget: Optional[Budget] = None,
        extra_elements: Iterable[Element] = (),
        cancel_token: Optional[CancelToken] = None,
    ) -> Plan:
        """The plan for ``strategy``, with its :meth:`explain` filled in.

        ``cancel_token`` makes the returned plan's execution cooperatively
        cancellable from another thread (the serving layer's ``/cancel``).
        """
        if strategy not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if strategy == "guarded" and not self.guarded:
            raise PlanError(
                f"strategy 'guarded' requested, but domain {self._domain.name!r} "
                "has no registered relative-safety decider or effective syntax "
                "(for the trace domain this is Theorems 3.1/3.3: neither exists)"
            )
        if (
            strategy in ("auto", "guarded")
            and self._safety is not None
            and (self._finite_is_di or self._finite_carrier)
        ):
            # Section 2: over this domain the guard's fresh-element
            # evaluation (the active domain plus rank+1 fresh elements) also
            # yields the exact answer, so GuardedPlan runs the algebra ladder
            # once for both — far cheaper than the Section 1.1 enumeration
            # (FreshElementProbe).  The same ladder is exact for domains
            # whose *carrier* is finite: the active domain is extended with
            # the whole carrier, so evaluation ranges over every element the
            # semantics ranges over.  The inner plan is the first strategy the
            # domain supports, in this order: an incremental session's answer
            # cache beats the columnar kernels on the repeat-query path, the
            # kernels beat the set executor, and the set executor beats the
            # tree walker.
            extras = tuple(extra_elements)
            if self._finite_carrier:
                extras += tuple(self._domain.carrier_elements())
                basis = (
                    f"the carrier of {self._domain.name!r} is finite, so "
                    "evaluation over the whole carrier is exact"
                )
            else:
                basis = (
                    f"over {self._domain.name!r} the answer is the evaluation "
                    "over the active domain plus rank+1 fresh elements, minus "
                    "the rows that mention them"
                )
            supported = (
                ("incremental", self._answer_cache is not None and self._compilable),
                ("vectorized", self._compilable and self._vectorizable),
                ("compiled", self._compilable),
                ("active-domain", True),
            )
            chosen = next(name for name, ok in supported if ok)
            inner = build_plan(
                chosen,
                f"{basis}, so guard-certified queries are answered exactly "
                f"by strategy {chosen!r}: {PLAN_TABLE[chosen][1]}",
                domain=self._domain,
                budget=budget if budget is not None else Budget(),
                extra_elements=extras,
                cache=self._plan_cache,
                answer_cache=self._answer_cache,
                cancel_token=cancel_token,
            )
            if isinstance(self._safety, EqualityRelativeSafety):
                consequence = (
                    "one run of the inner plan over the active domain plus "
                    "rank+1 fresh elements yields both the verdict and the answer"
                )
            else:
                consequence = "provably infinite answers are rejected before evaluation"
            return GuardedPlan(
                inner=inner,
                syntax=self._syntax,
                safety=self._safety,
                reason=f"relative safety over {self._domain.name!r} is decidable "
                f"via {self._safety.name!r}, so {consequence}",
            )
        return plan_for_strategy(
            strategy,
            self._domain,
            budget,
            extra_elements=tuple(extra_elements),
            syntax=self._syntax,
            safety=self._safety,
            cache=self._plan_cache,
            answer_cache=self._answer_cache,
            cancel_token=cancel_token,
        )
