"""The planner: strategy selection as a first-class, explainable object.

Given a domain (plus optional guards), :class:`Planner` turns a strategy
request into a concrete :class:`~repro.engine.plans.Plan`:

* ``"auto"`` — the default pipeline: guard with the domain's relative-safety
  decider / effective syntax when its pack declares one, then evaluate on
  the algebra ladder (where the guard makes it exact), by enumeration
  (decidable theory) or by active-domain semantics (otherwise);
* ``"guarded"`` — like ``"auto"`` but fails loudly when no guard exists
  (e.g. the trace domain, Theorems 3.1/3.3);
* ``"active-domain"`` / ``"compiled"`` / ``"vectorized"`` / ``"enumeration"``
  — force a bare strategy, bypassing the guards (useful for studying budget
  exhaustion on infinite queries, or for benchmarking one execution
  substrate directly).

Every returned plan answers :meth:`~repro.engine.plans.Plan.explain` with the
reason for the choice.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from ..domains.base import Domain
from ..engine.budget import Budget, CancelToken
from ..engine.plan_cache import PlanCache
from ..engine.plans import PLAN_TABLE, STRATEGIES, GuardedPlan, Plan, build_plan
from ..relational.state import Element
from ..safety.effective_syntax import EffectiveSyntax
from ..safety.relative_safety import EqualityRelativeSafety, RelativeSafetyDecider

__all__ = ["Planner", "PlanError"]


class PlanError(ValueError):
    """Raised when no plan can satisfy the requested strategy."""


class Planner:
    """Choose evaluation plans for one domain / guard configuration.

    What the planner may pick depends on the domain's capability attributes
    (:class:`~repro.domains.base.Domain`) and on the guards it is given.
    """

    def __init__(
        self,
        domain: Domain,
        *,
        syntax: Optional[EffectiveSyntax] = None,
        safety: Optional[RelativeSafetyDecider] = None,
        plan_cache: Optional[PlanCache] = None,
    ):
        self._domain = domain
        self._syntax = syntax
        self._safety = safety
        self._plan_cache = plan_cache

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

        A strategy of :data:`~repro.engine.plans.PLAN_TABLE` builds its plan
        and bypasses the guards.  ``"auto"`` and ``"guarded"`` install the
        guards around the best inner plan for the domain.  ``cancel_token``
        makes the returned plan's execution cooperatively cancellable from
        another thread (the serving layer's ``/cancel``).
        """
        if strategy not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        domain = self._domain
        extras = tuple(extra_elements)
        options = dict(
            domain=domain,
            budget=budget if budget is not None else Budget(),
            extra_elements=extras,
            cache=self._plan_cache,
            cancel_token=cancel_token,
        )
        if strategy in PLAN_TABLE:
            return build_plan(
                strategy, "requested explicitly; " + PLAN_TABLE[strategy][1], **options
            )
        if strategy == "guarded" and not self.guarded:
            raise PlanError(
                f"strategy 'guarded' requested, but domain {domain.name!r} "
                "has no registered relative-safety decider or effective syntax "
                "(for the trace domain this is Theorems 3.1/3.3: neither exists)"
            )
        fused = isinstance(self._safety, EqualityRelativeSafety)
        if self._safety is not None and (fused or domain.finite_carrier):
            # Section 2: over pure equality the guard's fresh-element
            # evaluation (the active domain plus rank+1 fresh elements) also
            # yields the exact answer, so GuardedPlan runs the algebra ladder
            # once for both — far cheaper than the Section 1.1 enumeration
            # (FreshElementProbe).  The same ladder is exact for domains
            # whose *carrier* is finite: the active domain is extended with
            # the whole carrier, so evaluation ranges over every element the
            # semantics ranges over.  The columnar kernels beat the tree
            # walker (the vectorized ladder steps down to the set executor on
            # any obstacle).
            if domain.finite_carrier:
                options["extra_elements"] = extras + tuple(domain.carrier_elements())
                basis = (
                    f"the carrier of {domain.name!r} is finite, so "
                    "evaluation over the whole carrier is exact"
                )
            else:
                basis = (
                    f"over {domain.name!r} the answer is the evaluation "
                    "over the active domain plus rank+1 fresh elements, minus "
                    "the rows that mention them"
                )
            chosen = (
                "vectorized" if domain.supports_compiled_algebra
                else "active-domain"
            )
            inner = build_plan(
                chosen,
                f"{basis}, so guard-certified queries are answered exactly "
                f"by strategy {chosen!r}: {PLAN_TABLE[chosen][1]}",
                **options,
            )
            if fused:
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
                reason=f"relative safety over {domain.name!r} is decidable "
                f"via {self._safety.name!r}, so {consequence}",
            )
        if domain.has_decidable_theory:
            inner = build_plan(
                "enumeration",
                f"the first-order theory of {domain.name!r} is decidable, so "
                "the Section 1.1 enumeration algorithm answers any finite query",
                **options,
            )
        else:
            inner = build_plan(
                "active-domain",
                f"the theory of {domain.name!r} has no decision procedure; "
                "falling back to active-domain semantics",
                **options,
            )
        if not self.guarded:
            return inner
        plan = GuardedPlan(inner=inner, syntax=self._syntax, safety=self._safety)
        parts = []
        if self._safety is not None:
            if plan.fused_ordered_guard is not None:
                consequence = (
                    "one quantifier elimination per (query, state) yields both "
                    "the verdict and the answer rows"
                )
            else:
                consequence = "provably infinite answers are rejected before evaluation"
            parts.append(
                f"relative safety over {domain.name!r} is decidable via "
                f"{self._safety.name!r}, so {consequence}"
            )
        if self._syntax is not None:
            parts.append(
                f"queries outside the effective syntax {self._syntax.name!r} "
                "are restricted to it first"
            )
        return replace(plan, reason="; ".join(parts))
