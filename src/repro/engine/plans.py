"""First-class query plans.

A :class:`Plan` is an executable strategy object, chosen by
:class:`repro.api.Planner`.  The concrete plans mirror the paper's
evaluation disciplines across three execution substrates:

* :class:`ActiveDomainPlan` — active-domain semantics by tree walking:
  quantifiers and answer variables range over the active domain, so every
  answer is finite by construction (sound and complete for
  domain-independent queries);
* :class:`CompiledAlgebraPlan` — the same active-domain answer via the
  calculus→algebra compiler and the set-at-a-time executor (hash joins,
  antijoins, selection pushdown).  It owns the one fallback ladder every
  algebra plan runs: compile (or tree-walk when compilation bails), try the
  vectorized rung when the class has it, finish on the set executor;
* :class:`VectorizedAlgebraPlan` — the ladder with the ``"vectorized"``
  rung: the algebra plan lowered to NumPy column kernels;
* :class:`EnumerationPlan` — the Section 1.1 enumeration algorithm, complete
  for arbitrary finite queries over a domain with a decidable theory, bounded
  by a :class:`~repro.engine.budget.Budget`;
* :class:`GuardedPlan` — wraps an inner plan with an effective-syntax
  restriction and/or a relative-safety check, rejecting provably infinite
  answers; over pure equality the check and the answer share one run of the
  inner plan (:class:`~repro.safety.relative_safety.FreshElementProbe`), and
  over the Presburger family and shortlex strings one quantifier
  elimination (:class:`~repro.domains.presburger.QuantifierFreeForm`).

Every plan carries an :meth:`~Plan.explain` describing *why* the strategy was
chosen (theory decidability, availability of a safety decider, explicit user
request), so the choice is auditable rather than buried in a string flag.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import (
    AbstractSet, Any, ClassVar, Collection, Dict, FrozenSet, Optional, Tuple, Type,
    Union,
)

from ..domains.base import Domain, TheoryUndecidableError
from ..logic.analysis import free_variables
from ..logic.formulas import Formula
from ..relational.calculus import evaluate_query_active_domain
from ..relational.columnar import (
    HAVE_NUMPY,
    CodedRows,
    VectorizationError,
    encode_cache_info,
    execute_vectorized,
)
from ..relational.compile import CompilationError, CompiledQuery, compile_query
from ..relational.state import DatabaseState, Element, Relation, Row
from ..safety.classes import FinitenessStatus, SafetyVerdict
from ..safety.effective_syntax import EffectiveSyntax
from ..safety.relative_safety import (
    EqualityRelativeSafety,
    FreshElementProbe,
    QuantifierFreeSafety,
    RelativeSafetyDecider,
    RelativeSafetyUndecidable,
)
from .answers import Answer, FiniteAnswer, InfiniteAnswer
from .budget import Budget, CancelToken, Deadline, EvaluationInterrupted
from .plan_cache import PlanCache

__all__ = [
    "Plan",
    "ActiveDomainPlan",
    "CompiledAlgebraPlan",
    "VectorizedAlgebraPlan",
    "EnumerationPlan",
    "GuardedPlan",
    "GuardedOutcome",
    "build_plan",
    "decide_or_semidecide",
    "PLAN_TABLE",
    "STRATEGIES",
]


def decide_or_semidecide(
    safety: RelativeSafetyDecider,
    formula: Formula,
    state: DatabaseState,
    fuel: int,
) -> SafetyVerdict:
    """Run a relative-safety decider, degrading gracefully.

    When the decider provably cannot decide (Theorem 3.3 — the trace domain),
    fall back to its fuel-bounded ``semi_decide`` when it has one and the
    instance fits; otherwise report an UNKNOWN verdict instead of raising, so
    evaluation can proceed under the budget.
    """
    try:
        return safety.decide(formula, state)
    except RelativeSafetyUndecidable as error:
        semi = getattr(safety, "semi_decide", None)
        if semi is not None:
            try:
                return semi(formula, state, fuel=fuel)
            except (ValueError, RelativeSafetyUndecidable):
                pass
        return SafetyVerdict.unknown(
            method=getattr(safety, "name", "relative-safety"), details=str(error)
        )


def _probed(
    extras: Tuple[Element, ...], probe: Optional[FreshElementProbe]
) -> Tuple[Element, ...]:
    """The extra elements of one execution: the plan's own, plus the fresh
    elements of a fused guard evaluation."""
    return extras if probe is None else extras + probe.fresh


def _finish(
    result: Union[Relation, AbstractSet[Row], CodedRows],
    arity: int,
    method: str,
    probe: Optional[FreshElementProbe],
) -> Answer:
    """The answer behind one rung's result rows.

    Without a probe the rows are the answer.  With one they were computed
    over the universe enlarged by the probe's fresh elements: rows
    mentioning the probe element make the answer infinite (they become the
    witnesses), and otherwise the rows mentioning no fresh element are the
    exact finite answer.  Columnar results split on their codes, so an
    infinite verdict decodes only its witness rows; on a numeric codec they
    decode already sorted (:meth:`CodedRows.rows`), and the answer takes
    that tuple as its ``rows()``.  Rung rows are tuples of the plan's arity
    already, so the answer's relation takes them as they are
    (:meth:`~repro.relational.state.Relation.unchecked`).
    """
    if probe is None:
        if isinstance(result, CodedRows):
            return _finite(arity, result.rows(), method)
        if not isinstance(result, Relation):
            result = Relation.unchecked(arity, result)
        return FiniteAnswer(result, method=method)
    if isinstance(result, CodedRows):
        witnesses, rows = result.split(probe.fresh)
    else:
        witnesses, rows = probe.split(
            result.rows if isinstance(result, Relation) else result
        )
    if witnesses:
        return InfiniteAnswer(
            Relation(arity, []),
            reason="rejected by the relative-safety guard: " + probe.INFINITE_DETAILS,
            method=probe.method,
            witnesses=_sorted(witnesses),
        )
    return _finite(arity, rows, method)


def _sorted(rows: Collection[Row]) -> Tuple[Row, ...]:
    """``rows`` in sorted order: a tuple from :meth:`CodedRows.rows` already
    is, and any other collection is sorted here."""
    return rows if isinstance(rows, tuple) else tuple(sorted(rows))


def _finite(arity: int, rows: Collection[Row], method: str) -> FiniteAnswer:
    """The finite answer over a rung's distinct rows."""
    if isinstance(rows, tuple):
        return FiniteAnswer.of_sorted(arity, rows, method)
    return FiniteAnswer(Relation.unchecked(arity, rows), method=method)


def _rejected(query: Formula, verdict: SafetyVerdict) -> InfiniteAnswer:
    """The answer of a query the relative-safety guard proved infinite."""
    return InfiniteAnswer(
        Relation(len(free_variables(query)), []),
        reason="rejected by the relative-safety guard: " + verdict.details,
        method=verdict.method,
    )


#: the strategy names understood by :meth:`repro.api.Planner.plan`
STRATEGIES = (
    "auto", "active-domain", "compiled", "vectorized", "enumeration", "guarded",
)


class Plan(ABC):
    """An executable query-evaluation strategy."""

    #: short machine-readable strategy name
    strategy: str = "plan"
    #: how the last execution was interrupted (deadline/cancel), if it was
    last_interruption: Optional[str] = None

    @abstractmethod
    def execute(self, query: Formula, state: DatabaseState) -> Answer:
        """Run the plan on ``query`` in ``state``."""

    def _start_deadline(self) -> Optional[Deadline]:
        """The cooperative deadline for one execution, or ``None``.

        A :class:`~repro.engine.budget.Deadline` is only constructed when
        the budget carries a wall-clock limit or the plan carries a cancel
        token — otherwise every checkpoint stays a single ``is None`` test.
        """
        budget = getattr(self, "budget", None)
        token = getattr(self, "cancel_token", None)
        if budget is None or (budget.time_limit is None and token is None):
            return None
        return budget.start_deadline(token)

    def _record_interruption(self, error: EvaluationInterrupted) -> None:
        self.last_interruption = error.describe()

    def explain(self) -> str:
        """Why this strategy was chosen, and what it will do."""
        reason = getattr(self, "reason", "")
        text = f"strategy {self.strategy!r}"
        if reason:
            text += f": {reason}"
        if self.last_interruption:
            text += f"; interrupted: {self.last_interruption}"
        return text


@dataclass(eq=False)
class ActiveDomainPlan(Plan):
    """Evaluate under active-domain semantics (always finite by construction).

    Every quantifier and answer variable ranges over the whole active
    domain: the plain reference walker, on every carrier.
    """

    domain: Domain
    budget: Budget = field(default_factory=Budget)
    extra_elements: Tuple[Element, ...] = ()
    reason: str = "active-domain semantics keeps every answer finite by construction"
    #: cooperative cancellation flag checked at the walker's checkpoints
    cancel_token: Optional[CancelToken] = None

    strategy = "active-domain"

    def execute(
        self,
        query: Formula,
        state: DatabaseState,
        probe: Optional[FreshElementProbe] = None,
    ) -> Answer:
        """Run the plan; a ``probe`` adds its fresh elements to the universe
        and splits the rows into a verdict and an answer (see
        :class:`~repro.safety.relative_safety.FreshElementProbe`)."""
        self.last_interruption = None
        try:
            relation = evaluate_query_active_domain(
                query,
                state,
                interpretation=self.domain,
                extra_elements=_probed(self.extra_elements, probe),
                deadline=self._start_deadline(),
            )
        except EvaluationInterrupted as error:
            self._record_interruption(error)
            raise
        return _finish(relation, relation.arity, "active-domain", probe)


@dataclass(eq=False)
class CompiledAlgebraPlan(Plan):
    """Compile to relational algebra and execute set-at-a-time.

    Computes exactly the same active-domain answer as
    :class:`ActiveDomainPlan`, but via the
    :mod:`repro.relational.compile` → :mod:`repro.relational.exec` pipeline
    (hash joins, antijoins, selection pushdown) instead of tuple-at-a-time
    tree walking.

    Every algebra plan runs the one fallback ladder defined here:

    1. compile through the plan cache; a :class:`CompilationError` falls
       back to the tree-walking evaluator;
    2. when the class has the :attr:`vectorized` rung, try it — a static
       obstacle (:class:`VectorizationError`) or a fault steps down for this
       execution only;
    3. finish on the set-at-a-time executor.

    :meth:`explain` records why the last execution stepped down, if it did.
    """

    domain: Domain
    budget: Budget = field(default_factory=Budget)
    extra_elements: Tuple[Element, ...] = ()
    cache: Optional[PlanCache] = None
    reason: str = (
        "the query compiles to relational algebra, so it is answered "
        "set-at-a-time with hash joins instead of tuple-at-a-time tree walking"
    )
    #: cooperative cancellation flag checked at the substrate checkpoints
    cancel_token: Optional[CancelToken] = None
    #: why the last execution stepped down the ladder, if it did
    fallback_reason: Optional[str] = None
    #: operator census of the last compiled plan, for explain()
    last_summary: Optional[str] = None

    strategy = "compiled-algebra"
    #: whether the NumPy column kernels are tried above the set executor
    vectorized: ClassVar[bool] = False

    def execute(
        self,
        query: Formula,
        state: DatabaseState,
        probe: Optional[FreshElementProbe] = None,
    ) -> Answer:
        """Run the ladder once; a ``probe`` adds its fresh elements to the
        universe and splits the rows into a verdict and an answer (see
        :class:`~repro.safety.relative_safety.FreshElementProbe`)."""
        self.last_interruption = None
        deadline = self._start_deadline()
        try:
            answer = self._execute_with(query, state, deadline, probe)
            if deadline is not None:
                # Decoding the answer follows the last operator checkpoint;
                # a run it pushed past the limit is refused all the same.
                deadline.check("decode")
            return answer
        except EvaluationInterrupted as error:
            self._record_interruption(error)
            raise

    def _execute_with(
        self,
        query: Formula,
        state: DatabaseState,
        deadline: Optional[Deadline],
        probe: Optional[FreshElementProbe],
    ) -> Answer:
        extras = _probed(self.extra_elements, probe)
        try:
            compiled = self._compiled(query, state)
        except CompilationError as error:
            self.fallback_reason = (
                f"{error}; answered by the tree-walking active-domain "
                "evaluator instead"
            )
            self.last_summary = None
            relation = evaluate_query_active_domain(
                query, state, interpretation=self.domain,
                extra_elements=extras, deadline=deadline,
            )
            return _finish(relation, relation.arity, "active-domain", probe)
        self.last_summary = compiled.summary()
        obstacle: Optional[str] = None
        if self.vectorized:
            try:
                # The kernels take the elements outside the state: the
                # stored ones are encoded once per state (execute_vectorized),
                # and the plan's static facts once per compiled query.
                coded = execute_vectorized(
                    compiled, state, compiled.constants | frozenset(extras),
                    deadline=deadline,
                )
                answer = _finish(coded, len(compiled.output), "vectorized", probe)
            except VectorizationError as error:
                obstacle = str(error)
            except EvaluationInterrupted:
                raise
            except Exception as error:
                obstacle = (
                    "the vectorized substrate faulted "
                    f"({type(error).__name__}: {error})"
                )
            else:
                self.fallback_reason = None
                return answer
        self.fallback_reason = (
            None if obstacle is None
            else obstacle + "; executed by the set-at-a-time executor instead"
        )
        relation = compiled.execute(state, self.domain, extras, deadline=deadline)
        return _finish(relation, relation.arity, "compiled-algebra", probe)

    def _compiled(self, query: Formula, state: DatabaseState) -> CompiledQuery:
        """Compile ``query`` for the state's schema, via the cache if present.

        Every algebra plan shares one cache entry per (query, schema,
        domain).  Compilation *failures* are cached too, as their message,
        so a hot loop over a non-compilable query pays the formula walk only
        once; each raise is a fresh error, because re-raising one cached
        instance would grow its traceback — and keep every queried state
        alive through it — and share one exception across serving threads.
        """
        if self.cache is None:
            return compile_query(query, state.schema, self.domain)
        key = (query, state.schema, self.domain.name)
        cached = self.cache.get(key)
        if cached is None:
            try:
                cached = compile_query(query, state.schema, self.domain)
            except CompilationError as error:
                cached = str(error)
            self.cache.put(key, cached)
        if isinstance(cached, str):
            raise CompilationError(cached)
        return cached

    def explain(self) -> str:
        text = f"strategy {self.strategy!r}: {self.reason}"
        if self.last_summary:
            text += f" (last plan: {self.last_summary})"
        if self.fallback_reason:
            text += "; fell back: " + self.fallback_reason
        if self.last_interruption:
            text += f"; interrupted: {self.last_interruption}"
        if self.cache is not None:
            text += f"; plan cache {self.cache.info()}"
        return text


@dataclass(eq=False)
class VectorizedAlgebraPlan(CompiledAlgebraPlan):
    """Compile to relational algebra and execute on NumPy column arrays.

    The ladder with the ``"vectorized"`` rung: the same algebra plan a
    :class:`CompiledAlgebraPlan` interprets set-at-a-time is lowered to the
    vectorized columnar executor (:mod:`repro.relational.columnar`) —
    ``int64`` code columns, sort-based joins via ``np.searchsorted``,
    antijoin membership masks, adom padding as broadcasts.  The answer is
    always exactly the active-domain answer; when a plan or carrier resists
    vectorization (a domain predicate without a kernel, a non-integer carrier
    under a domain predicate, numpy missing) the ladder steps down to the set
    executor, and :meth:`explain` records the reason.
    """

    reason: str = (
        "the query compiles to relational algebra and lowers to vectorized "
        "NumPy kernels, so scans, joins, and antijoins run on int64 column "
        "arrays instead of Python sets of tuples"
    )

    strategy = "vectorized"
    vectorized: ClassVar[bool] = True

    def explain(self) -> str:
        text = super().explain()
        if HAVE_NUMPY:
            text += f"; encode cache {encode_cache_info()}"
        return text


@dataclass(eq=False)
class EnumerationPlan(Plan):
    """Run the Section 1.1 enumeration algorithm (needs a decidable theory).

    The candidate search is seeded with the compiled active-domain superset
    before the paper's blind dovetail, so on domains with the compiled
    backend most answer rows are found among the compiled answer's rows;
    :meth:`explain` reports which generator ran and how many candidates it
    tested.
    """

    domain: Domain
    budget: Budget = field(default_factory=Budget)
    reason: str = "the enumeration algorithm answers any finite query exactly"
    #: cooperative cancellation flag (time expiry stays an UnknownAnswer)
    cancel_token: Optional[CancelToken] = None
    #: candidate-generator report of the last execution
    last_candidates: Optional[str] = None

    strategy = "enumeration"

    def execute(self, query: Formula, state: DatabaseState) -> Answer:
        if not self.domain.has_decidable_theory:
            raise TheoryUndecidableError(
                f"domain {self.domain.name!r} has no decision procedure; "
                "enumeration-based answering is unavailable"
            )
        from .enumeration import CandidateStats, answer_by_enumeration

        stats = CandidateStats()
        self.last_interruption = None
        self.last_candidates = None
        try:
            answer = answer_by_enumeration(
                query, state, self.domain, budget=self.budget, stats=stats,
                deadline=self._start_deadline(),
            )
        except EvaluationInterrupted as error:
            self._record_interruption(error)
            raise
        self.last_candidates = stats.describe()
        return answer

    def explain(self) -> str:
        text = super().explain()
        if self.last_candidates:
            text += "; " + self.last_candidates
        return text


@dataclass(frozen=True)
class GuardedOutcome:
    """What a guarded execution did: the answer plus the guard's decisions."""

    answer: Answer
    admitted_query: Formula
    verdict: Optional[SafetyVerdict] = None
    rewritten: bool = False


@dataclass(frozen=True)
class GuardedPlan(Plan):
    """Apply an effective-syntax restriction and/or a relative-safety check,
    then delegate to an inner plan.

    Two deciders are fused with the answer:

    * the Section 2 fresh-element decider, over an active-domain inner plan:
      the inner plan runs once over the universe enlarged by the decider's
      probe elements, and the rows split into the verdict and the exact
      answer;
    * a decider with a quantifier-free form (Theorems 2.5 and 2.6, and
      projection finiteness over ``(Q, <)``), over an enumeration inner
      plan: the quantifier-free ψ of the guard's one elimination gives the
      verdict, and its rows are the answer
      (:meth:`~repro.safety.relative_safety.QuantifierFreeSafety.answer`).

    Every other decider runs first, on its own."""

    inner: Plan
    syntax: Optional[EffectiveSyntax] = None
    safety: Optional[RelativeSafetyDecider] = None
    reason: str = ""

    strategy = "guarded"

    @property
    def budget(self) -> Budget:
        return getattr(self.inner, "budget", Budget())

    @property
    def fused_ordered_guard(self) -> Optional[QuantifierFreeSafety]:
        """The decider whose one quantifier elimination yields both the
        verdict and the answer rows, or ``None`` when this plan does not
        fuse them: the decider must read answers off its quantifier-free
        form (``eliminates_once``) and the inner plan must be the
        enumeration it replaces."""
        if (
            isinstance(self.safety, QuantifierFreeSafety)
            and self.safety.eliminates_once
            and isinstance(self.inner, EnumerationPlan)
        ):
            return self.safety
        return None

    def run(self, query: Formula, state: DatabaseState) -> GuardedOutcome:
        """Execute with full guard metadata (verdict, rewriting)."""
        admitted = query
        rewritten = False
        if self.syntax is not None and not self.syntax.contains(query):
            admitted = self.syntax.restrict(query)
            rewritten = True

        verdict: Optional[SafetyVerdict] = None
        if isinstance(self.safety, EqualityRelativeSafety) and isinstance(
            self.inner, (ActiveDomainPlan, CompiledAlgebraPlan)
        ):
            # Section 2, fused: one run of the inner ladder over the universe
            # enlarged by rank+1 fresh elements yields both the verdict and
            # the exact answer (FreshElementProbe).
            probe = self.safety.probe(admitted, state, self.inner.extra_elements)
            answer = self.inner.execute(admitted, state, probe=probe)
            witnesses = answer.witnesses if isinstance(answer, InfiniteAnswer) else ()
            return GuardedOutcome(answer, admitted, probe.verdict(witnesses), rewritten)
        ordered = self.fused_ordered_guard
        if ordered is not None:
            # Relative safety + Section 1.1, fused: the guard eliminates the
            # quantifiers of the state-expanded query once, and the same
            # quantifier-free ψ yields the verdict and the answer rows.
            deadline = self.inner._start_deadline()
            self.inner.last_interruption = None
            try:
                verdict = ordered.decide(admitted, state, deadline=deadline)
                answer = (
                    _rejected(admitted, verdict)
                    if verdict.status is FinitenessStatus.INFINITE
                    else ordered.answer(admitted, state, self.budget, deadline)
                )
            except EvaluationInterrupted as error:
                self.inner._record_interruption(error)
                raise
            return GuardedOutcome(answer, admitted, verdict, rewritten)
        if self.safety is not None:
            verdict = decide_or_semidecide(self.safety, admitted, state, self.budget.fuel)
            if verdict.status is FinitenessStatus.INFINITE:
                answer = _rejected(admitted, verdict)
                return GuardedOutcome(answer, admitted, verdict, rewritten)

        return GuardedOutcome(self.inner.execute(admitted, state), admitted, verdict, rewritten)

    def execute(self, query: Formula, state: DatabaseState) -> Answer:
        return self.run(query, state).answer

    def explain(self) -> str:
        guards = []
        if self.syntax is not None:
            guards.append(f"effective syntax {self.syntax.name!r}")
        if self.safety is not None:
            guards.append(f"relative-safety decider {self.safety.name!r}")
        text = f"strategy 'guarded' ({' + '.join(guards) if guards else 'no guards configured'})"
        if self.reason:
            text += f": {self.reason}"
        return text + "; inner " + self.inner.explain()


#: the strategies that name one plan: strategy → (plan class, what it does)
PLAN_TABLE: Dict[str, Tuple[Type[Plan], str]] = {
    "active-domain": (ActiveDomainPlan, "every answer is finite by construction"),
    "compiled": (
        CompiledAlgebraPlan,
        "compiles to relational algebra and runs it set-at-a-time",
    ),
    "vectorized": (
        VectorizedAlgebraPlan,
        "lowers the algebra plan to vectorized NumPy column kernels",
    ),
    "enumeration": (
        EnumerationPlan,
        "the Section 1.1 enumeration algorithm answers any finite query; "
        "requires a decidable domain theory",
    ),
}


@functools.lru_cache(maxsize=None)
def _init_fields(cls: Any) -> FrozenSet[str]:
    """The names of the fields ``cls.__init__`` takes, read once per class."""
    return frozenset(f.name for f in fields(cls) if f.init)


def build_plan(strategy: str, reason: str, **options: Any) -> Plan:
    """Construct the :data:`PLAN_TABLE` plan class of ``strategy``.

    Each option the class declares is passed on; the rest are dropped, and
    ``None`` keeps the class default.  The plan is new on every call: it
    records its last execution (``last_*``, ``fallback_reason``).
    """
    cls: Any = PLAN_TABLE[strategy][0]
    names = _init_fields(cls)
    return cls(reason=reason, **{
        name: value for name, value in options.items()
        if name in names and value is not None
    })
