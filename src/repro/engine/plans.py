"""First-class query plans.

A :class:`Plan` is an executable strategy object replacing the old
``strategy: str`` flag of ``QueryEngine.answer``.  The concrete plans mirror
the paper's evaluation disciplines across three execution substrates:

* :class:`ActiveDomainPlan` — active-domain semantics by tree walking:
  quantifiers and answer variables range over the active domain, so every
  answer is finite by construction (sound and complete for
  domain-independent queries);
* :class:`CompiledAlgebraPlan` — the same active-domain answer via the
  calculus→algebra compiler and the set-at-a-time executor (hash joins,
  antijoins, selection pushdown);
* :class:`VectorizedAlgebraPlan` — the same algebra plans lowered to
  vectorized NumPy column kernels, with a transparent fallback ladder
  (vectorized → set executor → tree walker) recorded in ``explain()``;
* :class:`ParallelAlgebraPlan` — the same vectorized kernels partitioned
  into morsels and run on a shared worker pool, with a size heuristic so
  small states stay single-threaded (ladder: parallel → vectorized → set
  executor → tree walker);
* :class:`EnumerationPlan` — the Section 1.1 enumeration algorithm, complete
  for arbitrary finite queries over a domain with a decidable theory, bounded
  by a :class:`~repro.engine.budget.Budget`;
* :class:`GuardedPlan` — wraps an inner plan with an effective-syntax
  restriction and/or a relative-safety check, rejecting provably infinite
  answers; over pure equality the check and the answer share one run of the
  inner plan (:class:`~repro.safety.relative_safety.FreshElementProbe`).

Every plan carries an :meth:`~Plan.explain` describing *why* the strategy was
chosen (theory decidability, availability of a safety decider, explicit user
request), so the choice is auditable rather than buried in a string flag.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import AbstractSet, ClassVar, Optional, Tuple, Union

from ..domains.base import Domain, TheoryUndecidableError
from ..logic.analysis import free_variables
from ..logic.formulas import Formula
from ..relational.bounds import NarrowingStats
from ..relational.calculus import evaluate_query_active_domain
from ..relational.columnar import (
    HAVE_NUMPY,
    CodedRows,
    VectorizationError,
    encode_cache_info,
    execute_vectorized,
    vectorization_obstacle,
)
from ..relational.compile import CompilationError, CompiledQuery, compile_query
from ..relational.parallel import DEFAULT_MORSEL_ROWS, MorselStats, execute_parallel
from ..relational.state import DatabaseState, Element, Relation, Row
from ..safety.classes import FinitenessStatus, SafetyVerdict
from ..safety.effective_syntax import EffectiveSyntax
from ..safety.relative_safety import (
    EqualityRelativeSafety,
    FreshElementProbe,
    RelativeSafetyDecider,
    RelativeSafetyUndecidable,
)
from .answer_cache import AnswerCache
from .answers import Answer, FiniteAnswer, InfiniteAnswer
from .breaker import SubstrateBreaker, default_breaker
from .budget import Budget, CancelToken, Deadline, EvaluationInterrupted
from .plan_cache import PlanCache

__all__ = [
    "Plan",
    "ActiveDomainPlan",
    "CompiledAlgebraPlan",
    "VectorizedAlgebraPlan",
    "ParallelAlgebraPlan",
    "IncrementalAlgebraPlan",
    "EnumerationPlan",
    "GuardedPlan",
    "GuardedOutcome",
    "plan_for_strategy",
    "decide_or_semidecide",
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
    infinite verdict decodes only its witness rows.
    """
    if probe is None:
        if isinstance(result, CodedRows):
            result = result.decode()
        if not isinstance(result, Relation):
            result = Relation(arity, result)
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
            witnesses=tuple(sorted(witnesses)),
        )
    return FiniteAnswer(Relation(arity, rows), method=method)


#: the strategy names understood by :func:`plan_for_strategy`
STRATEGIES = (
    "auto", "active-domain", "compiled", "vectorized", "parallel",
    "incremental", "enumeration", "guarded",
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

    On registry-flagged ordered carriers the tree walker narrows each
    quantifier's candidate range to the interval union inferred by the
    shared bound analysis (:mod:`repro.relational.bounds`) — bisected over
    the value-sorted active domain — instead of iterating the full domain
    per quantifier; :meth:`explain` reports what the narrowing did.
    """

    domain: Domain
    budget: Budget = field(default_factory=Budget)
    extra_elements: Tuple[Element, ...] = ()
    reason: str = "active-domain semantics keeps every answer finite by construction"
    #: cooperative cancellation flag checked at the walker's checkpoints
    cancel_token: Optional[CancelToken] = None
    #: what quantifier-range narrowing did during the last execution
    last_narrowing: Optional[str] = None

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
        stats = NarrowingStats()
        self.last_interruption = None
        try:
            relation = evaluate_query_active_domain(
                query,
                state,
                interpretation=self.domain,
                extra_elements=_probed(self.extra_elements, probe),
                stats=stats,
                deadline=self._start_deadline(),
            )
        except EvaluationInterrupted as error:
            self._record_interruption(error)
            raise
        self.last_narrowing = stats.describe() if stats.enabled else None
        return _finish(relation, relation.arity, "active-domain", probe)

    def explain(self) -> str:
        text = super().explain()
        if self.last_narrowing:
            text += "; " + self.last_narrowing
        return text


@dataclass(eq=False)
class CompiledAlgebraPlan(Plan):
    """Compile to relational algebra and execute set-at-a-time.

    Computes exactly the same active-domain answer as
    :class:`ActiveDomainPlan`, but via the
    :mod:`repro.relational.compile` → :mod:`repro.relational.exec` pipeline
    (hash joins, antijoins, selection pushdown) instead of tuple-at-a-time
    tree walking.  When compilation bails (function symbols, exotic terms)
    the plan falls back to the tree-walking evaluator transparently and
    :meth:`explain` records why.
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
    #: failure breaker demoting faulty accelerated substrates (the shared
    #: process-wide default when ``None``)
    breaker: Optional[SubstrateBreaker] = None
    #: why the last execution fell back to the tree walker, if it did
    fallback_reason: Optional[str] = None
    #: operator census of the last compiled plan, for explain()
    last_summary: Optional[str] = None

    strategy = "compiled-algebra"
    #: component of the plan-cache key separating execution substrates
    _substrate: ClassVar[str] = "compiled"

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
            return self._execute_with(query, state, deadline, probe)
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
        try:
            compiled = self._compiled(query, state)
        except CompilationError as error:
            self.fallback_reason = str(error)
            self.last_summary = None
            return self._tree_walk_answer(query, state, deadline, probe)
        self.fallback_reason = None
        self.last_summary = compiled.summary()
        return self._set_executor_answer(compiled, state, deadline, probe)

    def _breaker(self) -> SubstrateBreaker:
        return self.breaker if self.breaker is not None else default_breaker()

    def _tree_walk_answer(
        self,
        query: Formula,
        state: DatabaseState,
        deadline: Optional[Deadline],
        probe: Optional[FreshElementProbe],
    ) -> Answer:
        """The tree-walking fallback shared by every algebra substrate."""
        relation = evaluate_query_active_domain(
            query,
            state,
            interpretation=self.domain,
            extra_elements=_probed(self.extra_elements, probe),
            deadline=deadline,
        )
        return _finish(relation, relation.arity, "active-domain", probe)

    def _set_executor_answer(
        self,
        compiled: CompiledQuery,
        state: DatabaseState,
        deadline: Optional[Deadline],
        probe: Optional[FreshElementProbe],
    ) -> Answer:
        """The reference set-at-a-time rung shared by every algebra substrate."""
        relation = compiled.execute(
            state, self.domain, _probed(self.extra_elements, probe),
            deadline=deadline,
        )
        return _finish(relation, relation.arity, "compiled-algebra", probe)

    def _compiled(self, query: Formula, state: DatabaseState) -> CompiledQuery:
        """Compile ``query`` for the state's schema, via the cache if present.

        Compilation *failures* are cached too (as the raised error), so a hot
        loop over a non-compilable query pays the formula walk only once.
        """
        if self.cache is None:
            return compile_query(query, state.schema, self.domain)
        key = (query, state.schema, self.domain.name, self._substrate)
        cached = self.cache.get(key)
        if cached is None:
            try:
                cached = compile_query(query, state.schema, self.domain)
            except CompilationError as error:
                cached = error
            self.cache.put(key, cached)
        if isinstance(cached, CompilationError):
            raise cached
        return cached

    def explain(self) -> str:
        text = f"strategy {self.strategy!r}: {self.reason}"
        if self.last_summary:
            text += f" (last plan: {self.last_summary})"
        if self.fallback_reason:
            text += self._fallback_note()
        if self.last_interruption:
            text += f"; interrupted: {self.last_interruption}"
        for substrate in ("parallel", "vectorized"):
            if self._breaker().state(substrate) != "closed":
                text += (
                    f"; {substrate} breaker "
                    + self._breaker().describe(substrate)
                )
        if self.cache is not None:
            text += f"; plan cache {self.cache.info()}"
        return text

    def _fallback_note(self) -> str:
        return (
            "; fell back to the tree-walking active-domain evaluator: "
            + (self.fallback_reason or "")
        )


@dataclass(eq=False)
class VectorizedAlgebraPlan(CompiledAlgebraPlan):
    """Compile to relational algebra and execute on NumPy column arrays.

    The third execution substrate: the same algebra plan a
    :class:`CompiledAlgebraPlan` interprets set-at-a-time is lowered to the
    vectorized columnar executor (:mod:`repro.relational.columnar`) —
    ``int64`` code columns, sort-based joins via ``np.searchsorted``,
    antijoin membership masks, adom padding as broadcasts.  The answer is
    always exactly the active-domain answer; when a plan or carrier resists
    vectorization (a domain predicate without a kernel, a non-integer carrier
    under a domain predicate, numpy missing) execution falls back to the set
    executor, and when compilation itself bails it falls all the way back to
    the tree walker — either way :meth:`explain` records the reason.
    """

    reason: str = (
        "the query compiles to relational algebra and lowers to vectorized "
        "NumPy kernels, so scans, joins, and antijoins run on int64 column "
        "arrays instead of Python sets of tuples"
    )

    strategy = "vectorized"
    _substrate: ClassVar[str] = "vectorized"

    def _execute_with(
        self,
        query: Formula,
        state: DatabaseState,
        deadline: Optional[Deadline],
        probe: Optional[FreshElementProbe],
    ) -> Answer:
        try:
            compiled, obstacle = self._vectorized(query, state)
        except CompilationError as error:
            self.fallback_reason = (
                str(error) + "; answered by the tree-walking active-domain "
                "evaluator instead"
            )
            self.last_summary = None
            return self._tree_walk_answer(query, state, deadline, probe)
        self.last_summary = compiled.summary()
        breaker = self._breaker()
        if obstacle is None and not breaker.allow("vectorized"):
            obstacle = (
                "the vectorized substrate is demoted by its failure breaker "
                f"({breaker.describe('vectorized')})"
            )
        elif obstacle is None:
            try:
                coded = execute_vectorized(
                    compiled.plan,
                    state,
                    compiled.universe(state, _probed(self.extra_elements, probe)),
                    deadline=deadline,
                )
            except VectorizationError as error:
                obstacle = str(error)
            except EvaluationInterrupted:
                raise
            except Exception as error:
                breaker.record_fault("vectorized", error)
                obstacle = (
                    "the vectorized substrate faulted "
                    f"({type(error).__name__}: {error}); breaker "
                    + breaker.state("vectorized")
                )
            else:
                breaker.record_success("vectorized")
                self.fallback_reason = None
                return _finish(coded, len(compiled.output), "vectorized", probe)
        self.fallback_reason = (
            obstacle + "; executed by the set-at-a-time executor instead"
        )
        return self._set_executor_answer(compiled, state, deadline, probe)

    def _vectorized(
        self, query: Formula, state: DatabaseState
    ) -> Tuple[CompiledQuery, Optional[str]]:
        """The compiled plan plus its *static* vectorization obstacle.

        Both are state-independent, so the pair is what the plan cache
        stores under this substrate's key — which is why the ``"vectorized"``
        and ``"compiled"`` cache entries genuinely differ.  Compilation
        failures are cached as the raised error, like the parent's.
        """
        if self.cache is None:
            compiled = compile_query(query, state.schema, self.domain)
            return compiled, vectorization_obstacle(compiled.plan)
        key = (query, state.schema, self.domain.name, self._substrate)
        cached = self.cache.get(key)
        if cached is None:
            try:
                compiled = compile_query(query, state.schema, self.domain)
                cached = (compiled, vectorization_obstacle(compiled.plan))
            except CompilationError as error:
                cached = error
            self.cache.put(key, cached)
        if isinstance(cached, CompilationError):
            raise cached
        return cached

    def _fallback_note(self) -> str:
        return "; fell back: " + (self.fallback_reason or "")

    def explain(self) -> str:
        text = super().explain()
        if HAVE_NUMPY:
            text += f"; encode cache {encode_cache_info()}"
        return text


@dataclass(eq=False)
class ParallelAlgebraPlan(VectorizedAlgebraPlan):
    """Run the vectorized kernels morsel-parallel on a shared worker pool.

    The fourth execution substrate, and the top of the transparent fallback
    ladder (parallel → vectorized → set executor → tree walker).  The same
    algebra plan a :class:`VectorizedAlgebraPlan` lowers to NumPy kernels is
    partitioned into fixed-size row chunks ("morsels") and dispatched to the
    process-wide thread pool of :mod:`repro.relational.parallel` — NumPy
    releases the GIL inside its kernels, so the chunks genuinely run on
    multiple cores.  Tiny states skip the pool: below
    ``parallel_threshold`` total input rows the plan answers through the
    single-threaded vectorized path, because thread dispatch would cost more
    than it saves.  :meth:`explain` records worker counts, morsel counts,
    and per-stage merge statistics of the last parallel execution.
    """

    reason: str = (
        "the query compiles to relational algebra, lowers to vectorized "
        "NumPy kernels, and runs them morsel-parallel on the shared worker "
        "pool; small states stay single-threaded"
    )
    #: rows per morsel handed to the worker pool
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    #: total input rows (stored + active domain) below which the pool is skipped
    parallel_threshold: int = 2048
    #: morsel/merge accounting of the last parallel execution, for explain()
    last_morsels: Optional[str] = None

    strategy = "parallel"
    _substrate: ClassVar[str] = "parallel"

    def _execute_with(  # noqa: C901 - the ladder is one deliberate sequence
        self,
        query: Formula,
        state: DatabaseState,
        deadline: Optional[Deadline],
        probe: Optional[FreshElementProbe],
    ) -> Answer:
        self.last_morsels = None
        try:
            compiled, obstacle = self._vectorized(query, state)
        except CompilationError as error:
            self.fallback_reason = (
                str(error) + "; answered by the tree-walking active-domain "
                "evaluator instead"
            )
            self.last_summary = None
            return self._tree_walk_answer(query, state, deadline, probe)
        self.last_summary = compiled.summary()
        breaker = self._breaker()
        if obstacle is None:
            universe = compiled.universe(state, _probed(self.extra_elements, probe))
            size = state.total_rows() + len(universe)
            # Rung 1: the worker pool — skipped for tiny states and while
            # the parallel breaker is open.
            pool_skip: Optional[str] = None
            if size < self.parallel_threshold:
                pool_skip = (
                    f"state too small for the pool ({size} < "
                    f"{self.parallel_threshold} rows); ran the "
                    "single-threaded vectorized kernels instead"
                )
            elif not breaker.allow("parallel"):
                pool_skip = (
                    "the parallel substrate is demoted by its failure "
                    f"breaker ({breaker.describe('parallel')}); ran the "
                    "single-threaded vectorized kernels instead"
                )
            if pool_skip is None:
                stats = MorselStats()
                try:
                    coded = execute_parallel(
                        compiled.plan,
                        state,
                        universe,
                        morsel_rows=self.morsel_rows,
                        stats=stats,
                        deadline=deadline,
                    )
                except VectorizationError as error:
                    obstacle = str(error)
                except EvaluationInterrupted:
                    raise
                except Exception as error:
                    breaker.record_fault("parallel", error)
                    pool_skip = (
                        "the parallel substrate faulted "
                        f"({type(error).__name__}: {error}); demoted to the "
                        "single-threaded vectorized kernels"
                    )
                else:
                    breaker.record_success("parallel")
                    self.fallback_reason = None
                    self.last_morsels = stats.describe()
                    return _finish(coded, len(compiled.output), "parallel", probe)
            # Rung 2: the single-threaded vectorized kernels.
            if obstacle is None:
                assert pool_skip is not None
                if not breaker.allow("vectorized"):
                    obstacle = (
                        "the vectorized substrate is demoted by its failure "
                        f"breaker ({breaker.describe('vectorized')})"
                    )
                else:
                    try:
                        coded = execute_vectorized(
                            compiled.plan, state, universe, deadline=deadline
                        )
                    except VectorizationError as error:
                        obstacle = str(error)
                    except EvaluationInterrupted:
                        raise
                    except Exception as error:
                        breaker.record_fault("vectorized", error)
                        obstacle = (
                            "the vectorized substrate faulted "
                            f"({type(error).__name__}: {error}); breaker "
                            + breaker.state("vectorized")
                        )
                    else:
                        breaker.record_success("vectorized")
                        self.fallback_reason = pool_skip
                        return _finish(
                            coded, len(compiled.output), "vectorized", probe
                        )
        # Rung 3: the reference set-at-a-time executor (never demoted).
        self.fallback_reason = (
            obstacle + "; executed by the set-at-a-time executor instead"
        )
        return self._set_executor_answer(compiled, state, deadline, probe)

    def explain(self) -> str:
        text = super().explain()
        if self.last_morsels:
            text += "; morsels: " + self.last_morsels
        return text


@dataclass(eq=False)
class IncrementalAlgebraPlan(CompiledAlgebraPlan):
    """Answer from a per-session answer cache, patched by state deltas.

    The write-path substrate: the same compiled algebra plan a
    :class:`CompiledAlgebraPlan` executes is *materialised* — every
    operator's output retained — and stored in an
    :class:`~repro.engine.answer_cache.AnswerCache` keyed by (query, schema,
    domain, extras, whether a fresh-element probe enlarged the universe) and
    stamped with the state fingerprint.  A repeat query
    against the same state is O(answer); against a state mutated through
    :meth:`~repro.relational.state.DatabaseState.apply` the materialisation
    is patched by the ΔQ rules of :mod:`repro.relational.delta` at
    O(Δ · answer) cost; everything else falls back to one full materialising
    execution.  :meth:`explain` records which of the three happened (and
    why) after every execution.

    Plan compilation is shared with the ``"compiled"`` substrate's cache
    entries (the algebra plan is identical); only the answer materialisation
    is new.
    """

    answer_cache: Optional[AnswerCache] = None
    reason: str = (
        "the session opted into incremental evaluation, so answers are "
        "materialised once and patched by ΔQ rules when the state mutates"
    )
    #: what the answer cache did on the last execution, and why
    last_decision: Optional[str] = None

    strategy = "incremental"
    #: shares the set-at-a-time substrate's compiled-plan cache entries
    _substrate: ClassVar[str] = "compiled"

    def _execute_with(
        self,
        query: Formula,
        state: DatabaseState,
        deadline: Optional[Deadline],
        probe: Optional[FreshElementProbe],
    ) -> Answer:
        try:
            compiled = self._compiled(query, state)
        except CompilationError as error:
            self.fallback_reason = str(error)
            self.last_summary = None
            self.last_decision = (
                "recomputed in full: compilation failed, answered by the "
                "tree-walking active-domain evaluator"
            )
            return self._tree_walk_answer(query, state, deadline, probe)
        self.fallback_reason = None
        self.last_summary = compiled.summary()
        if self.answer_cache is None:
            self.last_decision = "recomputed in full: no answer cache configured"
            return self._set_executor_answer(compiled, state, deadline, probe)
        # A probed entry materialises the enlarged universe, so ΔQ maintains
        # verdict and answer together.  Its key leaves the fresh elements
        # out: a delta that stores a current fresh element makes the next
        # probe keep the others and add one, which only *grows* the
        # universe — maintained like any other active-domain growth.
        extras = _probed(self.extra_elements, probe)
        key = (
            query, state.schema, self.domain.name, self.extra_elements,
            probe is not None,
        )
        rows, decision = self.answer_cache.answer(
            key, compiled, state, extras, self.domain, deadline
        )
        self.last_decision = decision
        return _finish(rows, len(compiled.output), "incremental", probe)

    def explain(self) -> str:
        text = super().explain()
        if self.answer_cache is not None:
            text += f"; answer cache {self.answer_cache.info()}"
        if self.last_decision:
            text += f"; last answer: {self.last_decision}"
        return text


@dataclass(eq=False)
class EnumerationPlan(Plan):
    """Run the Section 1.1 enumeration algorithm (needs a decidable theory).

    The candidate search is seeded with the compiled active-domain superset
    intersected with the inferred interval bounds of the free variables
    (:mod:`repro.relational.bounds`), so on decidable ordered domains the
    number of decision-procedure calls is bounded by the compiled answer
    instead of ``max_candidates``; :meth:`explain` reports which generator
    ran and how many candidates it tested.
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

    With the Section 2 fresh-element decider and an active-domain inner plan
    the two are fused: the inner plan runs once over the universe enlarged
    by the decider's probe elements, and the rows split into the verdict and
    the exact answer.  Every other decider runs first, on its own."""

    inner: Plan
    syntax: Optional[EffectiveSyntax] = None
    safety: Optional[RelativeSafetyDecider] = None
    reason: str = ""

    strategy = "guarded"

    @property
    def budget(self) -> Budget:
        return getattr(self.inner, "budget", Budget())

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
        if self.safety is not None:
            verdict = decide_or_semidecide(self.safety, admitted, state, self.budget.fuel)
            if verdict.status is FinitenessStatus.INFINITE:
                arity = len(free_variables(admitted))
                answer = InfiniteAnswer(
                    Relation(arity, []),
                    reason="rejected by the relative-safety guard: " + verdict.details,
                    method=verdict.method,
                )
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


def plan_for_strategy(
    strategy: str,
    domain: Domain,
    budget: Optional[Budget] = None,
    *,
    extra_elements: Tuple[Element, ...] = (),
    syntax: Optional[EffectiveSyntax] = None,
    safety: Optional[RelativeSafetyDecider] = None,
    cache: Optional[PlanCache] = None,
    answer_cache: Optional[AnswerCache] = None,
    cancel_token: Optional[CancelToken] = None,
    breaker: Optional[SubstrateBreaker] = None,
) -> Plan:
    """Build the :class:`Plan` for a strategy name.

    This is the planner behind the legacy string-flag API.  ``"auto"`` picks
    enumeration when the domain theory is decidable and active-domain
    semantics otherwise, and wraps the choice in a :class:`GuardedPlan` when a
    syntax or safety guard is supplied.  A ``cancel_token`` aborts the
    execution cooperatively from another thread; ``breaker`` overrides the
    process-wide default substrate failure breaker.
    """
    budget = budget if budget is not None else Budget()
    if strategy == "active-domain":
        inner: Plan = ActiveDomainPlan(
            domain=domain,
            budget=budget,
            extra_elements=tuple(extra_elements),
            reason="requested explicitly; every answer is finite by construction",
            cancel_token=cancel_token,
        )
    elif strategy == "compiled":
        inner = CompiledAlgebraPlan(
            domain=domain,
            budget=budget,
            extra_elements=tuple(extra_elements),
            cache=cache,
            reason="requested explicitly; compiles to relational algebra and "
            "falls back to tree walking when compilation bails",
            cancel_token=cancel_token,
            breaker=breaker,
        )
    elif strategy == "vectorized":
        inner = VectorizedAlgebraPlan(
            domain=domain,
            budget=budget,
            extra_elements=tuple(extra_elements),
            cache=cache,
            reason="requested explicitly; lowers the algebra plan to NumPy "
            "column kernels, falling back to the set executor (and, when "
            "compilation bails, the tree walker)",
            cancel_token=cancel_token,
            breaker=breaker,
        )
    elif strategy == "parallel":
        inner = ParallelAlgebraPlan(
            domain=domain,
            budget=budget,
            extra_elements=tuple(extra_elements),
            cache=cache,
            reason="requested explicitly; runs the vectorized NumPy kernels "
            "morsel-parallel on the shared worker pool (small states stay "
            "single-threaded), falling back to the set executor (and, when "
            "compilation bails, the tree walker)",
            cancel_token=cancel_token,
            breaker=breaker,
        )
    elif strategy == "incremental":
        inner = IncrementalAlgebraPlan(
            domain=domain,
            budget=budget,
            extra_elements=tuple(extra_elements),
            cache=cache,
            answer_cache=answer_cache if answer_cache is not None else AnswerCache(),
            reason="requested explicitly; materialises answers and patches "
            "them by ΔQ rules when the state mutates, falling back to a full "
            "re-execution (and, when compilation bails, the tree walker)",
            cancel_token=cancel_token,
            breaker=breaker,
        )
    elif strategy == "enumeration":
        inner = EnumerationPlan(
            domain=domain,
            budget=budget,
            reason="requested explicitly; requires a decidable domain theory",
            cancel_token=cancel_token,
        )
    elif strategy in ("auto", "guarded"):
        if domain.has_decidable_theory:
            inner = EnumerationPlan(
                domain=domain,
                budget=budget,
                reason=f"the first-order theory of {domain.name!r} is decidable, so "
                "the Section 1.1 enumeration algorithm answers any finite query",
                cancel_token=cancel_token,
            )
        else:
            inner = ActiveDomainPlan(
                domain=domain,
                budget=budget,
                extra_elements=tuple(extra_elements),
                reason=f"the theory of {domain.name!r} has no decision procedure; "
                "falling back to active-domain semantics",
                cancel_token=cancel_token,
            )
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

    if strategy == "guarded" and syntax is None and safety is None:
        raise ValueError(
            "strategy 'guarded' requires an effective syntax and/or a "
            "relative-safety decider"
        )
    if syntax is None and safety is None:
        return inner
    if strategy in (
        "active-domain", "compiled", "vectorized", "parallel", "incremental",
        "enumeration",
    ):
        # Explicit single-strategy requests bypass the guards.
        return inner
    parts = []
    if safety is not None:
        parts.append(
            f"relative safety over {domain.name!r} is decidable via "
            f"{safety.name!r}, so provably infinite answers are rejected "
            "before evaluation"
        )
    if syntax is not None:
        parts.append(
            f"queries outside the effective syntax {syntax.name!r} are "
            "restricted to it first"
        )
    return GuardedPlan(inner=inner, syntax=syntax, safety=safety, reason="; ".join(parts))
