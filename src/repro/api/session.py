"""The unified session API: compile → analyze → plan → execute.

:func:`repro.connect` opens a :class:`Session` against a named domain (via
the registry in :mod:`repro.domains.packs`) and an optional database
schema.  The session owns the whole pipeline the paper describes:

1. **compile** — accept a query as calculus text (parsed by
   :mod:`repro.logic.parser`) or as a :class:`~repro.logic.formulas.Formula`,
   and check its symbols against the schema and the domain signature;
2. **analyze** — free variables, database predicates, theory decidability,
   and (when the domain has a decidable relative-safety problem) a safety
   verdict in the given state;
3. **plan** — pick an evaluation strategy as a first-class
   :class:`~repro.engine.plans.Plan` with an ``explain()``;
4. **execute** — run the plan under a :class:`~repro.engine.budget.Budget`
   and return an :class:`~repro.engine.answers.Answer`.

Example::

    import repro

    session = repro.connect(domain="presburger")
    answer = session.query("x < 5", budget=repro.Budget(max_rows=10))
    assert answer.rows() == ((0,), (1,), (2,), (3,), (4,))
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import used only by annotations
    from ..relational.columnar import EncodeCacheInfo

from ..domains.base import Domain
from ..domains.packs import DomainPack, get_pack
from ..domains.signature import Signature
from ..engine.answers import Answer
from ..engine.budget import Budget, CancelToken
from ..engine.plan_cache import PlanCache, PlanCacheInfo
from ..engine.plans import GuardedPlan, Plan, decide_or_semidecide
from ..logic.analysis import free_variables, functions_of, predicates_of
from ..logic.formulas import Atom, Formula, walk_formulas
from ..logic.parser import ParseError, parse_formula
from ..relational.schema import DatabaseSchema
from ..relational.state import DatabaseState, Delta, Element
from ..safety.classes import SafetyVerdict
from ..safety.effective_syntax import EffectiveSyntax
from ..safety.relative_safety import RelativeSafetyDecider
from .planner import Planner

__all__ = ["Session", "SessionError", "QueryAnalysis", "QueryResult", "connect"]

QueryLike = Union[str, Formula]

#: parsed query texts, shared by every session: formulas are immutable
#: values, and a serving loop sends the same few texts over and over.  A
#: text that fails to parse is not cached, so it raises the same error again.
_parse = functools.lru_cache(maxsize=512)(parse_formula)


class SessionError(ValueError):
    """Raised when a query cannot be compiled against the session."""


def _validate(schema: DatabaseSchema, signature: Signature, formula: Formula) -> None:
    """Check the predicates, functions and arities of ``formula`` against
    ``schema`` and the domain ``signature``; raise :class:`SessionError`."""
    known_predicates = set(schema.names) | set(signature.predicates)
    unknown = sorted(predicates_of(formula) - known_predicates)
    if unknown:
        raise SessionError(
            f"unknown predicate(s) {', '.join(map(repr, unknown))}; known "
            f"relations: {sorted(schema.names)!r}, domain predicates: "
            f"{sorted(signature.predicates)!r}"
        )
    unknown_functions = sorted(functions_of(formula) - set(signature.functions))
    if unknown_functions:
        raise SessionError(
            f"unknown function(s) {', '.join(map(repr, unknown_functions))}; "
            f"domain functions: {sorted(signature.functions)!r}"
        )
    for sub in walk_formulas(formula):
        if not isinstance(sub, Atom):
            continue
        if sub.predicate in schema:
            expected = schema.arity(sub.predicate)
        elif signature.has_predicate(sub.predicate):
            expected = signature.predicate_arity(sub.predicate)
        else:
            continue
        if len(sub.args) != expected:
            raise SessionError(
                f"predicate {sub.predicate!r} expects {expected} "
                f"argument(s), got {len(sub.args)} in {sub}"
            )


@dataclass(frozen=True)
class QueryAnalysis:
    """What the session learned about a query before executing it."""

    formula: Formula
    free_variables: Tuple[str, ...]
    database_predicates: Tuple[str, ...]
    theory_decidable: bool
    verdict: Optional[SafetyVerdict] = None

    def explain(self) -> str:
        parts = [
            f"free variables: {', '.join(self.free_variables) or '(none — a sentence)'}",
            f"database predicates: {', '.join(self.database_predicates) or '(pure domain formula)'}",
            "domain theory decidable" if self.theory_decidable else "domain theory undecidable",
        ]
        if self.verdict is not None:
            parts.append(
                f"relative safety: {self.verdict.status.value} "
                f"via {self.verdict.method}"
            )
        return "; ".join(parts)


@dataclass(frozen=True)
class QueryResult:
    """A full pipeline trace: formula, plan, answer, and guard decisions."""

    formula: Formula
    plan: Plan
    answer: Answer
    admitted_query: Formula
    verdict: Optional[SafetyVerdict] = None
    rewritten: bool = False
    elapsed: float = 0.0

    def explain(self) -> str:
        lines = [self.plan.explain(), self.answer.explain()]
        if self.rewritten:
            lines.append("the query was rewritten into the effective syntax")
        if self.verdict is not None:
            lines.append(
                f"safety verdict: {self.verdict.status.value} via {self.verdict.method}"
            )
        lines.append(f"elapsed: {self.elapsed * 1000:.2f} ms")
        return "\n".join(lines)


class Session:
    """A connection to one domain and schema, owning the query pipeline."""

    def __init__(
        self,
        domain: Union[str, Domain],
        schema: Optional[DatabaseSchema] = None,
        *,
        budget: Optional[Budget] = None,
        syntax: Optional[EffectiveSyntax] = None,
        safety: Optional[RelativeSafetyDecider] = None,
        guard: bool = True,
        restrict: bool = False,
        plan_cache_size: int = 128,
        plan_cache: Optional[PlanCache] = None,
    ):
        # The pack supplies the default guards; what the domain can do
        # (compiled algebra, finite carrier) is read off the
        # domain itself, so an unregistered instance keeps its capabilities.
        pack: Optional[DomainPack] = None
        if isinstance(domain, str):
            pack = get_pack(domain)
            self._domain = pack.factory()
        else:
            self._domain = domain
            try:
                pack = get_pack(domain.name)
            except LookupError:
                pack = None
        self._schema = schema if schema is not None else DatabaseSchema()
        self._budget = budget if budget is not None else Budget()

        # The relative-safety guard is installed by default (it only ever
        # *rejects* provably infinite answers); the effective-syntax rewrite
        # changes query semantics, so it is opt-in via ``restrict=True`` or an
        # explicit ``syntax=``.
        if not guard and (restrict or syntax is not None or safety is not None):
            raise SessionError(
                "guard=False disables all guards, which contradicts the "
                "explicit restrict/syntax/safety arguments"
            )
        if guard:
            if safety is None and pack is not None and pack.safety_factory is not None:
                safety = pack.safety_factory(self._domain)
            if syntax is None and restrict:
                if pack is None or pack.syntax_factory is None:
                    raise SessionError(
                        f"restrict=True, but domain {self._domain.name!r} has no "
                        "registered effective syntax (for the trace domain this "
                        "is Theorem 3.1: none exists)"
                    )
                syntax = pack.syntax_factory(self._schema)
        self._safety = safety if guard else None
        self._syntax = syntax if guard else None
        # The plan cache makes repeated queries skip calculus→algebra
        # compilation; it is keyed by (formula, schema fingerprint, domain),
        # so states may vary freely between calls and every algebra plan
        # shares one entry per query.  Passing ``plan_cache=`` shares
        # one (thread-safe) cache across sessions — the serving layer uses
        # this so every session warms every other's plans.
        self._plan_cache = (
            plan_cache if plan_cache is not None else PlanCache(maxsize=plan_cache_size)
        )
        self._planner = Planner(
            self._domain,
            syntax=self._syntax,
            safety=self._safety,
            plan_cache=self._plan_cache,
        )
        # lru_cache keeps no call that raised, so only valid formulas are
        # remembered; the partial holds no reference back to the session.
        self._validate = functools.lru_cache(maxsize=self._plan_cache.maxsize)(
            functools.partial(_validate, self._schema, self._domain.signature)
        )

    # -- introspection -------------------------------------------------------

    @property
    def domain(self) -> Domain:
        """The domain queries are interpreted over."""
        return self._domain

    @property
    def schema(self) -> DatabaseSchema:
        """The database schema states must conform to."""
        return self._schema

    @property
    def budget(self) -> Budget:
        """The session's default budget (overridable per query)."""
        return self._budget

    @property
    def safety(self) -> Optional[RelativeSafetyDecider]:
        """The relative-safety decider guarding this session, if any."""
        return self._safety

    @property
    def syntax(self) -> Optional[EffectiveSyntax]:
        """The effective syntax guarding this session, if any."""
        return self._syntax

    @property
    def plan_cache(self) -> PlanCache:
        """The session's LRU cache of compiled algebra plans."""
        return self._plan_cache

    def plan_cache_info(self) -> PlanCacheInfo:
        """Hit/miss/eviction counters for the compiled-plan cache."""
        return self._plan_cache.info()

    @property
    def incremental(self) -> bool:
        """Always ``False``: every query is recomputed, and no session
        maintains answers across deltas.  Kept for callers that read it."""
        return False

    def encode_cache_info(self) -> "EncodeCacheInfo":
        """Counters for the per-state columnar encode stores.

        Encoded columns are a property of the state, not of the session,
        so these counters are process-wide and aggregate across sessions.
        """
        from ..relational.columnar import encode_cache_info

        return encode_cache_info()

    def __repr__(self) -> str:
        return (
            f"Session(domain={self._domain.name!r}, "
            f"schema={len(self._schema)} relation(s), "
            f"guarded={self._planner.guarded})"
        )

    # -- pipeline stage 1: compile ------------------------------------------

    def compile(self, query: QueryLike) -> Formula:
        """Parse (if text: once per distinct text, process-wide) and validate
        a query against schema and signature (once per distinct formula and
        session).

        Neither the schema nor the signature changes, so a formula that
        passed once passes again; the session remembers as many as its plan
        cache holds.  A formula that fails is not remembered, and raises
        :class:`SessionError` on every call, as unparsable text does.
        """
        if isinstance(query, str):
            try:
                formula = _parse(query)
            except ParseError as error:
                raise SessionError(f"cannot parse query {query!r}: {error}") from error
        elif isinstance(query, Formula):
            formula = query
        else:
            raise SessionError(
                f"expected calculus text or a Formula, got {type(query).__name__}"
            )
        self._validate(formula)
        return formula

    # -- pipeline stage 2: analyze ------------------------------------------

    def analyze(
        self,
        query: QueryLike,
        state: Optional[DatabaseState] = None,
    ) -> QueryAnalysis:
        """Static + state-dependent facts about the query."""
        formula = self.compile(query)
        state = state if state is not None else self.state()
        verdict: Optional[SafetyVerdict] = None
        if self._safety is not None:
            verdict = decide_or_semidecide(
                self._safety, formula, state, self._budget.fuel
            )
        schema_names = set(self._schema.names)
        return QueryAnalysis(
            formula=formula,
            free_variables=tuple(sorted(v.name for v in free_variables(formula))),
            database_predicates=tuple(
                sorted(predicates_of(formula) & schema_names)
            ),
            theory_decidable=self._domain.has_decidable_theory,
            verdict=verdict,
        )

    # -- pipeline stage 3: plan ---------------------------------------------

    def plan(
        self,
        strategy: str = "auto",
        budget: Optional[Budget] = None,
        extra_elements: Iterable[Element] = (),
        cancel_token: Optional[CancelToken] = None,
    ) -> Plan:
        """The plan the session would execute for ``strategy``.

        ``cancel_token`` makes the execution cooperatively cancellable from
        another thread (used by the serving layer's ``/cancel``).
        """
        return self._planner.plan(
            strategy,
            budget if budget is not None else self._budget,
            extra_elements,
            cancel_token,
        )

    # -- pipeline stage 4: execute ------------------------------------------

    def execute(
        self,
        plan: Plan,
        query: QueryLike,
        state: Optional[DatabaseState] = None,
    ) -> Answer:
        """Run an already-built plan on a query."""
        formula = self.compile(query)
        state = state if state is not None else self.state()
        return plan.execute(formula, state)

    # -- the whole pipeline --------------------------------------------------

    def run(
        self,
        query: QueryLike,
        state: Optional[DatabaseState] = None,
        *,
        strategy: str = "auto",
        budget: Optional[Budget] = None,
        extra_elements: Iterable[Element] = (),
        cancel_token: Optional[CancelToken] = None,
    ) -> QueryResult:
        """Compile, plan, and execute; return the full pipeline trace."""
        formula = self.compile(query)
        state = state if state is not None else self.state()
        plan = self.plan(strategy, budget, extra_elements, cancel_token)
        started = time.perf_counter()
        if isinstance(plan, GuardedPlan):
            outcome = plan.run(formula, state)
            answer = outcome.answer
            admitted = outcome.admitted_query
            verdict = outcome.verdict
            rewritten = outcome.rewritten
        else:
            answer = plan.execute(formula, state)
            admitted = formula
            verdict = None
            rewritten = False
        elapsed = time.perf_counter() - started
        return QueryResult(
            formula=formula,
            plan=plan,
            answer=answer,
            admitted_query=admitted,
            verdict=verdict,
            rewritten=rewritten,
            elapsed=elapsed,
        )

    def query(
        self,
        query: QueryLike,
        state: Optional[DatabaseState] = None,
        *,
        strategy: str = "auto",
        budget: Optional[Budget] = None,
        extra_elements: Iterable[Element] = (),
    ) -> Answer:
        """Answer a query (text or formula); the one-call front door."""
        return self.run(
            query,
            state,
            strategy=strategy,
            budget=budget,
            extra_elements=extra_elements,
        ).answer

    def explain(
        self,
        query: QueryLike,
        state: Optional[DatabaseState] = None,
        strategy: str = "auto",
    ) -> str:
        """A human-readable account of how the session would answer ``query``."""
        analysis = self.analyze(query, state)
        plan = self.plan(strategy)
        return analysis.explain() + "\n" + plan.explain()

    # -- conveniences --------------------------------------------------------

    def state(self, relations=None, **named_relations) -> DatabaseState:
        """Build a database state over the session's schema.

        Accepts a mapping or keyword arguments of ``name -> rows``.
        """
        table = dict(relations or {})
        table.update(named_relations)
        return DatabaseState(self._schema, table)

    def apply_delta(self, state: DatabaseState, delta: Delta) -> DatabaseState:
        """Mutate ``state`` by ``delta``; return the new state.

        A convenience over :meth:`DatabaseState.apply
        <repro.relational.state.DatabaseState.apply>` that also hands the old
        state's encoded columns to the new one
        (:func:`repro.relational.columnar.apply_delta`): after an
        insert-only delta they are *grown* instead of re-encoded (merged
        codes, shared untouched arrays); after a delete the new state
        encodes its own on first use.
        """
        from ..relational.columnar import apply_delta

        return apply_delta(state, delta)


def connect(
    domain: Union[str, Domain] = "equality",
    schema: Optional[DatabaseSchema] = None,
    **options,
) -> Session:
    """Open a :class:`Session` against a registered domain.

    ``domain`` is a registry name or alias (``"eq"``, ``"nat<"``,
    ``"presburger"``, ``"succ"``, ``"traces"``, ...) or a
    :class:`~repro.domains.base.Domain` instance; ``schema`` defaults to the
    empty schema (pure domain queries).  Keyword options are forwarded to
    :class:`Session` (``budget``, ``syntax``, ``safety``, ``guard``,
    ``restrict``, ``plan_cache_size``, ``plan_cache``).
    """
    return Session(domain, schema, **options)
