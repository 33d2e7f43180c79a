"""The generic query-answering algorithm of Section 1.1.

"Suppose we know somehow that F(x) gives a finite answer in the given database
state. ... the formula F(x) can be translated into a pure domain formula
F'(x). ... Now let us order all tuples of elements of the domain of the size
of x.  Consider the formula ∃x F'(x).  If it is false, then the answer is the
empty relation. ... by checking F(a1), F(a2), ..., one at a time, we find the
first a_k that makes the formula F(a_k) true. ... Now take the formula
∃x (x ≠ a_k ∧ F'(x)). ... Thus, we just described an algorithm (as inefficient
as it is) for answering queries."

The implementation below is that algorithm, with three pragmatic additions: a
bound on the number of answer rows (so that infinite queries do not loop
forever — instead an :class:`~repro.engine.answers.UnknownAnswer` is
returned), a bound on the number of candidate tuples examined between two
rows, and an optional wall-clock limit.  All three live in a single
:class:`~repro.engine.budget.Budget`.

The candidate search is additionally *compiled*: where the paper's algorithm
dovetails blindly over all tuples of domain elements, this implementation
first offers the rows of the **compiled active-domain answer** (the algebra
backend's answer is where the witnesses overwhelmingly live).  Every
candidate is still verified with the domain's decision procedure, so the
seeding is a pure optimisation — exhausting it falls back to the blind
dovetail, preserving the original algorithm's guarantees.  A
:class:`CandidateStats` records which generator ran and how many candidates
were decision-tested (``EnumerationPlan.explain()`` surfaces it).

>>> from repro.domains.presburger import PresburgerDomain
>>> from repro.experiments.corpora import numeric_state
>>> from repro.logic.parser import parse_formula
>>> answer = answer_by_enumeration(
...     parse_formula("S(x)"), numeric_state([4, 7]), PresburgerDomain()
... )
>>> answer.rows(), answer.method
(((4,), (7,)), 'enumeration')
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..domains.base import Domain
from ..logic.analysis import free_variables
from ..logic.builders import conj, exists_many, neg
from ..logic.formulas import Equals, Formula
from ..logic.substitution import substitute
from ..logic.terms import Const, Var
from ..relational.state import DatabaseState, Element, Relation
from ..relational.translate import expand_database_atoms
from .answers import Answer, FiniteAnswer, UnknownAnswer
from .budget import Budget, Deadline

__all__ = [
    "enumerate_tuples",
    "answer_by_enumeration",
    "CandidateStats",
]


def enumerate_tuples(domain: Domain, arity: int, limit: int) -> Iterator[Tuple[Element, ...]]:
    """Enumerate up to ``limit`` tuples of domain elements of the given arity.

    Tuples are produced in non-decreasing order of the maximum enumeration
    index of their components (a fair, dovetailing order), so every tuple is
    eventually reached.
    """
    if arity == 0:
        yield ()
        return
    produced = 0
    elements: List[Element] = []
    element_iterator = domain.enumerate_elements()
    for radius in itertools.count(1):
        while len(elements) < radius:
            elements.append(next(element_iterator))
        for candidate in itertools.product(elements, repeat=arity):
            if max(elements.index(c) for c in candidate) != radius - 1:
                continue  # already produced at a smaller radius
            yield candidate
            produced += 1
            if produced >= limit:
                return


@dataclass
class CandidateStats:
    """Which candidate generator one enumeration run used, and how hard.

    ``examined`` counts candidates actually submitted to the domain's
    decision procedure; the compiled superset keeps it near the answer size
    instead of ``max_candidates``.
    """

    #: "compiled+dovetail" or "dovetail"
    generator: str = "dovetail"
    #: candidates decision-tested across all search rounds
    examined: int = 0
    #: calls to the domain's decision procedure: the candidate tests plus
    #: one "does a further row exist?" sentence per round
    decide_calls: int = 0
    #: size of the compiled active-domain superset, when one was computed
    compiled_rows: Optional[int] = None

    def describe(self) -> str:
        parts = [f"candidate generator {self.generator!r}"]
        if self.compiled_rows is not None:
            parts.append(f"compiled superset of {self.compiled_rows} row(s)")
        parts.append(f"{self.examined} candidate(s) decision-tested")
        parts.append(f"{self.decide_calls} decide call(s)")
        return "; ".join(parts)


def _compiled_superset(
    query: Formula,
    state: DatabaseState,
    domain: Domain,
    variables: Sequence[Var],
) -> Optional[List[Tuple[Element, ...]]]:
    """The compiled active-domain answer as prioritized candidate rows.

    Witnesses of database-bound (domain-independent) query parts live in the
    active-domain answer, so testing those rows first usually finds every
    answer row without touching the blind dovetail.  Returns ``None`` when
    the domain lacks the compiled backend or the query does not compile.
    """
    if not domain.supports_compiled_algebra:
        return None
    from ..relational.compile import CompilationError, compile_query

    try:
        compiled = compile_query(query, state.schema, domain)
    except CompilationError:
        return None
    names = [variable.name for variable in variables]
    if sorted(names) != list(compiled.output):
        return None  # an exotic free_order: do not risk misaligned columns
    order = [compiled.output.index(name) for name in names]
    rows = [
        tuple(row[position] for position in order)
        for row in compiled.execute(state, domain).rows
    ]
    rows.sort(key=repr)
    return rows


def answer_by_enumeration(
    query: Formula,
    state: DatabaseState,
    domain: Domain,
    max_rows: int = 1000,
    max_candidates: int = 10_000,
    free_order: Optional[Sequence[Var]] = None,
    budget: Optional[Budget] = None,
    candidate_source: str = "auto",
    stats: Optional[CandidateStats] = None,
    deadline: Optional[Deadline] = None,
) -> Answer:
    """Answer ``query`` in ``state`` using the Section 1.1 algorithm.

    Requires a domain with a decision procedure.  Returns a
    :class:`FiniteAnswer` when the algorithm terminates (which it always does
    for finite queries, given enough budget), and an :class:`UnknownAnswer`
    carrying the rows found so far when the budget is exhausted.  ``budget``
    takes precedence over the legacy ``max_rows`` / ``max_candidates``
    keywords.

    ``candidate_source`` selects the witness generator: ``"auto"`` (the
    default) seeds the search with the compiled active-domain superset,
    falling back to the blind dovetail; ``"dovetail"`` forces the paper's
    original enumeration (kept for differential testing and benchmarking).  Pass a
    :class:`CandidateStats` to observe what ran.

    A ``deadline`` (carrying a cancel token) replaces the internally started
    clock.  Enumeration keeps its contract of *returning* an
    :class:`UnknownAnswer` when time runs out — only an explicit
    cancellation raises (:class:`~repro.engine.budget.Cancelled`).
    """
    if budget is None:
        budget = Budget(max_rows=max_rows, max_candidates=max_candidates)
    if candidate_source not in ("auto", "dovetail"):
        raise ValueError(
            f"candidate_source must be 'auto' or 'dovetail', got "
            f"{candidate_source!r}"
        )
    clock = deadline if deadline is not None else budget.start()
    pure = expand_database_atoms(query, state)
    if free_order is None:
        variables = sorted(free_variables(pure), key=lambda v: v.name)
    else:
        variables = list(free_order)
    arity = len(variables)
    stats = stats if stats is not None else CandidateStats()

    compiled_rows: Optional[List[Tuple[Element, ...]]] = None
    if candidate_source == "auto":
        compiled_rows = _compiled_superset(query, state, domain, variables)
    if compiled_rows is not None:
        stats.compiled_rows = len(compiled_rows)
        stats.generator = "compiled+dovetail"
    else:
        stats.generator = "dovetail"

    def candidate_stream() -> Iterator[Tuple[Element, ...]]:
        if compiled_rows:
            yield from compiled_rows
        yield from enumerate_tuples(domain, arity, budget.max_candidates)

    found: List[Tuple[Element, ...]] = []
    #: candidates that already failed the decision procedure — ``pure`` is
    #: fixed across rounds, so a rejection is permanent and each candidate
    #: is decision-tested at most once over the whole run
    rejected: Set[Tuple[Element, ...]] = set()

    def excluded_formula() -> Formula:
        exclusions = []
        for row in found:
            row_equalities = conj(
                *(Equals(v, Const(value)) for v, value in zip(variables, row))
            )
            exclusions.append(neg(row_equalities))
        return conj(pure, *exclusions)

    def out_of_time() -> UnknownAnswer:
        return UnknownAnswer(
            Relation(arity, found),
            reason=f"time budget of {budget.time_limit}s exhausted",
            method="enumeration",
        )

    while len(found) < budget.max_rows:
        if deadline is not None:
            deadline.check_cancelled("enumeration round")
        if clock.expired:
            return out_of_time()
        remaining = excluded_formula()
        more_exists = exists_many([v.name for v in variables], remaining)
        stats.decide_calls += 1
        if not domain.decide(more_exists):
            return FiniteAnswer(Relation(arity, found), method="enumeration")
        # Some further tuple satisfies the query; search for it.
        located = False
        seen_this_round: Set[Tuple[Element, ...]] = set()
        for candidate in candidate_stream():
            if len(seen_this_round) >= budget.max_candidates:
                break
            if deadline is not None:
                deadline.check_cancelled("enumeration candidate")
            if clock.expired:
                return out_of_time()
            if candidate in seen_this_round:
                continue  # the generators may overlap; test each tuple once
            seen_this_round.add(candidate)
            if candidate in found or candidate in rejected:
                continue
            instantiated = substitute(
                pure, {v: Const(value) for v, value in zip(variables, candidate)}
            )
            stats.examined += 1
            stats.decide_calls += 1
            if domain.decide(instantiated):
                found.append(candidate)
                located = True
                break
            rejected.add(candidate)
        if not located:
            return UnknownAnswer(
                Relation(arity, found),
                reason=f"a further answer row exists but was not found among the "
                f"first {budget.max_candidates} candidate tuples",
                method="enumeration",
            )
    return UnknownAnswer(
        Relation(arity, found),
        reason=f"row budget of {budget.max_rows} exhausted; the answer may be infinite",
        method="enumeration",
    )
