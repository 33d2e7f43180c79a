"""Tests for the query engine: enumeration algorithm, strategies, guards."""

import pytest

from repro.api import Session
from repro.domains.base import TheoryUndecidableError
from repro.domains.equality import EqualityDomain
from repro.domains.nat_order import NaturalOrderDomain
from repro.domains.presburger import PresburgerDomain
from repro.engine.answers import FiniteAnswer, InfiniteAnswer, UnknownAnswer
from repro.engine.budget import Budget
from repro.engine.enumeration import answer_by_enumeration, enumerate_tuples
from repro.experiments.corpora import (
    family_schema,
    family_state,
    numeric_schema,
    numeric_state,
)
from repro.experiments.exp01_intro_queries import (
    more_than_one_son_query,
    unsafe_disjunction_query,
)
from repro.logic.builders import atom, conj, eq, exists, neg, var
from repro.safety.effective_syntax import ActiveDomainSyntax
from repro.safety.relative_safety import EqualityRelativeSafety, OrderedRelativeSafety


def test_enumerate_tuples_is_fair_and_duplicate_free():
    domain = NaturalOrderDomain()
    tuples = list(enumerate_tuples(domain, 2, limit=30))
    assert len(tuples) == 30
    assert len(set(tuples)) == 30
    assert (0, 0) in tuples and (1, 0) in tuples and (0, 1) in tuples
    assert list(enumerate_tuples(domain, 0, limit=5)) == [()]


def test_enumeration_answers_finite_queries_exactly():
    domain = PresburgerDomain()
    state = numeric_state([3, 7])
    query = exists("y", conj(atom("S", var("y")), atom("<", var("x"), var("y"))))
    answer = answer_by_enumeration(query, state, domain, max_rows=50, max_candidates=200)
    assert isinstance(answer, FiniteAnswer)
    assert answer.relation.rows == {(n,) for n in range(7)}


def test_enumeration_empty_answer():
    domain = PresburgerDomain()
    state = numeric_state([3])
    query = conj(atom("S", var("x")), atom("<", var("x"), 2))
    answer = answer_by_enumeration(query, state, domain, max_rows=10, max_candidates=50)
    assert isinstance(answer, FiniteAnswer)
    assert len(answer.relation) == 0


def test_enumeration_gives_up_on_infinite_queries():
    domain = PresburgerDomain()
    state = numeric_state([3])
    query = atom("<", 3, var("x"))
    answer = answer_by_enumeration(query, state, domain, max_rows=5, max_candidates=50)
    assert isinstance(answer, UnknownAnswer)
    assert len(answer.partial) == 5


def test_session_strategies_agree():
    session = Session(PresburgerDomain(), numeric_schema())
    state = numeric_state([2, 4])
    query = atom("S", var("x"))
    active = session.query(query, state, strategy="active-domain")
    enumerated = session.query(
        query, state, strategy="enumeration",
        budget=Budget(max_rows=10, max_candidates=50),
    )
    auto = session.query(query, state)
    assert active.relation.rows == enumerated.relation.rows == auto.relation.rows == {(2,), (4,)}
    with pytest.raises(ValueError):
        session.query(query, state, strategy="mystery")


def test_session_rejects_enumeration_without_decidability():
    from repro.safety.extension import OrderedExtensionDomain

    undecidable = OrderedExtensionDomain(EqualityDomain())
    session = Session(undecidable, numeric_schema())
    with pytest.raises(TheoryUndecidableError):
        session.query(atom("S", var("x")), numeric_state([1]), strategy="enumeration")
    # auto strategy falls back to active-domain evaluation
    answer = session.query(atom("S", var("x")), numeric_state([1]))
    assert isinstance(answer, FiniteAnswer)


def test_guarded_session_syntax_rewrite_and_safety_rejection():
    domain = EqualityDomain()
    schema = family_schema()
    state = family_state(generations=2)
    syntax = ActiveDomainSyntax(schema)
    safety = EqualityRelativeSafety(domain)

    restricted = Session(domain, schema, syntax=syntax, safety=safety)
    outcome = restricted.run(unsafe_disjunction_query(), state)
    assert outcome.rewritten
    assert isinstance(outcome.answer, FiniteAnswer)

    guarded = Session(domain, schema, safety=safety)
    rejection = guarded.run(unsafe_disjunction_query(), state)
    assert isinstance(rejection.answer, InfiniteAnswer)
    assert rejection.verdict is not None and rejection.verdict.is_finite is False

    accepted = guarded.run(more_than_one_son_query(), state)
    assert isinstance(accepted.answer, FiniteAnswer)
    assert not accepted.rewritten


def test_guarded_session_with_ordered_safety():
    domain = PresburgerDomain()
    session = Session(domain, numeric_schema(), safety=OrderedRelativeSafety(domain))
    state = numeric_state([3, 8])
    finite_query = exists("y", conj(atom("S", var("y")), atom("<", var("x"), var("y"))))
    budget = Budget(max_rows=20, max_candidates=100)
    outcome = session.run(finite_query, state, strategy="guarded", budget=budget)
    assert isinstance(outcome.answer, FiniteAnswer)
    assert outcome.answer.relation.rows == {(n,) for n in range(8)}

    infinite_query = neg(atom("S", var("x")))
    rejected = session.run(infinite_query, state, strategy="guarded")
    assert isinstance(rejected.answer, InfiniteAnswer)
