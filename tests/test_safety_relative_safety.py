"""Tests for the relative-safety deciders (Theorems 2.5, 2.6, 3.3 and the equality case)."""

import pytest

from repro.domains.equality import EqualityDomain
from repro.domains.presburger import PresburgerDomain
from repro.domains.successor import SuccessorDomain
from repro.experiments.corpora import (
    family_state,
    halting_corpus,
    numeric_state,
    ordered_query_corpus,
    successor_query_corpus,
)
from repro.experiments.exp01_intro_queries import (
    grandfather_query,
    more_than_one_son_query,
    unsafe_disjunction_query,
    unsafe_negation_query,
)
from repro.logic.parser import parse_formula
from repro.safety.reductions import halting_reduction
from repro.safety.relative_safety import (
    EqualityRelativeSafety,
    OrderedRelativeSafety,
    RelativeSafetyUndecidable,
    SuccessorRelativeSafety,
    TraceRelativeSafety,
)


def test_equality_relative_safety_on_intro_queries():
    domain = EqualityDomain()
    decider = EqualityRelativeSafety(domain)
    state = family_state(generations=2)
    assert decider.decide(more_than_one_son_query(), state).is_finite is True
    assert decider.decide(grandfather_query(), state).is_finite is True
    assert decider.decide(unsafe_negation_query(), state).is_finite is False
    assert decider.decide(unsafe_disjunction_query(), state).is_finite is False


def test_equality_relative_safety_state_sensitivity():
    # the unsafe disjunction is actually finite in a state where nobody has two sons
    domain = EqualityDomain()
    decider = EqualityRelativeSafety(domain)
    single_child_state = family_state(generations=2, sons_per_father=1)
    assert decider.decide(unsafe_disjunction_query(), single_child_state).is_finite is True


def test_ordered_relative_safety_matches_ground_truth():
    decider = OrderedRelativeSafety(PresburgerDomain())
    state = numeric_state([2, 5, 9])
    for name, query, expected in ordered_query_corpus():
        assert decider.decide(query, state).is_finite is expected, name


def test_ordered_relative_safety_requires_decidable_domain():
    from repro.safety.extension import OrderedExtensionDomain

    undecidable = OrderedExtensionDomain(EqualityDomain())
    with pytest.raises(ValueError):
        OrderedRelativeSafety(undecidable)


def test_successor_relative_safety_matches_ground_truth():
    decider = SuccessorRelativeSafety(SuccessorDomain())
    state = numeric_state([3, 6])
    for name, query, expected in successor_query_corpus():
        assert decider.decide(query, state).is_finite is expected, name


def test_successor_relative_safety_empty_state():
    decider = SuccessorRelativeSafety(SuccessorDomain())
    state = numeric_state([])
    # with no stored members, "members" is trivially finite and "non-member" still infinite
    corpus = dict((n, q) for n, q, _f in successor_query_corpus())
    assert decider.decide(corpus["members"], state).is_finite is True
    assert decider.decide(corpus["non-member"], state).is_finite is False


def test_trace_relative_safety_refuses_and_semi_decides():
    decider = TraceRelativeSafety()
    case, word, halts = next((c, w, h) for c, w, h in halting_corpus() if h)
    query, state = halting_reduction(case.word, word)
    with pytest.raises(RelativeSafetyUndecidable):
        decider.decide(query, state)
    assert decider.semi_decide(query, state, fuel=500).is_finite is True

    diverging = next((c, w) for c, w, h in halting_corpus() if not h)
    query2, state2 = halting_reduction(diverging[0].word, diverging[1])
    assert decider.semi_decide(query2, state2, fuel=200).is_finite is None


def test_trace_relative_safety_with_oracle_matches_halting():
    decider = TraceRelativeSafety()

    def oracle(machine_word, input_word):
        for case, word, halts in halting_corpus():
            if case.word == machine_word and word == input_word:
                return halts
        raise KeyError((machine_word, input_word))

    for case, word, halts in halting_corpus():
        query, state = halting_reduction(case.word, word)
        verdict = decider.decide_with_oracle(query, state, oracle)
        assert verdict.is_finite is halts, (case.name, word)


def test_ordered_relative_safety_memoises_per_formula_and_state():
    # The memo holds the quantifier-free form ψ with its verdict, so the
    # work it saves is the elimination: count those.
    domain = PresburgerDomain()
    calls = {"n": 0}
    original = domain.quantifier_free

    def counting_quantifier_free(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    domain.quantifier_free = counting_quantifier_free
    safety = OrderedRelativeSafety(domain)
    query = parse_formula("S(x)")
    state = numeric_state([1, 2])

    first = safety.decide(query, state)
    assert calls["n"] == 1
    second = safety.decide(query, state)
    assert calls["n"] == 1  # served from the memo
    assert first is second
    assert safety.memo_info().hits == 1

    # an equal-by-value state also hits; a different state recomputes
    safety.decide(query, numeric_state([1, 2]))
    assert calls["n"] == 1
    safety.decide(query, numeric_state([1, 2, 3]))
    assert calls["n"] == 2
