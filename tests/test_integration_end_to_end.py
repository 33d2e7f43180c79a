"""End-to-end integration tests crossing all the subsystems."""

from repro.api import Budget, Session
from repro.domains import (
    EqualityDomain,
    NaturalOrderDomain,
    PresburgerDomain,
    ReachTracesDomain,
    SuccessorDomain,
    TraceDomain,
)
from repro.engine import FiniteAnswer
from repro.experiments.corpora import family_schema, family_state, numeric_schema, numeric_state
from repro.experiments.exp01_intro_queries import grandfather_query, more_than_one_son_query
from repro.logic import atom, conj, exists, parse_formula, print_formula, var
from repro.safety import (
    ActiveDomainSyntax,
    EqualityRelativeSafety,
    FinitizationSyntax,
    OrderedRelativeSafety,
    TotalityEnumerator,
    TraceRelativeSafety,
    finitize,
    halting_reduction,
    totality_query,
)
from repro.turing import encode_machine, unary_eraser


def test_public_api_importable():
    import repro

    assert repro.__version__
    for module_name in ("logic", "relational", "turing", "domains", "safety", "engine"):
        assert hasattr(repro, module_name)


def test_family_workflow_over_equality_domain():
    """Schema -> state -> queries -> safety guard -> answers, over equality."""
    schema = family_schema()
    state = family_state(generations=3)
    domain = EqualityDomain()
    session = Session(
        domain,
        schema,
        syntax=ActiveDomainSyntax(schema),
        safety=EqualityRelativeSafety(domain),
    )
    outcome = session.run(more_than_one_son_query(), state)
    assert isinstance(outcome.answer, FiniteAnswer)
    assert len(outcome.answer.relation) == 7  # every non-leaf person has two sons
    grand = session.run(grandfather_query(), state)
    assert len(grand.answer.relation) == 4 + 8  # grandfather/grandson pairs


def test_ordered_workflow_parse_finitize_decide_answer():
    """Text query -> finitization -> Theorem 2.5 decision -> enumeration answer."""
    domain = PresburgerDomain()
    state = numeric_state([4, 9])
    session = Session(domain, numeric_schema())
    budget = Budget(max_rows=20, max_candidates=100)
    decider = OrderedRelativeSafety(domain)

    query = parse_formula("exists y. (S(y) & x < y)")
    assert decider.decide(query, state).is_finite is True
    answer = session.query(query, state, strategy="enumeration", budget=budget)
    assert isinstance(answer, FiniteAnswer)
    assert answer.relation.rows == {(n,) for n in range(9)}

    finitized = finitize(query)
    assert FinitizationSyntax().contains(finitized)
    # the finitization answers identically for this (finite) query
    same = session.query(finitized, state, strategy="enumeration", budget=budget)
    assert same.relation.rows == answer.relation.rows


def test_trace_workflow_from_machine_to_negative_results():
    """Machine -> encoding -> traces -> decidable theory -> Theorems 3.1/3.3."""
    machine = unary_eraser()
    machine_word = encode_machine(machine)
    trace_domain = TraceDomain()
    reach = ReachTracesDomain()

    # the decidable theory answers concrete questions about the machine
    sentence = parse_formula(f"exists x. P('{machine_word}', '111', x)")
    assert trace_domain.decide(sentence)

    # Theorem 3.3: relative safety of the reduction query is halting
    query, state = halting_reduction(machine_word, "111")
    verdict = TraceRelativeSafety().semi_decide(query, state, fuel=100)
    assert verdict.is_finite is True

    # Theorem 3.1: the certification procedure certifies this total machine
    enumerator = TotalityEnumerator(reach)
    certificate = enumerator.certify_pair(machine_word, totality_query(machine_word))
    assert certificate is not None
    assert certificate.machine_word == machine_word


def test_successor_and_order_domains_agree_on_common_sentences():
    successor = SuccessorDomain()
    order = NaturalOrderDomain()
    for text in (
        "forall x. ~(succ(x) = x)",
        "exists x. succ(x) = 4",
        "forall x. exists y. y = succ(x)",
        "exists x. succ(succ(x)) = 1",
    ):
        sentence = parse_formula(text)
        assert successor.decide(sentence) == order.decide(sentence), text


def test_print_formula_round_trips_through_every_domain_signature():
    samples = [
        more_than_one_son_query(),
        grandfather_query(),
        parse_formula("exists y. (S(y) & x < y + 2)"),
        totality_query(encode_machine(unary_eraser())),
    ]
    for formula in samples:
        assert parse_formula(print_formula(formula)) == formula
