"""Tests for eliminating quantifiers once per (query, state).

The Presburger family and shortlex strings build ψ, the quantifier-free
Cooper form of the state-expanded query, once; the Theorem 2.5 verdict
(every projection bounded) and the Section 1.1 answer (an exact read-off)
both come from it, so the default path makes no decision-procedure call.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import Session
from repro.domains.base import Domain
from repro.domains.packs import get_pack
from repro.domains.presburger import (
    IAnd,
    IDvd,
    INot,
    IOr,
    LinTerm,
    PresburgerDomain,
    _divisibility_lcm,
)
from repro.engine.answers import FiniteAnswer, UnknownAnswer
from repro.engine.budget import Budget, DeadlineExceeded
from repro.engine.enumeration import CandidateStats, answer_by_enumeration
from repro.engine.plans import EnumerationPlan, GuardedPlan
from repro.experiments.corpora import (
    numeric_schema,
    numeric_state,
    ordered_query_corpus,
    span_schema,
    span_state,
)
from repro.logic.builders import atom, conj, disj, exists, forall, implies, neg
from repro.logic.parser import parse_formula
from repro.logic.terms import Const, Var
from repro.relational.calculus import evaluate_formula
from repro.relational.translate import expand_database_atoms
from repro.safety.relative_safety import OrderedRelativeSafety

#: the packs whose Theorem 2.5 decider eliminates quantifiers once
QUANTIFIER_FREE_PACKS = (
    "naturals_with_order",
    "presburger_naturals",
    "presburger_integers",
    "integer_differences",
    "shortlex_strings",
)


def _psi(text, domain=None, state=None):
    formula = parse_formula(text)
    if state is not None:
        formula = expand_database_atoms(formula, state)
    return (domain or PresburgerDomain()).quantifier_free(formula)


# ---------------------------------------------------------------------------
# ψ itself: holds, the ±inf test, the read-off
# ---------------------------------------------------------------------------


def test_unary_read_off_below_a_member():
    psi = _psi("exists y. (S(y) & x < y)", state=numeric_state([2, 9]))
    assert psi.variables == ("x",)
    assert psi.bounded()
    assert list(psi.rows()) == [(n,) for n in range(9)]
    assert psi.holds((0,)) and psi.holds((8,))
    assert not psi.holds((9,))


def test_unbounded_projections_are_detected():
    above = _psi("exists y. (S(y) & y < x)", state=numeric_state([3]))
    assert not above.bounded()
    with pytest.raises(ValueError, match="unbounded"):
        list(above.rows())
    # Over N nothing lies below 0; over Z "below a member" is unbounded.
    below = "exists y. (S(y) & x < y)"
    state = numeric_state([3])
    assert _psi(below, state=state).bounded()
    integers = _psi(below, PresburgerDomain(carrier="integers"), state)
    assert not integers.bounded()


def test_divisibility_read_off_spans_segments_longer_than_the_period():
    psi = _psi("divides(3, x) & x < 20")
    assert psi.bounded()
    assert [x for (x,) in psi.rows()] == list(range(0, 20, 3))
    integers = _psi(
        "divides(3, x) & x < 20 & 0 - 7 < x", PresburgerDomain(carrier="integers")
    )
    assert [x for (x,) in integers.rows()] == list(range(-6, 20, 3))
    # Infinitely many multiples of 3, but only below 20 in N.
    assert not _psi("divides(3, x) & 20 < x").bounded()


def test_arity_two_read_off():
    psi = _psi("0 < x & x < y & y < 4")
    assert psi.variables == ("x", "y")
    assert psi.bounded()
    assert set(psi.rows()) == {(1, 2), (1, 3), (2, 3)}
    assert psi.holds((1, 3)) and not psi.holds((3, 1))
    # x is bounded by y, but y by nothing: an unbounded projection.
    assert not _psi("x < y").bounded()
    pairs = _psi(
        "x + y = 3 & 0 - 2 <= x & x <= 3", PresburgerDomain(carrier="integers")
    )
    assert set(pairs.rows()) == {(x, 3 - x) for x in range(-2, 4)}


def test_arity_zero_evaluates_the_sentence():
    state = numeric_state([4])
    assert list(_psi("exists x. S(x)", state=state).rows()) == [()]
    assert list(_psi("exists x. (S(x) & x < 2)", state=state).rows()) == []
    assert _psi("exists x. S(x)", state=state).bounded()


def test_shortlex_rows_unrank_back_to_words():
    pack = get_pack("shortlex_strings")
    state = pack.corpora()[0].canonical_state  # W = {"", "ab", "ba"}
    psi = pack.factory().quantifier_free(
        expand_database_atoms(parse_formula("exists y. (W(y) & x < y)"), state)
    )
    assert [word for (word,) in psi.rows()] == ["", "a", "b", "aa", "ab"]
    assert psi.holds(("ab",)) and not psi.holds(("ba",))


@st.composite
def _bounded_queries(draw):
    """Random formulas in ``x < 7`` with quantifiers bounded to ``0..3``."""
    x, y, z = Var("x"), Var("y"), Var("z")

    def random_atom():
        left, right = draw(st.sampled_from([(x, y), (y, z), (x, z), (z, x), (y, x)]))
        constant = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(["lt", "le", "eq-offset", "sum", "divides"]))
        if kind == "lt":
            return atom("<", left, right)
        if kind == "le":
            return atom("<=", left, Const(constant))
        if kind == "eq-offset":
            return parse_formula(f"{left.name} = {right.name} + {constant}")
        if kind == "divides":
            return atom("divides", Const(constant + 2), left)
        return parse_formula(f"{left.name} + {right.name} < {constant + 3}")

    inner = random_atom()
    for _ in range(draw(st.integers(0, 3))):
        connective = draw(st.sampled_from(["and", "or", "not"]))
        if connective == "and":
            inner = conj(inner, random_atom())
        elif connective == "or":
            inner = disj(inner, random_atom())
        else:
            inner = neg(inner)
    for variable in (z, y):
        guard = atom("<", variable, Const(4))
        if draw(st.booleans()):
            inner = exists(variable.name, conj(guard, inner))
        else:
            inner = forall(variable.name, implies(guard, inner))
    return conj(atom("<", x, Const(7)), inner)


@settings(max_examples=60, deadline=None)
@given(_bounded_queries())
def test_read_off_agrees_with_brute_force(query):
    psi = PresburgerDomain().quantifier_free(query)
    universe = list(range(12))
    expected = [
        value for value in universe
        if evaluate_formula(
            query, universe, {Var("x"): value}, interpretation=PresburgerDomain()
        )
    ]
    assert psi.bounded()
    assert [x for (x,) in psi.rows()] == expected
    assert [v for v in universe if psi.holds((v,))] == expected


def test_divisibility_lcm_is_linear_in_nesting_depth():
    x = LinTerm.variable("x")
    formula = IDvd(7, x)
    for depth in range(30):
        if depth % 2:
            formula = IAnd((formula, IDvd(3, x)))
        else:
            formula = IOr((formula, INot(IDvd(5, x))))
    started = time.perf_counter()
    assert _divisibility_lcm(formula, "x") == 105
    assert time.perf_counter() - started < 0.01


# ---------------------------------------------------------------------------
# OrderedRelativeSafety: the memo holds ψ; answer() reads it
# ---------------------------------------------------------------------------


def test_answer_reads_the_memoised_psi():
    safety = OrderedRelativeSafety(PresburgerDomain())
    query = parse_formula("exists y. (S(y) & x < y)")
    state = numeric_state([2, 9])
    assert safety.decide(query, state).is_finite
    answer = safety.answer(query, state)
    assert isinstance(answer, FiniteAnswer)
    assert answer.method == "enumeration"
    assert set(answer.rows()) == {(n,) for n in range(9)}
    info = safety.memo_info()
    assert (info.misses, info.hits) == (1, 1)


def test_answer_keeps_the_enumeration_contract():
    safety = OrderedRelativeSafety(PresburgerDomain())
    query = parse_formula("exists y. (S(y) & x < y)")
    state = numeric_state([2, 9])
    capped = safety.answer(query, state, Budget(max_rows=4))
    assert isinstance(capped, UnknownAnswer)
    assert len(capped.partial) == 4
    exact = safety.answer(query, state, Budget(max_rows=9))
    assert isinstance(exact, FiniteAnswer) and len(exact.rows()) == 9
    with pytest.raises(ValueError, match="unbounded"):
        safety.answer(parse_formula("3 < x"), state)


def test_verdicts_match_the_literal_finitization_sentence():
    for carrier in ("naturals", "integers"):
        safety = OrderedRelativeSafety(PresburgerDomain(carrier=carrier))
        for values in ([], [0], [2, 5, 9], [-3, 4]):
            if carrier == "naturals" and min(values, default=0) < 0:
                continue
            state = numeric_state(values)
            for name, query, _ in ordered_query_corpus():
                assert (
                    safety.decide(query, state).status
                    is safety.decide_by_sentence(query, state).status
                ), (carrier, values, name)


class _SentenceOnlyDomain(Domain):
    """A decidable ordered domain without a quantifier-free form."""

    name = "sentence_only"
    signature = PresburgerDomain.signature
    has_decidable_theory = True

    def __init__(self):
        self._presburger = PresburgerDomain()

    def contains(self, element):
        return self._presburger.contains(element)

    def enumerate_elements(self):
        return self._presburger.enumerate_elements()

    def eval_predicate(self, name, args):
        return self._presburger.eval_predicate(name, args)

    def decide(self, sentence):
        return self._presburger.decide(sentence)


def test_domains_without_a_quantifier_free_form_keep_the_sentence():
    safety = OrderedRelativeSafety(_SentenceOnlyDomain())
    assert not safety.eliminates_once
    state = numeric_state([2, 5])
    below = parse_formula("exists y. (S(y) & x < y)")
    assert safety.decide(below, state).is_finite
    assert not safety.decide(parse_formula("3 < x"), state).is_finite
    with pytest.raises(TypeError, match="no quantifier-free form"):
        safety.answer(below, state)
    # the guarded default path keeps the inner enumeration plan
    session = Session(_SentenceOnlyDomain(), numeric_schema(), safety=safety)
    result = session.run(below, state)
    assert set(result.answer.rows()) == {(n,) for n in range(5)}
    assert "decision-tested" in result.plan.explain()
    assert result.plan.fused_ordered_guard is None
    assert "rejected before evaluation" in result.plan.explain()
    fused = Session("nat<", numeric_schema()).plan()
    assert fused.fused_ordered_guard is not None
    assert "yields both the verdict and the answer rows" in fused.explain()


# ---------------------------------------------------------------------------
# The default path: no decide calls, budgets hold
# ---------------------------------------------------------------------------


def _count_decides(session):
    calls = {"n": 0}
    original = session.domain.decide

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    session.domain.decide = counting
    return calls


@pytest.mark.parametrize("pack_name", QUANTIFIER_FREE_PACKS)
def test_default_path_makes_no_decide_calls(pack_name):
    for corpus in get_pack(pack_name).corpora():
        session = Session(pack_name, corpus.schema)
        calls = _count_decides(session)
        states = [corpus.canonical_state] + [
            corpus.state_factory(random.Random(f"decide/{size}"), size)
            for size in (0, 3, 6)
        ]
        for state in states:
            for pq in corpus.queries:
                result = session.run(pq.query, state)
                assert result.verdict.method == "finitization-equivalence"
                if result.answer.is_finite:
                    assert result.answer.method == "enumeration"
                assert calls["n"] == 0, (corpus.name, pq.name)


def test_enumeration_strategy_reports_its_decide_calls():
    session = Session("nat<", numeric_schema())
    calls = _count_decides(session)
    query = parse_formula("exists y. (S(y) & x < y)")
    result = session.run(query, numeric_state([2, 5]), strategy="enumeration")
    assert set(result.answer.rows()) == {(n,) for n in range(5)}
    assert calls["n"] > 0
    assert f"{calls['n']} decide call(s)" in result.plan.explain()
    stats = CandidateStats()
    answer_by_enumeration(query, numeric_state([2, 5]), PresburgerDomain(), stats=stats)
    # one "further row?" sentence per round (six rounds) plus the candidates
    assert stats.decide_calls == stats.examined + 6


def test_arity_two_default_path_matches_enumeration():
    session = Session("nat<", span_schema())
    state = span_state([3], [(1, 4), (2, 6)])
    query = parse_formula("R(x, y) | (exists z. (R(x, z) & x < y & y < z))")
    guarded = session.run(query, state)
    assert isinstance(guarded.plan, GuardedPlan)
    assert isinstance(guarded.plan.inner, EnumerationPlan)
    expected = session.run(query, state, strategy="enumeration").answer
    assert guarded.answer.is_finite and expected.is_finite
    assert set(guarded.answer.rows()) == set(expected.rows())
    assert (1, 2) in guarded.answer.rows() and (2, 6) in guarded.answer.rows()


def test_arity_zero_default_path_matches_enumeration():
    session = Session("presburger", numeric_schema())
    for values, rows in (([4], [()]), ([], [])):
        result = session.run("exists x. (S(x) & 2 < x)", numeric_state(values))
        assert result.verdict.is_finite
        assert list(result.answer.rows()) == rows


def test_divisibility_query_default_path():
    session = Session("presburger", numeric_schema())
    answer = session.run("divides(3, x) & x < 20", numeric_state([])).answer
    assert isinstance(answer, FiniteAnswer)
    assert sorted(answer.rows()) == [(n,) for n in range(0, 20, 3)]


def test_default_path_meets_a_time_limit_on_strictly_between_members():
    # The case that used to overrun time_limit=2 by 15x: the guard's
    # elimination ran un-checkpointed for seconds.
    query = dict((n, q) for n, q, _ in ordered_query_corpus())[
        "strictly-between-members"
    ]
    values = [3 * i + 1 for i in range(64)]
    session = Session("nat<", numeric_schema())
    started = time.perf_counter()
    try:
        answer = session.run(
            query, numeric_state(values), budget=Budget(time_limit=0.05)
        ).answer
    except DeadlineExceeded:
        pass
    else:
        if answer.is_finite:
            assert set(answer.rows()) == {(n,) for n in range(2, values[-1])}
        else:
            assert isinstance(answer, UnknownAnswer)
    assert time.perf_counter() - started < 0.25


def test_time_limit_interrupts_the_elimination():
    # "Inside a run of consecutive members": the negated inner quantifier
    # is not pinned by a stored row, so Cooper's substitution loop does the
    # work — seconds uncapped at 48 rows on a 2-core machine.
    query = parse_formula(
        "exists y. exists z. (S(y) & S(z) & y < x & x < z & "
        "~(exists w. (y < w & w < z & ~S(w))))"
    )
    state = numeric_state([3 * i + 1 for i in range(48)])
    plan = Session("nat<", numeric_schema()).plan(budget=Budget(time_limit=0.05))
    started = time.perf_counter()
    with pytest.raises(DeadlineExceeded) as raised:
        plan.run(query, state)
    assert time.perf_counter() - started < 0.25
    assert raised.value.operator == "cooper elimination"
    assert "interrupted: time limit" in plan.explain()
    # A later successful execution of the same plan clears the interruption.
    small = plan.execute(query, numeric_state([1, 2, 3]))
    assert set(small.rows()) == {(2,)}
    assert "interrupted" not in plan.explain()
