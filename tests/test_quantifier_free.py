"""Tests for eliminating quantifiers once per (query, state).

Every decidable pack builds ψ, the quantifier-free form of the
state-expanded query, once: Cooper's form on the Presburger family and
shortlex strings, the dense-order form on ``(Q, <)`` and the Section 2.2
form on ``(N, ')``.  The relative-safety verdict and the Section 1.1 answer
(an exact read-off) both come from it, so the default path makes no
decision-procedure call.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import Session
from repro.domains.base import Domain
from repro.domains.dense_order import (
    DenseOrderDomain,
    _holds,
    eliminate_dense_quantifiers,
)
from repro.domains.packs import available_domains, get_pack
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
from repro.engine.budget import Budget, DeadlineExceeded, EvaluationInterrupted
from repro.engine.enumeration import CandidateStats, answer_by_enumeration
from repro.engine.plans import EnumerationPlan, GuardedPlan
from repro.experiments.corpora import (
    numeric_schema,
    numeric_state,
    ordered_query_corpus,
    span_schema,
    span_state,
    successor_query_corpus,
)
from repro.logic.builders import (
    atom, conj, disj, eq, exists, exists_many, forall, implies, neg, var,
)
from repro.logic.formulas import Atom, Equals, walk_formulas
from repro.logic.parser import parse_formula
from repro.logic.terms import Const, Var
from repro.relational.calculus import evaluate_formula
from repro.relational.state import DatabaseState
from repro.relational.translate import expand_database_atoms
from repro.safety.relative_safety import (
    DenseOrderRelativeSafety,
    OrderedRelativeSafety,
    SuccessorRelativeSafety,
)

#: every pack whose decider eliminates quantifiers once → its verdict method
QUANTIFIER_FREE_PACKS = {
    "naturals_with_order": "finitization-equivalence",
    "presburger_naturals": "finitization-equivalence",
    "presburger_integers": "finitization-equivalence",
    "integer_differences": "finitization-equivalence",
    "shortlex_strings": "finitization-equivalence",
    "rationals_with_order": "projection-finiteness",
    "naturals_with_successor": "successor-clause-analysis",
}


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


def test_the_memo_holds_at_most_memo_size_entries():
    from repro.safety.relative_safety import MEMO_SIZE

    safety = OrderedRelativeSafety(PresburgerDomain())
    query = parse_formula("exists y. (S(y) & x < y)")
    extra = 3
    for top in range(MEMO_SIZE + extra):
        assert safety.decide(query, numeric_state([top])).is_finite
    info = safety.memo_info()
    assert (info.size, info.maxsize) == (MEMO_SIZE, MEMO_SIZE)
    assert (info.misses, info.evictions) == (MEMO_SIZE + extra, extra)
    # the newest entry is still resident, the oldest was evicted
    safety.decide(query, numeric_state([MEMO_SIZE + extra - 1]))
    assert safety.memo_info().hits == 1
    safety.decide(query, numeric_state([0]))
    assert safety.memo_info().misses == MEMO_SIZE + extra + 1


def test_the_carrier_is_read_off_the_domain():
    state = numeric_state([4])
    below = parse_formula("x < 3")
    naturals = OrderedRelativeSafety(PresburgerDomain(carrier="naturals"))
    integers = OrderedRelativeSafety(PresburgerDomain(carrier="integers"))
    assert naturals.decide(below, state).is_finite
    assert not integers.decide(below, state).is_finite
    assert naturals.decide_by_sentence(below, state).is_finite
    assert not integers.decide_by_sentence(below, state).is_finite
    with pytest.raises(TypeError):
        OrderedRelativeSafety(PresburgerDomain(), integers=True)


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


@pytest.mark.parametrize("pack_name", sorted(QUANTIFIER_FREE_PACKS))
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
                assert result.verdict.method == QUANTIFIER_FREE_PACKS[pack_name]
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


# ---------------------------------------------------------------------------
# (Q, <): the dense-order form
# ---------------------------------------------------------------------------


def _rationals(*values):
    return DatabaseState(numeric_schema(), {"S": [(v,) for v in values]})


_DENSE_TERMS = (Var("x"), Var("y"), Var("z"), Const(0), Const(1), Const(Fraction(3, 2)))


@st.composite
def _dense_formulas(draw, depth=3, bound=("y", "z")):
    """Random order formulas in ``x`` whose quantifiers bind ``y``/``z``."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        left, right = draw(st.sampled_from(_DENSE_TERMS)), draw(st.sampled_from(_DENSE_TERMS))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "="]))
        return eq(left, right) if op == "=" else atom(op, left, right)
    kind = draw(st.sampled_from(["not", "and", "or", "exists", "forall"]))
    if kind == "not":
        return neg(draw(_dense_formulas(depth - 1, bound)))
    if kind in ("and", "or"):
        parts = (draw(_dense_formulas(depth - 1, bound)) for _ in range(2))
        return conj(*parts) if kind == "and" else disj(*parts)
    quantifier = exists if kind == "exists" else forall
    return quantifier(draw(st.sampled_from(bound)), draw(_dense_formulas(depth - 1, bound)))


@settings(max_examples=150, deadline=None)
@given(_dense_formulas())
def test_dense_elimination_agrees_with_ferrante_rackoff(formula):
    # y and z may stay free: evaluate under x, y, z fixed, the quantifiers
    # by Ferrante–Rackoff test points.
    qf = eliminate_dense_quantifiers(formula)
    domain = DenseOrderDomain()
    for point in (-1, 0, Fraction(1, 2), 1, Fraction(3, 2), 2):
        env = {"x": point, "y": Fraction(1, 4), "z": 1}
        assert _holds(qf, env) == domain._eval(formula, env)


def test_dense_clause_elimination_cases():
    cases = {
        # substitution by a pinned value
        "exists y. (y = x & y < 1)": "x < 1",
        # every lower bound below every upper bound, non-strict iff both are
        "exists y. (x <= y & y <= 1)": "x <= 1",
        "exists y. (x < y & y <= 1)": "x < 1",
        # a disequality is avoidable unless the interval is a single point
        "exists y. (x <= y & y <= 1 & ~(y = 1))": "x < 1",
        "exists y. (1 <= y & y <= x & ~(y = 1))": "1 < x",
        # ... or a single point that the disequality misses
        "exists y. (x <= y & y <= x & ~(y = 0))": "~(x = 0)",
        # a dense order has no endpoints
        "exists y. y < x": "x = x",
    }
    for text, expected in cases.items():
        qf = eliminate_dense_quantifiers(parse_formula(text))
        for point in (-1, 0, Fraction(1, 2), 1, 2):
            env = {"x": point}
            assert _holds(qf, env) == _holds(parse_formula(expected), env), (text, point)


def test_dense_psi_stays_linear_in_the_state():
    # ∃z leaves S(y) ∧ y < x out of its scope, so the two expansions of S
    # are eliminated one after the other, not multiplied into n² clauses.
    corpus = get_pack("rationals_with_order").corpora()[0]
    between = next(q for q in corpus.queries if q.name == "strictly-between-members")
    state = _rationals(*range(24))
    psi = DenseOrderDomain().quantifier_free(expand_database_atoms(between.query, state))
    atoms = [f for f in walk_formulas(psi.body) if isinstance(f, (Atom, Equals))]
    assert len(atoms) <= 2 * 24
    assert not psi.finite()


def test_dense_read_off_arity_two():
    domain = DenseOrderDomain()
    state = _rationals(0, Fraction(1, 2), 3)
    pairs = parse_formula("S(x) & S(y) & x < y")
    psi = domain.quantifier_free(expand_database_atoms(pairs, state))
    assert psi.variables == ("x", "y")
    assert psi.finite()
    expected = {(0, Fraction(1, 2)), (0, 3), (Fraction(1, 2), 3)}
    assert set(psi.rows()) == expected
    safety = DenseOrderRelativeSafety()
    assert safety.decide(pairs, state).is_finite
    assert set(safety.answer(pairs, state).rows()) == expected
    reference = answer_by_enumeration(pairs, state, domain)
    assert set(reference.rows()) == expected
    # y above a member: x's projection is bounded, y's is not.
    above = parse_formula("S(x) & x < y")
    verdict = safety.decide(above, state)
    assert not verdict.is_finite
    assert verdict.details == "the projection onto 'y' is unbounded"
    assert verdict.status is safety.decide_by_sentence(above, state).status
    with pytest.raises(ValueError, match="infinite"):
        list(domain.quantifier_free(expand_database_atoms(above, state)).rows())


def test_dense_read_off_arity_zero():
    safety = DenseOrderRelativeSafety()
    sentence = parse_formula("exists x. (S(x) & x < 1)")
    for values, rows in (((0, 3), [()]), ((1, 3), []), ((), [])):
        state = _rationals(*values)
        verdict = safety.decide(sentence, state)
        assert verdict.is_finite
        assert verdict.details == "a sentence has at most one answer row"
        assert list(safety.answer(sentence, state).rows()) == rows


def test_dense_verdict_details_match_the_sentences():
    safety = DenseOrderRelativeSafety()
    corpus = get_pack("rationals_with_order").corpora()[0]
    for values in ((), (0,), (0, 1, Fraction(7, 2)), (-2, Fraction(1, 3), 5)):
        state = _rationals(*values)
        for pq in corpus.queries:
            assert safety.decide(pq.query, state) == safety.decide_by_sentence(
                pq.query, state
            ), (values, pq.name)


def test_dense_answer_reads_the_memoised_psi():
    safety = DenseOrderRelativeSafety()
    query = parse_formula("exists y. (S(y) & y <= x & x <= y)")
    state = _rationals(0, Fraction(1, 2), 3)
    assert safety.decide(query, state).is_finite
    answer = safety.answer(query, state)
    assert isinstance(answer, FiniteAnswer)
    assert answer.method == "enumeration"
    assert set(answer.rows()) == {(0,), (Fraction(1, 2),), (3,)}
    info = safety.memo_info()
    assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# (N, '): the clause read-off
# ---------------------------------------------------------------------------


def test_successor_read_off():
    domain = get_pack("naturals_with_successor").factory()
    corpus = dict((n, q) for n, q, _ in successor_query_corpus())
    state = numeric_state([0, 3, 5])
    expected = {
        "members": {(0,), (3,), (5,)},
        "successor-of-member": {(1,), (4,), (6,)},
        "predecessor-of-member": {(2,), (4,)},  # 0 has no predecessor
        "two-above-member": {(2,), (5,), (7,)},
        "equal-to-five": {(5,)},
    }
    for name, rows in expected.items():
        psi = domain.quantifier_free(expand_database_atoms(corpus[name], state))
        assert psi.finite(), name
        assert set(psi.rows()) == rows, name
    psi = domain.quantifier_free(expand_database_atoms(corpus["non-member"], state))
    assert not psi.finite()
    with pytest.raises(ValueError, match="infinite"):
        list(psi.rows())
    pairs = domain.quantifier_free(parse_formula("y = succ(x) & (x = 2 | x = 4)"))
    assert set(pairs.rows()) == {(2, 3), (4, 5)}


@pytest.mark.parametrize("text", [
    # two anchored roots forced equal by a negated equality (was INFINITE)
    "x = 3 & y = 3 & ~(x = y) & ~(z = 0)",
    # an anchor below zero: x = -1 has no natural value (was INFINITE)
    "succ(x) = y & y = 0 & ~(z = 0)",
])
def test_successor_unsatisfiable_clauses_are_finite(text):
    query = parse_formula(text)
    state = numeric_state([1])
    safety = SuccessorRelativeSafety()
    verdict = safety.decide(query, state)
    assert verdict.is_finite
    assert safety.decide_by_sentence(query, state).is_finite
    assert list(safety.answer(query, state).rows()) == []
    result = Session("succ", numeric_schema()).run(query, state)
    assert result.verdict.is_finite
    assert isinstance(result.answer, FiniteAnswer)
    assert list(result.answer.rows()) == []


def test_successor_anchored_rows_check_their_negations():
    safety = SuccessorRelativeSafety()
    query = parse_formula("(x = 3 | x = 4) & y = 4 & ~(x = y)")
    state = numeric_state([])
    assert safety.decide(query, state).is_finite
    assert set(safety.answer(query, state).rows()) == {(3, 4)}
    assert safety.memo_info().hits == 1


# ---------------------------------------------------------------------------
# Deadlines on every pack's default path
# ---------------------------------------------------------------------------


def _twelve_row_cases():
    for name in available_domains():
        for corpus in get_pack(name).corpora():
            factory = corpus.state_factory
            state = (
                factory(random.Random(f"deadline/{corpus.name}"), 12)
                if factory is not None else corpus.canonical_state
            )
            for pq in corpus.queries:
                yield pytest.param(name, corpus, state, pq, id=f"{name}-{pq.name}")


@pytest.mark.parametrize("pack_name, corpus, state, pq", _twelve_row_cases())
def test_every_pack_meets_a_time_limit_at_twelve_rows(pack_name, corpus, state, pq):
    session = Session(pack_name, corpus.schema)
    started = time.perf_counter()
    try:
        session.run(pq.query, state, budget=Budget(time_limit=0.05))
    except EvaluationInterrupted:
        pass
    assert time.perf_counter() - started < 0.25


def test_time_limit_interrupts_the_dense_elimination():
    # "x lies below a chain of twelve members": every quantifier's clause
    # set is quadratic in the state — about 2 s uncapped at 60 rows on a
    # 2-core machine.
    ys = [var(f"y{i}") for i in range(12)]
    chain = conj(
        atom("<", var("x"), ys[0]),
        *(atom("S", y) for y in ys),
        *(atom("<", a, b) for a, b in zip(ys, ys[1:])),
    )
    query = exists_many([y.name for y in ys], chain)
    state = _rationals(*(Fraction(i, 3) for i in range(60)))
    plan = Session("q<", numeric_schema()).plan(budget=Budget(time_limit=0.05))
    started = time.perf_counter()
    with pytest.raises(DeadlineExceeded) as raised:
        plan.run(query, state)
    assert time.perf_counter() - started < 0.25
    assert raised.value.operator == "quantifier elimination"
    assert "interrupted: time limit" in plan.explain()
