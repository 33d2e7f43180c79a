"""Tests for the formula parser and pretty printer, including round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.builders import apply, atom, conj, disj, eq, exists, forall, neg, var
from repro.logic.formulas import (
    Atom,
    Equals,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
)
from repro.logic.parser import ParseError, parse_formula, parse_term
from repro.logic.printer import print_formula, print_term
from repro.logic.terms import Apply, Const, Var


def test_parse_simple_atom():
    formula = parse_formula("F(x, y)")
    assert formula == Atom("F", (Var("x"), Var("y")))


def test_parse_equality_and_inequality():
    assert parse_formula("x = y") == Equals(Var("x"), Var("y"))
    assert parse_formula("x != y") == Not(Equals(Var("x"), Var("y")))
    assert parse_formula("x < y") == Atom("<", (Var("x"), Var("y")))
    assert parse_formula("x <= 3") == Atom("<=", (Var("x"), Const(3)))


def test_parse_connective_precedence():
    formula = parse_formula("A(x) & B(x) | C(x)")
    assert isinstance(formula, Or)
    formula = parse_formula("A(x) -> B(x) -> C(x)")
    assert isinstance(formula, Implies)
    assert isinstance(formula.consequent, Implies)
    assert isinstance(parse_formula("A(x) <-> B(x)"), Iff)


def test_parse_quantifiers():
    formula = parse_formula("forall x. exists y. F(x, y)")
    assert isinstance(formula, ForAll)
    assert isinstance(formula.body, Exists)


def test_parse_arithmetic_terms():
    term = parse_term("x + 2 * y")
    assert term == Apply("+", (Var("x"), Apply("*", (Const(2), Var("y")))))
    formula = parse_formula("x + 1 < y")
    assert formula == Atom("<", (Apply("+", (Var("x"), Const(1))), Var("y")))


def test_parse_string_constants():
    formula = parse_formula("P('11', x)")
    assert formula == Atom("P", (Const("11"), Var("x")))


def test_parse_true_false():
    from repro.logic.formulas import Bottom, Top

    assert isinstance(parse_formula("true"), Top)
    assert isinstance(parse_formula("false"), Bottom)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("F(x")
    with pytest.raises(ParseError):
        parse_formula("x +")
    with pytest.raises(ParseError):
        parse_formula("")


def test_print_parse_round_trip_examples():
    samples = [
        atom("F", var("x"), var("y")),
        conj(atom("A", var("x")), neg(eq(var("x"), Const(3)))),
        exists("y", disj(atom("A", var("y")), atom("B", var("y")))),
        forall("x", Implies(atom("A", var("x")), atom("B", var("x")))),
        eq(apply("succ", var("x")), Const(4)),
        Atom("<", (Apply("+", (Var("x"), Const(1))), Var("y"))),
        Atom("P", (Const("1&1*"), Const(""), Var("x"))),
    ]
    for formula in samples:
        assert parse_formula(print_formula(formula)) == formula


# --- property-based round-trip ----------------------------------------------

variable_names = st.sampled_from(["x", "y", "z", "u", "v"])
predicate_names = st.sampled_from(["P", "Q", "R"])


@st.composite
def terms(draw, depth=2):
    if depth == 0:
        return draw(st.one_of(
            variable_names.map(Var),
            st.integers(min_value=0, max_value=9).map(Const),
        ))
    return draw(st.one_of(
        variable_names.map(Var),
        st.integers(min_value=0, max_value=9).map(Const),
        st.builds(lambda a: Apply("succ", (a,)), terms(depth=depth - 1)),
        st.builds(lambda a, b: Apply("+", (a, b)), terms(depth=depth - 1), terms(depth=depth - 1)),
    ))


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            st.builds(lambda p, a, b: Atom(p, (a, b)), predicate_names, terms(), terms()),
            st.builds(Equals, terms(), terms()),
        ))
    sub = formulas(depth=depth - 1)
    return draw(st.one_of(
        st.builds(lambda p, a, b: Atom(p, (a, b)), predicate_names, terms(), terms()),
        st.builds(Equals, terms(), terms()),
        st.builds(Not, sub),
        st.builds(lambda a, b: conj(a, b), sub, sub),
        st.builds(lambda a, b: disj(a, b), sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(lambda v, b: Exists(v, b), variable_names, sub),
        st.builds(lambda v, b: ForAll(v, b), variable_names, sub),
    ))


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_print_parse_round_trip_property(formula):
    assert parse_formula(print_formula(formula)) == formula


@settings(max_examples=100, deadline=None)
@given(terms())
def test_print_parse_term_round_trip_property(term):
    assert parse_term(print_term(term)) == term


# ---------------------------------------------------------------------------
# The constants the printer writes: negative integers and p/q rationals
# ---------------------------------------------------------------------------


def test_parse_negative_integer_constants():
    assert parse_formula("x = -3") == Equals(Var("x"), Const(-3))
    assert parse_formula("-3 < x") == Atom("<", (Const(-3), Var("x")))
    assert parse_term("f(-1, 2)") == Apply("f", (Const(-1), Const(2)))
    # binary minus is unchanged, also before a negative constant
    assert parse_term("x - 3") == Apply("-", (Var("x"), Const(3)))
    assert parse_term("x - -3") == Apply("-", (Var("x"), Const(-3)))


def test_parse_rational_constants():
    from fractions import Fraction

    assert parse_formula("x = 1/2") == Equals(Var("x"), Const(Fraction(1, 2)))
    assert parse_term("-7/2") == Const(Fraction(-7, 2))
    # a whole ratio is the integer, as the printer would write it
    assert parse_term("4/2") == Const(2)
    assert isinstance(parse_term("4/2").value, int)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_term("1/0")
    with pytest.raises(ParseError):
        parse_term("x/2")


def _corpus_queries():
    from repro.domains import available_domains, get_pack

    return [
        pytest.param(pq.query, id=f"{name}/{corpus.name}/{pq.name}")
        for name in available_domains()
        for corpus in get_pack(name).corpora()
        for pq in corpus.queries
    ]


@pytest.mark.parametrize("query", _corpus_queries())
def test_every_pack_corpus_query_round_trips(query):
    assert parse_formula(print_formula(query)) == query
