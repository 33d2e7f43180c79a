"""Tests for NNF, prenex, DNF, and the generic quantifier-elimination driver."""

import itertools

from hypothesis import example, given, settings, strategies as st

from repro.logic.analysis import free_variables
from repro.logic.builders import atom, conj, disj, eq, exists, forall, neg, var
from repro.logic.formulas import (
    And,
    Atom,
    Equals,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    is_quantifier_free,
)
from repro.logic.terms import Const, Var
from repro.logic.transform import (
    _product_clauses,
    dnf_clauses,
    matrix_and_prefix,
    simplify,
    to_dnf,
    to_nnf,
    to_prenex,
)
from repro.relational.calculus import evaluate_formula


UNIVERSE = (0, 1, 2)


def _all_assignments(formula):
    variables = sorted(free_variables(formula), key=lambda v: v.name)
    for values in itertools.product(UNIVERSE, repeat=len(variables)):
        yield dict(zip(variables, values))


class _TinyInterpretation:
    """Three-element structure interpreting P, Q, R as fixed relations."""

    def eval_predicate(self, name, args):
        table = {
            "P": {(0,), (2,)},
            "Q": {(1,), (2,)},
            "R": {(0, 1), (1, 2), (2, 2)},
        }
        return tuple(args) in table.get(name, set())

    def eval_function(self, name, args):
        raise KeyError(name)


INTERP = _TinyInterpretation()


def _equivalent(left, right):
    for assignment in _all_assignments(conj(left, right) if free_variables(left) | free_variables(right) else left):
        lhs = evaluate_formula(left, UNIVERSE, assignment, interpretation=INTERP)
        rhs = evaluate_formula(right, UNIVERSE, assignment, interpretation=INTERP)
        if lhs != rhs:
            return False
    return True


def test_simplify_constants():
    a = atom("P", var("x"))
    assert simplify(conj(a, neg(neg(a)))) == a
    assert simplify(disj(a, neg(a))) != None  # no tautology detection expected
    assert simplify(Implies(a, a)) is not None


def test_to_nnf_removes_implications_and_pushes_negation():
    formula = neg(Implies(atom("P", var("x")), atom("Q", var("x"))))
    nnf = to_nnf(formula)
    assert isinstance(nnf, And)
    assert _equivalent(formula, nnf)


def test_to_nnf_on_quantifiers():
    formula = neg(forall("x", Implies(atom("P", var("x")), atom("Q", var("x")))))
    nnf = to_nnf(formula)
    assert isinstance(nnf, Exists)
    assert _equivalent(formula, nnf)


def test_to_prenex_structure_and_equivalence():
    formula = conj(
        exists("x", atom("P", var("x"))),
        forall("y", disj(atom("Q", var("y")), atom("P", var("z")))),
    )
    prenex = to_prenex(formula)
    prefix, matrix = matrix_and_prefix(prenex)
    assert len(prefix) == 2
    assert is_quantifier_free(matrix)
    assert _equivalent(formula, prenex)


def test_to_dnf_and_clauses():
    formula = conj(disj(atom("P", var("x")), atom("Q", var("x"))), atom("R", var("x"), var("y")))
    dnf = to_dnf(formula)
    clauses = dnf_clauses(formula)
    assert len(clauses) == 2
    assert _equivalent(formula, dnf)


def test_dnf_clauses_of_constants():
    from repro.logic.formulas import BOTTOM, TOP

    assert dnf_clauses(TOP) == [[]]
    assert dnf_clauses(BOTTOM) == []


# --- property-based semantic preservation -----------------------------------

names = st.sampled_from(["x", "y"])
preds = st.sampled_from(["P", "Q"])


@st.composite
def small_formulas(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            st.builds(lambda p, v: Atom(p, (Var(v),)), preds, names),
            st.builds(lambda a, b: Atom("R", (Var(a), Var(b))), names, names),
            st.builds(lambda a, b: Equals(Var(a), Var(b)), names, names),
        ))
    sub = small_formulas(depth=depth - 1)
    return draw(st.one_of(
        st.builds(lambda p, v: Atom(p, (Var(v),)), preds, names),
        st.builds(Not, sub),
        st.builds(lambda a, b: conj(a, b), sub, sub),
        st.builds(lambda a, b: disj(a, b), sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(lambda v, b: Exists(v, b), names, sub),
        st.builds(lambda v, b: ForAll(v, b), names, sub),
    ))


@settings(max_examples=80, deadline=None)
@given(small_formulas())
def test_nnf_preserves_semantics(formula):
    assert _equivalent(formula, to_nnf(formula))


@settings(max_examples=60, deadline=None)
@given(small_formulas())
def test_prenex_preserves_semantics(formula):
    assert _equivalent(formula, to_prenex(formula))


@settings(max_examples=60, deadline=None)
@given(small_formulas(depth=2))
def test_dnf_preserves_semantics_of_quantifier_free(formula):
    if not is_quantifier_free(formula):
        return
    assert _equivalent(formula, to_dnf(formula))


def test_product_clauses_of_constants():
    from repro.logic.formulas import BOTTOM, TOP

    p, q = atom("P", var("x")), atom("Q", var("x"))
    assert list(_product_clauses([])) == [[]]
    assert list(_product_clauses([TOP, disj(p, q)])) == [[p], [q]]
    assert list(_product_clauses([disj(p, q), BOTTOM])) == []
    assert list(_product_clauses([disj(p, q), p])) == [[p], [q, p]]


def _agree_everywhere(left, right):
    """True iff ``left`` and ``right`` agree under every assignment of their
    free variables over the tiny universe."""
    variables = sorted(
        free_variables(left) | free_variables(right), key=lambda v: v.name
    )
    for values in itertools.product(UNIVERSE, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if evaluate_formula(
            left, UNIVERSE, assignment, interpretation=INTERP
        ) != evaluate_formula(right, UNIVERSE, assignment, interpretation=INTERP):
            return False
    return True


_X, _Y = Var("x"), Var("y")


@settings(max_examples=60, deadline=None)
@given(st.lists(small_formulas(depth=2), min_size=1, max_size=3))
@example([  # two spellings of one DNF: 9 product clauses against 3
    Or((Not(Equals(_X, _X)), Equals(_X, _X), Atom("R", (_X, _Y)))),
    Implies(Equals(_X, _X), Or((Equals(_X, _X), Atom("R", (_X, _Y))))),
])
def test_product_clauses_are_the_clauses_of_the_conjunction(parts):
    # The elimination driver draws a quantifier's clauses one at a time from
    # the conjuncts ``conj`` leaves (flattened and distinct); their
    # disjunction must be equivalent to the DNF of the whole conjunction.
    conjuncts = [p for p in dict.fromkeys(parts) if is_quantifier_free(p)]
    conjuncts = [c for c in conjuncts if not isinstance(c, And)]
    lazy = disj(*(conj(*clause) for clause in _product_clauses(conjuncts)))
    whole = disj(*(conj(*clause) for clause in dnf_clauses(conj(*conjuncts))))
    assert _agree_everywhere(lazy, whole)
    assert _agree_everywhere(lazy, conj(*conjuncts))
