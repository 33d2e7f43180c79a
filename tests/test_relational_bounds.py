"""Comparison bounds on ordered carriers, across the three substrates.

The shapes a bound on a variable can take: strictness, flipped sides,
negation, constant-only literals, witnesses, empty relations, vacuous
``∀`` and shadowing.  Each shape is pinned to exact rows and to
walker ≡ compiled ≡ vectorized.
"""

import pytest

from repro.domains.nat_order import NaturalOrderDomain
from repro.experiments.corpora import numeric_state, span_state
from repro.logic.parser import parse_formula
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.compile import compile_query
from repro.relational.exec import run_plan

NAT = NaturalOrderDomain()


def _rows(text, state, domain=NAT):
    """The walker's rows, after checking compiled and vectorized agree."""
    query = parse_formula(text)
    walked = evaluate_query_active_domain(query, state, interpretation=domain)
    compiled = compile_query(query, state.schema, domain)
    adom = compiled.universe(state)
    assert run_plan(compiled.plan, state, adom, domain) == walked.rows
    pytest.importorskip("numpy")
    from repro.relational.columnar import run_plan_vectorized

    assert run_plan_vectorized(compiled.plan, state, adom, domain) == walked.rows
    return set(walked.rows)


def test_walker_handles_shadowed_quantifiers():
    # T(x) ∧ ∃x (S(x) ∧ x < 3): the inner ∃x rebinds x, so the outer x = 10
    # must not leak into the inner x < 3.
    from repro.relational.calculus import evaluate_query_active_domain
    from repro.relational.compile import compile_query
    from repro.relational.schema import DatabaseSchema, RelationSchema
    from repro.relational.state import DatabaseState

    schema = DatabaseSchema((
        RelationSchema("S", 1, ("v",)), RelationSchema("T", 1, ("v",)),
    ))
    state = DatabaseState(schema, {"S": [(1,), (10,)], "T": [(10,)]})
    query = parse_formula("T(x) & exists x. (S(x) & x < 3)")
    walked = evaluate_query_active_domain(query, state, interpretation=NAT)
    compiled = compile_query(query, schema, NAT).execute(state, NAT)
    assert walked.rows == compiled.rows == {(10,)}


# ---------------------------------------------------------------------------
# comparison shapes
# ---------------------------------------------------------------------------


def test_constant_comparisons_agree_across_substrates():
    state = numeric_state([1, 2, 4, 6, 7, 9, 20, 21, 30])
    assert _rows("S(x) & x < 7 & 2 <= x", state) == {(2,), (4,), (6,)}
    assert _rows("S(x) & (x < 7 | x > 20)", state) == {
        (1,), (2,), (4,), (6,), (21,), (30,)
    }
    assert _rows("S(x) & ~(x < 7)", state) == {(7,), (9,), (20,), (21,), (30,)}
    assert _rows("S(x) & 7 < x & x <= 21", state) == {(9,), (20,), (21,)}
    assert _rows("S(x) & x = 4", state) == {(4,)}
    assert _rows("S(x) & ~(x = 4) & x < 7", state) == {(1,), (2,), (6,)}


def test_resolved_comparisons_not_involving_the_variable():
    state = numeric_state([1, 5, 9])
    # 5 < 3 is false, so the conjunction admits no y at all.
    assert _rows("S(y) & y < 9 & 5 < 3", state) == set()
    assert _rows("S(y) & y < 9 & 3 < 5", state) == {(1,), (5,)}


def test_reflexive_comparisons():
    state = numeric_state([1, 5])
    assert _rows("S(x) & x < x", state) == set()
    assert _rows("S(x) & x <= x", state) == {(1,), (5,)}


def test_witnesses_bound_the_variable():
    state = numeric_state([1, 3, 5, 9, 12])
    # the witness z = 4 bounds x from above, through the equality
    assert _rows("exists z. (z = 4 & x < z)", state) == {(1,), (3,)}
    # ∃z (S(z) ∧ z <= 9 ∧ x < z): x lies below the largest member up to 9
    assert _rows("exists z. (S(z) & z <= 9 & x < z)", state) == {(1,), (3,), (5,)}


def test_empty_witness_relation_admits_no_rows():
    text = "exists y. (S(y) & x < y)"
    assert _rows(text, numeric_state([4, 9, 15])) == {(4,), (9,)}
    assert _rows(text, numeric_state([])) == set()


def test_forall_over_an_empty_relation_is_vacuous():
    text = "forall y. (S(y) -> y < 7)"
    assert _rows(text, numeric_state([])) == {()}
    assert _rows(text, numeric_state([3])) == {()}
    assert _rows(text, numeric_state([3, 9])) == set()


def test_free_variables_bound_each_other():
    state = numeric_state([0, 3, 6, 7])
    text = "S(x) & S(y) & x < y & y < 7 & 0 <= x"
    assert _rows(text, state) == {(0, 3), (0, 6), (3, 6)}


def test_outer_comparisons_do_not_bound_a_shadowing_quantifier():
    # the inner ∃x rebinds x, so the outer 5 <= x does not reach x < 5
    text = "S(x) & 5 <= x & exists x. (S(x) & x < 5)"
    assert _rows(text, numeric_state([1, 5, 9])) == {(5,), (9,)}
    assert _rows(text, numeric_state([5, 9])) == set()


def test_both_sided_witness_from_one_row():
    text = "exists y. exists z. (R(y, z) & y < x & x < z)"
    state = span_state([3, 5, 12], [(1, 9)])
    assert _rows(text, state) == {(3,), (5,)}
    assert _rows(text, span_state([3, 5, 12], [])) == set()


def test_negated_comparison_flips_into_the_complement_bound():
    # not (x < y) ⟺ x >= y: a lower inclusive bound on x.
    query = parse_formula("exists y. (S(y) & ~(x < y))")
    schema = numeric_state([]).schema
    compiled = compile_query(query, schema, NAT)
    state = numeric_state([4, 9])
    rows = run_plan(compiled.plan, state, compiled.universe(state), NAT)
    assert rows == {(4,), (9,)}
    tree = evaluate_query_active_domain(query, state, interpretation=NAT)
    assert rows == tree.rows
