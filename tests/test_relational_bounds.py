"""Tests for the shared bound-analysis module (repro.relational.bounds).

Four layers: the interval-set lattice and its sorted merges, the
comparison-literal normalisation, the formula-level per-variable inference
(including quantifier witnesses, negation, and database-atom envelopes), and
the quantifier narrower's bisected candidate generation.
"""

import pytest

from repro.domains.equality import EqualityDomain
from repro.domains.nat_order import NaturalOrderDomain
from repro.experiments.corpora import numeric_state, span_state
from repro.logic.parser import parse_formula
from repro.relational.bounds import (
    BoundAnalysis,
    IntervalSet,
    NarrowingStats,
    QuantifierNarrower,
    comparison_interval,
    domain_is_ordered,
    merge_index_ranges,
    merge_intervals,
)

NAT = NaturalOrderDomain()


# ---------------------------------------------------------------------------
# interval merge and the lattice
# ---------------------------------------------------------------------------


def test_merge_intervals_sorts_fuses_and_drops_empties():
    assert merge_intervals([(5, 7), (1, 2), (3, 3), (9, 8)]) == ((1, 3), (5, 7))
    assert merge_intervals([(None, 4), (2, None)]) == ((None, None),)
    assert merge_intervals([(None, 1), (None, 5)]) == ((None, 5),)
    assert merge_intervals([(3, None), (7, 9), (5, None)]) == ((3, None),)
    assert merge_intervals([]) == ()


def test_merge_intervals_fuses_adjacent_integer_intervals():
    # On an integer carrier [1,3] ∪ [4,6] is exactly [1,6].
    assert merge_intervals([(4, 6), (1, 3)]) == ((1, 6),)
    # ... but a genuine gap stays a gap.
    assert merge_intervals([(5, 6), (1, 3)]) == ((1, 3), (5, 6))


def test_merge_index_ranges_half_open():
    assert merge_index_ranges([(4, 6), (0, 2), (5, 9), (2, 3)]) == [(0, 3), (4, 9)]
    assert merge_index_ranges([(3, 3), (7, 5)]) == []


def test_interval_set_lattice_operations():
    evens = IntervalSet.point(2).union(IntervalSet.point(4))
    assert evens.intersect(IntervalSet.at_least(3)) == IntervalSet.point(4)
    assert IntervalSet.top().intersect(evens) == evens
    assert IntervalSet.empty().union(evens) == evens
    assert IntervalSet.between(5, 3).is_empty
    assert IntervalSet.between(None, 3).upper == 3
    assert not IntervalSet.at_least(0).bounded
    assert IntervalSet.between(1, 4).bounded


def test_interval_set_complement_round_trips():
    original = IntervalSet(((None, 3), (5, 9)))
    complement = original.complement()
    assert complement == IntervalSet(((4, 4), (10, None)))
    assert complement.complement() == original
    assert IntervalSet.top().complement().is_empty
    assert IntervalSet.empty().complement().is_top


def test_interval_set_values_and_size():
    pieces = IntervalSet(((1, 3), (7, 7)))
    assert list(pieces.values()) == [1, 2, 3, 7]
    assert pieces.size() == 4
    with pytest.raises(ValueError):
        IntervalSet.at_least(3).size()


def test_comparison_interval_normalisation():
    assert comparison_interval("<", 7) == IntervalSet.at_most(6)
    assert comparison_interval("<=", 7) == IntervalSet.at_most(7)
    # the variable on the right flips the predicate: 7 < x
    assert comparison_interval("<", 7, var_on_left=False) == IntervalSet.at_least(8)
    # negation complements it: ¬(x < 7) ⟺ x >= 7
    assert comparison_interval("<", 7, negated=True) == IntervalSet.at_least(7)


# ---------------------------------------------------------------------------
# formula-level inference
# ---------------------------------------------------------------------------


def _infer(text, var, resolve=None, state=None):
    return BoundAnalysis(state).intervals(parse_formula(text), var, resolve)


def test_inference_reads_constant_comparisons():
    assert _infer("x < 7 & 2 <= x", "x") == IntervalSet.between(2, 6)
    assert _infer("x < 7 | x > 20", "x") == IntervalSet(((None, 6), (21, None)))
    assert _infer("~(x < 7)", "x") == IntervalSet.at_least(7)
    assert _infer("x = 5", "x") == IntervalSet.point(5)
    assert _infer("~(x = 5)", "x") == IntervalSet.point(5).complement()


def test_inference_resolves_environment_variables():
    assert _infer("y < x", "y", resolve={"x": 9}) == IntervalSet.at_most(8)
    # an unresolved other side yields no bound
    assert _infer("y < x", "y").is_top


def test_inference_folds_resolved_literals_not_involving_the_variable():
    # 5 < 3 is false, so the conjunction admits no y at all.
    assert _infer("y < 9 & 5 < 3", "y").is_empty
    assert _infer("y < 9 & 3 < 5", "y") == IntervalSet.at_most(8)


def test_inference_propagates_quantifier_witness_envelopes():
    # ∃z (z <= 9 ∧ x < z) implies x < 9, i.e. x <= 8.
    assert _infer("exists z. (z <= 9 & x < z)", "x") == IntervalSet.at_most(8)
    # the witness bound also flows through equalities
    assert _infer("exists z. (z = 4 & x < z)", "x") == IntervalSet.at_most(3)


def test_inference_uses_database_column_envelopes():
    state = numeric_state([4, 9, 15])
    got = _infer("exists y. (S(y) & x < y)", "x", state=state)
    assert got == IntervalSet.at_most(14)
    # an empty relation admits no witness at all
    empty = _infer("exists y. (S(y) & x < y)", "x", state=numeric_state([]))
    assert empty.is_empty


def test_inference_is_conservative_where_it_must_be():
    assert _infer("S(x)", "x").is_top  # no state: no envelope
    assert _infer("~S(x)", "x", state=numeric_state([1])).is_top
    assert _infer("x < x", "x").is_empty
    assert _infer("x <= x", "x").is_top
    state = span_state([], [(1, 9)])
    got = _infer("exists y. exists z. (R(y, z) & y < x & x < z)", "x", state=state)
    assert got == IntervalSet.between(2, 8)


def test_inference_shadowed_variable_is_not_constrained():
    # the inner ∃x rebinds x, so the outer x gains no bound from x < 5
    assert _infer("exists x. (x < 5)", "x").is_top


def test_forall_bodies_require_a_nonempty_universe():
    nonempty = BoundAnalysis(assume_nonempty=True)
    vacuous = BoundAnalysis(assume_nonempty=False)
    formula = parse_formula("forall y. (x < 7)")
    assert nonempty.intervals(formula, "x") == IntervalSet.at_most(6)
    assert vacuous.intervals(formula, "x").is_top


def test_free_variable_intervals_propagate_across_variables():
    analysis = BoundAnalysis()
    formula = parse_formula("x < y & y < 7 & 0 <= x")
    got = analysis.free_variable_intervals(formula, ["x", "y"])
    assert got["y"].upper == 6
    assert got["x"] == IntervalSet.between(0, 5)


# ---------------------------------------------------------------------------
# the quantifier narrower
# ---------------------------------------------------------------------------


def test_narrower_candidates_bisect_the_sorted_universe():
    narrower = QuantifierNarrower([13, 1, 9, 5])
    body = parse_formula("S(y) & y < x")
    assert narrower.candidates(body, "y", {"x": 9}) == [1, 5]
    assert narrower.candidates(body, "y", {"x": 0}) == []
    unconstrained = parse_formula("S(y)")
    assert narrower.candidates(unconstrained, "y", {}) == [1, 5, 9, 13]


def test_narrower_records_stats():
    stats = NarrowingStats()
    narrower = QuantifierNarrower([1, 5, 9], stats=stats)
    narrower.candidates(parse_formula("y < x"), "y", {"x": 6})
    assert stats.enabled and stats.ranges == 1 and stats.narrowed == 1
    assert (stats.candidates, stats.skipped) == (2, 1)
    assert "narrowing" in stats.describe()


def test_narrower_construction_is_gated():
    assert QuantifierNarrower.for_universe([1, 2], NAT) is not None
    # unordered carrier: narrowing is not sound
    assert QuantifierNarrower.for_universe([1, 2], EqualityDomain()) is None
    # non-integer universe: narrowing is not possible
    assert QuantifierNarrower.for_universe(["a", "b"], NAT) is None
    assert domain_is_ordered(NAT) and not domain_is_ordered(EqualityDomain())


def test_narrower_ignores_shadowing_outer_bindings():
    # T(x) ∧ ∃x (S(x) ∧ x < 3): at the inner quantifier the environment
    # still binds the *outer* x; its value must not constant-fold the inner
    # x's literals (x < 3 would become 10 < 3 and prune every candidate).
    narrower = QuantifierNarrower([1, 10])
    body = parse_formula("S(x) & x < 3")
    assert narrower.candidates(body, "x", {"x": 10}) == [1]
    analysis = BoundAnalysis()
    assert analysis.intervals(
        parse_formula("x < 3"), "x", {"x": 10}
    ) == IntervalSet.at_most(2)


def test_narrowed_walker_handles_shadowed_quantifiers():
    # End-to-end regression for the same shadowing shape.
    from repro.relational.calculus import evaluate_query_active_domain
    from repro.relational.schema import DatabaseSchema, RelationSchema
    from repro.relational.state import DatabaseState

    schema = DatabaseSchema((
        RelationSchema("S", 1, ("v",)), RelationSchema("T", 1, ("v",)),
    ))
    state = DatabaseState(schema, {"S": [(1,), (10,)], "T": [(10,)]})
    query = parse_formula("T(x) & exists x. (S(x) & x < 3)")
    narrowed = evaluate_query_active_domain(query, state, interpretation=NAT)
    full = evaluate_query_active_domain(
        query, state, interpretation=NAT, narrow=False
    )
    assert narrowed.rows == full.rows == {(10,)}


def test_ordered_gate_reads_the_domain_not_the_registry():
    renamed = NaturalOrderDomain()
    renamed.name = "unregistered-naturals"
    assert domain_is_ordered(renamed)
    assert QuantifierNarrower.for_universe([1, 2], renamed) is not None
    assert not domain_is_ordered(EqualityDomain())
    assert not domain_is_ordered(object())


def test_narrower_empty_universe():
    narrower = QuantifierNarrower([])
    assert narrower.candidates(parse_formula("y < 5"), "y", {}) == []
    assert narrower.universe_size == 0
