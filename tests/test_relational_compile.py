"""Tests for the compiled relational-algebra backend.

Three layers:

* operator-level tests for :mod:`repro.relational.exec` (fused scans, hash
  joins, antijoins, padding);
* compiler tests for :mod:`repro.relational.compile` (plan shapes, bail-out
  conditions, edge-case semantics);
* property-style equivalence tests: for every experiment query corpus in
  :mod:`repro.experiments`, compiled execution and the tree-walking
  active-domain evaluator must return identical row sets over randomized
  small states.
"""

import random

import pytest

from repro.domains.equality import EqualityDomain
from repro.domains.presburger import PresburgerDomain
from repro.domains.successor import SuccessorDomain
from repro.engine.plan_cache import PlanCache
from repro.engine.plans import CompiledAlgebraPlan
from repro.experiments.corpora import (
    family_schema,
    family_state,
    numeric_schema,
    numeric_state,
    ordered_query_corpus,
    presburger_sentences,
    successor_query_corpus,
)
from repro.experiments.exp01_intro_queries import (
    grandfather_query,
    more_than_one_son_query,
    unsafe_disjunction_query,
    unsafe_negation_query,
)
from repro.logic.parser import parse_formula
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.compile import CompilationError, compile_query
from repro.relational.exec import (
    AdomScan,
    AntiJoin,
    AttrRef,
    Comparison,
    CrossPad,
    ExecutionStats,
    Join,
    Literal,
    Project,
    Scan,
    Select,
    UnionAll,
    plan_summary,
    run_plan,
    walk_plan,
)
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState

EQ = EqualityDomain()
PRESBURGER = PresburgerDomain()
SUCCESSOR = SuccessorDomain()


def _family(rows):
    return DatabaseState(family_schema(), {"F": rows})


def _assert_equivalent(query, state, domain):
    """Compiled execution must agree with the tree-walking evaluator."""
    expected = evaluate_query_active_domain(query, state, interpretation=domain)
    compiled = compile_query(query, state.schema, domain)
    actual = compiled.execute(state, domain)
    assert actual.rows == expected.rows, (
        f"compiled {sorted(actual.rows)} != tree-walk {sorted(expected.rows)} "
        f"for {query} in {state}"
    )


# ---------------------------------------------------------------------------
# Operator-level executor tests
# ---------------------------------------------------------------------------


def test_scan_fuses_constant_and_repeated_variable_filters():
    state = _family([(0, 1), (0, 0), (2, 2), (2, 3)])
    diagonal = Scan("F", ("x", "x"), (), ("x",))
    assert run_plan(diagonal, state, [0, 1, 2, 3], EQ) == {(0,), (2,)}
    anchored = Scan("F", (None, "y"), ((0, 2),), ("y",))
    assert run_plan(anchored, state, [0, 1, 2, 3], EQ) == {(2,), (3,)}


def test_hash_join_reorders_output_to_declared_attrs():
    left = Literal(("a", "b"), ((1, 2), (3, 4)))
    right = Literal(("b", "c"), ((2, 5), (2, 6), (9, 9)))
    join = Join((left, right), ("c", "a", "b"))
    state = _family([])
    assert run_plan(join, state, [], EQ) == {(5, 1, 2), (6, 1, 2)}


def test_antijoin_keeps_unmatched_left_rows():
    left = Literal(("a", "b"), ((1, 2), (3, 4), (5, 6)))
    right = Literal(("b",), ((4,), (7,)))
    anti = AntiJoin(left, right, ("a", "b"))
    assert run_plan(anti, _family([]), [], EQ) == {(1, 2), (5, 6)}


def test_antijoin_with_disjoint_attrs_acts_as_sentence_guard():
    left = Literal(("a",), ((1,), (2,)))
    anti_true = AntiJoin(left, Literal((), ((),)), ("a",))
    anti_false = AntiJoin(left, Literal((), ()), ("a",))
    assert run_plan(anti_true, _family([]), [], EQ) == set()
    assert run_plan(anti_false, _family([]), [], EQ) == {(1,), (2,)}


def test_cross_pad_and_adom_scan_range_over_the_universe():
    pad = CrossPad(Literal(("a",), ((7,),)), ("b",), ("a", "b"))
    assert run_plan(pad, _family([]), [1, 2], EQ) == {(7, 1), (7, 2)}
    assert run_plan(AdomScan(("x",)), _family([]), [4, 5], EQ) == {(4,), (5,)}


def test_select_supports_negated_comparisons():
    source = Literal(("a", "b"), ((1, 1), (1, 2)))
    select = Select(
        source, (Comparison(AttrRef("a"), AttrRef("b"), negated=True),), ("a", "b")
    )
    assert run_plan(select, _family([]), [], EQ) == {(1, 2)}


def test_walk_plan_visits_every_operand_in_pre_order():
    left = Scan("F", ("x", "y"), (), ("x", "y"))
    right = CrossPad(Literal(("x",), ((1,),)), ("y",), ("x", "y"))
    plan = UnionAll((AntiJoin(left, right, ("x", "y")), AdomScan(("x",))), ("x",))
    assert [type(node).__name__ for node in walk_plan(plan)] == [
        "UnionAll", "AntiJoin", "Scan", "CrossPad", "Literal", "AdomScan"
    ]


def test_plan_summary_counts_operators_in_a_fixed_order():
    scan = Scan("F", ("x", "y"), (), ("x", "y"))
    plan = UnionAll(
        (
            Project(Join((scan, scan), ("x", "y")), ("x",)),
            Project(CrossPad(Literal((), ((),)), ("x",), ("x",)), ("x",)),
        ),
        ("x",),
    )
    assert plan_summary(plan) == "2 scans, 1 literal, 2 projects, 1 join, 1 adom-pad, 1 union"


def test_execution_stats_record_pairwise_join_intermediates():
    state = _family([(1, 2), (2, 3), (3, 4)])
    chain = Join(
        (
            Scan("F", ("a", "b"), (), ("a", "b")),
            Scan("F", ("b", "c"), (), ("b", "c")),
            Scan("F", ("c", "d"), (), ("c", "d")),
        ),
        ("a", "b", "c", "d"),
    )
    stats = ExecutionStats()
    assert run_plan(chain, state, [1, 2, 3, 4], EQ, stats) == {(1, 2, 3, 4)}
    labels = [label for label, _count in stats.operator_rows]
    assert labels == ["Scan", "Scan", "Scan", "Join(pairwise)", "Join"]
    assert stats.peak_rows == 3 and stats.total_rows == 3 * 3 + 2 + 1


# ---------------------------------------------------------------------------
# Compiler behaviour
# ---------------------------------------------------------------------------


def test_conjunction_compiles_to_scans_and_a_join():
    compiled = compile_query(grandfather_query(), family_schema(), EQ)
    summary = compiled.summary()
    assert "2 scans" in summary and "1 join" in summary
    assert compiled.output == ("x", "z")


def test_negated_conjunct_compiles_to_an_antijoin():
    query = parse_formula("F(x, y) & ~F(y, x)")
    compiled = compile_query(query, family_schema(), EQ)
    assert "antijoin" in compiled.summary()
    state = _family([(0, 1), (1, 0), (1, 2)])
    assert compiled.execute(state, EQ).rows == {(1, 2)}


def test_bare_negation_compiles_to_difference_against_the_active_domain():
    compiled = compile_query(unsafe_negation_query(), family_schema(), EQ)
    state = _family([(0, 1)])
    assert compiled.execute(state, EQ).rows == {(0, 0), (1, 0), (1, 1)}


def test_function_symbols_bail_out():
    query = parse_formula("x = succ(0)")
    with pytest.raises(CompilationError):
        compile_query(query, numeric_schema(), SUCCESSOR)


def test_unknown_predicates_bail_out():
    query = parse_formula("Mystery(x)")
    with pytest.raises(CompilationError):
        compile_query(query, family_schema(), EQ)


def test_arity_mismatch_compiles_to_the_empty_relation():
    schema = DatabaseSchema((RelationSchema("F", 2),))
    query = parse_formula("F(x, y, z)")
    compiled = compile_query(query, schema, EQ)
    state = DatabaseState(schema, {"F": [(0, 1)]})
    assert compiled.execute(state, EQ).rows == set()
    _assert_equivalent(query, state, EQ)


@pytest.mark.parametrize(
    "text",
    [
        "x = x",                      # requires the variable to range over adom
        "~(x = x)",                   # unsatisfiable, but keeps the column
        "x = 3",                      # anchored variable
        "~(x = 3)",                   # negated anchor forces an adom pad
        "x = y",                      # diagonal
        "F(x, y) & x = y",            # pushdown onto the scan
        "F(x, y) & ~(x = y)",         # negated pushdown
        "F(x, y) | F(y, x)",          # union with aligned attributes
        "exists y. F(x, y)",          # projection
        "forall y. F(x, y)",          # double difference
        "F(x, y) -> F(y, x)",         # implication desugaring
        "F(x, y) <-> F(y, x)",        # biconditional desugaring
        "exists y. true",             # vacuous quantifier needs a witness
        "F(1, x)",                    # constant argument
        "F(x, x)",                    # repeated variable
        "(exists y. F(x, y)) & (exists y. F(y, x))",  # bound-name reuse
    ],
)
def test_edge_case_formulas_match_the_tree_walker(text):
    query = parse_formula(text)
    rng = random.Random(13)
    for _ in range(4):
        rows = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(0, 7))}
        _assert_equivalent(query, _family(rows), EQ)


def test_empty_state_and_empty_active_domain_edge_cases():
    for text in ("exists x. true", "forall x. false", "forall x. F(x, x)",
                 "~(exists x. F(x, x))"):
        _assert_equivalent(parse_formula(text), _family([]), EQ)


# ---------------------------------------------------------------------------
# Property-style equivalence over the experiment query corpora
# ---------------------------------------------------------------------------

_FAMILY_QUERIES = [
    ("M", more_than_one_son_query()),
    ("G", grandfather_query()),
    ("~F", unsafe_negation_query()),
    ("M|G", unsafe_disjunction_query()),
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name,query", _FAMILY_QUERIES, ids=lambda v: str(v))
def test_property_family_queries_match_tree_walker(seed, name, query):
    rng = random.Random(1000 + seed)
    rows = {(rng.randrange(7), rng.randrange(7)) for _ in range(rng.randrange(0, 10))}
    _assert_equivalent(query, _family(rows), EQ)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "name,query",
    [(name, query) for name, query, _finite in ordered_query_corpus()],
    ids=lambda v: str(v),
)
def test_property_ordered_corpus_matches_tree_walker(seed, name, query):
    rng = random.Random(2000 + seed)
    values = [rng.randrange(0, 15) for _ in range(rng.randrange(0, 6))]
    _assert_equivalent(query, numeric_state(values), PRESBURGER)


@pytest.mark.parametrize(
    "name,sentence",
    [(name, sentence) for name, sentence, _truth in presburger_sentences()],
    ids=lambda v: str(v),
)
def test_property_presburger_sentences_match_tree_walker(name, sentence):
    # Sentences with ``+`` bail out of compilation; the rest must agree with
    # the tree walker under active-domain semantics (NOT the true Presburger
    # semantics — both substrates quantify over the finite active domain).
    state = numeric_state([1, 4, 9])
    try:
        compiled = compile_query(sentence, state.schema, PRESBURGER)
    except CompilationError:
        return
    expected = evaluate_query_active_domain(sentence, state, interpretation=PRESBURGER)
    assert compiled.execute(state, PRESBURGER).rows == expected.rows


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "name,query",
    [(name, query) for name, query, _finite in successor_query_corpus()],
    ids=lambda v: str(v),
)
def test_property_successor_corpus_via_plan_fallback(seed, name, query):
    # Successor queries lean on ``succ`` terms, which have no algebra
    # translation; the plan must fall back to the tree walker transparently
    # and still return the identical row set.
    rng = random.Random(3000 + seed)
    values = [rng.randrange(0, 9) for _ in range(rng.randrange(0, 5))]
    state = numeric_state(values)
    expected = evaluate_query_active_domain(query, state, interpretation=SUCCESSOR)
    plan = CompiledAlgebraPlan(domain=SUCCESSOR)
    answer = plan.execute(query, state)
    assert set(answer.rows()) == expected.rows
    if plan.fallback_reason is not None:
        assert "algebra" in plan.fallback_reason
        assert "fell back" in plan.explain()
    else:
        assert answer.method == "compiled-algebra"
