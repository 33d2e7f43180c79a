"""Tests for the compiled relational-algebra backend.

Three layers:

* operator-level tests for :mod:`repro.relational.exec` (fused scans, hash
  joins, antijoins, padding);
* compiler tests for :mod:`repro.relational.compile` (plan shapes, bail-out
  conditions, edge-case semantics);
* property-style equivalence tests: for every experiment query corpus in
  :mod:`repro.experiments`, compiled execution and the tree-walking
  active-domain evaluator must return identical row sets over randomized
  small states (and, on the ordered and family queries, so must the
  vectorized executor).
"""

import random
import zlib

import pytest

from repro.domains.equality import EqualityDomain
from repro.domains.nat_order import NaturalOrderDomain
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
from repro.relational.compile import (
    CompilationError,
    _align,
    _next_pad_column,
    compile_query,
)
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
NAT = NaturalOrderDomain()
PRESBURGER = PresburgerDomain()
SUCCESSOR = SuccessorDomain()


def _family(rows):
    return DatabaseState(family_schema(), {"F": rows})


#: the family relation F beside a unary S
_EDGE_SCHEMA = DatabaseSchema((RelationSchema("F", 2), RelationSchema("S", 1)))


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


def test_execution_stats_record_operator_outputs():
    state = numeric_state([1, 2, 3])
    compiled = compile_query(
        parse_formula("S(x)"), state.schema, NAT
    )
    stats = ExecutionStats()
    rows = run_plan(compiled.plan, state, compiled.universe(state), NAT, stats)
    assert rows == {(1,), (2,), (3,)}
    assert stats.peak_rows == 3
    assert stats.total_rows >= 3
    assert ("Scan", 3) in stats.operator_rows


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


def test_conjunction_fires_each_condition_between_one_column_pads():
    query = parse_formula("S(y) & y < x & x < w")
    compiled = compile_query(query, numeric_schema(), NAT)
    pads = [node for node in walk_plan(compiled.plan) if isinstance(node, CrossPad)]
    # pre-order: the outer pad (w) first; y < x fires before w is padded
    assert [pad.pad for pad in pads] == [("w",), ("x",)]
    inner = pads[0].source
    assert isinstance(inner, Select) and inner.source is pads[1]
    assert [c.args for c in inner.conditions] == [(AttrRef("y"), AttrRef("x"))]
    _assert_equivalent(query, numeric_state([1, 4, 6, 9]), NAT)


#: (schema, query) pairs whose compiled plans are checked for final form
_PLAN_CORPUS = [
    (family_schema(), more_than_one_son_query()), (family_schema(), grandfather_query())
] + [(numeric_schema(), query) for _name, query, _finite in ordered_query_corpus()]


@pytest.mark.parametrize("schema,query", _PLAN_CORPUS)
def test_compiled_plans_never_nest_projections(schema, query):
    plan = compile_query(query, schema, NAT).plan
    assert not any(
        isinstance(node, Project) and isinstance(node.source, Project)
        for node in walk_plan(plan)
    )


@pytest.mark.parametrize("schema,query", _PLAN_CORPUS)
def test_compiled_projections_are_already_aligned(schema, query):
    # No rewrite follows the compiler, so re-aligning any projection of its
    # plan must change nothing: no dead pad column, no unpushed attribute.
    plan = compile_query(query, schema, NAT).plan
    for node in walk_plan(plan):
        if isinstance(node, Project):
            assert _align(node.source, node.attrs) == node


def test_next_pad_column_prefers_enabled_conditions_then_names():
    assert _next_pad_column(set(), ["b", "a"], []) == "a"
    assert _next_pad_column({"y"}, ["a", "b"], [{"y", "b"}]) == "b"
    assert _next_pad_column({"y"}, ["a", "b"], [{"a", "b"}, {"b"}]) == "b"
    assert _next_pad_column(set(), ["c", "b"], [{"b", "c"}]) == "b"


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
        "exists w. (S(x) & S(w))",    # projection pushed into the join
        "exists w. (S(x) & w = w)",   # pad dropped for the adom witness
        "exists w. exists v. (S(x) & v = v & w = w)",  # nested pads dropped
    ],
)
def test_edge_case_formulas_match_the_tree_walker(text):
    query = parse_formula(text)
    rng = random.Random(13)
    for _ in range(4):
        rows = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(0, 7))}
        fathers = {(father,) for father, _son in rows}
        _assert_equivalent(query, DatabaseState(_EDGE_SCHEMA, {"F": rows, "S": fathers}), EQ)


def test_projection_pushdown_bounds_peak_rows_by_the_relation():
    # Without pushdown S(x) and S(w) would join into |S|^2 rows before w is
    # projected away.
    state = numeric_state(range(256))
    compiled = compile_query(parse_formula("exists w. (S(x) & S(w))"), state.schema, NAT)
    stats = ExecutionStats()
    rows = run_plan(compiled.plan, state, compiled.universe(state), NAT, stats)
    assert len(rows) == 256
    assert stats.peak_rows <= 256


#: S(y) padded with x and w
_PADDED = CrossPad(Scan("S", ("y",), (), ("y",)), ("x", "w"), ("y", "x", "w"))


def _same_rows(before, after, state, adom, domain):
    """``before`` and ``after`` agree in ``state`` over ``adom``."""
    rows = run_plan(before, state, adom, domain)
    assert run_plan(after, state, adom, domain) == rows
    return rows


def test_align_pushes_the_projection_into_single_part_attributes():
    wide = Scan("F", ("x", "y"), (), ("x", "y"))
    tall = Scan("F", ("y", "z"), (), ("y", "z"))
    join = Join((wide, tall), ("x", "y", "z"))
    aligned = _align(join, ("x",))
    # z is used only by the second part and not projected: dropped pre-join.
    joins = [n for n in walk_plan(aligned) if isinstance(n, Join)]
    assert joins and "z" not in joins[0].attrs
    assert Project(tall, ("y",)) in joins[0].parts
    state = _family([(0, 1), (1, 2), (2, 3), (1, 4)])
    assert _same_rows(Project(join, ("x",)), aligned, state, [0, 1, 2, 3, 4], EQ) == {
        (0,), (1,)
    }


def test_align_keeps_shared_attributes():
    join = Join(
        (Scan("F", ("x", "y"), (), ("x", "y")), Scan("F", ("y", "x"), (), ("y", "x"))),
        ("x", "y"),
    )
    aligned = _align(join, ("x",))
    assert aligned == Project(join, ("x",)) and aligned.source is join


def test_align_drops_an_unprojected_pad_but_keeps_empty_adom_semantics():
    # exists x over an unconstrained pad: dropping the pad must not make the
    # query true on an empty active domain.
    padded = CrossPad(Literal(("y",), ((1,),)), ("x",), ("y", "x"))
    aligned = _align(padded, ("y",))
    assert not any(isinstance(node, CrossPad) for node in walk_plan(aligned))
    assert any(isinstance(node, AdomScan) for node in walk_plan(aligned))
    state = DatabaseState(family_schema())
    # empty adom: the pad has nothing to range over, so no rows survive
    assert _same_rows(Project(padded, ("y",)), aligned, state, [], EQ) == set()
    # non-empty adom: the pad is a no-op for the projected answer
    assert _same_rows(Project(padded, ("y",)), aligned, state, [7], EQ) == {(1,)}


def test_align_keeps_the_projected_pad_columns():
    aligned = _align(_PADDED, ("y", "x"))
    pads = [node.pad for node in walk_plan(aligned) if isinstance(node, CrossPad)]
    assert pads == [("x",)]
    values = [1, 4, 6, 9]
    rows = _same_rows(Project(_PADDED, ("y", "x")), aligned, numeric_state(values), values, NAT)
    assert rows == {(y, x) for y in values for x in values}


def test_align_collapses_nested_projections():
    scan = Scan("F", ("x", "y"), (), ("x", "y"))
    assert _align(Project(scan, ("y", "x")), ("y",)) == Project(scan, ("y",))


def test_nested_vacuous_pads_leave_only_adom_witnesses():
    query = parse_formula("exists w. exists v. (S(x) & v = v & w = w)")
    plan = compile_query(query, _EDGE_SCHEMA, EQ).plan
    kinds = [type(node).__name__ for node in walk_plan(plan)]
    assert "CrossPad" not in kinds
    assert kinds.count("AdomScan") == 2
    for fathers in ([], [(3,)], [(0,), (4,)]):
        _assert_equivalent(query, DatabaseState(_EDGE_SCHEMA, {"S": fathers}), EQ)


@pytest.mark.parametrize(
    "text",
    ["S(x) & ~(exists w. (S(x) & S(w)))", "S(x) | (exists w. (S(x) & S(w)))"],
)
def test_projections_are_pushed_inside_antijoins_and_unions(text):
    query = parse_formula(text)
    plan = compile_query(query, _EDGE_SCHEMA, EQ).plan
    assert isinstance(plan, (AntiJoin, UnionAll))
    joins = [node for node in walk_plan(plan) if isinstance(node, Join)]
    assert joins and all(
        any(part.attrs == () for part in join.parts) for join in joins
    )
    for fathers in ([], [(3,)], [(0,), (4,)]):
        _assert_equivalent(query, DatabaseState(_EDGE_SCHEMA, {"S": fathers}), EQ)


def test_empty_state_and_empty_active_domain_edge_cases():
    for text in ("exists x. true", "exists x. x = x", "forall x. false",
                 "forall x. F(x, x)", "~(exists x. F(x, x))"):
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


# ---------------------------------------------------------------------------
# Substrate agreement: set executor, tree walker and vectorized executor
# ---------------------------------------------------------------------------

BETWEEN = parse_formula("exists y. exists z. (S(y) & S(z) & y < x & x < z)")


def _assert_all_substrates_agree(query, state, domain):
    """Compiled (set executor) ≡ tree walker ≡ vectorized, on one adom."""
    compiled = compile_query(query, state.schema, domain)
    adom = compiled.universe(state)
    rows = run_plan(compiled.plan, state, adom, domain)
    tree = evaluate_query_active_domain(query, state, interpretation=domain)
    assert rows == tree.rows
    pytest.importorskip("numpy")
    from repro.relational.columnar import run_plan_vectorized

    assert run_plan_vectorized(compiled.plan, state, adom, domain) == rows


@pytest.mark.parametrize("name,query,_finite", ordered_query_corpus())
def test_substrates_agree_on_randomized_ordered_states(
    name, query, _finite
):
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(12):
        values = rng.sample(range(0, 120), rng.randint(0, 10))
        _assert_all_substrates_agree(query, numeric_state(values), NAT)


@pytest.mark.parametrize("values", [[], [5], [5, 6], [0, 1, 2]])
def test_between_query_on_degenerate_adoms(values):
    _assert_all_substrates_agree(BETWEEN, numeric_state(values), NAT)


def test_substrates_agree_on_presburger_domain():
    domain = PRESBURGER
    for values in ([], [3], [3, 10, 20], [0, 1, 2, 40]):
        _assert_all_substrates_agree(BETWEEN, numeric_state(values), domain)


def test_substrates_agree_on_equality_domain():
    rng = random.Random(7)
    for _ in range(6):
        state = family_state(
            generations=rng.randint(1, 3), sons_per_father=rng.randint(1, 2)
        )
        for query in (grandfather_query(), more_than_one_son_query()):
            _assert_all_substrates_agree(query, state, EQ)
