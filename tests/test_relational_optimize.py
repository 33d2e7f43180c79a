"""Tests for the logical plan optimizer and its supporting machinery.

Four layers:

* rewrite-shape tests: interleaved pad/filter, pad elimination, projection
  pushdown, and the recorded optimizer notes surfaced through
  ``summary()``/``explain()``;
* property-style equivalence: optimized and unoptimized plans must agree
  with each other, with the vectorized executor, and with the tree-walking
  evaluator on randomized states — including empty and one-element adoms;
* the per-state columnar encode cache: hits on unchanged states, misses on
  changed ones, ``cache_info()``-style counters, LRU eviction, and the
  dictionary-codec key separation;
* the memoised ``OrderedRelativeSafety`` verdicts per (formula, state).
"""

import random

import pytest

from repro import connect
from repro.domains.equality import EqualityDomain
from repro.domains.nat_order import NaturalOrderDomain
from repro.domains.presburger import PresburgerDomain
from repro.experiments.corpora import (
    family_schema,
    family_state,
    numeric_schema,
    numeric_state,
    ordered_query_corpus,
)
from repro.experiments.exp01_intro_queries import (
    grandfather_query,
    more_than_one_son_query,
)
from repro.logic.parser import parse_formula
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.compile import compile_query
from repro.relational.exec import (
    AntiJoin,
    AttrRef,
    ConstRef,
    CrossPad,
    DomainCondition,
    ExecutionStats,
    Join,
    Literal,
    Project,
    Scan,
    Select,
    UnionAll,
    run_plan,
    walk_plan,
)
from repro.relational.optimize import next_pad_column, optimize_plan
from repro.relational.state import DatabaseState
from repro.safety.relative_safety import OrderedRelativeSafety

NAT = NaturalOrderDomain()
EQ = EqualityDomain()

BETWEEN = parse_formula("exists y. exists z. (S(y) & S(z) & y < x & x < z)")


def _between_compiled(schema=None, optimize=True):
    schema = schema if schema is not None else numeric_state([]).schema
    return compile_query(BETWEEN, schema, NAT, optimize=optimize)


# ---------------------------------------------------------------------------
# capabilities read off the domain instance
# ---------------------------------------------------------------------------


def test_capabilities_follow_the_domain_not_its_registered_name():
    # Regression: capabilities used to be looked up by the domain's *name*
    # in the registry, so a renamed (N, <) instance lost them.  Its
    # compiled-algebra capability must still seed enumeration candidates.
    domain = NaturalOrderDomain()
    domain.name = "my-nat"
    plan = connect(domain, numeric_schema()).plan("auto")
    answer = plan.execute(parse_formula("S(x) & 3 < x"), numeric_state([2, 5, 9]))
    assert answer.rows() == ((5,), (9,))
    assert "candidate generator 'compiled+dovetail'" in plan.explain()
    assert "compiled superset of 2 row(s)" in plan.explain()


# ---------------------------------------------------------------------------
# rewrite shapes
# ---------------------------------------------------------------------------


def test_unoptimized_plan_keeps_the_padded_shape():
    compiled = _between_compiled(optimize=False)
    kinds = {type(node).__name__ for node in walk_plan(compiled.plan)}
    assert "CrossPad" in kinds and "Select" in kinds
    assert compiled.notes == ()
    assert "optimizer:" not in compiled.summary()


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


def test_projection_pushdown_drops_single_part_attributes():
    wide = Scan("F", ("x", "y"), (), ("x", "y"))
    tall = Scan("F", ("y", "z"), (), ("y", "z"))
    plan = Project(Join((wide, tall), ("x", "y", "z")), ("x",))
    rewritten, notes = optimize_plan(plan)
    # z is used only by the second part and not projected: dropped pre-join.
    joins = [n for n in walk_plan(rewritten) if isinstance(n, Join)]
    assert joins and "z" not in joins[0].attrs
    assert any("projection" in note for note in notes)


def test_pad_elimination_keeps_empty_adom_semantics():
    # exists x over an unconstrained pad: dropping the pad must not make the
    # query true on an empty active domain.
    inner = Literal(("y",), ((1,),))
    plan = Project(CrossPad(inner, ("x",), ("y", "x")), ("y",))
    rewritten, notes = optimize_plan(plan)
    assert any("pad" in note for note in notes)
    state = DatabaseState(family_schema())
    # empty adom: the pad has nothing to range over, so no rows survive
    assert run_plan(rewritten, state, [], EQ) == set()
    assert run_plan(plan, state, [], EQ) == set()
    # non-empty adom: the pad is a no-op for the projected answer
    assert run_plan(rewritten, state, [7], EQ) == {(1,)}


def _lt(left, right):
    return DomainCondition("<", (left, right))


#: S(y) padded with x and w: the shape interleaving exists for
_PADDED = CrossPad(Scan("S", ("y",), (), ("y",)), ("x", "w"), ("y", "x", "w"))


def _same_rows(before, after, values=(1, 4, 6, 9)):
    """``before`` and ``after`` agree on a small ordered state (and its adom)."""
    state = numeric_state(list(values))
    adom = sorted(values)
    rows = run_plan(before, state, adom, NAT)
    assert run_plan(after, state, adom, NAT) == rows
    return rows


def test_interleaving_fires_each_condition_after_its_columns_are_padded():
    y, x, w = AttrRef("y"), AttrRef("x"), AttrRef("w")
    plan = Select(_PADDED, (_lt(y, x), _lt(x, w)), _PADDED.attrs)
    rewritten, notes = optimize_plan(plan)
    assert notes == ("interleaved 1 condition(s) with adom pads",)
    # y < x is applied between the two pads; x < w only after the second
    assert isinstance(rewritten, Select) and rewritten.conditions == (_lt(x, w),)
    inner = rewritten.source.source
    assert isinstance(inner, Select) and inner.conditions == (_lt(y, x),)
    assert inner.source.pad == ("x",)
    assert _same_rows(plan, rewritten) == {(1, 4, 6), (1, 4, 9), (1, 6, 9), (4, 6, 9)}


def test_interleaving_pads_the_enabling_column_first():
    plan = Select(_PADDED, (_lt(AttrRef("y"), AttrRef("w")),), _PADDED.attrs)
    rewritten, notes = optimize_plan(plan)
    pads = [node.pad for node in walk_plan(rewritten) if isinstance(node, CrossPad)]
    assert pads == [("x",), ("w",)]  # pre-order: the outer (last) pad first
    assert rewritten.attrs == _PADDED.attrs
    assert notes == ("interleaved 1 condition(s) with adom pads",)
    _same_rows(plan, rewritten)


def test_constant_only_conditions_fire_before_any_pad():
    pad = CrossPad(Literal((), ((),)), ("x", "y"), ("x", "y"))
    for truth, expected in ((_lt(ConstRef(3), ConstRef(5)), 6), (_lt(ConstRef(5), ConstRef(3)), 0)):
        plan = Select(pad, (truth, _lt(AttrRef("x"), AttrRef("y"))), pad.attrs)
        rewritten, _notes = optimize_plan(plan)
        first = [node for node in walk_plan(rewritten) if isinstance(node, Select)][-1]
        assert first.conditions == (truth,) and isinstance(first.source, Literal)
        assert len(_same_rows(plan, rewritten)) == expected


def test_nested_selects_fuse_before_interleaving():
    y, x, w = AttrRef("y"), AttrRef("x"), AttrRef("w")
    plan = Select(
        Select(_PADDED, (_lt(y, x),), _PADDED.attrs), (_lt(x, w),), _PADDED.attrs
    )
    rewritten, notes = optimize_plan(plan)
    selects = [node for node in walk_plan(rewritten) if isinstance(node, Select)]
    assert [node.conditions for node in selects] == [(_lt(x, w),), (_lt(y, x),)]
    assert notes == ("interleaved 1 condition(s) with adom pads",)
    _same_rows(plan, rewritten)


def test_select_without_a_pad_is_left_alone():
    plan = Select(
        Scan("S", ("y",), (), ("y",)), (_lt(AttrRef("y"), ConstRef(5)),), ("y",)
    )
    rewritten, notes = optimize_plan(plan)
    assert rewritten == plan and notes == ()


def test_next_pad_column_prefers_enabled_conditions_then_names():
    assert next_pad_column(set(), ["b", "a"], []) == "a"
    assert next_pad_column({"y"}, ["a", "b"], [{"y", "b"}]) == "b"
    assert next_pad_column({"y"}, ["a", "b"], [{"a", "b"}, {"b"}]) == "b"
    assert next_pad_column(set(), ["c", "b"], [{"b", "c"}]) == "b"


def test_pad_elimination_keeps_the_projected_pad_columns():
    plan = Project(_PADDED, ("y", "x"))
    rewritten, notes = optimize_plan(plan)
    pads = [node.pad for node in walk_plan(rewritten) if isinstance(node, CrossPad)]
    assert pads == [("x",)]
    assert notes == ("eliminated 1 adom pad column(s)",)
    assert _same_rows(plan, rewritten) == {(y, x) for y in (1, 4, 6, 9) for x in (1, 4, 6, 9)}


def test_nested_projections_collapse_without_a_note():
    scan = Scan("F", ("x", "y"), (), ("x", "y"))
    rewritten, notes = optimize_plan(Project(Project(scan, ("y", "x")), ("y",)))
    assert rewritten == Project(scan, ("y",)) and notes == ()


def test_projection_pushdown_keeps_shared_attributes():
    plan = Project(
        Join(
            (Scan("F", ("x", "y"), (), ("x", "y")), Scan("F", ("y", "x"), (), ("y", "x"))),
            ("x", "y"),
        ),
        ("x", "y"),
    )
    rewritten, notes = optimize_plan(plan)
    assert rewritten == plan.source and notes == ()


def test_optimizer_rewrites_inside_antijoins_and_unions():
    y, x, w = AttrRef("y"), AttrRef("x"), AttrRef("w")
    padded = Select(_PADDED, (_lt(y, x), _lt(x, w)), _PADDED.attrs)
    anti = AntiJoin(padded, Scan("S", ("x",), (), ("x",)), _PADDED.attrs)
    union = UnionAll((padded, Select(_PADDED, (_lt(w, x),), _PADDED.attrs)), _PADDED.attrs)
    for plan in (anti, union):
        rewritten, notes = optimize_plan(plan)
        assert type(rewritten) is type(plan)
        assert notes and notes[0].startswith("interleaved")
        assert all(
            len(node.pad) == 1 for node in walk_plan(rewritten) if isinstance(node, CrossPad)
        )
        _same_rows(plan, rewritten)


@pytest.mark.parametrize("name,query,_finite", ordered_query_corpus())
def test_optimizing_a_compiled_plan_again_changes_nothing(name, query, _finite):
    compiled = compile_query(query, numeric_schema(), NAT)
    assert optimize_plan(compiled.plan) == (compiled.plan, ())


def test_optimizer_notes_reach_plan_explain():
    session = connect("nat<", numeric_state([]).schema)
    plan = session.plan("compiled")
    # The compiler interleaves pads and filters itself, so the note that
    # reaches a compiled query is projection pushdown: the witness w is
    # projected away before the join with S(x).
    query = parse_formula("exists w. (S(x) & S(w))")
    answer = plan.execute(query, numeric_state([1, 5, 9]))
    assert answer.rows() == ((1,), (5,), (9,))
    assert "optimizer: pushed 1 projection(s) into joins" in plan.explain()


# ---------------------------------------------------------------------------
# equivalence properties
# ---------------------------------------------------------------------------


def _assert_all_substrates_agree(query, state, domain):
    unoptimized = compile_query(query, state.schema, domain, optimize=False)
    optimized = compile_query(query, state.schema, domain)
    adom = optimized.universe(state)
    rows_naive = run_plan(unoptimized.plan, state, adom, domain)
    rows_opt = run_plan(optimized.plan, state, adom, domain)
    tree = evaluate_query_active_domain(query, state, interpretation=domain)
    assert rows_naive == rows_opt == tree.rows
    numpy = pytest.importorskip("numpy")
    assert numpy is not None
    from repro.relational.columnar import run_plan_vectorized

    assert run_plan_vectorized(optimized.plan, state, adom, domain) == rows_opt
    assert run_plan_vectorized(unoptimized.plan, state, adom, domain) == rows_opt


@pytest.mark.parametrize("name,query,_finite", ordered_query_corpus())
def test_optimized_plans_equivalent_on_randomized_ordered_states(
    name, query, _finite
):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(12):
        values = rng.sample(range(0, 120), rng.randint(0, 10))
        _assert_all_substrates_agree(query, numeric_state(values), NAT)


@pytest.mark.parametrize("values", [[], [5], [5, 6], [0, 1, 2]])
def test_between_query_on_degenerate_adoms(values):
    _assert_all_substrates_agree(BETWEEN, numeric_state(values), NAT)


def test_optimized_plans_equivalent_on_presburger_domain():
    domain = PresburgerDomain()
    for values in ([], [3], [3, 10, 20], [0, 1, 2, 40]):
        _assert_all_substrates_agree(BETWEEN, numeric_state(values), domain)


def test_optimized_plans_equivalent_on_equality_domain():
    rng = random.Random(7)
    for _ in range(6):
        state = family_state(
            generations=rng.randint(1, 3), sons_per_father=rng.randint(1, 2)
        )
        for query in (grandfather_query(), more_than_one_son_query()):
            _assert_all_substrates_agree(query, state, EQ)


# ---------------------------------------------------------------------------
# execution statistics
# ---------------------------------------------------------------------------


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
# the per-state encode cache
# ---------------------------------------------------------------------------


numpy = pytest.importorskip("numpy")  # the cache stores ndarray columns

from repro.relational.columnar import (  # noqa: E402
    ElementCodec,
    EncodeCache,
    run_plan_vectorized,
)


def test_encode_cache_hits_on_unchanged_state():
    cache = EncodeCache(maxsize=4)
    state = numeric_state([1, 5, 9])
    compiled = compile_query(
        parse_formula("S(x)"), state.schema, NAT
    )
    adom = compiled.universe(state)
    first = run_plan_vectorized(compiled.plan, state, adom, NAT, cache=cache)
    info = cache.info()
    assert (info.hits, info.misses) == (0, 1)
    second = run_plan_vectorized(compiled.plan, state, adom, NAT, cache=cache)
    assert first == second == {(1,), (5,), (9,)}
    info = cache.info()
    assert (info.hits, info.misses) == (1, 1)
    assert str(info).startswith("hits=1 misses=1")


def test_encode_cache_misses_on_changed_state():
    cache = EncodeCache(maxsize=4)
    compiled = compile_query(
        parse_formula("S(x)"), numeric_state([]).schema, NAT
    )
    for values in ([1, 2], [1, 2, 3], [1, 2]):
        state = numeric_state(values)
        run_plan_vectorized(
            compiled.plan, state, compiled.universe(state), NAT, cache=cache
        )
    info = cache.info()
    # the third state equals the first by value, so it hits its entry
    assert info.misses == 2 and info.hits == 1


def test_encode_cache_evicts_lru():
    cache = EncodeCache(maxsize=2)
    compiled = compile_query(
        parse_formula("S(x)"), numeric_state([]).schema, NAT
    )
    for values in ([1], [2], [3]):
        state = numeric_state(values)
        run_plan_vectorized(
            compiled.plan, state, compiled.universe(state), NAT, cache=cache
        )
    info = cache.info()
    assert info.evictions == 1 and info.size == 2


def test_encode_cache_separates_codecs_by_key():
    numeric = ElementCodec.for_universe([1, 2])
    named = ElementCodec.for_universe(["a", "b"])
    assert numeric.cache_key() == ("numeric",)
    assert named.cache_key()[0] == "dictionary"
    cache = EncodeCache(maxsize=4)
    state = numeric_state([1, 2])
    assert cache.columns_for(state, numeric) is cache.columns_for(state, numeric)
    assert cache.columns_for(state, numeric) is not cache.columns_for(state, named)


def test_encode_cache_reuses_relation_arrays():
    cache = EncodeCache(maxsize=4)
    state = numeric_state([4, 8])
    compiled = compile_query(
        parse_formula("S(x)"), state.schema, NAT
    )
    adom = compiled.universe(state)
    run_plan_vectorized(compiled.plan, state, adom, NAT, cache=cache)
    codec = ElementCodec.for_universe([4, 8])
    store = cache.columns_for(state, codec)
    assert "S" in store  # filled lazily by the first execution
    array = store["S"]
    run_plan_vectorized(compiled.plan, state, adom, NAT, cache=cache)
    assert cache.columns_for(state, codec)["S"] is array


def test_session_exposes_encode_cache_info():
    session = connect("nat<", numeric_state([]).schema)
    info = session.encode_cache_info()
    assert hasattr(info, "hits") and hasattr(info, "misses")
    assert "encode cache" in session.plan("vectorized").explain()


def test_codec_extend_preserves_existing_codes():
    base = ElementCodec.for_universe(["eve", "adam"])
    grown = base.extend(["cain", "eve"])
    assert grown is not base
    for element in ("eve", "adam"):
        assert grown.encode(element) == base.encode(element)
    assert grown.decode(grown.encode("cain")) == "cain"
    assert base.extend(["eve"]) is base  # nothing new: same codec
    numeric = ElementCodec.for_universe([1, 2])
    assert numeric.extend([99]) is numeric  # passthrough never grows


def test_encode_cache_grows_dictionary_codec_without_reencoding():
    from repro.relational.schema import DatabaseSchema, RelationSchema

    schema = DatabaseSchema((RelationSchema("N", 1, ("name",)),))
    state = DatabaseState(schema, {"N": [("eve",), ("adam",)]})
    plan = Scan("N", ("x",), (), ("x",))
    cache = EncodeCache(maxsize=4)
    first = run_plan_vectorized(plan, state, ["eve", "adam"], EQ, cache=cache)
    assert first == {("eve",), ("adam",)}
    # A wider universe (a new constant outside the carrier) changes the
    # codec — the dictionary table must grow, not rebuild, so the cached
    # relation columns keep serving.
    second = run_plan_vectorized(
        plan, state, ["eve", "adam", "cain"], EQ, cache=cache
    )
    assert second == first
    info = cache.info()
    assert info.misses == 1 and info.hits == 1
    assert info.grown == 1
    assert "grown=1" in str(info)


def test_encode_cache_grown_columns_stay_valid():
    from repro.relational.schema import DatabaseSchema, RelationSchema

    schema = DatabaseSchema((RelationSchema("N", 1, ("name",)),))
    state = DatabaseState(schema, {"N": [("b",), ("d",)]})
    plan = Scan("N", ("x",), (), ("x",))
    cache = EncodeCache(maxsize=4)
    run_plan_vectorized(plan, state, ["b", "d"], EQ, cache=cache)
    codec = cache.codec_for(state, ["b", "d"])
    store = cache.columns_for(state, codec)
    array = store["N"]
    # growing by an element that would sort *before* the existing table must
    # not invalidate the cached encoding (append-only, not re-sorted)
    wider = run_plan_vectorized(plan, state, ["a", "b", "d"], EQ, cache=cache)
    assert wider == {("b",), ("d",)}
    grown = cache.codec_for(state, ["a", "b", "d"])
    assert cache.columns_for(state, grown)["N"] is array
    assert grown.encode("b") == codec.encode("b")


def test_state_fingerprint_is_stable_and_memoised():
    state = numeric_state([3, 1])
    twin = numeric_state([1, 3])
    other = numeric_state([1, 4])
    # The fingerprint is a full 64-bit XOR of per-row tokens (so Delta
    # application can patch it); __hash__ derives from it, but Python's
    # hash() reduces big ints, so the two are equal only as hash keys.
    assert state.fingerprint() == twin.fingerprint()
    assert hash(state) == hash(twin)
    assert state.fingerprint() != other.fingerprint() or state != other
    assert state.elements() is state.elements()  # memoised frozenset


# ---------------------------------------------------------------------------
# memoised OrderedRelativeSafety
# ---------------------------------------------------------------------------


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
