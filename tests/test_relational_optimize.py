"""Tests for the logical plan optimizer and its supporting machinery.

Five layers:

* rewrite-shape tests: interleaved pad/filter, interval-join introduction on
  ordered domains (and *not* on unordered ones), range reduction of
  fully-projected interval joins, pad elimination, projection pushdown, and
  the recorded optimizer notes surfaced through ``summary()``/``explain()``;
* property-style equivalence: optimized and unoptimized plans must agree
  with each other, with the vectorized executor, and with the tree-walking
  evaluator on randomized states — including empty and one-element adoms;
* a deterministic blowup regression: the "strictly between two members"
  query's peak intermediate row count must be O(answer), not O(|adom|^2);
* the per-state columnar encode cache: hits on unchanged states, misses on
  changed ones, ``cache_info()``-style counters, LRU eviction, and the
  dictionary-codec key separation;
* the memoised ``OrderedRelativeSafety`` verdicts per (formula, state).
"""

import random

import pytest

from repro import connect
from repro.domains import get_domain
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
    AggBound,
    AttrRef,
    ConstRef,
    CrossPad,
    DomainCondition,
    ExecutionStats,
    Join,
    Literal,
    Project,
    RangeScan,
    Scan,
    Select,
    plan_summary,
    run_plan,
    walk_plan,
)
from repro.relational.optimize import domain_is_ordered, optimize_plan
from repro.relational.state import DatabaseState
from repro.safety.relative_safety import OrderedRelativeSafety

NAT = NaturalOrderDomain()
EQ = EqualityDomain()

BETWEEN = parse_formula("exists y. exists z. (S(y) & S(z) & y < x & x < z)")


def _between_compiled(schema=None, optimize=True):
    schema = schema if schema is not None else numeric_state([]).schema
    return compile_query(BETWEEN, schema, NAT, optimize=optimize)


# ---------------------------------------------------------------------------
# the ordered-carrier capability and ordered-domain detection
# ---------------------------------------------------------------------------


def test_ordered_carriers_are_declared_on_the_domain():
    ordered = {
        name for name in ("nat<", "presburger", "integers", "zdiff", "eq",
                          "qlinear", "shortlex", "cyclic", "succ", "traces")
        if get_domain(name).ordered_carrier
    }
    assert ordered == {"nat<", "presburger", "integers", "zdiff"}


def test_domain_is_ordered_reads_the_instance_attribute():
    class Unregistered:
        name = "no-such-domain"
        ordered_carrier = True

    assert domain_is_ordered(Unregistered())
    assert not domain_is_ordered(object())


def test_capabilities_follow_the_domain_not_its_registered_name():
    # Regression: capabilities used to be looked up by the domain's *name*
    # in the registry, so a renamed (N, <) instance lost its ordered carrier
    # and compiled to a pad-and-filter plan.
    domain = NaturalOrderDomain()
    domain.name = "my-nat"
    query = parse_formula("exists y. exists z. (S(y) & S(z) & y < x & x < z)")
    compiled = compile_query(query, numeric_schema(), domain)
    assert compiled.summary().startswith("2 scans, 1 range-scan;")
    state = numeric_state([2, 5, 9])
    relation = evaluate_query_active_domain(query, state, interpretation=domain)
    assert relation.rows == {(5,)}
    plan = connect(domain, numeric_schema()).plan("compiled")
    plan.execute(query, state)
    assert "range-scan" in plan.last_summary


# ---------------------------------------------------------------------------
# rewrite shapes
# ---------------------------------------------------------------------------


def test_between_query_reduces_to_range_scan():
    compiled = _between_compiled()
    kinds = {type(node).__name__ for node in walk_plan(compiled.plan)}
    assert "RangeScan" in kinds
    assert "CrossPad" not in kinds
    assert "Select" not in kinds
    summary = compiled.summary()
    assert "range-scan" in summary
    assert "optimizer:" in summary
    assert "interval join" in summary


def test_unoptimized_plan_keeps_the_padded_shape():
    compiled = _between_compiled(optimize=False)
    kinds = {type(node).__name__ for node in walk_plan(compiled.plan)}
    assert "CrossPad" in kinds and "Select" in kinds
    assert compiled.notes == ()
    assert "optimizer:" not in compiled.summary()


def test_no_interval_rewrite_on_unordered_domains():
    # The equality domain has no order, so even a hand-built "<" condition
    # must stay on the pointwise path.
    plan = Select(
        CrossPad(Literal(("y",), ((3,),)), ("x",), ("y", "x")),
        (DomainCondition("<", (AttrRef("y"), AttrRef("x"))),),
        ("y", "x"),
    )
    rewritten, notes = optimize_plan(plan, ordered=False)
    kinds = {type(node).__name__ for node in walk_plan(rewritten)}
    assert "IntervalJoin" not in kinds and "RangeScan" not in kinds
    rewritten_ordered, notes_ordered = optimize_plan(plan, ordered=True)
    kinds_ordered = {type(node).__name__ for node in walk_plan(rewritten_ordered)}
    assert "IntervalJoin" in kinds_ordered
    assert any("interval join" in note for note in notes_ordered)


def test_constant_bounds_survive_as_range_bounds():
    # above-seven: 7 < x over the adom — a constant lower bound.
    compiled = compile_query(
        parse_formula("7 < x"), numeric_state([]).schema, NAT
    )
    state = numeric_state([2, 5, 8, 11])
    rows = run_plan(compiled.plan, state, compiled.universe(state), NAT)
    assert rows == {(8,), (11,)}
    kinds = {type(node).__name__ for node in walk_plan(compiled.plan)}
    assert "IntervalJoin" in kinds or "RangeScan" in kinds


def test_non_integer_constants_stay_pointwise():
    plan = Select(
        CrossPad(Literal((), ((),)), ("x",), ("x",)),
        (DomainCondition("<", (ConstRef("seven"), AttrRef("x"))),),
        ("x",),
    )
    rewritten, _notes = optimize_plan(plan, ordered=True)
    kinds = {type(node).__name__ for node in walk_plan(rewritten)}
    assert "IntervalJoin" not in kinds and "RangeScan" not in kinds


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


def test_optimizer_notes_reach_plan_explain():
    session = connect("nat<", numeric_state([]).schema)
    plan = session.plan("compiled")
    # Active-domain semantics: only stored elements strictly between two
    # other stored elements qualify.
    state = numeric_state([1, 5, 9])
    answer = plan.execute(BETWEEN, state)
    assert answer.rows() == ((5,),)
    assert "optimizer:" in plan.explain()
    assert "interval join" in plan.explain()


def test_plan_summary_counts_interval_operators():
    plan = RangeScan(
        (AggBound(Project(Scan("S", ("v",), (), ("v",)), ("v",)), "min"),),
        (),
        ("x",),
    )
    assert plan_summary(plan) == "1 scan, 1 range-scan, 1 project"


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


def test_optimized_plans_equivalent_on_equality_domain():
    rng = random.Random(7)
    for _ in range(6):
        state = family_state(
            generations=rng.randint(1, 3), sons_per_father=rng.randint(1, 2)
        )
        for query in (grandfather_query(), more_than_one_son_query()):
            _assert_all_substrates_agree(query, state, EQ)


def test_presburger_domain_also_gets_interval_plans():
    domain = PresburgerDomain()
    compiled = compile_query(BETWEEN, numeric_state([]).schema, domain)
    kinds = {type(node).__name__ for node in walk_plan(compiled.plan)}
    assert "RangeScan" in kinds
    _assert_all_substrates_agree(BETWEEN, numeric_state([3, 10, 20]), domain)


# ---------------------------------------------------------------------------
# the blowup regression
# ---------------------------------------------------------------------------


def test_between_query_peak_rows_stay_linear():
    size = 40
    state = numeric_state([2 * i + 1 for i in range(size)])
    optimized = _between_compiled()
    unoptimized = _between_compiled(optimize=False)
    adom = optimized.universe(state)

    opt_stats = ExecutionStats()
    answer = run_plan(optimized.plan, state, adom, NAT, opt_stats)
    naive_stats = ExecutionStats()
    assert run_plan(unoptimized.plan, state, adom, NAT, naive_stats) == answer

    # O(answer): every optimized operator output is bounded by the adom/answer
    # size; the unoptimized plan materialises |S|^2 pairs and worse.
    assert opt_stats.peak_rows <= 2 * (len(answer) + len(adom))
    assert naive_stats.peak_rows >= size * size
    assert opt_stats.peak_rows < naive_stats.peak_rows / 50


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
