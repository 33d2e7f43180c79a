"""Tests for the vectorized NumPy columnar executor.

Six layers:

* kernel-level tests for :mod:`repro.relational.kernels` (sort-based join
  indices, membership masks, broadcast padding, zero-column tables);
* codec tests for :class:`repro.relational.columnar.ElementCodec`
  (int64 passthrough vs dictionary encoding of str/mixed/bignum carriers);
* property-style equivalence: for every registered domain pack that claims
  an algebra substrate, the vectorized executor, the set-at-a-time executor,
  and the tree-walking evaluator must return identical row sets over the
  pack's corpora and randomized states — including dictionary-encoded string
  carriers and empty relations (the corpora come from the pack registry, so
  a newly registered pack is covered without editing this file);
* planner/session integration: strategy ``"vectorized"`` selection, the
  shared plan-cache entry, and the recorded fallback ladder
  (vectorized → set executor → tree walker);
* the one ladder every algebra plan runs (compiled, vectorized): the tree
  walker on a compile error, tiny and
  dictionary-encoded states, and identical answers across repeated runs;
* the per-state encode stores: hits on the same state object, misses on
  other ones (equal or not), numeric/dictionary separation, dictionary
  growth, no state comparison per request, and columns freed with the state.
"""

import gc
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

# numpy is the library's optional accelerator: without it the vectorized
# executor falls back (covered by test_missing_numpy_falls_back_to_set_executor
# below, which never touches np); everything else here needs the real thing.
np = pytest.importorskip("numpy")

from repro import connect
from repro.api import Planner
from repro.domains import available_domains, get_pack
from repro.domains.equality import EqualityDomain
from repro.domains.nat_order import NaturalOrderDomain
from repro.domains.presburger import PresburgerDomain
from repro.domains.successor import SuccessorDomain
from repro.engine.plan_cache import PlanCache
from repro.engine.plans import (
    STRATEGIES,
    CompiledAlgebraPlan,
    GuardedPlan,
    VectorizedAlgebraPlan,
)
from repro.experiments.corpora import (
    family_schema,
    family_state,
    numeric_state,
    presburger_sentences,
)
from repro.experiments.exp01_intro_queries import (
    grandfather_query,
    more_than_one_son_query,
    unsafe_disjunction_query,
    unsafe_negation_query,
)
from repro.logic.parser import parse_formula
from repro.relational import kernels
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.columnar import (
    CodedRows,
    ElementCodec,
    VectorizationError,
    _store_for,
    apply_delta,
    encode_cache_info,
    execute_vectorized,
    run_plan_vectorized,
    vectorization_obstacle,
)
from repro.relational.compile import CompilationError, compile_query
from repro.relational.kernels import CodeTable
from repro.relational.exec import (
    AdomScan,
    AttrRef,
    DomainCondition,
    Literal,
    Scan,
    Select,
    run_plan,
)
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState, Delta

EQ = EqualityDomain()
NAT = NaturalOrderDomain()
PRESBURGER = PresburgerDomain()
SUCCESSOR = SuccessorDomain()


def _family(rows):
    return DatabaseState(family_schema(), {"F": rows})


def _assert_three_way_equivalent(query, state, domain):
    """Vectorized, set-at-a-time, and tree-walking answers must coincide;
    returns the vectorized result, still coded."""
    expected = evaluate_query_active_domain(query, state, interpretation=domain)
    compiled = compile_query(query, state.schema, domain)
    set_rows = compiled.execute(state, domain).rows
    coded = execute_vectorized(compiled.plan, state, compiled.universe(state))
    vec_rows = coded.decode()
    assert set_rows == expected.rows
    assert vec_rows == expected.rows, (
        f"vectorized {sorted(vec_rows)} != tree-walk {sorted(expected.rows)} "
        f"for {query} in {state}"
    )
    return coded


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _table(array):
    """The code table of a 2-D array: one contiguous column per array column."""
    array = np.asarray(array, dtype=np.int64)
    return CodeTable(tuple(np.ascontiguousarray(array.T)), array.shape[0])


def _rows(table):
    """The rows of a code table, as tuples of Python ints, in table order."""
    if not table.columns:
        return [()] * table.rows
    return list(zip(*(column.tolist() for column in table.columns)))


def test_join_indices_matches_nested_loop_join():
    rng = random.Random(5)
    for _ in range(20):
        left = np.array(
            [[rng.randrange(4), rng.randrange(4)] for _ in range(rng.randrange(0, 9))],
            dtype=np.int64,
        ).reshape(-1, 2)
        right = np.array(
            [[rng.randrange(4), rng.randrange(4)] for _ in range(rng.randrange(0, 9))],
            dtype=np.int64,
        ).reshape(-1, 2)
        li, ri = kernels.join_indices(_table(left), _table(right))
        got = sorted(zip(li.tolist(), ri.tolist()))
        want = sorted(
            (i, j)
            for i in range(left.shape[0])
            for j in range(right.shape[0])
            if (left[i] == right[j]).all()
        )
        assert got == want


def test_join_indices_zero_column_keys_are_a_cross_product():
    left = CodeTable((), 3)
    right = CodeTable((), 2)
    li, ri = kernels.join_indices(left, right)
    assert sorted(zip(li.tolist(), ri.tolist())) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
    ]


def test_membership_mask_matches_python_membership():
    left = _table([[1, 2], [3, 4], [1, 9]])
    right = _table([[1, 2], [7, 7]])
    assert kernels.membership_mask(left, right).tolist() == [True, False, False]
    empty = CodeTable.empty(2)
    assert kernels.membership_mask(left, empty).tolist() == [False, False, False]
    assert kernels.membership_mask(empty, right).tolist() == []


def test_unique_rows_and_zero_column_tables():
    table = _table([[1, 2], [1, 2], [0, 0]])
    assert _rows(kernels.unique_rows(table)) == [(0, 0), (1, 2)]
    unit = CodeTable((), 4)
    assert kernels.unique_rows(unit) == CodeTable((), 1)
    assert kernels.unique_rows(CodeTable((), 0)) == CodeTable((), 0)


def test_sorted_unique_rows_sorts_only_an_unsorted_table():
    rng = np.random.default_rng(7)
    for columns in (1, 2, 3):
        table = _table(rng.integers(-5, 5, size=(40, columns), dtype=np.int64))
        expected = sorted(set(_rows(table)))
        ordered = kernels.sorted_unique_rows(table)
        assert _rows(ordered) == expected
        # An already ascending table comes back as it is, uncopied.
        assert kernels.sorted_unique_rows(ordered) is ordered
    # Adjacent equal rows are not "ascending": they are deduplicated.
    twice = _table([[1, 2], [1, 2], [3, 0]])
    assert _rows(kernels.sorted_unique_rows(twice)) == [(1, 2), (3, 0)]
    assert kernels.sorted_unique_rows(CodeTable((), 3)) == CodeTable((), 1)
    none = kernels.sorted_unique_rows(CodeTable.empty(2))
    assert none.rows == 0 and len(none.columns) == 2


def test_cross_pad_arrays_broadcasts_every_value():
    table = _table([[5]])
    values = np.array([1, 2, 3], dtype=np.int64)
    assert _rows(kernels.cross_pad_arrays(table, values)) == [(5, 1), (5, 2), (5, 3)]
    none = kernels.cross_pad_arrays(CodeTable.empty(1), values)
    assert none.rows == 0 and len(none.columns) == 2


def test_expand_ranges_concatenates_one_arange_per_group():
    starts = np.array([4, 0, 9, 2], dtype=np.int64)
    counts = np.array([2, 0, 3, 1], dtype=np.int64)
    expected = [
        i for start, count in zip(starts.tolist(), counts.tolist())
        for i in range(start, start + count)
    ]
    group, positions = kernels.expand_ranges(starts, counts)
    assert positions.tolist() == expected == [4, 5, 9, 10, 11, 2]
    assert group.tolist() == [0, 0, 2, 2, 2, 3]


def test_expand_ranges_with_no_rows_is_an_empty_code_column():
    for counts in ([0, 0], []):
        counts = np.array(counts, dtype=np.int64)
        starts = np.zeros(counts.shape[0], dtype=np.int64)
        _, out = kernels.expand_ranges(starts, counts)
        assert out.shape == (0,) and out.dtype == np.int64


#: codes whose spans overflow a packed row key, forcing the lexsort fallback
_WIDE_CODES = (-(2 ** 63), -(2 ** 62) + 1, 2 ** 62, 2 ** 63 - 1)


@st.composite
def _code_tables(draw, count):
    """``count`` code tables of one column count (0-3) and 0-12 rows each:
    small codes (so rows repeat) or, in wide tables, small codes mixed with
    ones spanning more than 62 bits; small tables may be offset apart so
    their code ranges are disjoint."""
    columns = draw(st.integers(0, 3))
    wide = draw(st.booleans())
    values = st.integers(-3, 3)
    if wide:
        values = st.one_of(values, st.sampled_from(_WIDE_CODES))
    tables = []
    for _ in range(count):
        offset = 0 if wide else draw(st.sampled_from([0, 0, 1000, -(2 ** 40)]))
        rows = draw(st.lists(
            st.lists(values, min_size=columns, max_size=columns), max_size=12
        ))
        table = np.array(rows, dtype=np.int64).reshape(len(rows), columns)
        tables.append(_table(table + offset))
    return tables


@settings(max_examples=200, deadline=None)
@given(_code_tables(1))
@example([_table([[2 ** 62, 0], [-(2 ** 62), 1], [2 ** 62, 0]])])
def test_property_dedupe_kernels_sort_the_distinct_rows(tables):
    (table,) = tables
    want = sorted(set(_rows(table)))
    for kernel in (kernels.unique_rows, kernels.sorted_unique_rows):
        got = kernel(table)
        assert len(got.columns) == len(table.columns) and _rows(got) == want
    assert _rows(kernels.sorted_unique_rows(kernels.unique_rows(table))) == want


#: how the codes of one pair of key tables are drawn: dense (a span within
#: twice the rows), sparse (far-apart codes), negative, wider than a packed
#: key, or two dense ranges far apart
_KEY_KINDS = ("dense", "sparse", "negative", "wide", "disjoint")


@st.composite
def _key_tables(draw):
    """Two code tables of one column count (0-3), 0-10 rows each, whose
    codes follow one of :data:`_KEY_KINDS`."""
    kind = draw(st.sampled_from(_KEY_KINDS))
    columns = draw(st.integers(0, 3))
    codes = {
        "dense": st.integers(0, 3),
        "sparse": st.sampled_from([0, 1000, 10 ** 6, 10 ** 9]),
        "negative": st.integers(-(2 ** 40) - 3, -(2 ** 40)),
        "wide": st.sampled_from(_WIDE_CODES + (0, 1)),
        "disjoint": st.integers(0, 2),
    }[kind]
    tables = []
    for offset in (0, 10 ** 7 if kind == "disjoint" else 0):
        rows = draw(st.lists(
            st.lists(codes, min_size=columns, max_size=columns), max_size=10
        ))
        table = np.array(rows, dtype=np.int64).reshape(len(rows), columns)
        tables.append(_table(table + offset))
    return tables


@settings(max_examples=300, deadline=None)
@given(_key_tables())
@example([
    _table([[2 ** 62, 0], [-(2 ** 62), 1]]),
    _table([[-(2 ** 62), 1], [5, 5]]),
])
@example([_table([[0], [7]]), _table([[5]])])        # left key past the right's
@example([_table([[5]]), _table([[0], [9]])])        # right key past the left's
@example([_table([[0], [9]]), _table([[9], [0], [9]])])  # span 10 > 2·5: sorted
@example([_table([[0], [5]]), _table([[5], [0], [5]])])  # span 6 <= 2·5: direct
@example([_table([[2 ** 62, 1], [0, 0]]), _table([[0, 0], [2 ** 62, 1]])])
@example([CodeTable((), 2), CodeTable((), 3)])
@example([CodeTable.empty(2), _table([[1, 2]])])
@example([  # dense keys wider than a byte, in no order
    _table(np.random.default_rng(2).integers(0, 600, (300, 1))),
    _table(np.random.default_rng(3).integers(0, 600, (300, 1))),
])
def test_property_join_and_membership_kernels_match_nested_loops(tables):
    left, right = tables
    left_rows, right_rows = _rows(left), _rows(right)
    li, ri = kernels.join_indices(left, right)
    # Exactly the matching pairs, in left order and then right order.
    assert list(zip(li.tolist(), ri.tolist())) == [
        (i, j)
        for i, row in enumerate(left_rows)
        for j, other in enumerate(right_rows)
        if row == other
    ]
    left_keys, right_keys = kernels.key_codes(left, right)
    keys = left_keys.tolist() + right_keys.tolist()
    rows = left_rows + right_rows
    assert all(
        (keys[a] == keys[b]) == (rows[a] == rows[b])
        for a in range(len(rows))
        for b in range(len(rows))
    )
    stored = set(right_rows)
    assert kernels.membership_mask(left, right).tolist() == [
        row in stored for row in left_rows
    ]
    merged = kernels.insert_rows(kernels.unique_rows(left), right)
    assert _rows(merged) == sorted(set(left_rows) | stored)


# ---------------------------------------------------------------------------
# Column kernels: direct addressing against sorting, split, insert
# ---------------------------------------------------------------------------

def _kernel_sides(left, right):
    """Which side of the span rule a join of ``left`` and ``right`` takes:
    ``"dense"``, ``"sparse"``, or ``None`` when no key is compared."""
    if not (left.columns and left.rows and right.rows):
        return None
    dense = kernels._dense_span(*kernels.key_codes(left, right))
    return "sparse" if dense is None else "dense"


def test_span_rule_addresses_up_to_twice_the_rows_directly():
    # Two rows a side: a span of 2·(2 + 2) = 8 codes is dense, 9 is not.
    def side(high):
        codes = np.array([0, high], dtype=np.int64)
        return _kernel_sides(CodeTable.of(codes), CodeTable.of(codes[::-1]))

    assert side(7) == "dense" and side(8) == "sparse"
    assert kernels._dense_span(np.array([-5, -2]), np.array([-4])) == (-5, 4)
    # Every kind of key the properties draw reaches the side it is meant to.
    negative = _table([[-(2 ** 40) - 3], [-(2 ** 40)]])
    assert _kernel_sides(negative, negative) == "dense"
    # Rows too wide to pack are densified along a lexsort: dense keys.
    wide = _table([[2 ** 62, 1], [0, 0]])
    assert _kernel_sides(wide, _table([[0, 0], [-(2 ** 62), 5]])) == "dense"
    assert _kernel_sides(_table([[0], [1]]), _table([[10 ** 7]])) == "sparse"
    assert _kernel_sides(_table([[0], [10 ** 9]]), _table([[1000]])) == "sparse"
    # The random 4096-row graph's keys span 12,288 codes: addressed directly.
    rng = np.random.default_rng(1)
    graph = CodeTable.of(rng.integers(0, 3 * 4096, 4096))
    assert _kernel_sides(graph, graph) == "dense"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    st.lists(st.integers(0, 7), min_size=1, max_size=3),
    st.booleans(),
)
@example([(1, 2), (3, 4)], [5], False)           # a fresh code in no row
@example([(1, 6), (6, 2)], [6], False)           # in every row, either column
@example([(1, 2), (3, 4)], [4, 1], True)         # the second code only
@example([(1, 2), (3, 4)], [9, 2], True)         # the first outside the codec
def test_property_split_matches_python(rows, fresh, named):
    elements = (lambda value: f"e{value}") if named else (lambda value: value)
    rows = [tuple(map(elements, row)) for row in dict.fromkeys(rows)]
    # The codec covers codes 0-6: a fresh 7 (or e7) is outside it.
    codec = ElementCodec.for_universe([elements(v) for v in range(7)])
    fresh = [elements(value) for value in fresh]
    coded = CodedRows(codec, codec.encode_rows(rows, 2))
    hits = [row for row in rows if fresh[0] in row]
    rest = [] if hits else [row for row in rows if not set(row) & set(fresh)]
    got_hits, got_rest = coded.split(fresh)
    assert sorted(got_hits) == sorted(hits) and sorted(got_rest) == sorted(rest)
    if codec.numeric:
        assert got_hits == tuple(sorted(hits)) and got_rest == tuple(sorted(rest))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=10),
    st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), min_size=1, max_size=6),
    st.booleans(),
)
@example([(1, 2), (3, 4)], [(1, 2), (0, 9)], False)  # re-inserts a stored row
@example([(1, 2), (3, 4)], [(9, 9), (-1, 0)], True)
def test_property_insert_only_delta_keeps_stored_columns_sorted(rows, inserts, named):
    if named:
        rows = [(f"p{a}", f"p{b}") for a, b in rows]
        inserts = [(f"p{a}", f"p{b}") for a, b in inserts]
    session = connect("equality", family_schema(), guard=False)
    state = _family(rows)
    session.run("F(x, y)", state, strategy="vectorized")
    grown = session.apply_delta(state, Delta(inserts={"F": inserts}))
    codec, columns = _store_for(grown, ())
    table = columns["F"]
    decoded = [tuple(codec.decode(code) for code in row) for row in _rows(table)]
    assert set(decoded) == set(rows) | set(inserts) == grown["F"].rows
    assert len(decoded) == len(grown["F"])
    assert _rows(table) == sorted(set(_rows(table)))
    assert all(column.flags.c_contiguous for column in table.columns)


def test_guarded_run_on_the_tree_calls_no_isin(monkeypatch):
    session = connect("equality", family_schema())
    state = family_state(generations=11)
    assert len(state["F"]) == 4094
    first = session.run("F(x, y)", state).answer
    calls = []
    isin = np.isin

    def counted_isin(*args, **kwargs):
        calls.append(args)
        return isin(*args, **kwargs)

    monkeypatch.setattr(np, "isin", counted_isin)
    again = session.run("F(x, y)", state).answer
    assert again.method == "vectorized" and again.rows() == first.rows()
    assert len(again.rows()) == 4094
    assert calls == []


def test_unfiltered_scan_and_clean_split_hand_back_the_stored_columns(
    monkeypatch,
):
    session = connect("equality", family_schema())
    state = family_state(generations=11)
    session.run("F(x, y)", state)
    stored = _store_for(state, ())[1]["F"]
    compiled = compile_query(parse_formula("F(x, y)"), state.schema, EQ)
    scanned = execute_vectorized(compiled.plan, state).codes
    assert all(a is b for a, b in zip(scanned.columns, stored.columns))

    decoded = []
    rows = CodedRows.rows

    def recorded_rows(self, codes=None):
        decoded.append(self.codes if codes is None else codes)
        return rows(self, codes)

    monkeypatch.setattr(CodedRows, "rows", recorded_rows)
    answer = session.run("F(x, y)", state).answer
    assert answer.method == "vectorized" and len(answer.rows()) == 4094
    (rest,) = [table for table in decoded if table.rows]
    assert len(rest.columns) == len(stored.columns) == 2
    assert all(
        np.shares_memory(a, b) for a, b in zip(rest.columns, stored.columns)
    )


# ---------------------------------------------------------------------------
# Element codec
# ---------------------------------------------------------------------------


def test_codec_is_passthrough_for_machine_integers():
    codec = ElementCodec.for_universe([0, 5, -3])
    assert codec.numeric
    assert codec.encode(5) == 5 and codec.decode(-3) == -3
    assert _rows(codec.encode_rows([(0, 5)], 2)) == [(0, 5)]


def test_codec_dictionary_encodes_strings_and_mixed_carriers():
    codec = ElementCodec.for_universe(["eve", "adam", 3])
    assert not codec.numeric
    for element in ("eve", "adam", 3):
        assert codec.decode(codec.encode(element)) == element
    # distinct elements get distinct codes
    assert len({codec.encode(e) for e in ("eve", "adam", 3)}) == 3
    with pytest.raises(VectorizationError):
        codec.encode("snake")


def test_codec_dictionary_encodes_bignums_beyond_int64():
    big = 2 ** 80
    codec = ElementCodec.for_universe([1, big])
    assert not codec.numeric
    assert codec.decode(codec.encode(big)) == big


def test_domain_predicates_fall_back_on_dictionary_carriers():
    schema = DatabaseSchema((RelationSchema("S", 1, ("value",)),))
    state = DatabaseState(schema, {"S": [("a",), ("b",)]})
    query = parse_formula("exists y. (S(y) & x < y)")
    compiled = compile_query(query, schema, PRESBURGER)
    with pytest.raises(VectorizationError, match="dictionary-encoded"):
        run_plan_vectorized(compiled.plan, state, ["a", "b"], PRESBURGER)


def test_vectorization_obstacle_flags_unvectorizable_predicates():
    assert vectorization_obstacle(AdomScan(("x",))) is None
    probe = Select(
        Literal(("x",), ()),
        (DomainCondition("divides", (AttrRef("x"), AttrRef("x"))),),
        ("x",),
    )
    assert "divides" in vectorization_obstacle(probe)


# ---------------------------------------------------------------------------
# Codec choice: decided once per state, checked per request only outside it
# ---------------------------------------------------------------------------


def _coded_three_way(text, state):
    return _assert_three_way_equivalent(parse_formula(text), state, EQ)


@pytest.mark.parametrize(
    "constant,numeric",
    [(2 ** 62 - 1, True), (2 ** 62, False)],
    ids=["2^62-1", "2^62"],
)
def test_query_constant_at_the_int64_edge_picks_the_codec(constant, numeric):
    state = family_state(generations=3)
    coded = _coded_three_way(f"F(x, y) | (x = {constant} & y = 1)", state)
    assert coded.codec.numeric is numeric
    assert state.int64_safe()  # the state's own verdict is not the query's


def test_string_constant_over_an_int_state_is_dictionary_encoded():
    state = family_state(generations=3)
    assert _coded_three_way("exists y. F(x, y)", state).codec.numeric
    coded = _coded_three_way('F(x, y) | (x = "adam" & y = 1)', state)
    assert not coded.codec.numeric
    # the state keeps the dictionary codec in its own store
    assert _store_for(state, ("adam",))[0] is coded.codec
    # the next constant-free query is numeric again on the same state
    assert _coded_three_way("exists y. F(x, y)", state).codec.numeric


def test_an_applied_string_row_re_derives_the_state_verdict():
    state = family_state(generations=3)
    assert _coded_three_way("exists y. F(x, y)", state).codec.numeric
    assert state.int64_safe()
    # An insert-only delta inherits the parent's memoised element set; the
    # int64 verdict must still be derived for the new state.
    mutated = state.apply(Delta.insert("F", ("eve", 1)))
    assert "_elements" in mutated.__dict__
    assert not mutated.int64_safe()
    coded = _coded_three_way("exists y. F(x, y)", mutated)
    assert not coded.codec.numeric
    assert ("eve",) in coded.decode()
    ints_only = state.apply(Delta.insert("F", (1, 99)))
    assert ints_only.int64_safe()
    assert _coded_three_way("exists y. F(x, y)", ints_only).codec.numeric


def test_dictionary_carriers_keep_the_growing_codec():
    state = _family([("ann", "bob"), ("bob", "cal"), ("bob", "dee")])
    assert not state.int64_safe()
    before = encode_cache_info()
    first = _coded_three_way("exists y. F(x, y)", state)
    assert not first.codec.numeric
    assert encode_cache_info().grown == before.grown
    # A constant outside the carrier grows the state's table append-only and
    # the state's encoded columns are still served.
    wider = _coded_three_way('exists y. (F(x, y) | x = "zed")', state)
    assert wider.codec.encodable("zed")
    assert wider.codec.encode("bob") == first.codec.encode("bob")
    info = encode_cache_info()
    assert info.grown == before.grown + 1 and info.hits >= before.hits + 1
    assert (info.misses, set(state.__dict__["_encoded"])) == (
        before.misses + 1, {False}
    )


def test_repeat_vectorized_runs_make_no_per_element_codec_pass(monkeypatch):
    # On an unchanged numeric state the codec choice and the decoding cost
    # no Python call per stored element or per answer cell.
    session = connect("equality", family_schema())
    state = family_state(generations=6)
    queries = ("exists y. (F(x, y) & F(y, z))", "~F(x, y)")  # finite, infinite
    first = [session.run(text, state).answer for text in queries]
    calls = {"for_universe": 0, "decode": 0}
    for_universe = ElementCodec.for_universe.__func__
    decode = ElementCodec.decode

    def counted_for_universe(cls, elements):
        calls["for_universe"] += 1
        return for_universe(cls, elements)

    def counted_decode(self, code):
        calls["decode"] += 1
        return decode(self, code)

    monkeypatch.setattr(ElementCodec, "for_universe", classmethod(counted_for_universe))
    monkeypatch.setattr(ElementCodec, "decode", counted_decode)
    again = [session.run(text, state).answer for text in queries]
    assert [answer.method for answer in again] == [
        "vectorized", "equality-fresh-element"
    ]
    assert again[0].rows() == first[0].rows() and again[0].rows()
    assert again[1].witnesses == first[1].witnesses and again[1].witnesses
    assert calls == {"for_universe": 0, "decode": 0}


def test_repeat_guarded_vectorized_runs_decode_once_in_order(monkeypatch):
    # A repeat guarded request on an unchanged numeric state derives no fresh
    # elements, dedupes no stored relation and makes no per-row decode: the
    # answer is the kernels' table, decoded once, already in order.
    from repro.relational.columnar import CodedRows, _ColumnarExecutor

    session = connect("equality", family_schema())
    state = family_state(generations=6)
    queries = (
        "F(x, y)", "exists z. (F(x, z) & F(z, y))",
        "exists y. exists z. (F(x, y) & F(x, z) & ~(y = z))",
        "~(exists y. F(x, y))", "x = x",
    )
    first = [session.run(text, state).answer for text in queries]
    calls = {"fresh_elements": 0, "scan_unique_rows": 0, "decode": 0}
    in_scan = []
    fresh_elements = EqualityDomain.fresh_elements
    unique_rows = kernels.unique_rows
    scan = _ColumnarExecutor._scan
    decode = CodedRows.decode

    def counted_fresh_elements(self, count, avoid=()):
        calls["fresh_elements"] += 1
        return fresh_elements(self, count, avoid)

    def counted_unique_rows(table):
        if in_scan:
            calls["scan_unique_rows"] += 1
        return unique_rows(table)

    def counted_scan(self, node):
        in_scan.append(node)
        try:
            return scan(self, node)
        finally:
            in_scan.pop()

    def counted_decode(self, codes=None):
        calls["decode"] += 1
        return decode(self, codes)

    monkeypatch.setattr(EqualityDomain, "fresh_elements", counted_fresh_elements)
    monkeypatch.setattr(kernels, "unique_rows", counted_unique_rows)
    monkeypatch.setattr(_ColumnarExecutor, "_scan", counted_scan)
    monkeypatch.setattr(CodedRows, "decode", counted_decode)
    again = [session.run(text, state).answer for text in queries]
    assert [answer.method for answer in again] == [
        "vectorized", "vectorized", "vectorized",
        "equality-fresh-element", "equality-fresh-element",
    ]
    for before, after in zip(first[:3], again[:3]):
        assert after.rows() is after.rows()
        assert after.rows() == before.rows() == tuple(sorted(after.relation.rows))
        assert after.rows()
    for before, after in zip(first[3:], again[3:]):
        assert after.witnesses == before.witnesses and after.witnesses
    assert calls == {"fresh_elements": 0, "scan_unique_rows": 0, "decode": 0}



# ---------------------------------------------------------------------------
# The universe: stored elements encoded once per state, the rest per request
# ---------------------------------------------------------------------------

#: finite, and true only because someone outside the family exists: its
#: plan pads with the universe, so the adom column is read
OUTSIDER_QUERY = "F(x, y) & exists z. ~(exists w. (F(z, w) | F(w, z)))"


def test_repeat_guarded_run_encodes_only_the_elements_outside_the_state(
    monkeypatch,
):
    from repro.relational.compile import CompiledQuery

    session = connect("equality", family_schema())
    state = family_state(generations=4)
    first = session.run(OUTSIDER_QUERY, state)
    assert first.answer.method == "vectorized"

    universes, encoded = [], []
    universe = CompiledQuery.universe
    encode_column = ElementCodec.encode_column

    def counting_universe(self, *args, **kwargs):
        universes.append(self)
        return universe(self, *args, **kwargs)

    def recording_encode_column(self, elements):
        encoded.append(frozenset(elements))
        return encode_column(self, elements)

    monkeypatch.setattr(CompiledQuery, "universe", counting_universe)
    monkeypatch.setattr(ElementCodec, "encode_column", recording_encode_column)
    again = session.run(OUTSIDER_QUERY, state)

    assert again.answer.method == "vectorized"
    assert again.answer.rows() == first.answer.rows()
    assert universes == []
    probe = session.safety.probe(parse_formula(OUTSIDER_QUERY), state)
    assert encoded == [frozenset(probe.fresh)]
    assert frozenset(probe.fresh).isdisjoint(state.elements())


def test_stored_adom_column_is_not_carried_across_a_delta():
    # The insert brings new elements; a grown state must encode its own
    # stored adom column, never the parent's.
    state = family_state(generations=2)
    compiled = compile_query(parse_formula("~F(x, y)"), state.schema, EQ)
    execute_vectorized(compiled.plan, state)
    before = encode_cache_info()
    grown = apply_delta(state, Delta.insert("F", (100, 101)))
    assert ("adom",) in _store_for(state, ())[1]
    assert ("adom",) not in _store_for(grown, ())[1]
    coded = execute_vectorized(compiled.plan, grown)
    assert coded.decode() == compiled.execute(grown, EQ).rows
    assert (101, 100) in coded.decode()
    assert encode_cache_info().grown_columns == before.grown_columns + 1


def test_vectorized_universe_is_the_stored_elements_plus_the_outside_ones():
    state = family_state(generations=2)
    compiled = compile_query(parse_formula("~F(x, y)"), state.schema, EQ)
    # Passing a whole universe (stored elements included) or only the
    # elements outside the state gives the same answer.
    whole = execute_vectorized(compiled.plan, state, compiled.universe(state, (50,)))
    outside = execute_vectorized(compiled.plan, state, (50,))
    assert whole.decode() == outside.decode() == compiled.execute(
        state, EQ, (50,)
    ).rows

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
def test_property_family_queries_three_way(seed, name, query):
    rng = random.Random(4000 + seed)
    rows = {(rng.randrange(7), rng.randrange(7)) for _ in range(rng.randrange(0, 10))}
    _assert_three_way_equivalent(query, _family(rows), EQ)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name,query", _FAMILY_QUERIES, ids=lambda v: str(v))
def test_property_family_queries_on_string_carriers(seed, name, query):
    # Person identifiers as strings: the codec must dictionary-encode and the
    # answers must still match both scalar substrates exactly.
    names = ["adam", "bala", "cain", "dana", "enos", "eve"]
    rng = random.Random(5000 + seed)
    rows = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randrange(0, 10))}
    _assert_three_way_equivalent(query, _family(rows), EQ)


@pytest.mark.parametrize("rows", [[], [(7, 7)]], ids=["empty", "one-element"])
@pytest.mark.parametrize("name,query", _FAMILY_QUERIES, ids=lambda v: str(v))
def test_property_family_queries_on_empty_relations(name, query, rows):
    # The empty and the one-element active domain are the smallest tables
    # every kernel (join, antijoin, pad, dedupe) must handle.
    _assert_three_way_equivalent(query, _family(rows), EQ)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("pack_name", available_domains())
def test_property_pack_corpora_three_way(pack_name, seed):
    """Every pack corpus agrees across the whole substrate ladder.

    The plans fall back transparently (vectorized → set executor → tree
    walker), so every query is comparable even when a particular plan or
    carrier resists compilation or vectorization.
    """
    pack = get_pack(pack_name)
    domain = pack.factory()
    extras = tuple(domain.carrier_elements()) if domain.finite_carrier else ()
    checked = 0
    for corpus in pack.corpora():
        states = [corpus.canonical_state]
        if corpus.state_factory is not None:
            rng = random.Random(f"columnar/{pack_name}/{corpus.name}/{seed}")
            states.append(corpus.state_factory(rng, rng.randrange(0, 8)))
        for state in states:
            for pq in corpus.queries:
                expected = evaluate_query_active_domain(
                    pq.query, state, interpretation=domain, extra_elements=extras
                )
                for plan in (
                    CompiledAlgebraPlan(domain=domain, extra_elements=extras),
                    VectorizedAlgebraPlan(domain=domain, extra_elements=extras),
                ):
                    answer = plan.execute(pq.query, state)
                    assert set(answer.rows()) == expected.rows, (
                        f"{plan.strategy} disagrees with the tree walker on "
                        f"{pack_name}/{corpus.name}/{pq.name}"
                    )
                    if plan.fallback_reason is not None:
                        assert "fell back" in plan.explain()
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "name,sentence",
    [(name, sentence) for name, sentence, _truth in presburger_sentences()],
    ids=lambda v: str(v),
)
def test_property_presburger_sentences_three_way(name, sentence):
    # Sentences with ``+`` bail out of compilation before vectorization is
    # even attempted; the rest must agree with both scalar substrates under
    # active-domain semantics.
    state = numeric_state([1, 4, 9])
    try:
        compile_query(sentence, state.schema, PRESBURGER)
    except CompilationError:
        return
    _assert_three_way_equivalent(sentence, state, PRESBURGER)


def test_succ_terms_fall_back_to_the_tree_walker():
    # Successor queries lean on ``succ`` terms, which never compile; the
    # vectorized plan must fall all the way back to the tree walker and
    # return the identical row set, with the reason recorded.  (The full
    # successor corpus runs through test_property_pack_corpora_three_way.)
    query = parse_formula("exists y. (S(y) & x = succ(y))")
    state = numeric_state([2, 3])  # succ(2) = 3 is in the active domain
    expected = evaluate_query_active_domain(query, state, interpretation=SUCCESSOR)
    plan = VectorizedAlgebraPlan(domain=SUCCESSOR)
    answer = plan.execute(query, state)
    assert set(answer.rows()) == expected.rows == {(3,)}
    assert answer.method == "active-domain"
    assert "tree-walking" in plan.fallback_reason
    assert "fell back" in plan.explain()


# ---------------------------------------------------------------------------
# Planner and session integration
# ---------------------------------------------------------------------------


def test_vectorized_strategy_is_registered():
    assert "vectorized" in STRATEGIES
    plan = Planner(EqualityDomain()).plan("vectorized")
    assert isinstance(plan, VectorizedAlgebraPlan)
    assert plan.strategy == "vectorized"


def test_auto_prefers_vectorized_over_compiled_for_equality():
    session = connect("eq", family_schema())
    plan = session.plan()
    assert isinstance(plan, GuardedPlan)
    assert isinstance(plan.inner, VectorizedAlgebraPlan)
    state = family_state(generations=3)
    result = session.run("exists y. (F(x, y) & F(y, z))", state)
    assert result.answer.method == "vectorized"
    assert "vectorized" in result.plan.inner.explain()


def test_explicit_vectorized_strategy_reports_and_answers():
    session = connect("eq", family_schema())
    plan = session.plan("vectorized")
    assert isinstance(plan, VectorizedAlgebraPlan)
    state = family_state(generations=2)
    answer = session.execute(plan, "F(x, y)", state)
    assert answer.method == "vectorized"
    assert plan.fallback_reason is None
    assert "strategy 'vectorized'" in plan.explain()


def test_algebra_plans_share_one_plan_cache_entry():
    session = connect("eq", family_schema())
    state = family_state(generations=1)
    for strategy in ("vectorized", "compiled", "vectorized"):
        session.query("F(x, y)", state, strategy=strategy)
    info = session.plan_cache_info()
    assert (info.size, info.misses, info.hits) == (1, 1, 2)


def test_traces_fallback_is_recorded_in_explain():
    schema = DatabaseSchema((RelationSchema("W", 1, ("word",)),))
    session = connect("traces", schema)
    plan = session.plan("vectorized")
    state = session.state(W=[("1",), ("11",)])
    answer = session.execute(plan, "W(x) & P(x, x, x)", state)
    # The trace-domain predicate P has no vectorized kernel: execution falls
    # back to the set-at-a-time executor and explains itself.
    assert answer.method == "compiled-algebra"
    assert "P" in plan.fallback_reason
    assert "fell back" in plan.explain()
    # The answer still matches the tree walker.
    expected = evaluate_query_active_domain(
        session.compile("W(x) & P(x, x, x)"), state, interpretation=session.domain
    )
    assert set(answer.rows()) == expected.rows


def test_missing_numpy_falls_back_to_set_executor(monkeypatch):
    # Simulate a numpy-less install: the static obstacle fires before any
    # array code runs, and the plan answers via the set executor.
    import repro.relational.columnar as columnar

    monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
    assert vectorization_obstacle(AdomScan(("x",))) == "numpy is not installed"
    plan = VectorizedAlgebraPlan(domain=EQ)
    state = family_state(generations=2)
    answer = plan.execute(parse_formula("F(x, y)"), state)
    assert answer.method == "compiled-algebra"
    assert "numpy is not installed" in plan.fallback_reason
    assert set(answer.rows()) == state["F"].rows


def test_vectorized_plan_respects_extra_elements():
    state = family_state(generations=2)
    query = parse_formula("~F(x, y)")
    walker_rows = CompiledAlgebraPlan(
        domain=EQ, extra_elements=(99,)
    ).execute(query, state).rows()
    vectorized_rows = VectorizedAlgebraPlan(
        domain=EQ, extra_elements=(99,)
    ).execute(query, state).rows()
    assert vectorized_rows == walker_rows


# ---------------------------------------------------------------------------
# The one fallback ladder, run by every algebra plan
# ---------------------------------------------------------------------------

#: strategy → (plan class, the method of an answer from its top rung)
_ALGEBRA_PLANS = {
    "compiled": (CompiledAlgebraPlan, "compiled-algebra"),
    "vectorized": (VectorizedAlgebraPlan, "vectorized"),
}

_LADDER_STATES = {
    "empty": [],
    "one-element": [(7, 7)],
    "dictionary": [("ann", "bob"), ("bob", "cal"), ("bob", "dee")],
    "three-generations": sorted(family_state(generations=3).relations["F"].rows),
}


def _algebra_plan(strategy, domain, **options):
    """A plan of ``strategy`` over ``domain``."""
    cls = _ALGEBRA_PLANS[strategy][0]
    return cls(domain=domain, **options)


@pytest.mark.parametrize("strategy", sorted(_ALGEBRA_PLANS))
def test_ladder_tree_walks_on_a_compile_error(strategy):
    query = parse_formula("exists y. (S(y) & x = succ(y))")
    state = numeric_state([2, 3])
    plan = _algebra_plan(strategy, SUCCESSOR)
    answer = plan.execute(query, state)
    assert answer.method == "active-domain"
    assert set(answer.rows()) == {(3,)}
    assert plan.fallback_reason.endswith(
        "answered by the tree-walking active-domain evaluator instead"
    )
    assert plan.last_summary is None
    assert "fell back" in plan.explain()


@pytest.mark.parametrize("rows", sorted(_LADDER_STATES))
@pytest.mark.parametrize("strategy", sorted(_ALGEBRA_PLANS))
def test_ladder_answers_on_its_top_rung(strategy, rows):
    # Empty and one-element adoms, dictionary-encoded string carriers and a
    # full tree: every family query is answered by the plan's own top rung,
    # with the tree walker's rows.
    state = _family(_LADDER_STATES[rows])
    plan = _algebra_plan(strategy, EQ)
    for name, query in _FAMILY_QUERIES:
        expected = evaluate_query_active_domain(query, state, interpretation=EQ)
        answer = plan.execute(query, state)
        assert answer.method == _ALGEBRA_PLANS[strategy][1], name
        assert plan.fallback_reason is None, name
        assert set(answer.rows()) == expected.rows, name


@pytest.mark.parametrize("strategy", sorted(_ALGEBRA_PLANS))
def test_algebra_plans_repeat_identical_answers(strategy):
    state = numeric_state([3 * i + 1 for i in range(40)])
    query = parse_formula("exists y. (S(y) & x < y)")
    expected = evaluate_query_active_domain(query, state, interpretation=PRESBURGER)
    plan = _algebra_plan(strategy, PRESBURGER)
    runs = [set(plan.execute(query, state).rows()) for _ in range(5)]
    assert all(rows == expected.rows for rows in runs)


def test_algebra_plans_share_one_cached_compile_failure():
    cache = PlanCache()
    query = parse_formula("exists y. (S(y) & x = succ(y))")
    state = numeric_state([2, 3])
    for strategy in ("compiled", "vectorized"):
        plan = _algebra_plan(strategy, SUCCESSOR, cache=cache)
        assert plan.execute(query, state).method == "active-domain"
        assert "tree-walking" in plan.fallback_reason
    info = cache.info()
    assert (info.size, info.misses, info.hits) == (1, 1, 1)


# ---------------------------------------------------------------------------
# the per-state encode stores
# ---------------------------------------------------------------------------


def test_encode_cache_hits_on_unchanged_state():
    state = numeric_state([1, 5, 9])
    compiled = compile_query(
        parse_formula("S(x)"), state.schema, NAT
    )
    adom = compiled.universe(state)
    before = encode_cache_info()
    first = run_plan_vectorized(compiled.plan, state, adom, NAT)
    info = encode_cache_info()
    assert (info.hits - before.hits, info.misses - before.misses) == (0, 1)
    second = run_plan_vectorized(compiled.plan, state, adom, NAT)
    assert first == second == {(1,), (5,), (9,)}
    info = encode_cache_info()
    assert (info.hits - before.hits, info.misses - before.misses) == (1, 1)
    assert str(info).startswith(f"hits={info.hits} misses={info.misses} ")


def test_encode_cache_misses_on_changed_state():
    compiled = compile_query(
        parse_formula("S(x)"), numeric_state([]).schema, NAT
    )
    before = encode_cache_info()
    for values in ([1, 2], [1, 2, 3], [1, 2]):
        state = numeric_state(values)
        run_plan_vectorized(compiled.plan, state, compiled.universe(state), NAT)
    info = encode_cache_info()
    # the third state equals the first by value, but it is another object:
    # its columns live on it, so it encodes its own
    assert info.misses - before.misses == 3 and info.hits == before.hits
    run_plan_vectorized(compiled.plan, state, compiled.universe(state), NAT)
    assert encode_cache_info().hits == before.hits + 1


def test_encode_cache_separates_codecs_by_key():
    # One store per codec kind: the passthrough one for machine-int
    # universes, the dictionary one for every other universe.
    state = numeric_state([1, 2])
    numeric, columns = _store_for(state, ())
    assert numeric.numeric and _store_for(state, (7,)) == (numeric, columns)
    named, named_columns = _store_for(state, ("a",))
    assert not named.numeric and named_columns is not columns
    assert _store_for(state, ("b",))[1] is named_columns


def test_encode_cache_reuses_relation_arrays():
    state = numeric_state([4, 8])
    compiled = compile_query(
        parse_formula("S(x)"), state.schema, NAT
    )
    adom = compiled.universe(state)
    run_plan_vectorized(compiled.plan, state, adom, NAT)
    _, store = _store_for(state, ())
    assert "S" in store  # filled lazily by the first execution
    array = store["S"]
    run_plan_vectorized(compiled.plan, state, adom, NAT)
    assert _store_for(state, ())[1]["S"] is array


def test_repeat_run_on_an_equal_state_compares_no_states(monkeypatch):
    # Columns are found on the state object itself: a request on a state
    # that equals an already-encoded one (a rebuild from the same rows)
    # makes no row-by-row state comparison.
    session = connect("equality", family_schema())
    encoded, rebuilt = family_state(generations=6), family_state(generations=6)
    assert encoded == rebuilt and encoded is not rebuilt
    query = "exists y. (F(x, y) & F(y, z))"
    first = session.run(query, encoded).answer
    session.run(query, rebuilt)
    calls = []
    eq = DatabaseState.__eq__

    def counted_eq(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(DatabaseState, "__eq__", counted_eq)
    for _ in range(3):
        again = session.run(query, rebuilt).answer
        assert again.method == "vectorized" and again.rows() == first.rows()
    assert calls == []


def test_a_queried_state_is_freed_with_its_columns():
    # Rows no other test stores, so no equal state was encoded before.
    session = connect("equality", family_schema())
    state = _family([(n, n + 1) for n in range(7000, 7100)])
    assert session.run("F(x, y)", state).answer.method == "vectorized"
    assert "F" in _store_for(state, ())[1]
    freed = weakref.ref(state)
    del state
    gc.collect()
    assert freed() is None


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
    before = encode_cache_info()
    first = run_plan_vectorized(plan, state, ["eve", "adam"], EQ)
    assert first == {("eve",), ("adam",)}
    # A wider universe (a new constant outside the carrier) changes the
    # codec — the dictionary table must grow, not rebuild, so the stored
    # relation columns keep serving.
    second = run_plan_vectorized(plan, state, ["eve", "adam", "cain"], EQ)
    assert second == first
    info = encode_cache_info()
    assert info.misses == before.misses + 1 and info.hits == before.hits + 1
    assert info.grown == before.grown + 1
    assert f"grown={info.grown}" in str(info)


def test_encode_cache_grown_columns_stay_valid():
    from repro.relational.schema import DatabaseSchema, RelationSchema

    schema = DatabaseSchema((RelationSchema("N", 1, ("name",)),))
    state = DatabaseState(schema, {"N": [("b",), ("d",)]})
    plan = Scan("N", ("x",), (), ("x",))
    run_plan_vectorized(plan, state, ["b", "d"], EQ)
    codec, columns = _store_for(state, ())
    array = columns["N"]
    # growing by an element that would sort *before* the existing table must
    # leave the stored encoding valid (append-only, not re-sorted)
    wider = run_plan_vectorized(plan, state, ["a", "b", "d"], EQ)
    assert wider == {("b",), ("d",)}
    grown, columns = _store_for(state, ())
    assert columns["N"] is array and grown.encodable("a")
    assert grown.encode("b") == codec.encode("b")


@pytest.mark.parametrize("rows, inserts", [
    ([(9, 1), (1, 5), (5, 0), (0, 8), (8, 2)], [(3, 4), (-2, 7), (0, 8)]),
    ([("k", "b"), ("b", "z"), ("z", "a")], [("a", "m"), ("b", "z")]),
])
def test_stored_code_tables_stay_lexsorted_and_distinct(rows, inserts):
    # Scans read the stored code tables as they are, so the tables must be
    # sorted and distinct after the first encode, after an insert-only delta
    # grows them (re-inserting a stored row among the new ones), and
    # after a delete forces a re-encode.
    def assert_sorted_and_distinct(state):
        table = _rows(_store_for(state, ())[1]["F"])
        assert table == sorted(set(table)) and len(table) == len(state["F"])

    session = connect("equality", family_schema(), guard=False)
    state = _family(rows)
    session.run("F(x, y)", state, strategy="vectorized")
    assert_sorted_and_distinct(state)
    before = encode_cache_info().grown_columns
    grown = session.apply_delta(state, Delta(inserts={"F": inserts}))
    assert encode_cache_info().grown_columns == before + 1
    assert_sorted_and_distinct(grown)
    shrunk = session.apply_delta(grown, Delta.delete("F", rows[0]))
    answer = session.run("F(x, y)", shrunk, strategy="vectorized").answer
    assert answer.method == "vectorized"
    assert set(answer.rows()) == set(shrunk["F"].rows)
    assert_sorted_and_distinct(shrunk)
