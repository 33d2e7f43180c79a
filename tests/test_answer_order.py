"""Answers come back sorted, once, and equal to the tree walker's.

* every rung — compiled and vectorized — and ``Session`` auto,
  plain and guarded, over every pack corpus: ``answer.rows()`` is
  ``tuple(sorted(answer.relation.rows))``, the same object on every call,
  and its rows are the tree walker's;
* the in-order decode of numeric code tables on its edges: zero-column and
  empty answers, negative integers, elements at ±(2**62 − 1), dictionary
  carriers, join outputs the kernels leave out of order, and the witnesses
  of infinite answers;
* ``row_count`` counts without sorting;
* the per-state memo of the first carrier elements outside the stored ones
  (:meth:`~repro.relational.state.DatabaseState.first_outside`) that the
  fresh-element probe reads;
* stored relations scan without a dedupe, also after an insert-only delta
  grows their encoded columns.
"""

import itertools

import pytest

np = pytest.importorskip("numpy")

from repro import connect
from repro.domains import available_domains, get_pack
from repro.domains.equality import EqualityDomain
from repro.engine.answers import FiniteAnswer, InfiniteAnswer, UnknownAnswer
from repro.engine.budget import Budget
from repro.engine.plans import ActiveDomainPlan, GuardedPlan
from repro.experiments.corpora import family_schema, family_state
from repro.logic.parser import parse_formula
from repro.relational.active_domain import active_domain
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.columnar import _store_for, encode_cache_info, execute_vectorized
from repro.relational.compile import compile_query
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState, Delta, Relation
from repro.safety.relative_safety import EqualityRelativeSafety

EQ = EqualityDomain()


def _assert_sorted_once(answer):
    rows = answer.rows()
    assert rows is answer.rows()
    relation = {
        FiniteAnswer: "relation", InfiniteAnswer: "sample", UnknownAnswer: "partial",
    }[type(answer)]
    assert rows == tuple(sorted(getattr(answer, relation).rows))
    assert answer.row_count == len(rows)
    return rows


def _carrier_extras(domain):
    return tuple(domain.carrier_elements()) if domain.finite_carrier else ()


def _walker_rows(query, state, domain, extras=()):
    relation = evaluate_query_active_domain(
        query, state, interpretation=domain, extra_elements=extras
    )
    return set(relation.rows)


def _spanning_prefix(domain, state, query, cap=64, margin=8):
    """The carrier's enumeration up to the last stored or constant element it
    meets (at most ``cap`` elements), plus ``margin`` more: a universe over
    which the tree walker finds every row of a finite answer."""
    needed = set(active_domain(state, query))
    elements = domain.enumerate_elements()
    prefix = []
    for element in elements:
        prefix.append(element)
        needed.discard(element)
        if not needed or len(prefix) >= cap:
            break
    return tuple(prefix) + tuple(itertools.islice(elements, margin))


# ---------------------------------------------------------------------------
# Every rung, every pack corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pack_name", available_domains())
def test_algebra_rungs_answer_sorted_tree_walker_rows(pack_name):
    pack = get_pack(pack_name)
    for corpus in pack.corpora():
        session = connect(pack_name, corpus.schema, guard=False)
        extras = _carrier_extras(session.domain)
        state = corpus.canonical_state
        for query in corpus.queries:
            expected = _walker_rows(query.query, state, session.domain, extras)
            for strategy in ("compiled", "vectorized"):
                answer = session.run(
                    query.query, state, strategy=strategy, extra_elements=extras
                ).answer
                rows = _assert_sorted_once(answer)
                assert set(rows) == expected, (pack_name, query.name, strategy)


@pytest.mark.parametrize("pack_name", available_domains())
def test_session_auto_answers_sorted_tree_walker_rows(pack_name):
    # Plain auto on a pack without a guard enumerates until its budget runs
    # out on an infinite query, so only the declared-finite queries run
    # plain; guarded auto runs every query of a guarded pack.
    pack = get_pack(pack_name)
    budget = Budget(max_rows=200, max_candidates=5000, time_limit=5.0)
    for corpus in pack.corpora():
        state = corpus.canonical_state
        for guard in (False, True):
            session = connect(pack_name, corpus.schema, guard=guard)
            guarded = getattr(session.plan(), "safety", None) is not None
            for query in corpus.queries:
                if query.finite is not True and not guarded:
                    continue
                answer = session.run(query.query, state, budget=budget).answer
                rows = _assert_sorted_once(answer)
                if query.finite and answer.is_finite:
                    universe = _spanning_prefix(session.domain, state, query.query)
                    expected = _walker_rows(
                        query.query, state, session.domain,
                        universe + _carrier_extras(session.domain),
                    )
                    assert set(rows) == expected, (pack_name, query.name, guard)
                if isinstance(answer, InfiniteAnswer):
                    assert answer.witnesses == tuple(sorted(answer.witnesses))


# ---------------------------------------------------------------------------
# The in-order decode on its edges
# ---------------------------------------------------------------------------


def _unary(*values):
    schema = DatabaseSchema([RelationSchema("S", 1), RelationSchema("T", 2)])
    return schema, DatabaseState(schema, {"S": [(v,) for v in values]})


def _all_strategies_agree(session, text, state, domain):
    query = parse_formula(text)
    expected = _walker_rows(query, state, domain)
    results = []
    for strategy in ("compiled", "vectorized"):
        answer = session.run(text, state, strategy=strategy).answer
        assert answer.method == {"compiled": "compiled-algebra"}.get(strategy, strategy)
        assert set(_assert_sorted_once(answer)) == expected
        results.append(answer.rows())
    assert results[0] == results[1]
    return results[1]


@pytest.mark.parametrize(
    "text,rows",
    [("exists x. S(x)", ((),)), ("exists x. (S(x) & ~S(x))", ())],
    ids=["true-sentence", "false-sentence"],
)
def test_zero_column_and_empty_answers(text, rows):
    schema, state = _unary(3, 1)
    session = connect("equality", schema, guard=False)
    assert _all_strategies_agree(session, text, state, EQ) == rows
    guarded = connect("equality", schema).run(text, state).answer
    assert _assert_sorted_once(guarded) == rows


@pytest.mark.parametrize(
    "values",
    [(-7, 3, -2, 0, 11, -30), (2 ** 62 - 1, -(2 ** 62 - 1), 0, -1, 5)],
    ids=["negative", "int64-edge"],
)
def test_numeric_decode_orders_negative_and_edge_integers(values):
    schema, state = _unary(*values)
    session = connect("integers", schema, guard=False)
    domain = session.domain
    assert _all_strategies_agree(session, "S(x)", state, domain) == tuple(
        (v,) for v in sorted(values)
    )
    pairs = _all_strategies_agree(session, "S(x) & S(y) & x < y", state, domain)
    assert pairs == tuple(sorted((a, b) for a in values for b in values if a < b))


@pytest.mark.parametrize(
    "values",
    [("eve", "adam", "cain", "abel"), (2 ** 62, -(2 ** 63), 4, -9)],
    ids=["strings", "bignums"],
)
def test_dictionary_carriers_sort_their_decoded_rows(values):
    schema, state = _unary(*values)
    state = state.with_relation("T", list(zip(values, reversed(values))))
    session = connect("equality", schema, guard=False)
    for text in ("S(x)", "exists y. (T(x, y) & S(y))", "T(x, y) & T(y, z)"):
        _all_strategies_agree(session, text, state, EQ)
    guarded = connect("equality", schema).run("T(x, y)", state).answer
    assert _assert_sorted_once(guarded) == tuple(sorted(state["T"].rows))


def test_join_outputs_out_of_order_are_sorted_once():
    # The natural join keeps the left table's row order.  Stored code tables
    # are encoded lexsorted, so a join of scans comes out in order; over a
    # code table held in the rows' given order instead, the rows pairing a
    # large x with a small z come out first, and the decode sorts them.
    rows = [(9, 1), (1, 5), (5, 0), (0, 8), (8, 2)]
    state = DatabaseState(family_schema(), {"F": rows})
    text = "F(x, y) & F(y, z)"
    compiled = compile_query(parse_formula(text), state.schema, EQ)
    codec, columns = _store_for(state, ())
    columns["F"] = codec.encode_rows(rows, 2)
    coded = execute_vectorized(compiled.plan, state, compiled.universe(state))
    raw = list(zip(*(column.tolist() for column in coded.codes.columns)))
    assert raw != sorted(raw)
    session = connect("equality", family_schema(), guard=False)
    joined = _all_strategies_agree(session, text, state, EQ)
    assert joined == tuple(sorted(joined)) and len(joined) == 4
    guarded = connect("equality", family_schema()).run(text, state).answer
    assert _assert_sorted_once(guarded) == joined


@pytest.mark.parametrize("text", ["~F(x, y)", "exists y. F(x, y) | x = x"])
def test_infinite_answer_witnesses_match_the_tree_walker(text):
    state = family_state(generations=3)
    query = parse_formula(text)
    safety = EqualityRelativeSafety(EQ)
    walker = GuardedPlan(inner=ActiveDomainPlan(domain=EQ), safety=safety)
    expected = walker.execute(query, state)
    answer = connect("equality", family_schema()).run(text, state).answer
    assert isinstance(answer, InfiniteAnswer) and answer.method == expected.method
    assert answer.witnesses == expected.witnesses == tuple(sorted(answer.witnesses))
    assert _assert_sorted_once(answer) == ()


# ---------------------------------------------------------------------------
# row_count
# ---------------------------------------------------------------------------


def test_row_count_counts_without_sorting():
    # Rows mixing ints and strings cannot be sorted, yet they can be counted.
    mixed = Relation(1, [(1,), ("a",), (2,)])
    answers = [
        FiniteAnswer(mixed),
        InfiniteAnswer(mixed),
        UnknownAnswer(mixed),
    ]
    for answer in answers:
        assert answer.row_count == 3
        with pytest.raises(TypeError):
            answer.rows()
    assert FiniteAnswer(Relation(2, [])).row_count == 0


# ---------------------------------------------------------------------------
# The per-state memo of the first elements outside the stored ones
# ---------------------------------------------------------------------------


def _probe(state, text="exists y. F(x, y) | x = x", extras=(), domain=EQ):
    # The default query has quantifier rank 1: its probe takes 2 elements.
    return EqualityRelativeSafety(domain).probe(parse_formula(text), state, extras)


def test_a_state_from_apply_derives_its_own_fresh_elements():
    state = DatabaseState(family_schema(), {"F": [(0, 1), (1, 2)]})
    assert _probe(state).fresh == (3, 4)
    grown = state.apply(Delta.insert("F", (2, 5)))
    assert "_outside" not in grown.__dict__
    assert _probe(grown).fresh == (3, 4)
    assert "_outside" in grown.__dict__
    assert grown.__dict__["_outside"] is not state.__dict__["_outside"]
    shrunk = state.apply(Delta.delete("F", (1, 2)))
    assert _probe(shrunk).fresh == (2, 3)


def test_storing_the_probe_element_moves_the_next_probe_on():
    state = DatabaseState(family_schema(), {"F": [(0, 1), (1, 2)]})
    probe = _probe(state)
    stored = state.apply(Delta.insert("F", (2, probe.fresh[0])))
    moved = _probe(stored)
    assert moved.fresh == (4, 5)
    rebuilt = DatabaseState(family_schema(), {"F": stored["F"].rows})
    assert _probe(rebuilt).fresh == moved.fresh


def test_constants_and_extras_skip_memoised_fresh_elements():
    state = DatabaseState(family_schema(), {"F": [(0, 1), (1, 2)]})
    assert _probe(state).fresh == (3, 4)
    assert _probe(state, "exists y. F(x, y) | x = 3").fresh == (4, 5)
    assert _probe(state, extras=(3, 4)).fresh == (5, 6)
    assert _probe(state, "exists y. F(x, y) | x = 5 | x = 3", extras=(4,)).fresh == (6, 7)
    # Wider requests grow the memo; narrower ones read a prefix of it.
    assert _probe(state, "exists y. exists z. (F(x, y) & F(y, z))").fresh == (3, 4, 5)
    assert _probe(state).fresh == (3, 4)


def test_the_strings_carrier_memoises_like_the_naturals_carrier():
    strings = EqualityDomain("strings")
    state = DatabaseState(family_schema(), {"F": [("", "a"), ("a", "ab")]})
    assert _probe(state, domain=strings).fresh == ("b", "aa")
    assert _probe(state, "exists y. F(x, y) | x = 'b'", domain=strings).fresh == (
        "aa", "ba"
    )
    assert _probe(state, extras=("aa",), domain=strings).fresh == ("b", "ba")
    stored = state.apply(Delta.insert("F", ("ab", "b")))
    assert _probe(stored, domain=strings).fresh == ("aa", "ba")
    # One state keeps one memo per carrier.
    mixed = DatabaseState(family_schema(), {"F": [(0, "a")]})
    assert _probe(mixed, domain=strings).fresh == ("", "b")
    assert _probe(mixed).fresh == (1, 2)
    assert _probe(mixed, domain=strings).fresh == ("", "b")


# ---------------------------------------------------------------------------
# Stored relations scan without a dedupe
# ---------------------------------------------------------------------------


def test_scans_stay_duplicate_free_after_insert_only_deltas():
    session = connect("equality", family_schema(), guard=False)
    state = family_state(generations=3)
    texts = ("F(x, y)", "exists y. F(x, y)", "F(x, x)", "F(x, y) & F(y, z)")
    for text in texts:
        session.run(text, state, strategy="vectorized")
    grown = session.apply_delta(state, Delta(inserts={"F": [(3, 99), (0, 1)]}))
    assert len(grown["F"]) == len(state["F"]) + 1
    for text in texts:
        answer = session.run(text, grown, strategy="vectorized").answer
        assert answer.method == "vectorized"
        assert _assert_sorted_once(answer) == tuple(
            sorted(_walker_rows(parse_formula(text), grown, EQ))
        )


def test_carrying_a_delta_of_stored_rows_appends_no_duplicates():
    session = connect("equality", family_schema(), guard=False)
    state = DatabaseState(family_schema(), {"F": [(0, 1), (1, 2)]})
    compiled = compile_query(parse_formula("F(x, y)"), state.schema, EQ)
    execute_vectorized(compiled.plan, state, compiled.universe(state))
    before = encode_cache_info()
    # The delta names a row the old state already stores, as a caller's
    # requested (not effective) delta may.
    grown = session.apply_delta(state, Delta.insert("F", (0, 1), (2, 3)))
    assert encode_cache_info().grown_columns == before.grown_columns + 1
    coded = execute_vectorized(compiled.plan, grown, compiled.universe(grown))
    assert encode_cache_info().hits == before.hits + 1
    assert coded.rows() == ((0, 1), (1, 2), (2, 3))
