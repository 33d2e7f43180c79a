"""Tests for state mutation: deltas, encoded-column growth, recomputed answers.

Every query is recomputed on the state it names; a mutation only changes the
state and hands its encoded columns on.  Five layers:

* :class:`repro.relational.state.Delta` value semantics (normalisation,
  hashing) and :meth:`DatabaseState.apply` (structural sharing, O(Δ)
  fingerprint patching, version and effective-delta bookkeeping);
* the columnar :func:`~repro.relational.columnar.apply_delta` — append-only
  column growth on insert-only deltas, nothing carried across deletes, and
  the counters;
* vectorized answers after a carried delta, per operator shape: joins,
  antijoins, pads and an active domain that grows or shrinks, each equal to
  the set executor on the mutated state;
* randomized property tests — interleaved insert/delete sequences applied
  through ``Session.apply_delta`` must leave both algebra substrates equal
  to the tree walker, on every pack whose domain compiles to algebra;
* the session and serving wiring: ``apply_delta``, the retired incremental
  options, and the ``/mutate`` endpoint.
"""

import json
import random
import urllib.request

import pytest

from repro import Delta, Session, connect
from repro.api import Planner, PlanError
from repro.domains import available_domains, get_domain, get_pack
from repro.domains.equality import EqualityDomain
from repro.engine.plans import (
    STRATEGIES,
    CompiledAlgebraPlan,
    VectorizedAlgebraPlan,
)
from repro.logic.parser import parse_formula
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.columnar import (
    HAVE_NUMPY,
    _store_for,
    apply_delta,
    encode_cache_info,
    execute_vectorized,
)
from repro.relational.compile import compile_query
from repro.relational.exec import run_plan
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState

EQ = EqualityDomain()

SCHEMA = DatabaseSchema((
    RelationSchema("F", 2, ("father", "son")),
    RelationSchema("P", 1, ("person",)),
))


def _state(f_rows, p_rows=()):
    return DatabaseState(SCHEMA, {"F": f_rows, "P": p_rows})


# ---------------------------------------------------------------------------
# Delta value semantics
# ---------------------------------------------------------------------------


def test_delta_normalisation_and_predicates():
    d = Delta(inserts={"F": [[1, 2], (1, 2)], "P": []}, deletes={"F": [(0, 1)]})
    assert d.inserts == {"F": frozenset({(1, 2)})}  # rows tupled, empties dropped
    assert d.deletes == {"F": frozenset({(0, 1)})}
    assert d.changed_relations() == ("F",)
    assert d.row_count() == 2
    assert not d.insert_only()
    assert not d.is_empty()
    assert Delta().is_empty()
    assert Delta.insert("P", (7,)).insert_only()


def test_delta_is_hashable_value():
    a = Delta(inserts={"F": [(1, 2)]})
    b = Delta(inserts={"F": [(1, 2)]})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# DatabaseState.apply
# ---------------------------------------------------------------------------


def test_apply_matches_rebuilt_state_and_patches_fingerprint():
    state = _state([(1, 2), (2, 3)], [(1,), (2,)])
    delta = Delta(inserts={"F": [(3, 4)]}, deletes={"P": [(2,)]})
    mutated = state.apply(delta)
    rebuilt = _state([(1, 2), (2, 3), (3, 4)], [(1,)])
    assert mutated.relations["F"].rows == rebuilt.relations["F"].rows
    assert mutated.relations["P"].rows == rebuilt.relations["P"].rows
    # the patched fingerprint equals a from-scratch computation
    assert mutated.fingerprint() == rebuilt.fingerprint()
    assert mutated.fingerprint() != state.fingerprint()


def test_apply_shares_untouched_relations_structurally():
    state = _state([(1, 2)], [(1,)])
    mutated = state.apply(Delta.insert("F", (2, 3)))
    assert mutated.relations["P"] is state.relations["P"]
    assert mutated.relations["F"] is not state.relations["F"]


def test_apply_tracks_version_and_effective_delta():
    state = _state([(1, 2)])
    assert state.version == 0 and state.effective_delta.is_empty()
    # (1, 2) is already present: the *effective* delta drops it
    mutated = state.apply(Delta.insert("F", (1, 2), (9, 9)))
    assert mutated.version == 1
    effective = mutated.effective_delta
    assert effective.inserts == {"F": frozenset({(9, 9)})}
    # one attribute, not a chain: the next apply records only its own delta
    again = mutated.apply(Delta.delete("F", (1, 2)))
    assert again.version == 2
    assert again.effective_delta == Delta.delete("F", (1, 2))


def test_apply_noop_returns_self():
    state = _state([(1, 2)])
    assert state.apply(Delta()) is state
    assert state.apply(Delta.insert("F", (1, 2))) is state  # already present
    assert state.apply(Delta.delete("F", (7, 7))) is state  # never present


def test_apply_inherits_the_int64_verdict_without_walking_the_state(monkeypatch):
    from repro.relational import state as state_module

    state = _state([(1, 2), (2, 3)], [(1,), (2,)])
    assert state.int64_safe()
    checked = []
    int64_safe = state_module.int64_safe

    def recording_int64_safe(elements):
        elements = list(elements)
        checked.append(sorted(elements))
        return int64_safe(elements)

    monkeypatch.setattr(state_module, "int64_safe", recording_int64_safe)
    grown = state.apply(Delta(inserts={"F": [(3, 4)]}, deletes={"P": [(2,)]}))
    shrunk = grown.apply(Delta.delete("F", (1, 2)))
    assert grown.int64_safe() and shrunk.int64_safe()
    # Only the inserted values were checked, never the stored elements.
    assert checked == [[3, 4], []]
    named = shrunk.apply(Delta.insert("P", ("eve",)))
    assert not named.int64_safe()
    assert checked[-1] == ["eve"]
    # An unsafe parent may lose its last unsafe element: no verdict is
    # handed down, the new state derives its own.
    assert named.apply(Delta.delete("P", ("eve",))).int64_safe()
    assert checked[-1] == [1, 2, 3, 4]


def test_apply_rejects_unknown_relation_and_bad_arity():
    state = _state([(1, 2)])
    with pytest.raises(ValueError):
        state.apply(Delta.insert("Q", (1,)))
    with pytest.raises(ValueError):
        state.apply(Delta.insert("F", (1, 2, 3)))


def test_delete_then_insert_same_row_survives():
    # apply() removes deletes first, then adds inserts
    state = _state([(1, 2)])
    mutated = state.apply(Delta(inserts={"F": [(1, 2)]}, deletes={"F": [(1, 2)]}))
    assert mutated is state


# ---------------------------------------------------------------------------
# Encoded-column growth, and nothing carried across a delete
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="columnar stores need numpy")
def test_encode_cache_grows_columns_on_insert_only_delta():
    import numpy as np

    from repro.relational.kernels import CodeTable

    state = _state([(1, 2), (2, 3)], [(1,)])
    _, entry = _store_for(state, ())
    entry["F"] = CodeTable.of(np.array([1, 2]), np.array([2, 3]))
    entry["P"] = CodeTable.of(np.array([1]))

    before = encode_cache_info()
    mutated = apply_delta(state, Delta.insert("F", (3, 4)))
    info = encode_cache_info()
    assert info.grown_columns == before.grown_columns + 1
    assert info.invalidated == before.invalidated
    _, new_entry = _store_for(mutated, ())
    assert new_entry["F"].rows == 3 and len(new_entry["F"].columns) == 2
    assert new_entry["P"] is entry["P"]  # untouched relation: shared array


@pytest.mark.skipif(not HAVE_NUMPY, reason="columnar stores need numpy")
def test_encode_cache_invalidates_on_delete():
    import numpy as np

    from repro.relational.kernels import CodeTable

    state = _state([(1, 2)])
    _, entry = _store_for(state, ())
    entry["F"] = CodeTable.of(np.array([1]), np.array([2]))
    before = encode_cache_info()
    mutated = apply_delta(state, Delta.delete("F", (1, 2)))
    info = encode_cache_info()
    assert info.invalidated == before.invalidated + 1
    assert f"invalidated={info.invalidated}" in str(info)
    assert _store_for(mutated, ())[1] == {}


# ---------------------------------------------------------------------------
# Vectorized answers after a carried delta, per operator shape
# ---------------------------------------------------------------------------

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="columnar stores need numpy")


def _vectorized_after_delta_equals_recomputed(
    query_text, rows_before, delta, domain=EQ, schema=SCHEMA, state_table=None,
):
    """Run the query vectorized on the old state (filling the encode store,
    adom column included), carry the store across ``delta``, and compare
    the answer on the mutated state with the set executor's."""
    query = parse_formula(query_text)
    state = DatabaseState(schema, state_table or {"F": rows_before})
    compiled = compile_query(query, schema, domain)
    execute_vectorized(compiled.plan, state, compiled.constants)
    mutated = apply_delta(state, delta)
    rows = execute_vectorized(compiled.plan, mutated, compiled.constants).decode()
    expected = run_plan(compiled.plan, mutated, compiled.universe(mutated), domain)
    assert rows == expected
    return rows


@needs_numpy
def test_grown_columns_scan_and_join():
    rows = _vectorized_after_delta_equals_recomputed(
        "exists y. (F(x, y) & F(y, z))",
        [(1, 2), (2, 3)],
        Delta.insert("F", (3, 4)),
    )
    assert (2, 4) in rows


@needs_numpy
def test_invalidated_columns_join_delete():
    _vectorized_after_delta_equals_recomputed(
        "exists y. (F(x, y) & F(y, z))",
        [(1, 2), (2, 3), (3, 4)],
        Delta.delete("F", (2, 3)),
    )


@needs_numpy
def test_antijoin_blocking_and_unblocking_after_deltas():
    # sons with no sons of their own: inserting F(2, 9) blocks x=2
    query = "exists y. (F(y, x) & ~exists z. F(x, z))"
    _vectorized_after_delta_equals_recomputed(
        query, [(1, 2), (1, 3)], Delta.insert("F", (2, 9))
    )
    # and deleting the blocker un-blocks it again
    _vectorized_after_delta_equals_recomputed(
        query, [(1, 2), (1, 3), (2, 9), (9, 9)], Delta.delete("F", (2, 9))
    )


@needs_numpy
def test_two_sided_witness_bounds_after_an_insert():
    # ∃y∃z (P(y) ∧ P(z) ∧ y < x ∧ x < z): an insert that moves the max and
    # adds an inner member must be seen on both sides
    from repro.domains.nat_order import NaturalOrderDomain

    nat = NaturalOrderDomain()
    schema = DatabaseSchema((RelationSchema("P", 1, ("n",)),))
    rows = _vectorized_after_delta_equals_recomputed(
        "exists y. (exists z. (P(y) & P(z) & y < x & x < z))",
        None,
        Delta.insert("P", (4,), (9,)),
        domain=nat,
        schema=schema,
        state_table={"P": [(1,), (3,), (5,)]},
    )
    assert rows == {(3,), (4,), (5,)}


@needs_numpy
def test_crosspad_after_an_insert_and_a_delete():
    # Every element of the insert and the delete is already (and still) in
    # the active domain; the insert grows the stored columns, the delete
    # leaves the new state to encode its own.
    for delta, grown, invalidated in (
        (Delta.insert("F", (3, 3)), 1, 0),
        (Delta.delete("F", (1, 2)), 0, 1),
    ):
        before = encode_cache_info()
        _vectorized_after_delta_equals_recomputed(
            "F(x, y) & z = z", [(1, 2), (2, 3), (3, 1)], delta
        )
        info = encode_cache_info()
        assert (
            info.grown_columns - before.grown_columns,
            info.invalidated - before.invalidated,
        ) == (grown, invalidated)


@needs_numpy
def test_negation_crosspad_under_adom_growth():
    # The inserted row brings new elements: the stored adom column the old
    # state memoised must not serve the grown state.
    rows = _vectorized_after_delta_equals_recomputed(
        "~F(x, y)", [(1, 2)], Delta.insert("F", (3, 4))
    )
    assert (4, 3) in rows and (1, 2) not in rows


@needs_numpy
def test_adom_shrink_is_answered_over_the_smaller_universe():
    rows = _vectorized_after_delta_equals_recomputed(
        "~F(x, y)", [(1, 2), (3, 4)],
        Delta.delete("F", (3, 4)),  # 3 and 4 lose their last occurrence
    )
    assert rows == {(1, 1), (2, 1), (2, 2)}


@needs_numpy
def test_answers_stay_exact_across_many_carried_deltas():
    query = parse_formula("exists y. (F(x, y) & F(y, z))")
    state = _state([(1, 2)])
    compiled = compile_query(query, SCHEMA, EQ)
    execute_vectorized(compiled.plan, state)
    before = encode_cache_info()
    for delta in (
        Delta.insert("F", (2, 3)),
        Delta.insert("F", (3, 4)),
        Delta(inserts={"F": [(4, 5)]}, deletes={"F": [(2, 3)]}),
    ):
        mutated = apply_delta(state, delta)
        assert execute_vectorized(compiled.plan, mutated).decode() == run_plan(
            compiled.plan, mutated, compiled.universe(mutated), EQ
        )
        state = mutated
    assert encode_cache_info().grown_columns == before.grown_columns + 2


# ---------------------------------------------------------------------------
# Randomized property: substrates after apply_delta ≡ the tree walker
# ---------------------------------------------------------------------------


def _substrate_pack_names():
    return [
        name for name in available_domains()
        if get_domain(name).supports_compiled_algebra
    ]


def _random_delta(rng, state, pool, insert_only=False):
    inserts, deletes = {}, {}
    for name, relation in pool.relations.items():
        rows = sorted(relation.rows, key=repr)
        if rows and rng.random() < 0.8:
            inserts[name] = rng.sample(rows, min(2, len(rows)))
    if not insert_only:
        for name, relation in state.relations.items():
            rows = sorted(relation.rows, key=repr)
            if rows and rng.random() < 0.5:
                deletes[name] = [rng.choice(rows)]
    return Delta(inserts=inserts, deletes=deletes)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("pack_name", _substrate_pack_names())
def test_property_interleaved_deltas_equal_rebuilt(pack_name, seed):
    """Every substrate's answer after ``Session.apply_delta`` (which grows the
    encoded columns or leaves them behind) equals the tree walker's, across
    randomized insert/delete interleavings."""
    pack = get_pack(pack_name)
    domain = pack.factory()
    extras = tuple(domain.carrier_elements()) if domain.finite_carrier else ()
    substrates = [CompiledAlgebraPlan(domain=domain, extra_elements=extras)]
    if HAVE_NUMPY:
        substrates.append(VectorizedAlgebraPlan(domain=domain, extra_elements=extras))
    checked = 0
    for corpus in pack.corpora():
        if corpus.state_factory is None:
            continue
        rng = random.Random(f"delta-prop/{pack_name}/{corpus.name}/{seed}")
        state = corpus.state_factory(rng, 4)
        pool = corpus.state_factory(rng, 9)
        session = Session(pack_name, corpus.schema)
        for step in range(5):
            if step:
                mutated = session.apply_delta(
                    state, _random_delta(rng, state, pool, insert_only=step == 1)
                )
                if mutated is state:
                    continue
                state = mutated
            for pq in corpus.queries:
                reference = evaluate_query_active_domain(
                    pq.query, state, interpretation=domain, extra_elements=extras
                ).rows
                for plan in substrates:
                    assert set(plan.execute(pq.query, state).rows()) == reference, (
                        f"{plan.strategy} disagrees with the tree walker on "
                        f"{pack_name}/{corpus.name}/{pq.name} at step {step}"
                    )
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Strategy, planner, and session integration
# ---------------------------------------------------------------------------


def test_incremental_strategy_is_gone():
    assert "incremental" not in STRATEGIES
    with pytest.raises(PlanError, match="unknown strategy 'incremental'"):
        Planner(EQ).plan("incremental")


def test_session_apply_delta_end_to_end():
    session = connect("equality", SCHEMA)
    state = session.state(F=[(1, 2), (2, 3)])
    query = "exists y. (F(x, y) & F(y, z))"
    first = session.run(query, state)
    assert first.answer.method == "vectorized"
    assert set(first.answer.rows()) == {(1, 3)}

    mutated = session.apply_delta(state, Delta.insert("F", (3, 4)))
    assert mutated.version == 1
    second = session.run(query, mutated)
    assert second.answer.method == "vectorized"
    assert set(second.answer.rows()) == {(1, 3), (2, 4)}


def test_session_delete_matches_reference():
    session = connect("equality", SCHEMA)
    state = session.state(F=[(1, 2), (2, 3), (3, 4)])
    query = "exists y. (F(x, y) & F(y, z))"
    assert set(session.query(query, state).rows()) == {(1, 3), (2, 4)}
    mutated = session.apply_delta(state, Delta.delete("F", (2, 3)))
    reference = connect("equality", SCHEMA).query(query, mutated)
    answer = session.query(query, mutated)
    assert set(answer.rows()) == set(reference.rows()) == set()


def test_sessions_keep_no_answer_cache():
    session = connect("equality", SCHEMA)
    assert session.incremental is False  # kept for callers that read it
    assert not hasattr(session, "answer_cache")
    assert not hasattr(session, "answer_cache_info")


RETIRED_OPTIONS = [("incremental", True), ("answer_cache_size", 8)]


@pytest.mark.parametrize("option,value", RETIRED_OPTIONS)
def test_retired_session_options_raise_type_error(option, value):
    with pytest.raises(TypeError):
        Session("equality", SCHEMA, **{option: value})


@pytest.mark.parametrize("option,value", RETIRED_OPTIONS)
def test_retired_policy_fields_raise_type_error(option, value):
    from repro.serve import ServerPolicy

    with pytest.raises(TypeError):
        ServerPolicy(**{option: value})


def test_incremental_strategy_is_refused_by_sessions():
    session = connect("equality", SCHEMA)
    state = session.state(F=[(1, 2)])
    for call in (
        lambda: session.run("F(x, y)", state, strategy="incremental"),
        lambda: session.plan("incremental"),
    ):
        with pytest.raises(PlanError):
            call()
    assert session.run("F(x, y)", state).answer.rows() == ((1, 2),)


def test_apply_delta_noop_returns_same_state():
    session = connect("equality", SCHEMA)
    state = session.state(F=[(1, 2)])
    assert session.apply_delta(state, Delta.insert("F", (1, 2))) is state


# ---------------------------------------------------------------------------
# Serving layer: SessionManager.mutate and POST /mutate
# ---------------------------------------------------------------------------


def test_session_manager_mutate_updates_default_state():
    from repro.serve import SessionManager

    manager = SessionManager()
    try:
        managed = manager.connect(
            "equality", SCHEMA,
            state=DatabaseState(SCHEMA, {"F": [(1, 2)]}),
        )
        assert managed.session.incremental is False
        assert "incremental" not in managed.describe()
        receipt = manager.mutate(managed.session_id, Delta.insert("F", (2, 3)))
        assert receipt["applied"] and receipt["state_version"] == 1
        assert receipt["changed_rows"] == 1 and receipt["total_rows"] == 2
        result = manager.run_query(managed.session_id, "F(x, y)")
        assert set(result.answer.rows()) == {(1, 2), (2, 3)}
        assert managed.mutations_applied == 1
        assert managed.describe()["state_version"] == 1
        # a no-op mutation is reported, not applied
        receipt = manager.mutate(managed.session_id, Delta.insert("F", (2, 3)))
        assert not receipt["applied"] and receipt["changed_rows"] == 0
    finally:
        manager.shutdown()


def test_stats_report_encode_cache_counters():
    from repro.serve import SessionManager

    manager = SessionManager()
    try:
        manager.connect("equality", SCHEMA)
        stats = manager.stats()
        assert "invalidated" in stats["encode_cache"]
        assert "grown_columns" in stats["encode_cache"]
    finally:
        manager.shutdown()


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def test_http_mutate_endpoint_round_trip():
    from repro.serve import serve_in_thread

    with serve_in_thread() as handle:
        port = handle.port
        connected = _post(port, "/connect", {
            "domain": "equality",
            "schema": {"F": 2},
            "state": {"F": [[1, 2], [2, 3]]},
        })
        sid = connected["session"]
        first = _post(port, "/query", {"session": sid, "query": "F(x, y)"})
        assert first["method"] == "vectorized"

        receipt = _post(port, "/mutate", {
            "session": sid, "insert": {"F": [[3, 4]]},
        })
        assert receipt["applied"] and receipt["state_version"] == 1

        second = _post(port, "/query", {"session": sid, "query": "F(x, y)"})
        assert sorted(map(tuple, second["rows"])) == [(1, 2), (2, 3), (3, 4)]
        assert second["method"] == "vectorized"

        receipt = _post(port, "/mutate", {
            "session": sid, "delete": {"F": [[1, 2]]},
        })
        assert receipt["applied"] and receipt["state_version"] == 2
        third = _post(port, "/query", {"session": sid, "query": "F(x, y)"})
        assert sorted(map(tuple, third["rows"])) == [(2, 3), (3, 4)]


def test_http_mutate_rejects_bad_payloads():
    from repro.serve import serve_in_thread

    with serve_in_thread() as handle:
        port = handle.port
        sid = _post(port, "/connect", {"domain": "equality", "schema": {"F": 2}})["session"]
        for payload in (
            {"insert": {"F": [[1, 2]]}},               # missing session
            {"session": sid, "insert": "not-a-dict"},  # malformed delta
            {"session": "nope", "insert": {"F": [[1, 2]]}},  # unknown session
        ):
            with pytest.raises(urllib.error.HTTPError):
                _post(port, "/mutate", payload)
