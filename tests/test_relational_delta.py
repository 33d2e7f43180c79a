"""Tests for incremental evaluation: deltas, ΔQ maintenance, answer caching.

Five layers:

* :class:`repro.relational.state.Delta` value semantics (normalisation,
  composition, hashing) and :meth:`DatabaseState.apply` (structural sharing,
  O(Δ) fingerprint patching, version/lineage bookkeeping);
* the columnar :class:`~repro.relational.columnar.EncodeCache` mutation
  protocol — append-only column growth on insert-only deltas, invalidation
  for deletes, and the new counters;
* the ΔQ maintenance pass (:mod:`repro.relational.delta`): per-node rules,
  two-sided witness bounds under an insert, and the adom-shrink fallback;
* randomized property tests — interleaved insert/delete sequences answered
  incrementally must equal rebuilt-from-scratch answers across both
  algebra substrates, on every pack whose domain compiles to algebra;
* the serving wiring: :class:`~repro.engine.answer_cache.AnswerCache`
  decisions, ``strategy="incremental"``, incremental sessions with
  ``apply_delta``, and the ``/mutate`` endpoint.
"""

import json
import random
import urllib.request

import pytest

from repro import Delta, connect
from repro.api import Planner
from repro.domains import available_domains, get_domain, get_pack
from repro.domains.equality import EqualityDomain
from repro.engine.answer_cache import AnswerCache
from repro.engine.budget import Budget
from repro.engine.plans import (
    STRATEGIES,
    CompiledAlgebraPlan,
    IncrementalAlgebraPlan,
    VectorizedAlgebraPlan,
)
from repro.logic.parser import parse_formula
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.columnar import HAVE_NUMPY, EncodeCache
from repro.relational.compile import compile_query
from repro.relational.delta import (
    DeltaUnsupported,
    maintain_plan,
    materialize_plan,
)
from repro.relational.exec import run_plan
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState, Relation

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


def test_delta_composition_matches_sequential_application():
    state = _state([(1, 2), (2, 3)], [(1,)])
    d1 = Delta(inserts={"F": [(3, 4)]}, deletes={"P": [(1,)]})
    d2 = Delta(inserts={"P": [(9,)]}, deletes={"F": [(3, 4), (1, 2)]})
    sequential = state.apply(d1).apply(d2)
    composed = state.apply(d1.then(d2))
    assert sequential.relations["F"].rows == composed.relations["F"].rows
    assert sequential.relations["P"].rows == composed.relations["P"].rows
    assert sequential.fingerprint() == composed.fingerprint()


def test_delta_then_insert_cancelled_by_delete_is_not_a_base_delete():
    # insert-then-delete of a row absent from the base must compose to a
    # no-op, not to a delete of a row the base never had
    state = _state([(1, 2)])
    d = Delta.insert("F", (5, 6)).then(Delta.delete("F", (5, 6)))
    assert state.apply(d) is state


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


def test_apply_tracks_version_and_effective_lineage():
    state = _state([(1, 2)])
    assert state.version == 0 and state.lineage == ()
    # (1, 2) is already present: the *effective* delta drops it
    mutated = state.apply(Delta.insert("F", (1, 2), (9, 9)))
    assert mutated.version == 1
    ((parent_fp, effective),) = mutated.lineage
    assert parent_fp == state.fingerprint()
    assert effective.inserts == {"F": frozenset({(9, 9)})}


def test_apply_noop_returns_self():
    state = _state([(1, 2)])
    assert state.apply(Delta()) is state
    assert state.apply(Delta.insert("F", (1, 2))) is state  # already present
    assert state.apply(Delta.delete("F", (7, 7))) is state  # never present


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
# EncodeCache growth and invalidation
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="columnar cache needs numpy")
def test_encode_cache_grows_columns_on_insert_only_delta():
    import numpy as np

    cache = EncodeCache(maxsize=8)
    state = _state([(1, 2), (2, 3)], [(1,)])
    codec = cache.codec_for(state, (1, 2, 3))
    entry = cache.columns_for(state, codec)
    entry["F"] = np.asarray([[1, 2], [2, 3]], dtype=np.int64)
    entry["P"] = np.asarray([[1]], dtype=np.int64)

    delta = Delta.insert("F", (3, 4))
    mutated = state.apply(delta)
    assert cache.migrate(state, mutated, delta) == 1
    new_entry = cache.columns_for(mutated, cache.codec_for(mutated, (1, 2, 3, 4)))
    assert new_entry["F"].shape == (3, 2)
    assert new_entry["P"] is entry["P"]  # untouched relation: shared array
    info = cache.info()
    assert info.grown_columns == 1
    assert info.invalidated == 0


@pytest.mark.skipif(not HAVE_NUMPY, reason="columnar cache needs numpy")
def test_encode_cache_invalidates_on_delete():
    import numpy as np

    cache = EncodeCache(maxsize=8)
    state = _state([(1, 2)])
    entry = cache.columns_for(state, cache.codec_for(state, (1, 2)))
    entry["F"] = np.asarray([[1, 2]], dtype=np.int64)
    delta = Delta.delete("F", (1, 2))
    mutated = state.apply(delta)
    assert cache.migrate(state, mutated, delta) == 0
    assert cache.info().invalidated == 1


@pytest.mark.skipif(not HAVE_NUMPY, reason="columnar cache needs numpy")
def test_encode_cache_explicit_invalidate_counts():
    import numpy as np

    cache = EncodeCache(maxsize=8)
    state = _state([(1, 2)])
    entry = cache.columns_for(state, cache.codec_for(state, (1, 2)))
    entry["F"] = np.asarray([[1, 2]], dtype=np.int64)
    assert cache.invalidate(state) == 1
    assert cache.invalidate(state) == 0  # idempotent
    info = cache.info()
    assert info.invalidated == 1
    assert "invalidated=1" in str(info)


# ---------------------------------------------------------------------------
# ΔQ maintenance: node rules
# ---------------------------------------------------------------------------


def _maintained_equals_recomputed(query_text, rows_before, delta, domain=EQ,
                                  schema=SCHEMA, state_table=None):
    query = parse_formula(query_text)
    state = DatabaseState(schema, state_table or {"F": rows_before})
    compiled = compile_query(query, schema, domain)
    mat = materialize_plan(compiled.plan, state, compiled.universe(state, ()), domain)
    mutated = state.apply(delta)
    maintain_plan(mat, delta, mutated, compiled.universe(mutated, ()), domain)
    expected = run_plan(
        compiled.plan, mutated, compiled.universe(mutated, ()), domain
    )
    assert mat.rows == expected
    assert mat.fingerprint == mutated.fingerprint()
    return mat


def test_maintain_scan_and_join():
    mat = _maintained_equals_recomputed(
        "exists y. (F(x, y) & F(y, z))",
        [(1, 2), (2, 3)],
        Delta.insert("F", (3, 4)),
    )
    assert (2, 4) in mat.rows


def test_maintain_join_delete():
    _maintained_equals_recomputed(
        "exists y. (F(x, y) & F(y, z))",
        [(1, 2), (2, 3), (3, 4)],
        Delta.delete("F", (2, 3)),
    )


def test_maintain_antijoin_blocking_and_unblocking():
    # sons with no sons of their own: inserting F(2, 9) blocks x=2
    query = "exists y. (F(y, x) & ~exists z. F(x, z))"
    _maintained_equals_recomputed(query, [(1, 2), (1, 3)], Delta.insert("F", (2, 9)))
    # and deleting the blocker un-blocks it again (9 stays in the active
    # domain through (9, 9), so the delete is maintainable)
    _maintained_equals_recomputed(
        query, [(1, 2), (1, 3), (2, 9), (9, 9)], Delta.delete("F", (2, 9))
    )


def test_maintain_two_sided_witness_bounds_on_insert():
    # ∃y∃z (P(y) ∧ P(z) ∧ y < x ∧ x < z): an insert that moves the max and
    # adds an inner member must update both witnesses' contributions
    from repro.domains.nat_order import NaturalOrderDomain

    nat = NaturalOrderDomain()
    schema = DatabaseSchema((RelationSchema("P", 1, ("n",)),))
    query = parse_formula("exists y. (exists z. (P(y) & P(z) & y < x & x < z))")
    state = DatabaseState(schema, {"P": [(1,), (3,), (5,)]})
    compiled = compile_query(query, schema, nat)
    mat = materialize_plan(compiled.plan, state, compiled.universe(state, ()), nat)
    delta = Delta.insert("P", (4,), (9,))
    mutated = state.apply(delta)
    maintain_plan(mat, delta, mutated, compiled.universe(mutated, ()), nat)
    expected = run_plan(compiled.plan, mutated, compiled.universe(mutated, ()), nat)
    assert mat.rows == expected == {(3,), (4,), (5,)}


def test_maintain_crosspad_pads_only_the_delta_rows():
    # Every element of the insert and the delete is already (and still) in
    # the active domain, so the pad rule patches without a recompute.
    query = parse_formula("F(x, y) & z = z")
    compiled = compile_query(query, SCHEMA, EQ)
    state = _state([(1, 2), (2, 3), (3, 1)])
    for delta in (Delta.insert("F", (3, 3)), Delta.delete("F", (1, 2))):
        mat = materialize_plan(compiled.plan, state, compiled.universe(state, ()), EQ)
        mutated = state.apply(delta)
        stats = maintain_plan(mat, delta, mutated, compiled.universe(mutated, ()), EQ)
        assert mat.rows == run_plan(
            compiled.plan, mutated, compiled.universe(mutated, ()), EQ
        )
        # one delta row at the scan, padded with the 3 adom elements
        assert (stats.nodes_touched, stats.rows_touched) == (2, 1 + 3)


def test_maintain_negation_crosspad_under_adom_growth():
    _maintained_equals_recomputed(
        "~F(x, y)", [(1, 2)], Delta.insert("F", (3, 4))
    )


def test_adom_shrink_raises_delta_unsupported():
    query = parse_formula("~F(x, y)")
    state = _state([(1, 2), (3, 4)])
    compiled = compile_query(query, SCHEMA, EQ)
    mat = materialize_plan(compiled.plan, state, compiled.universe(state, ()), EQ)
    delta = Delta.delete("F", (3, 4))  # 3 and 4 lose their last occurrence
    mutated = state.apply(delta)
    with pytest.raises(DeltaUnsupported):
        maintain_plan(mat, delta, mutated, compiled.universe(mutated, ()), EQ)


def test_maintenance_is_cumulative_across_many_deltas():
    query = parse_formula("exists y. (F(x, y) & F(y, z))")
    state = _state([(1, 2)])
    compiled = compile_query(query, SCHEMA, EQ)
    mat = materialize_plan(compiled.plan, state, compiled.universe(state, ()), EQ)
    for delta in (
        Delta.insert("F", (2, 3)),
        Delta.insert("F", (3, 4)),
        # (2, 3) can go: 2 survives in (1, 2) and 3 in (3, 4), so the
        # active domain is unchanged and the delete is maintainable
        Delta(inserts={"F": [(4, 5)]}, deletes={"F": [(2, 3)]}),
    ):
        mutated = state.apply(delta)
        maintain_plan(mat, delta, mutated, compiled.universe(mutated, ()), EQ)
        assert mat.rows == run_plan(
            compiled.plan, mutated, compiled.universe(mutated, ()), EQ
        )
        state = mutated
    assert mat.maintained == 3


# ---------------------------------------------------------------------------
# Randomized property: incremental ≡ rebuilt, across substrates
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
    """Incrementally maintained answers equal every substrate's answer on the
    rebuilt state, across randomized insert/delete interleavings."""
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
        incremental = IncrementalAlgebraPlan(
            domain=domain, extra_elements=extras, answer_cache=AnswerCache()
        )
        for step in range(5):
            if step:
                mutated = state.apply(
                    _random_delta(rng, state, pool, insert_only=step == 1)
                )
                if mutated is state:
                    continue
                state = mutated
            for pq in corpus.queries:
                reference = evaluate_query_active_domain(
                    pq.query, state, interpretation=domain, extra_elements=extras
                ).rows
                got = set(incremental.execute(pq.query, state).rows())
                assert got == reference, (
                    f"incremental disagrees with the tree walker on "
                    f"{pack_name}/{corpus.name}/{pq.name} at step {step}"
                )
                for plan in substrates:
                    assert set(plan.execute(pq.query, state).rows()) == reference
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# AnswerCache decisions
# ---------------------------------------------------------------------------


def _cached_answer(cache, state, query_text="F(x, y)"):
    query = parse_formula(query_text)
    compiled = compile_query(query, SCHEMA, EQ)
    key = (query, SCHEMA, EQ.name, ())
    return cache.answer(key, compiled, state, (), EQ)


def test_answer_cache_miss_hit_maintain_and_recompute():
    cache = AnswerCache(maxsize=4)
    state = _state([(1, 2)])
    rows, decision = _cached_answer(cache, state)
    assert rows == {(1, 2)} and "miss" in decision

    rows, decision = _cached_answer(cache, state)
    assert rows == {(1, 2)} and decision.startswith("answer cache hit")

    mutated = state.apply(Delta.insert("F", (2, 3)))
    rows, decision = _cached_answer(cache, mutated)
    assert rows == {(1, 2), (2, 3)} and decision.startswith("delta-maintained")

    unrelated = _state([(8, 9)])
    rows, decision = _cached_answer(cache, unrelated)
    assert rows == {(8, 9)} and "no lineage path" in decision

    info = cache.info()
    assert (info.hits, info.maintained, info.misses, info.rematerialized) == (1, 1, 1, 1)
    assert info.maintained_rows > 0


def test_answer_cache_walks_multi_delta_lineage():
    cache = AnswerCache()
    state = _state([(1, 2)])
    _cached_answer(cache, state)
    for row in ((2, 3), (3, 4), (4, 5)):
        state = state.apply(Delta.insert("F", row))
    rows, decision = _cached_answer(cache, state)
    assert rows == {(1, 2), (2, 3), (3, 4), (4, 5)}
    assert "3 delta(s)" in decision


def test_answer_cache_recomputes_on_unsupported_delta():
    cache = AnswerCache()
    state = _state([(1, 2), (3, 4)])
    rows, _ = _cached_answer(cache, state, "~F(x, y)")
    mutated = state.apply(Delta.delete("F", (3, 4)))  # adom shrinks
    rows, decision = _cached_answer(cache, mutated, "~F(x, y)")
    assert decision.startswith("recomputed in full")
    assert rows == run_plan(
        compile_query(parse_formula("~F(x, y)"), SCHEMA, EQ).plan,
        mutated,
        compile_query(parse_formula("~F(x, y)"), SCHEMA, EQ).universe(mutated, ()),
        EQ,
    )
    assert cache.info().rematerialized == 1


def test_answer_cache_lru_eviction_and_clear():
    cache = AnswerCache(maxsize=1)
    state = _state([(1, 2)])
    _cached_answer(cache, state, "F(x, y)")
    _cached_answer(cache, state, "F(y, x)")  # evicts the first
    assert cache.info().evictions == 1
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Strategy, planner, and session integration
# ---------------------------------------------------------------------------


def test_incremental_strategy_is_registered():
    assert "incremental" in STRATEGIES
    plan = Planner(EQ).plan("incremental")
    assert isinstance(plan, IncrementalAlgebraPlan)
    assert plan.strategy == "incremental"


def test_incremental_plan_records_decisions_in_explain():
    plan = Planner(EQ).plan("incremental")
    query = parse_formula("F(x, y)")
    state = _state([(1, 2)])
    plan.execute(query, state)
    assert "answer cache miss" in plan.explain()
    plan.execute(query, state)
    assert "answer cache hit" in plan.explain()
    mutated = state.apply(Delta.insert("F", (4, 5)))
    plan.execute(query, mutated)
    assert "delta-maintained" in plan.explain()


def test_incremental_plan_shares_compiled_plan_cache_entries():
    from repro.engine.plan_cache import PlanCache

    cache = PlanCache(maxsize=8)
    query = parse_formula("F(x, y)")
    state = _state([(1, 2)])
    CompiledAlgebraPlan(domain=EQ, cache=cache).execute(query, state)
    plan = IncrementalAlgebraPlan(
        domain=EQ, cache=cache, answer_cache=AnswerCache()
    )
    plan.execute(query, state)
    assert cache.info().hits >= 1  # the incremental plan reused the entry


def test_incremental_session_end_to_end():
    session = connect("equality", SCHEMA, incremental=True)
    assert session.incremental
    state = session.state(F=[(1, 2), (2, 3)])
    query = "exists y. (F(x, y) & F(y, z))"
    first = session.run(query, state)
    assert first.answer.method == "incremental"
    assert set(first.answer.rows()) == {(1, 3)}

    mutated = session.apply_delta(state, Delta.insert("F", (3, 4)))
    assert mutated.version == 1
    second = session.run(query, mutated)
    assert set(second.answer.rows()) == {(1, 3), (2, 4)}
    assert "delta-maintained" in second.plan.explain()

    info = session.answer_cache_info()
    assert info.maintained == 1 and info.misses == 1


def test_incremental_session_delete_matches_reference():
    session = connect("equality", SCHEMA, incremental=True)
    state = session.state(F=[(1, 2), (2, 3), (3, 4)])
    query = "exists y. (F(x, y) & F(y, z))"
    assert set(session.query(query, state).rows()) == {(1, 3), (2, 4)}
    mutated = session.apply_delta(state, Delta.delete("F", (2, 3)))
    reference = connect("equality", SCHEMA).query(query, mutated)
    answer = session.query(query, mutated)
    assert set(answer.rows()) == set(reference.rows()) == set()


def test_non_incremental_session_has_no_answer_cache():
    session = connect("equality", SCHEMA)
    assert not session.incremental
    assert session.answer_cache is None
    with pytest.raises(Exception):
        session.answer_cache_info()


def test_incremental_strategy_needs_an_incremental_session():
    # Regression: each run built a fresh answer cache, so every repeat was a
    # miss plus a full materialisation.
    from repro.api.session import SessionError

    session = connect("equality", SCHEMA)
    state = session.state(F=[(1, 2)])
    for call in (
        lambda: session.run("F(x, y)", state, strategy="incremental"),
        lambda: session.plan("incremental"),
    ):
        with pytest.raises(SessionError, match="incremental=True"):
            call()
    assert session.run("F(x, y)", state).answer.rows() == ((1, 2),)


def test_incremental_strategy_on_an_incremental_session_reuses_its_cache():
    session = connect("equality", SCHEMA, incremental=True)
    state = session.state(F=[(1, 2), (2, 3)])
    for _ in range(3):
        result = session.run("F(x, y)", state, strategy="incremental")
        assert result.answer.method == "incremental"
    info = session.answer_cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_apply_delta_noop_returns_same_state():
    session = connect("equality", SCHEMA, incremental=True)
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
        assert managed.session.incremental  # policy default
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


def test_stats_report_answer_and_encode_cache_counters():
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
        assert first["method"] == "incremental"

        receipt = _post(port, "/mutate", {
            "session": sid, "insert": {"F": [[3, 4]]},
        })
        assert receipt["applied"] and receipt["state_version"] == 1

        second = _post(port, "/query", {"session": sid, "query": "F(x, y)"})
        assert sorted(map(tuple, second["rows"])) == [(1, 2), (2, 3), (3, 4)]
        assert "delta-maintained" in second["plan"]

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
