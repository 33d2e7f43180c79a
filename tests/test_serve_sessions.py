"""Tests for the session manager: lifecycle, locks, shared caches."""

import threading
import time

import pytest

from repro.engine.budget import Budget
from repro.experiments.corpora import numeric_schema
from repro.serve.policy import ServerPolicy
from repro.serve.sessions import SessionManager, UnknownSessionError


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def manager():
    manager = SessionManager(ServerPolicy(max_sessions=4, session_ttl=10.0))
    yield manager
    manager.shutdown()


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_connect_returns_distinct_unguessable_ids(manager):
    first = manager.connect("equality")
    second = manager.connect("equality")
    assert first.session_id != second.session_id
    assert len(first.session_id) == 16
    assert manager.get(first.session_id) is first
    assert manager.get(second.session_id) is second


def test_unknown_session_raises(manager):
    with pytest.raises(UnknownSessionError):
        manager.get("deadbeef00000000")


def test_sessions_expire_after_ttl():
    clock = FakeClock()
    manager = SessionManager(
        ServerPolicy(session_ttl=10.0), clock=clock
    )
    try:
        managed = manager.connect("equality")
        clock.advance(9.0)
        assert manager.get(managed.session_id) is managed  # use refreshes TTL
        clock.advance(9.0)
        assert manager.get(managed.session_id) is managed
        clock.advance(11.0)
        with pytest.raises(UnknownSessionError):
            manager.get(managed.session_id)
        assert manager.stats()["sessions"]["expired"] == 1
    finally:
        manager.shutdown()


def test_lru_eviction_beyond_max_sessions():
    clock = FakeClock()
    manager = SessionManager(
        ServerPolicy(max_sessions=2, session_ttl=1000.0), clock=clock
    )
    try:
        first = manager.connect("equality")
        second = manager.connect("equality")
        manager.get(first.session_id)       # refresh: second becomes LRU
        third = manager.connect("equality")
        assert set(manager.session_ids()) == {first.session_id, third.session_id}
        with pytest.raises(UnknownSessionError):
            manager.get(second.session_id)
        assert manager.stats()["sessions"]["evicted"] == 1
    finally:
        manager.shutdown()


def test_close_drops_a_session(manager):
    managed = manager.connect("equality")
    assert manager.close(managed.session_id)
    assert not manager.close(managed.session_id)
    with pytest.raises(UnknownSessionError):
        manager.get(managed.session_id)


# ---------------------------------------------------------------------------
# Shared plan cache
# ---------------------------------------------------------------------------


def test_sessions_share_the_managers_plan_cache(manager):
    a = manager.connect("nat<", numeric_schema())
    b = manager.connect("nat<", numeric_schema())
    assert a.session.plan_cache is manager.plan_cache
    assert b.session.plan_cache is manager.plan_cache

    state = a.session.state({"S": [(1,), (4,)]})
    manager.run_query(a.session_id, "S(x)", state, strategy="vectorized")
    before = manager.plan_cache.info()
    # the *other* session running the same query hits the shared cache
    manager.run_query(b.session_id, "S(x)", state, strategy="vectorized")
    after = manager.plan_cache.info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


def test_connect_cannot_opt_out_of_the_shared_cache(manager):
    from repro.engine.plan_cache import PlanCache

    rogue = PlanCache(maxsize=1)
    managed = manager.connect("equality", plan_cache=rogue, plan_cache_size=7)
    assert managed.session.plan_cache is manager.plan_cache


def test_manager_builds_a_plain_plan_cache_sized_by_the_policy():
    from repro.engine.plan_cache import PlanCache

    manager = SessionManager(ServerPolicy(plan_cache_size=17))
    try:
        assert type(manager.plan_cache) is PlanCache
        assert manager.plan_cache.maxsize == 17
    finally:
        manager.shutdown()


def test_manager_compiles_through_an_injected_plan_cache():
    from repro.engine.plan_cache import PlanCache

    shared = PlanCache(maxsize=5)
    manager = SessionManager(ServerPolicy(), plan_cache=shared)
    try:
        managed = manager.connect("nat<", numeric_schema())
        state = managed.session.state({"S": [(2,)]})
        manager.run_query(managed.session_id, "S(x)", state, strategy="vectorized")
        assert manager.plan_cache is shared
        assert shared.info().misses == 1 and len(shared) == 1
        assert manager.stats()["plan_cache"]["maxsize"] == 5
    finally:
        manager.shutdown()


def test_restarted_manager_recompiles_each_plan_once_then_hits(monkeypatch):
    """Plans live only in memory: a new manager (a restarted process)
    compiles each query on its first use and serves repeats from its cache."""
    import repro.engine.plans as plans_module
    from repro.experiments.corpora import ordered_query_corpus

    queries = [q for _, q, finite in ordered_query_corpus() if finite]
    rows = {"S": [(3,), (5,), (9,)]}
    compiled = []
    real = plans_module.compile_query

    def counting(query, schema, domain):
        compiled.append(query)
        return real(query, schema, domain)

    monkeypatch.setattr(plans_module, "compile_query", counting)
    answers = []
    for _ in range(2):
        compiled.clear()
        manager = SessionManager(ServerPolicy())
        try:
            managed = manager.connect("nat<", numeric_schema())
            state = managed.session.state(rows)
            for _ in range(2):
                answers.append([
                    manager.run_query(
                        managed.session_id, query, state, strategy="vectorized"
                    ).answer.rows()
                    for query in queries
                ])
            assert compiled == queries
            info = manager.plan_cache.info()
            assert (info.misses, info.hits) == (len(queries), len(queries))
        finally:
            manager.shutdown()
    assert all(rows == answers[0] for rows in answers)
    assert all(answers[0])


def test_session_ids_after_connect_are_only_live_sessions():
    clock = FakeClock()
    manager = SessionManager(
        ServerPolicy(max_sessions=2, session_ttl=10.0), clock=clock
    )
    try:
        expired = manager.connect("equality")
        clock.advance(11.0)
        kept = manager.connect("equality")
        assert manager.session_ids() == [kept.session_id]
        newest = [manager.connect("equality") for _ in range(2)]
        assert manager.session_ids() == [m.session_id for m in newest]
        assert expired.session_id not in manager.session_ids()
        assert manager.stats()["sessions"]["evicted"] == 1
    finally:
        manager.shutdown()


# ---------------------------------------------------------------------------
# Query execution: clamping and serialization
# ---------------------------------------------------------------------------


def test_run_query_clamps_the_budget():
    manager = SessionManager(
        ServerPolicy(max_rows_cap=7, max_candidates_cap=11, fuel_cap=13)
    )
    try:
        managed = manager.connect("equality")
        seen = {}
        original_run = managed.session.run

        def spying_run(query, state=None, **kwargs):
            seen["budget"] = kwargs.get("budget")
            return original_run(query, state, **kwargs)

        managed.session.run = spying_run  # type: ignore[method-assign]
        manager.run_query(
            managed.session_id, "x = 1", budget=Budget(max_rows=10**9)
        )
        assert seen["budget"].max_rows == 7
        assert seen["budget"].max_candidates == 11
        assert seen["budget"].fuel == 13
    finally:
        manager.shutdown()


def test_same_session_serializes_distinct_sessions_overlap():
    manager = SessionManager(ServerPolicy(workers=4))
    try:
        a = manager.connect("equality")
        b = manager.connect("equality")
        running = {"current": 0, "max_same": 0, "max_total": 0}
        guard = threading.Lock()
        per_session = {a.session_id: 0, b.session_id: 0}

        def slow_run(session_id):
            def run(query, state=None, **kwargs):
                with guard:
                    per_session[session_id] += 1
                    running["current"] += 1
                    running["max_total"] = max(running["max_total"], running["current"])
                    running["max_same"] = max(
                        running["max_same"], per_session[session_id]
                    )
                time.sleep(0.05)
                with guard:
                    per_session[session_id] -= 1
                    running["current"] -= 1
                return original_runs[session_id](query, state, **kwargs)

            return run

        original_runs = {
            a.session_id: a.session.run,
            b.session_id: b.session.run,
        }
        a.session.run = slow_run(a.session_id)  # type: ignore[method-assign]
        b.session.run = slow_run(b.session_id)  # type: ignore[method-assign]

        futures = []
        for _ in range(3):
            futures.append(manager.submit_query(a.session_id, "x = 1"))
            futures.append(manager.submit_query(b.session_id, "x = 1"))
        for future in futures:
            future.result(timeout=30)

        assert running["max_same"] == 1       # one session's queries serialize
        assert running["max_total"] >= 2      # ...but distinct sessions overlap
    finally:
        manager.shutdown()


def test_default_state_from_connect_is_used(manager):
    schema = numeric_schema()
    managed = manager.connect("nat<", schema)
    managed.state = managed.session.state({"S": [(2,), (8,)]})
    result = manager.run_query(managed.session_id, "S(x)", strategy="vectorized")
    assert result.answer.rows() == ((2,), (8,))


# ---------------------------------------------------------------------------
# Stats / teardown
# ---------------------------------------------------------------------------


def test_stats_reports_sessions_and_caches(manager):
    managed = manager.connect("nat<", numeric_schema())
    state = managed.session.state({"S": [(1,)]})
    manager.run_query(managed.session_id, "S(x)", state, strategy="vectorized")
    stats = manager.stats()
    assert stats["sessions"]["live_sessions"] == 1
    assert stats["plan_cache"]["maxsize"] == manager.policy.plan_cache_size
    assert set(stats["plan_cache"]) == {
        "hits", "misses", "evictions", "size", "maxsize", "hit_rate",
    }
    assert "encode_cache" in stats
    (facts,) = stats["session_details"]
    assert facts["queries_served"] == 1
    assert facts["domain"] == "naturals_with_order"
    import json

    json.dumps(stats)  # the whole payload must be JSON-serializable


def test_shutdown_is_idempotent_and_drops_sessions():
    manager = SessionManager(ServerPolicy())
    managed = manager.connect("equality")
    manager.submit_query(managed.session_id, "x = 1").result(timeout=30)
    manager.shutdown()
    manager.shutdown()
    assert len(manager) == 0


# ---------------------------------------------------------------------------
# Cancellation registry / graceful drain
# ---------------------------------------------------------------------------


def big_join_session(manager):
    """A session whose 4-way self-join is far too slow to finish un-cancelled."""
    from repro.relational.schema import DatabaseSchema, RelationSchema

    schema = DatabaseSchema((RelationSchema("F", 2),))
    managed = manager.connect("nat<", schema)
    managed.state = managed.session.state(
        {"F": [(i, (i * 7) % 60_000) for i in range(60_000)]}
    )
    query = (
        "exists u. exists v. exists w. "
        "(F(x, u) & F(u, v) & F(v, w) & F(w, z))"
    )
    # An explicit substrate strategy: the "auto" guard would first run the
    # (un-checkpointed) Presburger quantifier-elimination decision procedure
    # on this 4-quantifier query, which dwarfs the execution itself.
    return managed, query


def test_cancel_session_aborts_an_inflight_query():
    from repro.engine.budget import Cancelled

    manager = SessionManager(ServerPolicy())
    try:
        managed, query = big_join_session(manager)
        future = manager.submit_query(managed.session_id, query, strategy="compiled")
        deadline = time.monotonic() + 10
        while manager.inflight_queries() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        tripped = manager.cancel_session(managed.session_id, reason="test abort")
        assert tripped == 1
        with pytest.raises(Cancelled, match="test abort"):
            future.result(timeout=30)
        assert manager.inflight_queries() == 0
        assert manager.stats()["cancellation"]["cancelled"] == 1
    finally:
        manager.shutdown()


def test_disconnect_cancels_before_dropping_the_session():
    from repro.engine.budget import Cancelled

    manager = SessionManager(ServerPolicy())
    try:
        managed, query = big_join_session(manager)
        future = manager.submit_query(managed.session_id, query, strategy="compiled")
        deadline = time.monotonic() + 10
        while manager.inflight_queries() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert manager.close(managed.session_id) is True
        with pytest.raises(Cancelled, match="disconnected"):
            future.result(timeout=30)
    finally:
        manager.shutdown()


def test_graceful_shutdown_cancels_stragglers_and_rejects_new_work():
    from repro.engine.budget import Cancelled
    from repro.serve.sessions import ServerDraining

    # A short grace window relative to the query's runtime: the straggler is
    # still mid-join when the window closes, so cancel_all must abort it.
    manager = SessionManager(ServerPolicy(shutdown_grace=0.05))
    managed, query = big_join_session(manager)
    future = manager.submit_query(managed.session_id, query, strategy="compiled")
    deadline = time.monotonic() + 10
    while manager.inflight_queries() == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    receipt = manager.shutdown()
    assert receipt["drained_naturally"] is False
    assert receipt["cancelled_inflight"] == 1
    with pytest.raises(Cancelled, match="shutting down"):
        future.result(timeout=30)
    assert len(manager) == 0
    assert manager.draining
    with pytest.raises(ServerDraining):
        manager.connect("equality")
    manager.shutdown()  # still idempotent


def test_stats_reports_cancellation_and_breaker_sections(manager):
    stats = manager.stats()
    assert stats["cancellation"] == {
        "inflight_queries": 0, "cancelled": 0, "draining": False,
    }
    assert set(stats) == {
        "sessions", "session_details", "cancellation", "plan_cache",
        "encode_cache",
    }
    import json

    json.dumps(stats)
