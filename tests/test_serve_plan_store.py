"""Tests for the on-disk plan store and the persistent plan cache tier."""

import os
import pickle

import pytest

from repro.domains.nat_order import NaturalOrderDomain
from repro.experiments.corpora import numeric_schema, ordered_query_corpus
from repro.relational.compile import compile_query
from repro.serve.plan_store import (
    STORE_VERSION,
    PersistentPlanCache,
    PlanStore,
    fingerprint_key,
)


def _compiled_members():
    domain = NaturalOrderDomain()
    query = dict((name, q) for name, q, _ in ordered_query_corpus())["members"]
    return query, compile_query(query, numeric_schema(), domain)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_is_stable_and_distinguishes_components():
    query, _ = _compiled_members()
    key = (query, numeric_schema(), "naturals_with_order", "compiled")
    assert fingerprint_key(key) == fingerprint_key(key)
    assert len(fingerprint_key(key)) == 64
    other = (query, numeric_schema(), "naturals_with_order", "vectorized")
    assert fingerprint_key(key) != fingerprint_key(other)


def test_fingerprint_survives_subprocess_hash_randomisation():
    # hash() of strings is salted per process; repr-based fingerprints are not.
    import subprocess
    import sys

    code = (
        "import sys; sys.path.insert(0, 'src'); "
        "from repro.serve.plan_store import fingerprint_key; "
        "print(fingerprint_key(('S(x)', 'schema', 'nat<', 'compiled')))"
    )
    runs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=dict(os.environ, PYTHONHASHSEED=str(seed)),
        ).stdout.strip()
        for seed in (1, 2)
    }
    assert len(runs) == 1


# ---------------------------------------------------------------------------
# PlanStore durability
# ---------------------------------------------------------------------------


def test_store_roundtrips_a_compiled_query(tmp_path):
    query, compiled = _compiled_members()
    store = PlanStore(str(tmp_path / "plans"))
    key = (query, numeric_schema(), "naturals_with_order", "compiled")
    assert store.load(key) is None
    assert store.store(key, compiled)
    assert len(store) == 1
    reloaded = store.load(key)
    assert reloaded.output == compiled.output
    assert reloaded.formula == compiled.formula
    assert reloaded.summary() == compiled.summary()


def test_store_tolerates_corrupt_files(tmp_path):
    query, compiled = _compiled_members()
    store = PlanStore(str(tmp_path))
    key = ("k",)
    store.store(key, compiled)
    filename = os.path.join(str(tmp_path), fingerprint_key(key) + ".plan")
    with open(filename, "wb") as handle:
        handle.write(b"\x80garbage not a pickle")
    assert store.load(key) is None
    assert store.corrupt_dropped == 1
    assert not os.path.exists(filename)  # dropped, not re-read forever


def test_store_rejects_version_skew(tmp_path):
    store = PlanStore(str(tmp_path))
    key = ("k",)
    filename = os.path.join(str(tmp_path), fingerprint_key(key) + ".plan")
    payload = {
        "version": STORE_VERSION + 1,
        "fingerprint": fingerprint_key(key),
        "value": 42,
    }
    with open(filename, "wb") as handle:
        pickle.dump(payload, handle)
    assert store.load(key) is None
    assert store.corrupt_dropped == 1


def test_store_rejects_fingerprint_mismatch(tmp_path):
    store = PlanStore(str(tmp_path))
    key, other = ("k",), ("other",)
    store.store(other, 42)
    # mis-file the payload under the wrong name
    os.replace(
        os.path.join(str(tmp_path), fingerprint_key(other) + ".plan"),
        os.path.join(str(tmp_path), fingerprint_key(key) + ".plan"),
    )
    assert store.load(key) is None
    assert store.corrupt_dropped == 1


def test_store_skips_unpicklable_values(tmp_path):
    store = PlanStore(str(tmp_path))
    assert not store.store(("k",), lambda: None)
    assert store.store_errors == 1
    assert len(store) == 0


def test_store_clear_removes_entries(tmp_path):
    store = PlanStore(str(tmp_path))
    store.store(("a",), 1)
    store.store(("b",), 2)
    assert len(store) == 2
    store.clear()
    assert len(store) == 0 and store.load(("a",)) is None


# ---------------------------------------------------------------------------
# PersistentPlanCache: memory over disk
# ---------------------------------------------------------------------------


def test_persistent_cache_writes_through_and_survives_restart(tmp_path):
    query, compiled = _compiled_members()
    store = PlanStore(str(tmp_path))
    key = (query, numeric_schema(), "naturals_with_order", "compiled")

    first = PersistentPlanCache(maxsize=8, store=store)
    first.put(key, compiled)
    assert first.get(key) is compiled        # memory hit
    assert len(store) == 1                    # written through

    # a "restarted process": fresh memory tier over the same store
    second = PersistentPlanCache(maxsize=8, store=PlanStore(str(tmp_path)))
    reloaded = second.get(key)
    assert reloaded is not None and reloaded.summary() == compiled.summary()
    assert second.disk_hits == 1
    # promoted into memory: the next get is a pure memory hit
    assert second.get(key) is reloaded
    assert second.info().hits == 1


def test_persistent_cache_counts_double_misses(tmp_path):
    cache = PersistentPlanCache(maxsize=8, store=PlanStore(str(tmp_path)))
    assert cache.get(("absent",)) is None
    assert cache.disk_misses == 1 and cache.disk_hits == 0


def test_persistent_cache_without_store_is_a_plain_plan_cache():
    cache = PersistentPlanCache(maxsize=2, store=None)
    cache.put("a", 1)
    assert cache.get("a") == 1 and cache.get("b") is None
    assert cache.disk_hits == 0 and cache.disk_misses == 0


def test_eviction_from_memory_still_serves_from_disk(tmp_path):
    store = PlanStore(str(tmp_path))
    cache = PersistentPlanCache(maxsize=1, store=store)
    cache.put(("a",), "plan-a")
    cache.put(("b",), "plan-b")              # evicts ("a",) from memory
    assert cache.info().evictions == 1
    assert cache.get(("a",)) == "plan-a"     # disk tier remembers
    assert cache.disk_hits == 1


def test_session_manager_uses_persistent_cache_when_policy_names_a_store(tmp_path):
    from repro.serve import ServerPolicy, SessionManager

    policy = ServerPolicy(plan_store_path=str(tmp_path / "plans"))
    manager = SessionManager(policy)
    try:
        assert isinstance(manager.plan_cache, PersistentPlanCache)
        assert manager.plan_cache.store is not None
        assert manager.plan_cache.store.path == str(tmp_path / "plans")
    finally:
        manager.shutdown()


def test_warm_restart_skips_compilation(tmp_path, monkeypatch):
    """The acceptance-criteria mechanism: a populated store means a fresh
    process (fresh memory tier) serves compiles from disk instead of calling
    compile_query."""
    from repro.serve import ServerPolicy, SessionManager

    numeric = numeric_schema()
    queries = [q for _, q, finite in ordered_query_corpus() if finite]
    state_rows = {"S": [(3,), (5,), (9,)]}

    policy = ServerPolicy(plan_store_path=str(tmp_path / "plans"))
    cold = SessionManager(policy)
    try:
        managed = cold.connect("nat<", numeric)
        state = managed.session.state(state_rows)
        for query in queries:
            cold.run_query(
                managed.session_id, query, state, strategy="vectorized"
            )
    finally:
        cold.shutdown()

    import repro.engine.plans as plans_module

    def forbidden_compile(*args, **kwargs):
        raise AssertionError("warm restart should not compile")

    warm = SessionManager(policy)  # fresh memory tier, same store directory
    try:
        monkeypatch.setattr(plans_module, "compile_query", forbidden_compile)
        managed = warm.connect("nat<", numeric)
        state = managed.session.state(state_rows)
        answers = [
            warm.run_query(managed.session_id, query, state, strategy="vectorized")
            for query in queries
        ]
        assert all(result.answer.rows() for result in answers)
        assert warm.plan_cache.disk_hits == len(queries)
    finally:
        warm.shutdown()
