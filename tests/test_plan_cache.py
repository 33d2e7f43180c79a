"""Tests for the LRU plan cache and the planner's compiled-backend selection."""

import gc
import traceback
import weakref

import pytest

from repro import Budget, connect
from repro.api import Planner
from repro.domains.equality import EqualityDomain
from repro.domains.nat_order import NaturalOrderDomain
from repro.domains.successor import SuccessorDomain
from repro.engine.plan_cache import PlanCache
from repro.engine.plans import (
    STRATEGIES,
    ActiveDomainPlan,
    CompiledAlgebraPlan,
    GuardedPlan,
    VectorizedAlgebraPlan,
)
from repro.domains import get_domain
from repro.experiments.corpora import (
    family_schema,
    family_state,
    numeric_schema,
    numeric_state,
)
from repro.logic.parser import parse_formula
from repro.relational.compile import CompilationError


# ---------------------------------------------------------------------------
# PlanCache mechanics
# ---------------------------------------------------------------------------


def test_cache_hits_and_misses_are_counted():
    cache = PlanCache(maxsize=4)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    info = cache.info()
    assert (info.hits, info.misses, info.size, info.maxsize) == (1, 1, 1, 4)
    assert "hits=1" in str(info)


def test_cache_evicts_least_recently_used():
    cache = PlanCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1        # refresh "a": now "b" is the LRU entry
    cache.put("c", 3)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.info().evictions == 1


def test_cache_maxsize_zero_disables_storage():
    cache = PlanCache(maxsize=0)
    cache.put("a", 1)
    assert len(cache) == 0 and cache.get("a") is None
    with pytest.raises(ValueError):
        PlanCache(maxsize=-1)


def test_cache_clear_keeps_counters():
    cache = PlanCache()
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.info().hits == 1


# ---------------------------------------------------------------------------
# Planner selection and the session-owned cache
# ---------------------------------------------------------------------------


def test_domain_capability_attributes():
    compiled = {
        name for name in ("eq", "presburger", "nat<", "integers", "zdiff",
                          "qlinear", "cyclic", "shortlex", "succ", "traces",
                          "reach")
        if get_domain(name).supports_compiled_algebra
    }
    # succ terms never compile, and the trace domains keep the tree walker.
    assert compiled == {
        "eq", "presburger", "nat<", "integers", "zdiff", "qlinear", "cyclic",
        "shortlex",
    }


def test_guard_certified_equality_queries_use_the_vectorized_backend():
    session = connect("eq", family_schema())
    plan = session.plan()
    assert isinstance(plan, GuardedPlan)
    # The vectorized plan is a CompiledAlgebraPlan: same calculus→algebra
    # compiler, different execution substrate.
    assert isinstance(plan.inner, VectorizedAlgebraPlan)
    assert isinstance(plan.inner, CompiledAlgebraPlan)
    state = family_state(generations=2)
    result = session.run("exists y. (F(x, y) & F(y, z))", state)
    assert result.answer.method == "vectorized"
    assert result.answer.rows() == tuple(sorted(
        (f, g) for f, m in state["F"] for m2, g in state["F"] if m == m2
    ))


def test_repeated_queries_hit_the_session_plan_cache():
    session = connect("eq", family_schema())
    state = family_state(generations=2)
    for _ in range(3):
        session.query("exists y. (F(x, y) & F(y, z))", state)
    info = session.plan_cache_info()
    assert info.misses == 1 and info.hits == 2 and info.size == 1
    # A different schema fingerprint can never reuse the entry.
    assert session.plan_cache is not connect("eq", family_schema()).plan_cache


def test_schema_fingerprint_separates_cache_entries():
    session = connect("eq", family_schema())
    state = family_state(generations=1)
    session.query("F(x, y)", state)
    other_schema = family_schema().extend([])  # equal schema -> same key
    session.query("F(x, y)", state)
    assert session.plan_cache_info().size == 1
    assert other_schema == family_schema()


def test_compiled_strategy_is_explicitly_requestable():
    assert "compiled" in STRATEGIES
    session = connect("eq", family_schema())
    plan = session.plan("compiled")
    assert isinstance(plan, CompiledAlgebraPlan)
    state = family_state(generations=1)
    answer = session.execute(plan, "F(x, y)", state)
    assert answer.method == "compiled-algebra"
    assert "compiled-algebra" in plan.explain()
    assert plan.last_summary is not None


def test_planner_builds_a_compiled_plan_without_a_cache():
    plan = Planner(EqualityDomain()).plan("compiled", Budget())
    assert isinstance(plan, CompiledAlgebraPlan)
    assert plan.cache is None


def test_unsupported_domains_keep_the_tree_walker_for_guarded_auto():
    # (N, ') has a guard but not the compiled backend: queries lean on succ
    # terms, so the planner keeps enumeration / tree walking.
    session = connect("succ")
    plan = session.plan()
    assert not isinstance(getattr(plan, "inner", plan), CompiledAlgebraPlan)


def test_fallback_reason_is_recorded_and_cleared():
    session = connect("succ", family_schema())
    plan = session.plan("compiled")
    state = session.state(F=[(0, 1)])
    session.execute(plan, "exists y. (F(x, y) & x = succ(y))", state)
    assert plan.fallback_reason is not None
    assert "fell back" in plan.explain()
    session.execute(plan, "F(x, y)", state)
    assert plan.fallback_reason is None


def test_cached_compilation_failure_keeps_no_state_alive():
    # A cached failure used to be one exception instance re-raised on every
    # hit: each raise grew its traceback by two frames, and those frames
    # kept every queried state alive.
    plan = CompiledAlgebraPlan(domain=SuccessorDomain(), cache=PlanCache())
    query = parse_formula("exists y. (S(y) & x = succ(y))")
    refs = []
    for values in ([1, 2], [2, 3], [3, 4]):
        state = numeric_state(values)
        assert plan.execute(query, state).method == "active-domain"
        refs.append(weakref.ref(state))
        del state
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    state = numeric_state([1, 2])
    depths = set()
    for _ in range(100):
        with pytest.raises(CompilationError) as excinfo:
            plan._compiled(query, state)
        depths.add(len(traceback.extract_tb(excinfo.value.__traceback__)))
    assert len(depths) == 1
    assert plan.cache.info().misses == 1  # the failure itself stays cached


def test_plan_cache_size_is_configurable_per_session():
    session = connect("eq", family_schema(), plan_cache_size=1)
    state = family_state(generations=1)
    session.query("F(x, y)", state)
    session.query("F(y, x)", state)
    session.query("F(x, y)", state)  # evicted, recompiled
    info = session.plan_cache_info()
    assert info.maxsize == 1 and info.evictions >= 1 and info.misses == 3


def test_active_domain_plan_and_compiled_plan_agree_under_extra_elements():
    domain = EqualityDomain()
    state = family_state(generations=2)
    from repro.logic.parser import parse_formula

    query = parse_formula("~F(x, y)")
    walker = ActiveDomainPlan(domain=domain, extra_elements=(99,))
    compiled = CompiledAlgebraPlan(domain=domain, extra_elements=(99,))
    assert walker.execute(query, state).rows() == compiled.execute(query, state).rows()


# ---------------------------------------------------------------------------
# hit_rate and shared-cache injection (the serving layer's additions)
# ---------------------------------------------------------------------------


def test_hit_rate_is_zero_before_any_lookup_and_tracks_the_fraction():
    cache = PlanCache(maxsize=4)
    assert cache.info().hit_rate == 0.0
    cache.get("a")            # miss
    cache.put("a", 1)
    cache.get("a")            # hit
    cache.get("a")            # hit
    info = cache.info()
    assert info.hit_rate == pytest.approx(2 / 3)
    assert "hit_rate=0.67" in str(info)


def test_sessions_accept_an_injected_shared_plan_cache():
    shared = PlanCache(maxsize=32)
    first = connect("eq", family_schema(), plan_cache=shared)
    second = connect("eq", family_schema(), plan_cache=shared)
    assert first.plan_cache is shared and second.plan_cache is shared
    state = family_state(generations=1)
    first.query("F(x, y)", state)
    before = shared.info().hits
    second.query("F(x, y)", state)    # compiled once, shared across sessions
    assert shared.info().hits == before + 1


# ---------------------------------------------------------------------------
# One in-memory tier: evictions and fresh caches recompile
# ---------------------------------------------------------------------------


def _counting_compiler(monkeypatch):
    """Wrap the plans module's compiler; the returned list logs each call."""
    import repro.engine.plans as plans_module

    calls = []
    real = plans_module.compile_query

    def counting(query, schema, domain):
        calls.append(query)
        return real(query, schema, domain)

    monkeypatch.setattr(plans_module, "compile_query", counting)
    return calls


def test_cache_put_replaces_an_entry_and_refreshes_its_recency():
    cache = PlanCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)                 # replace: "b" is now the LRU entry
    assert len(cache) == 2 and cache.info().evictions == 0
    cache.put("c", 3)
    assert cache.get("a") == 10
    assert "b" not in cache and cache.info().evictions == 1


def test_cache_keys_separate_domains_sharing_one_cache():
    from repro.domains.nat_order import NaturalOrderDomain

    shared = PlanCache(maxsize=8)
    state = numeric_state([1, 4])
    query = parse_formula("S(x)")
    for domain in (EqualityDomain(), NaturalOrderDomain()):
        plan = CompiledAlgebraPlan(domain=domain, cache=shared)
        assert plan.execute(query, state).rows() == ((1,), (4,))
    info = shared.info()
    assert (info.size, info.misses, info.hits) == (2, 2, 0)


def test_evicted_plan_is_recompiled_on_its_next_use(monkeypatch):
    calls = _counting_compiler(monkeypatch)
    plan = CompiledAlgebraPlan(domain=EqualityDomain(), cache=PlanCache(maxsize=1))
    state = numeric_state([2, 3])
    first, second = parse_formula("S(x)"), parse_formula("S(x) & ~(x = 2)")
    for query in (first, first, second, first):
        plan.execute(query, state)
    assert calls == [first, second, first]
    assert plan.cache.info().evictions == 2


def test_a_fresh_cache_recompiles_each_plan_on_first_use(monkeypatch):
    calls = _counting_compiler(monkeypatch)
    state = numeric_state([2, 3, 7])
    queries = [parse_formula(text) for text in ("S(x)", "S(x) & ~(x = 3)")]
    answers = []
    for _ in range(2):                 # two "processes", one cache each
        plan = CompiledAlgebraPlan(domain=EqualityDomain(), cache=PlanCache())
        for _ in range(3):
            answers.append([plan.execute(q, state).rows() for q in queries])
        info = plan.cache.info()
        assert (info.misses, info.hits) == (2, 4)
    assert len(calls) == 2 * len(queries)
    assert all(rows == answers[0] for rows in answers)


def test_cached_compilation_failure_is_shared_across_plans(monkeypatch):
    calls = _counting_compiler(monkeypatch)
    shared = PlanCache()
    query = parse_formula("exists y. (S(y) & x = succ(y))")
    state = numeric_state([1, 2])
    for _ in range(2):
        plan = CompiledAlgebraPlan(domain=SuccessorDomain(), cache=shared)
        answer = plan.execute(query, state)
        assert answer.method == "active-domain"
        assert answer.rows() == ((2,),)  # succ(1) inside the active domain
        assert plan.fallback_reason is not None
    assert calls == [query]            # compiled (and failed) exactly once
    assert (shared.info().misses, shared.info().hits) == (1, 1)


def test_cache_counters_stay_consistent_under_concurrent_use():
    import threading

    cache = PlanCache(maxsize=4)
    rounds, workers = 300, 4

    def worker(offset):
        for index in range(rounds):
            key = (offset + index) % 8
            if cache.get(key) is None:
                cache.put(key, key)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    info = cache.info()
    assert info.hits + info.misses == rounds * workers
    assert info.size == 4 <= info.misses
    # a racing double miss replaces its key instead of evicting another
    assert info.evictions <= info.misses - info.size


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
