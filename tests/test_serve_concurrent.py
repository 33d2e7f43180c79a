"""Concurrent execution equals serial execution, with every cache shared.

The serving layer's correctness claim: N worker threads running M sessions'
queries concurrently — all sessions sharing one plan cache and the encoded
columns of the states they query — produce exactly the answers a single-threaded
run produces.  The corpora are the experiment query corpora over their usual
states, so these are the same queries the rest of the suite already pins
ground truth for.
"""

import random
import threading

import pytest

from repro.engine.plan_cache import PlanCache
from repro.experiments.corpora import (
    family_schema,
    family_state,
    numeric_schema,
    numeric_state,
    ordered_query_corpus,
    span_query_corpus,
    span_schema,
    span_state,
)
from repro.serve.policy import ServerPolicy
from repro.serve.sessions import SessionManager


def workload():
    """(domain, schema, state, query, strategy) cases across three corpora."""
    cases = []
    numeric = numeric_state([3, 5, 9, 14])
    for name, query, finite in ordered_query_corpus():
        if finite:
            cases.append(("nat<", numeric_schema(), numeric, query, "vectorized"))
    span = span_state([2, 6, 11], [(1, 5), (8, 12)])
    for name, query, finite in span_query_corpus():
        if finite:
            cases.append(("nat<", span_schema(), span, query, "vectorized"))
    family = family_state(generations=3)
    cases.append(("equality", family_schema(), family,
                  "exists y. (F(x, y) & F(y, z))", "auto"))
    cases.append(("equality", family_schema(), family,
                  "exists z. (F(y, z) & F(z, x))", "auto"))
    return cases


def serial_answers(cases):
    """Ground truth: one fresh manager, one query at a time."""
    manager = SessionManager(ServerPolicy())
    try:
        answers = []
        for domain, schema, state, query, strategy in cases:
            managed = manager.connect(domain, schema)
            result = manager.run_query(
                managed.session_id, query, state, strategy=strategy
            )
            answers.append(result.answer.rows())
        return answers
    finally:
        manager.shutdown()


@pytest.mark.parametrize("threads,sessions", [(4, 2), (8, 5)])
def test_concurrent_sessions_match_serial_answers(threads, sessions):
    cases = workload()
    expected = serial_answers(cases)

    manager = SessionManager(
        ServerPolicy(workers=threads, max_sessions=sessions * len(cases))
    )
    try:
        # M sessions per case, every query repeated once per session — all
        # in flight at once on the manager's pool.
        jobs = []
        for case_index, (domain, schema, state, query, strategy) in enumerate(cases):
            for _ in range(sessions):
                managed = manager.connect(domain, schema)
                jobs.append((case_index, managed.session_id, query, state, strategy))
        random.Random(1729).shuffle(jobs)

        futures = [
            (case_index,
             manager.submit_query(session_id, query, state, strategy=strategy))
            for case_index, session_id, query, state, strategy in jobs
        ]
        for case_index, future in futures:
            assert future.result(timeout=120).answer.rows() == expected[case_index]

        # the shared plan cache did its job: far fewer compiles than queries.
        # Two sessions can race to first-compile the same key (both miss,
        # both compile, the second put is idempotent), so allow one extra
        # miss per distinct plan rather than demanding a perfect count.
        info = manager.plan_cache.info()
        assert info.hits + info.misses >= len(jobs)
        assert info.misses <= 2 * len(cases)
        assert info.size <= len(cases)
    finally:
        manager.shutdown()


def test_concurrent_runs_share_the_encoded_columns():
    from repro.relational.columnar import HAVE_NUMPY, encode_cache_info

    if not HAVE_NUMPY:
        pytest.skip("encode cache is only exercised by the vectorized substrate")
    state = numeric_state([1, 2, 3, 4, 5])
    manager = SessionManager(ServerPolicy(workers=4))
    try:
        before = encode_cache_info()
        session_ids = [
            manager.connect("nat<", numeric_schema()).session_id for _ in range(4)
        ]
        futures = [
            manager.submit_query(session_id, "S(x)", state, strategy="vectorized")
            for session_id in session_ids
            for _ in range(3)
        ]
        for future in futures:
            assert future.result(timeout=120).answer.rows() == (
                (1,), (2,), (3,), (4,), (5,))
        after = encode_cache_info()
        # 12 vectorized runs over one state object: at most a couple of
        # misses (racy first fills), everything else hits the state's columns
        assert after.hits - before.hits >= 8
    finally:
        manager.shutdown()


def test_plan_cache_is_safe_under_concurrent_hammering():
    cache = PlanCache(maxsize=16)
    errors = []
    barrier = threading.Barrier(8)

    def hammer(seed):
        rng = random.Random(seed)
        barrier.wait()
        try:
            for _ in range(2000):
                key = ("k", rng.randrange(48))
                if cache.get(key) is None:
                    cache.put(key, key)
                if rng.random() < 0.01:
                    cache.info()
        except BaseException as error:  # pragma: no cover - the failure path
            errors.append(error)

    workers = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not errors
    info = cache.info()
    assert info.size <= info.maxsize
    # each of the 8 × 2000 iterations performs exactly one lookup; a torn
    # counter update under contention would break this equality
    assert info.hits + info.misses == 8 * 2000
    assert info.misses >= info.size  # every resident entry was once a miss
