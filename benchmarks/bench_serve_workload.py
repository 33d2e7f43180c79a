"""Serving-workload benchmarks: zipfian query mix, tail latency, deadlines.

Not in the paper — these gate the :mod:`repro.serve` subsystem:

* **zipfian plan-cache hit rate** — a realistic serving mix (few hot
  queries, a long tail) over several sessions sharing one plan cache must
  keep the hit rate ≥ 0.9; p50/p99 request latency is recorded alongside;
* **deadline-checkpoint overhead** — an armed but generous deadline must
  cost < 5% over none.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.experiments.corpora import (
    numeric_schema,
    numeric_state,
    ordered_query_corpus,
    span_query_corpus,
    span_schema,
    span_state,
)
from repro.logic.parser import parse_formula
from repro.serve.policy import ServerPolicy
from repro.serve.sessions import SessionManager

# ---------------------------------------------------------------------------
# The zipfian serving mix
# ---------------------------------------------------------------------------


def query_pool():
    """~24 distinct finite queries over (N, <): corpora + parameterized tail.

    The parameterized variants differ only in an embedded constant, so each
    is a *distinct* formula with its own compiled plan — the long tail a
    plan cache has to absorb.
    """
    pool = [
        (numeric_schema(), query)
        for _, query, finite in ordered_query_corpus()
        if finite
    ]
    pool.extend(
        (span_schema(), query)
        for _, query, finite in span_query_corpus()
        if finite
    )
    for constant in range(5, 20):
        pool.append((
            numeric_schema(),
            parse_formula(f"S(x) & x < {constant}"),
        ))
    return pool


def zipf_indices(rng: random.Random, n: int, count: int, s: float = 1.1):
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    return rng.choices(range(n), weights=weights, k=count)


REQUESTS = 480
SESSIONS = 8


@pytest.mark.benchmark(group="serve-workload")
def test_serve_zipfian_plan_cache_hit_rate(benchmark):
    """A zipfian mix over 8 sessions keeps the shared-plan-cache hit rate ≥ 0.9."""
    pool = query_pool()
    rng = random.Random(20260808)
    picks = zipf_indices(rng, len(pool), REQUESTS)

    def run_workload():
        # Fresh states every round: their encoded columns live on them, so
        # each round starts cold.
        states = {
            numeric_schema(): numeric_state([3, 5, 9, 14, 21]),
            span_schema(): span_state(
                [2, 6, 11, 17], [(1, 5), (8, 12), (15, 19)]
            ),
        }
        # 8 client slots × one session per schema flavour = 16 live sessions
        manager = SessionManager(ServerPolicy(max_sessions=2 * SESSIONS))
        latencies = []
        try:
            sessions = [
                {
                    schema: manager.connect("nat<", schema).session_id
                    for schema in states
                }
                for _ in range(SESSIONS)
            ]
            for request_number, pick in enumerate(picks):
                schema, query = pool[pick]
                session_id = sessions[request_number % SESSIONS][schema]
                started = time.perf_counter()
                result = manager.run_query(
                    session_id, query, states[schema], strategy="vectorized"
                )
                latencies.append(time.perf_counter() - started)
                assert result.answer.is_finite
            return manager.plan_cache.info(), latencies
        finally:
            manager.shutdown()

    info, latencies = benchmark.pedantic(run_workload, iterations=1, rounds=3)
    hit_rate = info.hit_rate
    ordered = sorted(latencies)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]

    benchmark.extra_info["requests"] = REQUESTS
    benchmark.extra_info["distinct_queries"] = len(query_pool())
    benchmark.extra_info["plan_cache_hit_rate"] = round(hit_rate, 4)
    benchmark.extra_info["p50_ms"] = round(p50 * 1000, 3)
    benchmark.extra_info["p99_ms"] = round(p99 * 1000, 3)

    # the serving claim: repeat queries are answered without recompilation
    assert hit_rate >= 0.9, f"plan-cache hit rate {hit_rate:.3f} < 0.9"
    assert info.misses <= len(query_pool())


# ---------------------------------------------------------------------------
# Deadline-checkpoint overhead
# ---------------------------------------------------------------------------


def _deadline_workload():
    """A join-heavy fixture where per-operator checkpoints would show up."""
    from repro.api import Session
    from repro.relational.schema import DatabaseSchema, RelationSchema

    schema = DatabaseSchema((RelationSchema("F", 2),))
    session = Session("nat<", schema)
    rows = 12_000
    state = session.state(F=[(i, (i * 7) % rows) for i in range(rows)])
    query = "exists u. exists v. (F(x, u) & F(u, v) & F(v, z))"
    return session, state, query


@pytest.mark.benchmark(group="serve-workload")
def test_deadline_checkpoint_overhead(benchmark):
    """An armed (but generous) deadline costs < 5% over no deadline at all.

    Without a time limit or cancel token the plans skip instrumentation
    entirely (``_start_deadline()`` returns ``None``); with a generous limit
    every operator ticks its strided checkpoint.  The serving layer arms a
    deadline on *every* request, so this overhead is always on the hot path.
    """
    from repro import Budget

    session, state, query = _deadline_workload()

    def run_once(budget):
        started = time.perf_counter()
        result = session.run(query, state, strategy="compiled", budget=budget)
        assert result.answer.is_finite
        return time.perf_counter() - started

    run_once(Budget())  # prime caches so neither side pays warm-up

    # Adjacent (unarmed, armed) pairs, then the median of their ratios:
    # clock-speed drift over the measurement window cancels within a pair,
    # and the median discards the odd GC/scheduler outlier that a min-of-N
    # comparison across sides would let decide the gate.
    def measure_batch(pairs=7):
        ratios, best = [], (float("inf"), float("inf"))
        for _ in range(pairs):
            unarmed_s = run_once(Budget())
            armed_s = run_once(Budget(time_limit=3600.0))
            best = (min(best[0], unarmed_s), min(best[1], armed_s))
            ratios.append(armed_s / unarmed_s)
        return sorted(ratios)[len(ratios) // 2], best

    # A noisy neighbour can inflate one batch; genuine checkpoint overhead
    # inflates every batch. Gate on the best median of (up to) two.
    overhead, (unarmed, armed) = measure_batch()
    if overhead > 1.05:
        retry, (retry_unarmed, retry_armed) = measure_batch()
        if retry < overhead:
            overhead = retry
            unarmed, armed = retry_unarmed, retry_armed

    benchmark.pedantic(
        lambda: run_once(Budget(time_limit=3600.0)), iterations=1, rounds=3
    )

    benchmark.extra_info["unarmed_ms"] = round(unarmed * 1000, 3)
    benchmark.extra_info["armed_ms"] = round(armed * 1000, 3)
    # dimensionless, gated by compare_bench like the other speedup* ratios
    benchmark.extra_info["speedup_deadline_unarmed"] = round(overhead, 4)

    assert overhead <= 1.05, (
        f"deadline checkpoints cost {100 * (overhead - 1):.1f}% "
        f"(best batch median of interleaved armed/unarmed pairs)"
    )
