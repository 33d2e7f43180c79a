"""Incremental-evaluation benchmark: repeat queries after a small delta.

The write-path scenario the incremental substrate exists for: a session has
already answered a query, the state then changes by ``k`` rows through
:meth:`DatabaseState.apply`, and the same query is asked again.  With an
:class:`~repro.engine.answer_cache.AnswerCache` the repeat answer is patched
by the ΔQ rules of :mod:`repro.relational.delta` at O(Δ · answer) cost; the
baseline re-executes the compiled plan from scratch against the mutated
state.

Two benchmarks (the rest of the suite lives in ``bench_perf_substrates.py``):

* repeat-query-after-k-row-delta: the paper's grandfather and
  more-than-one-son queries over growing family trees, an 8-row insert-only
  delta over *existing* person ids (so the active domain is unchanged and
  every node patches instead of recomputing), asserting the delta-maintained
  repeat answer beats full compiled re-execution by ≥5× at the largest size
  (gated ratio ``speedup_delta_repeat``) and that the answer cache really
  reported ``delta-maintained`` — a silent fall back to full recompute would
  otherwise time two identical code paths.

* guarded-repeat-after-k-row-delta: the same delta and queries through the
  default path — an ``incremental=True`` :class:`~repro.api.Session` running
  ``strategy="auto"`` against a plain session running ``"auto"`` — at the
  largest size.  The equality guard and the answer share one evaluation,
  so the answer cache maintains both; the ratio is reported as
  ``guarded_delta_repeat_ratio`` (not gated).

Each timed round gets a fresh answer cache warmed on the *base* state in
untimed setup: after one maintained execution the cache is stamped with the
mutated fingerprint and repeat calls would be O(answer) cache *hits*, which
is the wrong (too fast) path to gate.
"""

import time

import pytest

from repro.api import Session
from repro.domains.equality import EqualityDomain
from repro.engine.answer_cache import AnswerCache
from repro.engine.plans import IncrementalAlgebraPlan
from repro.experiments.corpora import family_schema, family_state
from repro.experiments.exp01_intro_queries import (
    grandfather_query,
    more_than_one_son_query,
)
from repro.relational.compile import compile_query
from repro.relational.state import Delta

#: family-tree sizes (62 / 254 / 1022 rows); the last one is where the
#: ISSUE's ≥5× delta-repeat acceptance criterion is checked
_GENERATIONS = (5, 7, 9)

#: rows in the insert-only delta — "k" in repeat-query-after-k-row-delta
_DELTA_ROWS = 8


def _insert_only_delta(state, k=_DELTA_ROWS):
    """``k`` new father→son rows pairing up *existing* leaf ids.

    Leaves only ever appear as sons, so every row is genuinely new (it
    changes both query answers), yet no new element enters the active
    domain — the ΔQ rules can patch every operator instead of recomputing
    the adom-dependent ones.
    """
    fathers = {f for f, _s in state.relations["F"].rows}
    leaves = sorted(
        {s for _f, s in state.relations["F"].rows if s not in fathers}
    )
    pairs = [
        (leaves[2 * i], leaves[2 * i + 1]) for i in range(k)
    ]
    return Delta.insert("F", *pairs)


@pytest.mark.parametrize("generations", _GENERATIONS)
def test_perf_incremental_delta_repeat(benchmark, generations):
    """Delta-maintained repeat answers vs full compiled re-execution after
    an 8-row insert: the incremental path must win by ≥5× at the largest
    size."""
    domain = EqualityDomain()
    state = family_state(generations=generations, sons_per_father=2)
    delta = _insert_only_delta(state)
    mutated = state.apply(delta)
    queries = [more_than_one_son_query(), grandfather_query()]
    compiled = [compile_query(q, state.schema, domain) for q in queries]

    def fresh_warm_plan():
        # A fresh cache materialised on the *base* state, so the timed call
        # below exercises the ΔQ maintenance path (not a fingerprint hit).
        plan = IncrementalAlgebraPlan(domain=domain, answer_cache=AnswerCache())
        for query in queries:
            plan.execute(query, state)
        return (plan,), {}

    def run_repeat(plan):
        return [plan.execute(query, mutated) for query in queries]

    fast = benchmark.pedantic(
        run_repeat, setup=fresh_warm_plan, iterations=1, rounds=5
    )
    plan = IncrementalAlgebraPlan(domain=domain, answer_cache=AnswerCache())
    for query in queries:
        plan.execute(query, state)
        plan.execute(query, mutated)
        assert "delta-maintained" in (plan.last_decision or ""), plan.last_decision
    # Min of three runs: the speedup ratio feeds the dimensionless CI gate,
    # so the slow side needs some protection against one-off stalls too.
    full_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        full = [c.execute(mutated, domain) for c in compiled]
        full_seconds = min(full_seconds, time.perf_counter() - started)
    for fast_answer, full_answer in zip(fast, full):
        assert fast_answer.relation.rows == full_answer.rows
    assert fast[1].relation.rows - compiled[1].execute(state, domain).rows
    incremental_seconds = benchmark.stats.stats.min
    speedup = full_seconds / incremental_seconds
    benchmark.extra_info["rows"] = state.total_rows()
    benchmark.extra_info["delta_rows"] = delta.row_count()
    benchmark.extra_info["full_seconds"] = full_seconds
    benchmark.extra_info["speedup_delta_repeat"] = speedup
    print(
        f"\n[incremental] rows={state.total_rows()} delta={delta.row_count()} "
        f"full={full_seconds:.5f}s maintained={incremental_seconds:.5f}s "
        f"speedup={speedup:.1f}x"
    )
    if generations == _GENERATIONS[-1]:
        assert speedup >= 5.0, (
            f"delta-maintained repeat answer only {speedup:.1f}x faster than "
            f"full re-execution at {state.total_rows()} rows; the ISSUE "
            "requires >=5x"
        )


def test_perf_guarded_delta_repeat(benchmark):
    """The default guarded path after the same 8-row insert: an incremental
    session's repeat answers vs a plain session's, both ``strategy="auto"``."""
    state = family_state(generations=_GENERATIONS[-1], sons_per_father=2)
    mutated = state.apply(_insert_only_delta(state))
    queries = [more_than_one_son_query(), grandfather_query()]

    def fresh_warm_session():
        session = Session("equality", family_schema(), incremental=True)
        for query in queries:
            session.run(query, state)
        return (session,), {}

    def run_repeat(session):
        return [session.run(query, mutated) for query in queries]

    fast = benchmark.pedantic(
        run_repeat, setup=fresh_warm_session, iterations=1, rounds=5
    )
    for result in fast:
        assert "delta-maintained" in result.plan.explain(), result.plan.explain()
    plain = Session("equality", family_schema())
    full = [plain.run(query, mutated) for query in queries]  # warm caches
    full_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        full = [plain.run(query, mutated) for query in queries]
        full_seconds = min(full_seconds, time.perf_counter() - started)
    for fast_result, full_result in zip(fast, full):
        assert fast_result.answer.rows() == full_result.answer.rows()
        assert fast_result.verdict == full_result.verdict
    ratio = full_seconds / benchmark.stats.stats.min
    benchmark.extra_info["rows"] = state.total_rows()
    benchmark.extra_info["full_seconds"] = full_seconds
    benchmark.extra_info["guarded_delta_repeat_ratio"] = ratio
    print(
        f"\n[incremental, guarded auto] rows={state.total_rows()} "
        f"full={full_seconds:.5f}s maintained={benchmark.stats.stats.min:.5f}s "
        f"ratio={ratio:.1f}x"
    )
