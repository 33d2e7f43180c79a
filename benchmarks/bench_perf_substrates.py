"""Performance benchmarks for the substrates (not in the paper; support E2/E4/E7/E10).

These characterise how the decision procedures and simulators scale:

* Cooper quantifier elimination vs quantifier depth;
* successor-domain quantifier elimination vs formula size;
* Reach-theory sentence decision;
* trace generation vs number of snapshots;
* query answering by enumeration vs database size;
* relational algebra joins vs relation size;
* the compiled relational-algebra backend vs the tree-walking evaluator on
  guard-certified queries (the CI regression gate watches this one);
* the three execution substrates (tree walker / compiled set executor /
  vectorized NumPy columnar executor) head-to-head on int-domain states,
  asserting the vectorized path wins at the largest size;
* the plan optimizer's blowup guard: the "strictly between two members"
  query at growing adom sizes, asserting the optimized plan's peak
  intermediate row count stays O(answer) (no |adom|^2 materialisation), a
  ≥10× speedup over the unoptimized plan at the largest size, and encode
  reuse on repeated vectorized executions against an unchanged state;
* the union-of-intervals guard: the both-sided-witness query must compile
  to an ``IntervalUnionScan`` with O(answer) peak rows and beat the
  unoptimized plan;
* enumeration candidate generation: the compiled-superset generator must
  decision-test candidate counts bounded by the compiled answer, not
  ``max_candidates`` (deterministic gated ratio
  ``speedup_enumeration_candidates``).
"""

import time

import pytest

from repro.domains.equality import EqualityDomain
from repro.domains.presburger import PresburgerDomain
from repro.domains.reach_traces import ReachTracesDomain
from repro.domains.successor import SuccessorDomain, eliminate_successor_quantifiers
from repro.engine.enumeration import answer_by_enumeration
from repro.experiments.corpora import (
    family_state,
    numeric_schema,
    numeric_state,
    ordered_query_corpus,
)
from repro.experiments.exp01_intro_queries import (
    grandfather_query,
    more_than_one_son_query,
)
from repro.logic.builders import atom, conj, exists, forall, var
from repro.logic.parser import parse_formula
from repro.relational.algebra import BaseRelation, NaturalJoin, Rename, evaluate_algebra
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.compile import compile_query
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState
from repro.turing.builders import loop_forever, unary_eraser
from repro.turing.encoding import encode_machine
from repro.turing.traces import trace_of


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_perf_cooper_elimination_vs_depth(benchmark, depth):
    """Cooper's decision procedure on alternating-quantifier Presburger sentences."""
    domain = PresburgerDomain()
    body = "x0 < x1 + 3"
    text = body
    for level in range(depth):
        quantifier = "forall" if level % 2 else "exists"
        text = f"{quantifier} x{level}. ({text})"
    text = f"forall x{depth}. exists x0. ({text.replace('x1', f'x{depth}')})"
    sentence = parse_formula(text)
    result = benchmark(domain.decide, sentence)
    assert result in (True, False)


@pytest.mark.parametrize("width", [2, 4, 8])
def test_perf_successor_elimination_vs_width(benchmark, width):
    """Successor-domain QE on conjunctions of growing width."""
    literals = [parse_formula(f"succ(x) = y{i}") for i in range(width)]
    formula = exists("x", conj(*literals))
    eliminated = benchmark(eliminate_successor_quantifiers, formula)
    assert eliminated is not None


@pytest.mark.parametrize("count", [1, 2])
def test_perf_reach_theory_decision(benchmark, count):
    """Deciding Reach-theory sentences with nested quantifiers."""
    domain = ReachTracesDomain()
    eraser = encode_machine(unary_eraser())
    text = f"forall z. (W(z) -> exists x. P('{eraser}', z, x))"
    expected = True
    if count == 2:
        # the eraser halts immediately on words starting with a blank, so it
        # does NOT have two distinct traces on every input word
        text = (
            f"forall z. (W(z) -> exists x. exists y. "
            f"(P('{eraser}', z, x) & P('{eraser}', z, y) & x != y))"
        )
        expected = False
    sentence = parse_formula(text)
    assert benchmark(domain.decide, sentence) is expected


@pytest.mark.parametrize("snapshots", [10, 100, 500])
def test_perf_trace_generation(benchmark, snapshots):
    """Generating long traces of a diverging machine."""
    looper = encode_machine(loop_forever())
    trace = benchmark(trace_of, looper, "111", snapshots)
    assert trace is not None


@pytest.mark.parametrize("size", [4, 8])
def test_perf_enumeration_answering_vs_state_size(benchmark, size):
    """The Section 1.1 algorithm on growing states of (N, <)."""
    domain = PresburgerDomain()
    state = numeric_state([2 * i + 1 for i in range(size)])
    query = exists("y", conj(atom("S", var("y")), atom("<", var("x"), var("y"))))
    answer = benchmark.pedantic(
        answer_by_enumeration, args=(query, state, domain),
        kwargs={"max_rows": 100, "max_candidates": 300}, iterations=1, rounds=3,
    )
    assert len(answer.relation) == 2 * size - 1


#: family-tree sizes for the substrate comparison; the last one is the
#: "largest state" the ISSUE's ≥5× acceptance criterion is checked at
_GENERATIONS = (3, 4, 5)


@pytest.mark.parametrize("generations", _GENERATIONS)
def test_perf_compiled_algebra_vs_tree_walk(benchmark, generations):
    """Guard-certified queries: compiled set-at-a-time execution must beat
    tuple-at-a-time tree walking by ≥5× on the largest state."""
    domain = EqualityDomain()
    state = family_state(generations=generations, sons_per_father=2)
    queries = [more_than_one_son_query(), grandfather_query()]
    compiled = [compile_query(q, state.schema, domain) for q in queries]

    def run_compiled():
        return [c.execute(state, domain) for c in compiled]

    def run_tree_walk():
        return [
            evaluate_query_active_domain(q, state, interpretation=domain)
            for q in queries
        ]

    fast = benchmark.pedantic(run_compiled, iterations=3, rounds=3)
    # Min of two runs: the speedup ratio feeds the dimensionless CI gate, so
    # the slow side needs some protection against one-off stalls too.
    tree_walk_seconds = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        slow = run_tree_walk()
        tree_walk_seconds = min(tree_walk_seconds, time.perf_counter() - started)
    for fast_answer, slow_answer in zip(fast, slow):
        assert fast_answer.rows == slow_answer.rows
    compiled_seconds = benchmark.stats.stats.min
    speedup = tree_walk_seconds / compiled_seconds
    benchmark.extra_info["rows"] = state.total_rows()
    benchmark.extra_info["tree_walk_seconds"] = tree_walk_seconds
    benchmark.extra_info["speedup_vs_tree_walk"] = speedup
    print(
        f"\n[substrates] rows={state.total_rows()} "
        f"tree-walk={tree_walk_seconds:.4f}s compiled={compiled_seconds:.5f}s "
        f"speedup={speedup:.1f}x"
    )
    if generations == _GENERATIONS[-1]:
        assert speedup >= 5.0, (
            f"compiled backend only {speedup:.1f}x faster than tree walking "
            f"at {state.total_rows()} rows; the ISSUE requires >=5x"
        )


#: int-domain state sizes for the substrate comparison; the last one is
#: where the ISSUE's ≥3× vectorized-vs-compiled criterion is checked
_INT_SIZES = (64, 256, 1024)


@pytest.mark.parametrize("size", _INT_SIZES)
def test_perf_vectorized_four_way(benchmark, size):
    """Tree walker vs compiled set executor vs vectorized columnar executor
    on ``(N, <)``-style queries over growing integer states: the vectorized
    path must beat the compiled set executor by ≥3× at the largest size.
    (The name predates the comparison's three arms; it keeps the benchmark
    matched to its ``BENCH_baseline.json`` entry and gated ratio.)"""
    from repro.relational.columnar import run_plan_vectorized

    domain = PresburgerDomain()
    state = numeric_state([3 * i + 1 for i in range(size)])
    corpus = {name: query for name, query, _finite in ordered_query_corpus()}
    queries = [corpus["members"], corpus["below-member"]]
    # Pin the *unoptimized* plans: the optimizer collapses these queries to
    # range scans on which both executors tie in microseconds, and this
    # benchmark exists to compare the two executors' kernels on identical
    # pad/filter-shaped plans (the blowup-guard benchmark below covers the
    # optimizer itself).
    compiled = [
        compile_query(q, state.schema, domain, optimize=False) for q in queries
    ]

    def run_vectorized():
        return [
            run_plan_vectorized(c.plan, state, c.universe(state), domain)
            for c in compiled
        ]

    run_vectorized()  # warm numpy's lazy imports before timing
    fast = benchmark.pedantic(run_vectorized, iterations=3, rounds=3)
    # Min of three runs: speedup_vs_set feeds the dimensionless CI gate.
    set_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        set_answers = [c.execute(state, domain) for c in compiled]
        set_seconds = min(set_seconds, time.perf_counter() - started)
    started = time.perf_counter()
    tree_answers = [
        evaluate_query_active_domain(q, state, interpretation=domain)
        for q in queries
    ]
    tree_walk_seconds = time.perf_counter() - started
    for vec_rows, set_answer, tree_answer in zip(fast, set_answers, tree_answers):
        assert vec_rows == set_answer.rows == tree_answer.rows
    vectorized_seconds = benchmark.stats.stats.min
    speedup_vs_set = set_seconds / vectorized_seconds
    benchmark.extra_info["rows"] = state.total_rows()
    benchmark.extra_info["set_seconds"] = set_seconds
    benchmark.extra_info["tree_walk_seconds"] = tree_walk_seconds
    benchmark.extra_info["speedup_vs_set"] = speedup_vs_set
    print(
        f"\n[substrates] size={size} tree-walk={tree_walk_seconds:.4f}s "
        f"set={set_seconds:.4f}s vectorized={vectorized_seconds:.5f}s "
        f"vectorized-vs-set={speedup_vs_set:.1f}x"
    )
    if size == _INT_SIZES[-1]:
        assert speedup_vs_set >= 3.0, (
            f"vectorized executor only {speedup_vs_set:.1f}x faster than the "
            f"compiled set executor at {size} stored ints; the ISSUE "
            "requires >=3x"
        )


#: adom sizes for the between-query blowup guard; the last one is where the
#: ISSUE's ≥10× optimized-vs-unoptimized criterion is checked
_BETWEEN_SIZES = (16, 32, 64)


@pytest.mark.parametrize("size", _BETWEEN_SIZES)
def test_perf_between_query_blowup_guard(benchmark, size):
    """The pad-before-filter blowup guard: "strictly between two members" on
    ``(N, <)`` must scale near-linearly in |adom| under the plan optimizer
    (peak intermediate rows O(answer), not |adom|^2 · |adom|), beat the
    unoptimized plan by ≥10× at the largest size, and skip re-encoding on
    repeated vectorized executions of an unchanged state."""
    from repro.domains.nat_order import NaturalOrderDomain
    from repro.relational.columnar import EncodeCache, run_plan_vectorized
    from repro.relational.exec import ExecutionStats, run_plan

    domain = NaturalOrderDomain()
    state = numeric_state([3 * i + 1 for i in range(size)])
    corpus = {name: query for name, query, _finite in ordered_query_corpus()}
    between = corpus["strictly-between-members"]
    optimized = compile_query(between, state.schema, domain)
    unoptimized = compile_query(between, state.schema, domain, optimize=False)
    adom = optimized.universe(state)

    def run_optimized():
        return run_plan(optimized.plan, state, adom, domain)

    fast = benchmark.pedantic(run_optimized, iterations=3, rounds=3)
    # Min of three runs: the recorded speedup ratio feeds the dimensionless
    # CI gate, so both sides need the same protection against one-off stalls.
    unoptimized_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        slow = run_plan(unoptimized.plan, state, adom, domain)
        unoptimized_seconds = min(
            unoptimized_seconds, time.perf_counter() - started
        )
        assert fast == slow

    # Deterministic near-linearity: the optimized plan's largest intermediate
    # stays O(answer + |adom|) while the unoptimized one materialises the
    # cross product of the two scans and its adom pad.
    optimized_stats = ExecutionStats()
    run_plan(optimized.plan, state, adom, domain, optimized_stats)
    unoptimized_stats = ExecutionStats()
    run_plan(unoptimized.plan, state, adom, domain, unoptimized_stats)
    assert optimized_stats.peak_rows <= 2 * (len(adom) + len(fast))
    assert unoptimized_stats.peak_rows >= size * size

    # Encode amortisation: a second vectorized run of the unchanged state
    # must hit the per-state cache instead of re-encoding the relations.
    cache = EncodeCache(maxsize=4)
    first = run_plan_vectorized(optimized.plan, state, adom, domain, cache=cache)
    second = run_plan_vectorized(optimized.plan, state, adom, domain, cache=cache)
    assert first == second == fast
    assert cache.info().misses == 1 and cache.info().hits >= 1

    optimized_seconds = benchmark.stats.stats.min
    speedup = unoptimized_seconds / optimized_seconds
    benchmark.extra_info["adom"] = len(adom)
    benchmark.extra_info["unoptimized_seconds"] = unoptimized_seconds
    benchmark.extra_info["peak_rows"] = optimized_stats.peak_rows
    benchmark.extra_info["unoptimized_peak_rows"] = unoptimized_stats.peak_rows
    benchmark.extra_info["speedup_vs_unoptimized"] = speedup
    print(
        f"\n[blowup-guard] adom={len(adom)} "
        f"unoptimized={unoptimized_seconds:.4f}s "
        f"optimized={optimized_seconds:.6f}s speedup={speedup:.0f}x "
        f"peak-rows {unoptimized_stats.peak_rows}->{optimized_stats.peak_rows}"
    )
    if size == _BETWEEN_SIZES[-1]:
        assert speedup >= 10.0, (
            f"optimized between-query only {speedup:.1f}x faster than the "
            f"unoptimized plan at |adom|={len(adom)}; the ISSUE requires >=10x"
        )


@pytest.mark.parametrize("spans", [32, 64])
def test_perf_interval_union_scan_guard(benchmark, spans):
    """The union-of-intervals reduction: the both-sided-witness query
    compiles to an ``IntervalUnionScan`` (no ``IntervalJoin`` fallback) whose
    peak intermediate rows stay O(answer)."""
    from repro.domains.nat_order import NaturalOrderDomain
    from repro.experiments.corpora import span_query_corpus, span_state
    from repro.relational.exec import (
        ExecutionStats,
        IntervalJoin,
        IntervalUnionScan,
        run_plan,
        walk_plan,
    )

    domain = NaturalOrderDomain()
    state = span_state([], [(3 * i, 3 * i + 8) for i in range(spans)])
    covered = span_query_corpus()[0][1]
    optimized = compile_query(covered, state.schema, domain)
    kinds = [type(node) for node in walk_plan(optimized.plan)]
    assert IntervalUnionScan in kinds and IntervalJoin not in kinds
    unoptimized = compile_query(covered, state.schema, domain, optimize=False)
    adom = optimized.universe(state)

    def run_optimized():
        return run_plan(optimized.plan, state, adom, domain)

    fast = benchmark.pedantic(run_optimized, iterations=3, rounds=3)
    unoptimized_seconds = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        slow = run_plan(unoptimized.plan, state, adom, domain)
        unoptimized_seconds = min(
            unoptimized_seconds, time.perf_counter() - started
        )
        assert fast == slow
    optimized_stats = ExecutionStats()
    run_plan(optimized.plan, state, adom, domain, optimized_stats)
    naive_stats = ExecutionStats()
    run_plan(unoptimized.plan, state, adom, domain, naive_stats)
    assert optimized_stats.peak_rows <= len(fast) + spans
    assert naive_stats.peak_rows >= spans * len(adom) / 2
    speedup = unoptimized_seconds / benchmark.stats.stats.min
    benchmark.extra_info["adom"] = len(adom)
    benchmark.extra_info["peak_rows"] = optimized_stats.peak_rows
    benchmark.extra_info["unoptimized_peak_rows"] = naive_stats.peak_rows
    benchmark.extra_info["speedup_union_vs_unoptimized"] = speedup
    print(
        f"\n[union-scan] spans={spans} unoptimized={unoptimized_seconds:.4f}s "
        f"optimized={benchmark.stats.stats.min:.5f}s speedup={speedup:.0f}x "
        f"peak-rows {naive_stats.peak_rows}->{optimized_stats.peak_rows}"
    )


@pytest.mark.parametrize("size", [8, 16])
def test_perf_enumeration_compiled_candidates(benchmark, size):
    """Enumeration-path compilation: the compiled-superset candidate
    generator must decision-test a candidate count bounded by the compiled
    answer, where the blind dovetail re-tests every carrier prefix per
    round.  The recorded ratio is a deterministic candidate-count ratio, so
    the CI gate on it is noise-free."""
    from repro.engine.enumeration import CandidateStats

    domain = PresburgerDomain()
    state = numeric_state([3 * i + 1 for i in range(size)])
    members = atom("S", var("x"))

    def run_compiled_candidates():
        stats = CandidateStats()
        answer = answer_by_enumeration(
            members, state, domain, max_rows=200, max_candidates=10_000,
            stats=stats,
        )
        return answer, stats

    (answer, stats) = benchmark.pedantic(
        run_compiled_candidates, iterations=1, rounds=3
    )
    assert len(answer.relation) == size
    assert stats.generator == "compiled+dovetail"
    assert stats.compiled_rows == size
    assert stats.examined <= size + 1  # bounded by the compiled superset
    legacy = CandidateStats()
    same = answer_by_enumeration(
        members, state, domain, max_rows=200, max_candidates=10_000,
        candidate_source="dovetail", stats=legacy,
    )
    assert same.relation.rows == answer.relation.rows
    ratio = legacy.examined / max(1, stats.examined)
    benchmark.extra_info["candidates_compiled"] = stats.examined
    benchmark.extra_info["candidates_dovetail"] = legacy.examined
    benchmark.extra_info["speedup_enumeration_candidates"] = ratio
    print(
        f"\n[enumeration] size={size} compiled-candidates={stats.examined} "
        f"dovetail-candidates={legacy.examined} reduction={ratio:.1f}x"
    )
    assert ratio >= 2.0, (
        f"compiled candidate generation only cut decision tests by "
        f"{ratio:.1f}x at {size} stored values; expected >=2x"
    )


@pytest.mark.parametrize("rows", [100, 400])
def test_perf_natural_join(benchmark, rows):
    """Hash natural join on synthetic father/son chains."""
    schema = DatabaseSchema((RelationSchema("F", 2, ("father", "son")),))
    state = DatabaseState(schema, {"F": [(i, i + 1) for i in range(rows)]})
    grand = NaturalJoin(
        Rename(BaseRelation("F"), (("son", "middle"),)),
        Rename(BaseRelation("F"), (("father", "middle"), ("son", "grandson"))),
    )
    result = benchmark(evaluate_algebra, grand, state)
    assert len(result.relation) == rows - 1
