"""Performance benchmarks for the substrates (not in the paper; support E2/E4/E7/E10).

These characterise how the decision procedures and simulators scale:

* Cooper quantifier elimination vs quantifier depth;
* successor-domain quantifier elimination vs formula size;
* Reach-theory sentence decision;
* trace generation vs number of snapshots;
* query answering by enumeration vs database size;
* hash natural joins vs relation size;
* the compiled relational-algebra backend vs the tree-walking evaluator on
  guard-certified queries (the CI regression gate watches this one);
* the three execution substrates (tree walker / compiled set executor /
  vectorized NumPy columnar executor) head-to-head on int-domain states,
  asserting the vectorized path wins at the largest size;
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
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.compile import compile_query
from repro.relational.exec import Join, Scan, run_plan
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
    # Min of three runs, timed here rather than read off the fixture (which
    # has no timings under --benchmark-disable).
    compiled_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        run_compiled()
        compiled_seconds = min(compiled_seconds, time.perf_counter() - started)
    # Min of two runs: the speedup ratio feeds the dimensionless CI gate, so
    # the slow side needs some protection against one-off stalls too.
    tree_walk_seconds = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        slow = run_tree_walk()
        tree_walk_seconds = min(tree_walk_seconds, time.perf_counter() - started)
    for fast_answer, slow_answer in zip(fast, slow):
        assert fast_answer.rows == slow_answer.rows
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
    compiled = [compile_query(q, state.schema, domain) for q in queries]

    def run_vectorized():
        return [
            run_plan_vectorized(c.plan, state, c.universe(state), domain)
            for c in compiled
        ]

    run_vectorized()  # warm numpy's lazy imports before timing
    fast = benchmark.pedantic(run_vectorized, iterations=3, rounds=3)
    # Min of three runs of each arm, timed here rather than read off the
    # fixture (which has no timings under --benchmark-disable):
    # speedup_vs_set feeds the dimensionless CI gate.
    vectorized_seconds = set_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        run_vectorized()
        vectorized_seconds = min(vectorized_seconds, time.perf_counter() - started)
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
    """Hash natural join on synthetic father/son chains (set executor)."""
    schema = DatabaseSchema((RelationSchema("F", 2, ("father", "son")),))
    state = DatabaseState(schema, {"F": [(i, i + 1) for i in range(rows)]})
    grand = Join(
        (
            Scan("F", ("father", "middle"), (), ("father", "middle")),
            Scan("F", ("middle", "grandson"), (), ("middle", "grandson")),
        ),
        ("father", "middle", "grandson"),
    )
    result = benchmark(run_plan, grand, state, (), EqualityDomain())
    assert len(result) == rows - 1
