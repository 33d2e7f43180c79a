"""Tree walker ≡ compiled ≡ vectorized on ordered carriers, and
enumeration candidate generation.

Property layers:

* randomized equivalence of the three substrates over the ordered
  experiment corpora (``{S/1}``) *and* the span corpus (``{S/1, R/2}``,
  whose queries bound a variable on both sides from one witness row),
  including empty and one-element active domains.  The walker is the plain
  reference semantics, so it checks the compiled plans independently;
* quantifier shapes the corpora lack: ∀, ¬∃, ∀∃ alternations, and a
  both-sided witness mixed with a one-sided one;
* ``EnumerationPlan`` candidate generation: compiled-superset-bounded
  decision counts, dovetail completeness beyond the active domain, and the
  ``explain()`` report.
"""

import random

import pytest

from repro.domains import get_domain
from repro.domains.nat_order import NaturalOrderDomain
from repro.domains.presburger import PresburgerDomain
from repro.engine.budget import CancelToken, Cancelled
from repro.engine.enumeration import CandidateStats, answer_by_enumeration
from repro.engine.plans import ActiveDomainPlan, EnumerationPlan
from repro.experiments.corpora import (
    numeric_state,
    ordered_query_corpus,
    span_query_corpus,
    span_state,
)
from repro.logic.parser import parse_formula
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.compile import compile_query
from repro.relational.exec import run_plan

NAT = NaturalOrderDomain()

#: quantifier shapes the experiment corpora do not cover
EXTRA_QUERIES = [
    ("all-members-at-most", "forall y. (S(y) -> y <= x)"),
    ("no-member-above", "~(exists y. (S(y) & x < y))"),
    ("between-by-negation", "~(forall y. (S(y) -> (y < x | x < y)))"),
    ("forall-exists-chain", "forall y. (S(y) -> exists z. (S(z) & y <= z & x <= z))"),
    ("both-sided-on-self", "exists y. (S(y) & y <= x & x <= y)"),
]


def _assert_modes_agree(query, state, domain=NAT):
    full = evaluate_query_active_domain(query, state, interpretation=domain)
    compiled = compile_query(query, state.schema, domain)
    adom = compiled.universe(state)
    assert run_plan(compiled.plan, state, adom, domain) == full.rows
    numpy = pytest.importorskip("numpy")
    assert numpy is not None
    from repro.relational.columnar import run_plan_vectorized

    assert run_plan_vectorized(compiled.plan, state, adom, domain) == full.rows


@pytest.mark.parametrize("name,query,_finite", ordered_query_corpus())
def test_substrates_agree_on_randomized_ordered_states(name, query, _finite):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(10):
        values = rng.sample(range(0, 120), rng.randint(0, 10))
        _assert_modes_agree(query, numeric_state(values))


@pytest.mark.parametrize("name,query,_finite", span_query_corpus())
def test_substrates_agree_on_randomized_span_states(name, query, _finite):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(10):
        values = rng.sample(range(0, 90), rng.randint(0, 6))
        spans = [
            tuple(sorted(rng.sample(range(0, 90), 2)))
            for _ in range(rng.randint(0, 4))
        ]
        _assert_modes_agree(query, span_state(values, spans))


@pytest.mark.parametrize("name,text", EXTRA_QUERIES)
def test_substrates_agree_on_quantifier_shapes(name, text):
    query = parse_formula(text)
    rng = random.Random(hash(name) & 0xFFFF)
    for values in ([], [7], [3, 11], rng.sample(range(0, 60), 6)):
        _assert_modes_agree(query, numeric_state(values))


def test_substrates_agree_on_mixed_witness_bounds():
    # One witness row bounds x on both sides, another bounds it below only.
    query = parse_formula(
        "exists y. exists z. exists w. "
        "(R(y, z) & S(w) & y < x & x < z & w <= x)"
    )
    for values, spans in (
        ([6], [(1, 9), (4, 20)]),
        ([], [(1, 9)]),
        ([25], [(1, 9), (4, 20)]),
        ([2, 7], [(0, 3), (5, 12)]),
    ):
        _assert_modes_agree(query, span_state(values, spans))
    state = span_state([6], [(1, 9), (4, 20)])
    compiled = compile_query(query, state.schema, NAT)
    rows = run_plan(compiled.plan, state, compiled.universe(state), NAT)
    assert rows == {(6,), (9,)}


@pytest.mark.parametrize("values", [[], [5], [5, 6], [0, 1, 2]])
def test_degenerate_adoms_on_both_sided_query(values):
    covered = span_query_corpus()[0][1]
    spans = [(min(values), max(values))] if values else []
    _assert_modes_agree(covered, span_state(values, spans))
    _assert_modes_agree(covered, span_state(values, []))


def test_presburger_substrates_agree():
    between = dict(
        (name, query) for name, query, _ in ordered_query_corpus()
    )["strictly-between-members"]
    _assert_modes_agree(
        between, numeric_state([2, 9, 14, 30]), PresburgerDomain()
    )


@pytest.mark.parametrize("name", ["integers", "zdiff", "q<"])
def test_substrates_agree_on_carriers_with_negative_elements(name):
    domain = get_domain(name)
    rng = random.Random(len(name))
    for _ in range(4):
        state = numeric_state(rng.sample(range(-40, 40), rng.randint(0, 7)))
        for _query_name, query, _finite in ordered_query_corpus():
            _assert_modes_agree(query, state, domain)


def test_active_domain_plan_answers_the_between_query():
    plan = ActiveDomainPlan(domain=NAT)
    between = dict(
        (name, query) for name, query, _ in ordered_query_corpus()
    )["strictly-between-members"]
    answer = plan.execute(between, numeric_state([1, 5, 9]))
    assert answer.rows() == ((5,),)
    assert plan.explain().startswith("strategy 'active-domain'")
    assert "narrowing" not in plan.explain()


# ---------------------------------------------------------------------------
# enumeration-path compilation
# ---------------------------------------------------------------------------


def test_enumeration_candidates_bounded_by_compiled_superset():
    domain = PresburgerDomain()
    state = numeric_state([3 * i + 1 for i in range(12)])
    members = parse_formula("S(x)")
    stats = CandidateStats()
    answer = answer_by_enumeration(
        members, state, domain, max_rows=100, max_candidates=5000, stats=stats
    )
    assert answer.relation.rows == {(3 * i + 1,) for i in range(12)}
    assert stats.generator == "compiled+dovetail"
    assert stats.compiled_rows == 12
    # every decision call tested a compiled-superset row (plus none wasted)
    assert stats.examined <= stats.compiled_rows + 1
    legacy = CandidateStats()
    same = answer_by_enumeration(
        members, state, domain, max_rows=100, max_candidates=5000,
        candidate_source="dovetail", stats=legacy,
    )
    assert same.relation.rows == answer.relation.rows
    assert legacy.generator == "dovetail"
    assert legacy.examined > stats.examined


def test_enumeration_dovetail_completes_natural_answers():
    # x < max(S) has answer rows outside the active domain; the dovetail
    # behind the compiled superset still finds all of them.
    domain = PresburgerDomain()
    state = numeric_state([2, 9])
    below = parse_formula("exists y. (S(y) & x < y)")
    stats = CandidateStats()
    answer = answer_by_enumeration(
        below, state, domain, max_rows=50, max_candidates=500, stats=stats
    )
    assert answer.relation.rows == {(n,) for n in range(9)}
    assert stats.generator == "compiled+dovetail"


def test_enumeration_falls_back_to_dovetail_when_unbounded():
    domain = PresburgerDomain()
    state = numeric_state([3])
    above = parse_formula("3 < x")  # unbounded above: no finite grid exists
    stats = CandidateStats()
    answer = answer_by_enumeration(
        above, state, domain, max_rows=5, max_candidates=50, stats=stats
    )
    assert len(answer.partial) == 5  # same budget behaviour as before
    assert stats.generator.endswith("dovetail")


def test_enumeration_plan_explain_reports_candidates():
    plan = EnumerationPlan(domain=PresburgerDomain())
    answer = plan.execute(parse_formula("S(x)"), numeric_state([4, 7]))
    assert answer.relation.rows == {(4,), (7,)}
    assert "candidate generator" in plan.explain()
    assert "decision-tested" in plan.explain()


def test_enumeration_plan_explain_forgets_the_previous_run_on_cancel():
    plan = EnumerationPlan(domain=PresburgerDomain())
    plan.execute(parse_formula("S(x)"), numeric_state([4, 7]))
    assert "compiled superset of 2 row(s)" in plan.explain()
    token = CancelToken()
    token.cancel()
    plan.cancel_token = token
    with pytest.raises(Cancelled):
        plan.execute(parse_formula("S(x)"), numeric_state([4, 7, 9]))
    assert "interrupted: cancelled by caller" in plan.explain()
    assert "candidate generator" not in plan.explain()
