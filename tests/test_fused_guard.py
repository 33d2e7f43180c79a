"""The fused Section 2 guard: one evaluation yields the verdict and the answer.

Over pure equality the guarded default path evaluates a query once, over the
active domain plus rank+1 fresh elements.  Rows mentioning the probe element
certify an infinite answer; otherwise the rows mentioning no fresh element
are the exact answer.  These tests pin that down:

* a finite query whose answer needs an element *outside* the active domain
  (adom-only evaluation gets it wrong; the fused path does not), through a
  session, a session across ``apply_delta`` and ``POST /query``;
* the fused verdict equals ``EqualityRelativeSafety.decide`` and the fused
  rows equal the tree walker over adom ∪ fresh minus the fresh rows, on every
  rung of the ladder, over both carriers and states of sizes 0, 1, 3 and 6;
* sessions stay exact when a delta stores a current fresh element (the next
  probe re-picks, and the encode cache never serves a stale adom column).
"""

import http.client
import json
import random

import pytest

from repro.api import Session
from repro.domains.equality import EqualityDomain
from repro.domains.packs import get_pack
from repro.engine.plans import (
    ActiveDomainPlan,
    CompiledAlgebraPlan,
    GuardedPlan,
    VectorizedAlgebraPlan,
)
from repro.experiments.corpora import family_schema, family_state
from repro.logic.analysis import quantifier_depth
from repro.logic.parser import parse_formula
from repro.relational.active_domain import active_domain
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.state import DatabaseState, Delta
from repro.safety.relative_safety import EqualityRelativeSafety
from repro.serve import ServerPolicy, SessionManager, serve_in_thread

#: finite, but true only because someone outside the family exists
OUTSIDER_QUERY = "F(x, y) & exists z. ~(exists w. (F(z, w) | F(w, z)))"

CORPUS = get_pack("equality").corpora()[0]

#: queries beyond the pack corpus; ``{c}`` is a carrier constant that is also
#: the carrier's first fresh candidate, so the probe must avoid it
EXTRA_QUERIES = (
    OUTSIDER_QUERY,
    "exists x. ~(exists y. (F(x, y) | F(y, x)))",  # a sentence, true
    "exists y. F(x, y) | x = {c}",
    "forall y. (F(x, y) -> exists z. F(y, z))",  # infinite: vacuous for outsiders
    "exists z. ~F(x, z)",
)

CARRIERS = {
    "naturals": (lambda n: n, "0"),
    "strings": (lambda n: f"p{n}", '""'),
}


def _family_rows():
    return sorted(family_state(generations=2, sons_per_father=2).relations["F"].rows)


def test_outsider_query_is_answered_exactly_in_a_plain_session():
    session = Session("equality", family_schema())
    state = family_state(generations=2, sons_per_father=2)
    result = session.run(OUTSIDER_QUERY, state)
    assert result.answer.is_finite is True
    assert list(result.answer.rows()) == _family_rows()
    assert len(result.answer.rows()) == 6
    # Adom-only evaluation misses every row: no element outside the family.
    assert session.run(OUTSIDER_QUERY, state, strategy="compiled").answer.rows() == ()


def test_outsider_query_is_answered_exactly_across_apply_delta():
    session = Session("equality", family_schema())
    state = family_state(generations=2, sons_per_father=2)
    for _ in range(2):  # the same state twice, the encode cache warm
        result = session.run(OUTSIDER_QUERY, state)
        assert result.answer.is_finite is True
        assert list(result.answer.rows()) == _family_rows()
    grown = session.apply_delta(state, Delta.insert("F", (6, 7)))
    result = session.run(OUTSIDER_QUERY, grown)
    assert result.answer.method == "vectorized"
    assert list(result.answer.rows()) == sorted(grown.relations["F"].rows)


def _post(port, path, payload):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", path, body=json.dumps(payload))
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_outsider_query_is_answered_exactly_over_http():
    manager = SessionManager(ServerPolicy(rate=10_000.0, burst=1_000))
    with serve_in_thread(manager) as handle:
        status, body = _post(handle.port, "/connect", {
            "domain": "equality",
            "schema": {"F": 2},
            "state": {"F": [list(row) for row in _family_rows()]},
        })
        assert status == 200
        status, answer = _post(handle.port, "/query", {
            "session": body["session"], "query": OUTSIDER_QUERY,
        })
    assert status == 200
    assert answer["is_finite"] is True
    assert answer["rows"] == [list(row) for row in _family_rows()]


# ---------------------------------------------------------------------------
# Equivalence with the standalone decider and the tree walker
# ---------------------------------------------------------------------------


def _ladders(domain):
    """Every rung the fused guard can run on, each on top of its ladder."""
    return {
        "active-domain": lambda: ActiveDomainPlan(domain=domain),
        "compiled": lambda: CompiledAlgebraPlan(domain=domain),
        "vectorized": lambda: VectorizedAlgebraPlan(domain=domain),
    }


def _states(to_element):
    for size in (0, 1, 3, 6):
        for seed in range(3):
            base = CORPUS.state_factory(random.Random(f"fused/{size}/{seed}"), size)
            rows = [tuple(map(to_element, row)) for row in base.relations["F"].rows]
            yield DatabaseState(family_schema(), {"F": rows})


def _queries(constant):
    yield from (pq.query for pq in CORPUS.queries)
    for text in EXTRA_QUERIES:
        yield parse_formula(text.format(c=constant))


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_fused_guard_matches_decide_and_the_tree_walker(carrier):
    to_element, constant = CARRIERS[carrier]
    domain = EqualityDomain(carrier=carrier)
    decider = EqualityRelativeSafety(domain)
    session = Session(domain, family_schema())
    ladders = _ladders(domain)
    checked = 0
    for state in _states(to_element):
        for query in _queries(constant):
            expected = decider.decide(query, state)
            fresh = domain.fresh_elements(
                quantifier_depth(query) + 1, avoid=active_domain(state, query)
            )
            enlarged = evaluate_query_active_domain(
                query, state, interpretation=domain, extra_elements=fresh
            )
            exact = {row for row in enlarged.rows if set(fresh).isdisjoint(row)}
            runs = {"session": session.run(query, state)}
            for name, make in ladders.items():
                plan = GuardedPlan(inner=make(), safety=decider)
                runs[name] = plan.run(query, state)
            for name, outcome in runs.items():
                where = f"{carrier}/{name}: {query} on {sorted(state.relations['F'].rows)}"
                assert outcome.verdict == expected, where
                if expected.is_finite:
                    assert set(outcome.answer.rows()) == exact, where
                else:
                    assert outcome.answer.is_finite is False, where
                    assert outcome.answer.rows() == (), where
                    assert outcome.answer.method == "equality-fresh-element", where
                checked += 1
    assert checked > 0


def test_columnar_rungs_split_before_decoding():
    # An infinite verdict on the vectorized rung decodes only witness rows.
    domain = EqualityDomain()
    state = family_state(generations=4, sons_per_father=2)
    plan = GuardedPlan(
        inner=VectorizedAlgebraPlan(domain=domain),
        safety=EqualityRelativeSafety(domain),
    )
    outcome = plan.run(parse_formula("x = x"), state)
    assert outcome.answer.is_finite is False
    assert outcome.answer.method == "equality-fresh-element"
    probe = EqualityRelativeSafety(domain).probe(parse_formula("x = x"), state)
    assert outcome.verdict.witnesses == ((probe.fresh[0],),)
    assert outcome.answer.witnesses == outcome.verdict.witnesses


# ---------------------------------------------------------------------------
# Mutated states: fresh-element collisions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text", [pq.name for pq in CORPUS.queries] + [OUTSIDER_QUERY]
)
def test_delta_storing_the_probe_element_is_never_a_stale_hit(text):
    by_name = {pq.name: pq.query for pq in CORPUS.queries}
    query = by_name.get(text) or parse_formula(text)
    session = Session("equality", family_schema())
    state = session.state(F=[(1, 2), (2, 3), (2, 5)])
    session.run(query, state)
    probe = session.safety.probe(query, state)

    mutated = session.apply_delta(state, Delta.insert("F", (3, probe.fresh[0])))
    result = session.run(query, mutated)

    # the same guard over the set executor, which reads no encoded column
    reference = GuardedPlan(
        inner=CompiledAlgebraPlan(domain=session.domain),
        safety=EqualityRelativeSafety(session.domain),
    ).run(query, mutated)
    assert result.answer.method in ("vectorized", "equality-fresh-element")
    assert result.verdict == reference.verdict
    assert result.answer.is_finite == reference.answer.is_finite
    assert set(result.answer.rows()) == set(reference.answer.rows())
    assert session.safety.probe(query, mutated).fresh[0] != probe.fresh[0]


def test_guarded_sessions_track_random_deltas():
    # Interleaved inserts (many naming current fresh elements) and deletes
    # through apply_delta: the session must agree, after every step, with the
    # same guard over the set executor on a freshly built state (which reads
    # no encoded column).
    queries = [pq.query for pq in CORPUS.queries] + [parse_formula(OUTSIDER_QUERY)]
    vectorized = 0
    for seed in range(4):
        rng = random.Random(f"fused-delta/{seed}")
        mutating = Session("equality", family_schema())
        state = CORPUS.state_factory(rng, 6)
        for step in range(6):
            if step:
                live = sorted(state.relations["F"].rows)
                fresh = mutating.safety.probe(queries[1], state).fresh
                if live and rng.random() < 0.3:
                    delta = Delta.delete("F", rng.choice(live))
                else:
                    delta = Delta.insert(
                        "F", (rng.choice(fresh), rng.randrange(12)),
                        (rng.randrange(12), rng.randrange(12)),
                    )
                state = mutating.apply_delta(state, delta)
            rebuilt = DatabaseState(family_schema(), {"F": list(state["F"].rows)})
            reference = GuardedPlan(
                inner=CompiledAlgebraPlan(domain=mutating.domain),
                safety=EqualityRelativeSafety(mutating.domain),
            )
            for query in queries:
                got = mutating.run(query, state)
                want = reference.run(query, rebuilt)
                vectorized += got.answer.method == "vectorized"
                assert got.verdict == want.verdict, (seed, step, query)
                assert set(got.answer.rows()) == set(want.answer.rows()), (
                    seed, step, query,
                )
    assert vectorized > 0, "the vectorized rung never answered on the guarded path"
