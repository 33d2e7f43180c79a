"""The server answers what the library answers.

* ``POST /query`` encodes ``answer.rows()`` once, in order: the JSON body's
  ``rows`` and the concatenated SSE ``rows`` chunks equal
  ``Session.run(...).answer.rows()``, and the body keeps its keys;
* queries with the constants the printer writes (``x = -3``, ``x = 1/2``)
  travel as text and come back with ``Session.run``'s verdict and rows (a
  rational answer element as its ``p/q`` text);
* after a ``/mutate`` sequence of inserts and deletes, every equality corpus
  query is recomputed on the mutated state: each answer equals
  ``Session.run`` on a replica built with ``DatabaseState.apply``.
"""

import http.client
import json
import random
from fractions import Fraction

import pytest

from repro import Delta, Session
from repro.domains import get_pack
from repro.experiments.corpora import family_schema, family_state
from repro.logic.printer import print_formula
from repro.serve import ServerPolicy, SessionManager, serve_in_thread

EQUALITY = get_pack("equality").corpora()[0]

#: the /query body's keys, in the order the server writes them
BODY_KEYS = [
    "method", "is_finite", "row_count", "elapsed_ms", "plan", "rewritten",
    "verdict", "rows",
]


def _post(port, path, payload):
    """One request; (status, raw body bytes)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", path, body=json.dumps(payload))
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _parse_sse(raw):
    events = []
    for block in raw.decode("utf-8").split("\n\n"):
        if not block.strip():
            continue
        event, data = None, None
        for line in block.split("\n"):
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        events.append((event, data))
    return events


def _connect(port, domain, schema, state):
    status, body = _post(port, "/connect", {
        "domain": domain,
        "schema": {r.name: r.arity for r in schema},
        "state": {
            name: [list(row) for row in sorted(relation.rows)]
            for name, relation in state.relations.items()
        },
    })
    assert status == 200, body
    return json.loads(body)["session"]


@pytest.fixture
def served():
    manager = SessionManager(ServerPolicy(rate=100_000.0, burst=100_000,
                                          sse_chunk_rows=3))
    with serve_in_thread(manager) as handle:
        yield handle


def _as_json_rows(rows):
    return [list(row) for row in rows]


# ---------------------------------------------------------------------------
# One encode on /query
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [pq.name for pq in EQUALITY.queries])
def test_query_body_rows_are_the_sessions_rows_in_order(served, name):
    query = next(pq.query for pq in EQUALITY.queries if pq.name == name)
    state = family_state(generations=3)
    session_id = _connect(served.port, "equality", family_schema(), state)
    expected = Session("equality", family_schema()).run(query, state).answer
    text = print_formula(query)

    status, raw = _post(served.port, "/query", {"session": session_id, "query": text})
    assert status == 200
    body = json.loads(raw)
    assert list(body) == BODY_KEYS
    assert body["rows"] == _as_json_rows(expected.rows())
    assert body["row_count"] == len(expected.rows()) == expected.row_count
    assert body["is_finite"] == expected.is_finite
    # tuples encode as arrays: the rows are the bytes json.dumps gives them
    assert json.dumps(expected.rows()) in raw.decode("utf-8")

    status, raw = _post(served.port, "/query", {
        "session": session_id, "query": text, "stream": True,
    })
    assert status == 200
    events = _parse_sse(raw)
    assert [event for event, _ in events][0] == "meta"
    meta = events[0][1]
    assert list(meta) == BODY_KEYS[:-1]
    streamed = [row for event, chunk in events if event == "rows" for row in chunk]
    assert streamed == _as_json_rows(expected.rows())
    assert events[-1] == ("done", {"row_count": len(expected.rows())})
    assert meta["row_count"] == len(expected.rows())


# ---------------------------------------------------------------------------
# The constants the printer writes, over HTTP
# ---------------------------------------------------------------------------


def _integer_state(corpus):
    """The corpus's canonical state, keeping only integer-valued rows (a
    rational such as 7/2 has no JSON form yet)."""
    state = corpus.canonical_state
    return type(state)(corpus.schema, {
        name: [row for row in relation.rows
               if all(isinstance(value, int) for value in row)]
        for name, relation in state.relations.items()
    })


@pytest.mark.parametrize("pack_name,query_name", [
    ("presburger_integers", "equal-to-minus-three"),
    ("integer_differences", "equal-to-minus-three"),
    ("rationals_with_order", "equal-to-one-half"),
])
def test_printed_constants_are_answered_over_http(served, pack_name, query_name):
    corpus = get_pack(pack_name).corpora()[0]
    query = next(pq.query for pq in corpus.queries if pq.name == query_name)
    state = _integer_state(corpus)
    if pack_name != "rationals_with_order":
        assert state == corpus.canonical_state
    session_id = _connect(served.port, pack_name, corpus.schema, state)
    expected = Session(pack_name, corpus.schema).run(query, state)

    status, raw = _post(served.port, "/query", {
        "session": session_id, "query": print_formula(query),
    })
    assert status == 200, raw
    body = json.loads(raw)
    assert body["verdict"] == expected.verdict.status.value
    assert body["is_finite"] is expected.answer.is_finite is True
    # a rational element crosses JSON as the p/q text the parser reads
    assert body["rows"] == [
        [str(value) if isinstance(value, Fraction) else value for value in row]
        for row in expected.answer.rows()
    ]
    assert len(body["rows"]) == 1


# ---------------------------------------------------------------------------
# Served mutations: every answer recomputed on the mutated state
# ---------------------------------------------------------------------------


def _mutations(rng, state, count):
    """``count`` single-row mutations: inserts that bring new people or link
    existing ones, and deletes of stored rows; each with its JSON payload."""
    replica = state
    steps = []
    next_person = 1000
    for _ in range(count):
        stored = sorted(replica.relations["F"].rows)
        people = sorted(replica.elements())
        if stored and rng.random() < 0.35:
            row = rng.choice(stored)
            delta, verb = Delta.delete("F", row), "delete"
        else:
            if rng.random() < 0.5:
                row = (rng.choice(people), next_person)
                next_person += 1
            else:
                row = (rng.choice(people), rng.choice(people))
            delta, verb = Delta.insert("F", row), "insert"
        replica = replica.apply(delta)
        steps.append(({verb: {"F": [list(row)]}}, replica))
    return steps


@pytest.mark.parametrize("seed", range(3))
def test_answers_after_served_mutations_equal_a_replica(served, seed):
    rng = random.Random(f"served-mutations/{seed}")
    base = family_state(generations=3)
    session_id = _connect(served.port, "equality", family_schema(), base)
    reference = Session("equality", family_schema())
    queries = [(pq.name, print_formula(pq.query)) for pq in EQUALITY.queries]
    for name, text in queries:  # warm the encode cache on the base state
        assert _post(served.port, "/query", {
            "session": session_id, "query": text,
        })[0] == 200
    steps = _mutations(rng, base, 12)
    assert any("delete" in payload for payload, _ in steps)
    for step, (payload, replica) in enumerate(steps):
        status, raw = _post(served.port, "/mutate", dict(payload, session=session_id))
        assert status == 200, raw
        receipt = json.loads(raw)
        assert receipt["applied"] is True
        assert receipt["total_rows"] == replica.total_rows()
        if step % 3 and step != len(steps) - 1:
            continue  # a few mutations in a row between the query rounds
        for name, text in queries:
            status, raw = _post(served.port, "/query", {
                "session": session_id, "query": text,
            })
            assert status == 200, raw
            body = json.loads(raw)
            expected = reference.run(text, replica)
            where = (seed, step, name)
            assert body["verdict"] == expected.verdict.status.value, where
            assert body["is_finite"] == expected.answer.is_finite, where
            assert body["rows"] == _as_json_rows(expected.answer.rows()), where
            assert body["method"] == expected.answer.method, where
