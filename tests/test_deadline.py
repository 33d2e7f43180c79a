"""Deadline propagation and cooperative cancellation across every substrate.

The regression at the heart of this file: ``Budget.time_limit`` used to be
honoured only by the enumeration strategy — the five plan classes ran to
completion no matter what the budget said.  Now every execution path carries
a cooperative :class:`~repro.engine.budget.Deadline` and an oversized query
with a tiny time limit terminates promptly on *all* strategies.
"""

import threading
import time

import pytest

from repro import Budget
from repro.api import Session
from repro.engine.budget import (
    Cancelled,
    CancelToken,
    DeadlineExceeded,
    EvaluationInterrupted,
)
from repro.relational.schema import DatabaseSchema, RelationSchema

#: every non-enumeration strategy (the classes that used to ignore the limit)
STRATEGIES = ("active-domain", "compiled", "vectorized")

#: a state large enough that a 4-way self-join cannot finish in 10 ms
BIG_ROWS = 20_000
BIG_QUERY = (
    "exists u. exists v. exists w. "
    "(F(x, u) & F(u, v) & F(v, w) & F(w, z))"
)


def nat_session():
    schema = DatabaseSchema((RelationSchema("F", 2),))
    return Session("nat<", schema)


def big_state(session):
    return session.state(F=[(i, (i * 7) % BIG_ROWS) for i in range(BIG_ROWS)])


# ---------------------------------------------------------------------------
# Deadline / CancelToken units
# ---------------------------------------------------------------------------


def test_expired_deadline_raises_with_operator_and_stats():
    deadline = Budget(time_limit=0.0).start_deadline()
    with pytest.raises(DeadlineExceeded) as excinfo:
        deadline.check("Join(pairwise)")
    error = excinfo.value
    assert error.operator == "Join(pairwise)"
    assert "time limit" in str(error)
    assert isinstance(error, EvaluationInterrupted)


def test_generous_deadline_does_not_fire():
    deadline = Budget(time_limit=60.0).start_deadline()
    deadline.check("anything")  # must not raise


def test_cancellation_beats_the_deadline():
    token = CancelToken()
    token.cancel("client went away")
    deadline = Budget(time_limit=0.0).start_deadline(token)
    # Both conditions hold; cancellation is reported, not the deadline.
    with pytest.raises(Cancelled) as excinfo:
        deadline.check("Scan")
    assert "client went away" in str(excinfo.value)


def test_cancel_is_idempotent_and_first_reason_wins():
    token = CancelToken()
    assert token.cancel("first") is True
    assert token.cancel("second") is False
    assert token.reason == "first"


def test_interruption_payload_is_json_ready():
    deadline = Budget(time_limit=0.0).start_deadline()
    with pytest.raises(DeadlineExceeded) as excinfo:
        deadline.check("Project")
    payload = excinfo.value.payload()
    assert payload["error"] == "DeadlineExceeded"
    assert payload["operator"] == "Project"
    assert "message" in payload and "partial_stats" in payload


# ---------------------------------------------------------------------------
# The regression: time_limit is honoured by every strategy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_time_limit_interrupts_every_strategy(strategy):
    session = nat_session()
    state = big_state(session)
    started = time.perf_counter()
    with pytest.raises(DeadlineExceeded) as excinfo:
        session.run(
            BIG_QUERY, state, strategy=strategy, budget=Budget(time_limit=0.01)
        )
    elapsed = time.perf_counter() - started
    # "promptly": well under a second, not after the full join
    assert elapsed < 1.0, f"{strategy} took {elapsed:.2f}s to notice the deadline"
    assert excinfo.value.operator, "the interruption names the operator reached"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generous_time_limit_does_not_interrupt(strategy):
    session = nat_session()
    state = session.state(F=[(1, 2), (2, 3)])
    result = session.run(
        "F(x, y)", state, strategy=strategy, budget=Budget(time_limit=60.0)
    )
    assert frozenset(result.answer.rows()) == frozenset({(1, 2), (2, 3)})


def test_equality_guard_honours_the_time_limit():
    # The fresh-element guard is the inner plan's own evaluation over the
    # enlarged universe, so it runs under the plan's Deadline; it used to be
    # a separate, un-checkpointed pass taking ~1 s on this 65,534-row tree.
    from repro.domains.packs import get_pack
    from repro.experiments.corpora import family_state

    corpus = get_pack("equality").corpora()[0]
    query = next(q.query for q in corpus.queries if q.name == "more-than-one-son")
    state = family_state(generations=15)
    budget = Budget(time_limit=0.01)
    # One untimed run pays the per-state memos (fingerprint, encoded
    # columns) that any first query on a new state computes.
    with pytest.raises(DeadlineExceeded):
        Session("equality", corpus.schema).run(query, state, budget=budget)
    session = Session("equality", corpus.schema)
    started = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        session.run(query, state, budget=budget)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.25, f"the guarded query took {elapsed:.2f}s to notice"


def test_a_decode_past_the_limit_raises(monkeypatch):
    # Every operator checkpoint of a warm run passes well inside the limit;
    # the answer's decode, after the last of them, overruns it.
    from repro.experiments.corpora import family_schema, family_state
    from repro.relational.columnar import CodedRows

    session = Session("equality", family_schema())
    state = family_state(generations=3)
    assert session.run("F(x, y)", state).answer.method == "vectorized"
    rows = CodedRows.rows

    def slow_rows(self, codes=None):
        time.sleep(0.05)
        return rows(self, codes)

    monkeypatch.setattr(CodedRows, "rows", slow_rows)
    with pytest.raises(DeadlineExceeded) as raised:
        session.run("F(x, y)", state, budget=Budget(time_limit=0.02))
    assert raised.value.operator == "decode"


# ---------------------------------------------------------------------------
# Cancellation through the session API
# ---------------------------------------------------------------------------


def test_pre_cancelled_token_aborts_immediately():
    session = nat_session()
    state = session.state(F=[(1, 2)])
    token = CancelToken()
    token.cancel("gone before it started")
    with pytest.raises(Cancelled) as excinfo:
        session.run(
            "F(x, y)", state, strategy="compiled",
            budget=Budget(), cancel_token=token,
        )
    assert "gone before it started" in str(excinfo.value)


def test_cancel_token_aborts_a_query_mid_flight():
    session = nat_session()
    state = big_state(session)
    token = CancelToken()
    outcome = {}

    def worker():
        try:
            session.run(
                BIG_QUERY, state, strategy="compiled",
                budget=Budget(time_limit=30.0), cancel_token=token,
            )
            outcome["result"] = "completed"
        except Cancelled as error:
            outcome["result"] = "cancelled"
            outcome["error"] = error

    thread = threading.Thread(target=worker)
    thread.start()
    time.sleep(0.05)
    token.cancel("cancelled from the test")
    thread.join(timeout=30)
    assert not thread.is_alive(), "the query never noticed the cancellation"
    assert outcome["result"] == "cancelled"
    assert "cancelled from the test" in str(outcome["error"])


def test_cancellation_does_not_interrupt_enumeration_time_budget():
    # The Section 1.1 enumeration answers Unknown on time expiry (its
    # documented contract); only explicit cancellation raises.
    session = Session("presburger")
    answer = session.query(
        "x >= 0", strategy="enumeration", budget=Budget(time_limit=0.0)
    )
    assert answer.rows() == ()  # UnknownAnswer, not an exception


# ---------------------------------------------------------------------------
# Surfacing: explain() records the interruption
# ---------------------------------------------------------------------------


def test_interruption_is_recorded_in_explain():
    session = nat_session()
    state = big_state(session)
    formula = session.compile(BIG_QUERY)
    plan = session.plan("compiled", Budget(time_limit=0.01))
    with pytest.raises(DeadlineExceeded):
        plan.execute(formula, state)
    assert "interrupted" in plan.explain()
    assert plan.last_interruption is not None
    # A later successful execution clears the note.
    small = session.state(F=[(1, 2)])
    plan2 = session.plan("compiled", Budget(time_limit=30.0))
    plan2.execute(session.compile("F(x, y)"), small)
    assert plan2.last_interruption is None
