"""End-to-end tests for the asyncio HTTP/SSE front end (stdlib client only)."""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.serve import ServerPolicy, SessionManager, serve_in_thread


def request(port, method, path, payload=None):
    """One HTTP round trip; returns (status, headers, parsed JSON body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw else None
        return response.status, dict(response.getheaders()), parsed
    finally:
        connection.close()


@pytest.fixture
def served():
    manager = SessionManager(ServerPolicy(rate=10_000.0, burst=1_000))
    with serve_in_thread(manager) as handle:
        yield handle


def connect_nat(port):
    status, _, body = request(port, "POST", "/connect", {
        "domain": "nat<",
        "schema": {"S": 1},
        "state": {"S": [[3], [5], [9]]},
    })
    assert status == 200
    return body["session"]


# ---------------------------------------------------------------------------
# The happy path
# ---------------------------------------------------------------------------


def test_connect_query_explain_roundtrip(served):
    port = served.port
    session = connect_nat(port)

    status, _, answer = request(port, "POST", "/query", {
        "session": session,
        "query": "exists y. exists z. (S(y) & S(z) & y < x & x < z)",
    })
    assert status == 200
    assert answer["rows"] == [[4], [5], [6], [7], [8]]
    assert answer["is_finite"] is True
    assert answer["row_count"] == 5
    assert "elapsed_ms" in answer and "plan" in answer

    status, _, explanation = request(port, "POST", "/explain", {
        "session": session, "query": "S(x)",
    })
    assert status == 200
    assert "free variables: x" in explanation["explanation"]

    status, _, stats = request(port, "GET", "/stats")
    assert status == 200
    assert stats["sessions"]["live_sessions"] == 1
    assert stats["admission"]["admitted"] == 2
    assert stats["policy"]["max_sessions"] == 64

    status, _, closed = request(port, "POST", "/disconnect", {"session": session})
    assert status == 200 and closed["closed"] is True


def test_per_request_state_overrides_the_default(served):
    port = served.port
    session = connect_nat(port)
    status, _, answer = request(port, "POST", "/query", {
        "session": session,
        "query": "S(x)",
        "state": {"S": [[42]]},
    })
    assert status == 200 and answer["rows"] == [[42]]


def test_budget_is_accepted_and_honoured(served):
    port = served.port
    session = connect_nat(port)
    status, _, answer = request(port, "POST", "/query", {
        "session": session,
        "query": "S(x)",
        "budget": {"max_rows": 2},
    })
    assert status == 200 and answer["row_count"] == 2  # truncated by the budget


# ---------------------------------------------------------------------------
# SSE streaming
# ---------------------------------------------------------------------------


def parse_sse(raw):
    """Parse an SSE byte stream into a list of (event, data) pairs."""
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


def test_sse_streams_rows_in_chunks():
    manager = SessionManager(
        ServerPolicy(rate=10_000.0, burst=1_000, sse_chunk_rows=2)
    )
    with serve_in_thread(manager) as handle:
        session = connect_nat(handle.port)
        connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            connection.request("POST", "/query", body=json.dumps({
                "session": session,
                "query": "exists y. exists z. (S(y) & S(z) & y < x & x < z)",
                "stream": True,
            }))
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "text/event-stream"
            events = parse_sse(response.read())
        finally:
            connection.close()
    names = [name for name, _ in events]
    assert names[0] == "meta" and names[-1] == "done"
    row_chunks = [data for name, data in events if name == "rows"]
    assert len(row_chunks) == 3           # 5 rows in chunks of 2
    rows = [row for chunk in row_chunks for row in chunk]
    assert rows == [[4], [5], [6], [7], [8]]
    meta = events[0][1]
    assert meta["row_count"] == 5
    done = events[-1][1]
    assert done["row_count"] == 5


# ---------------------------------------------------------------------------
# Admission over HTTP
# ---------------------------------------------------------------------------


def test_rate_limited_request_gets_429_with_retry_after():
    manager = SessionManager(ServerPolicy(rate=0.001, burst=2))
    with serve_in_thread(manager) as handle:
        port = handle.port
        session = connect_nat(port)  # /connect is not rate limited
        status, _, _ = request(port, "POST", "/query", {
            "session": session, "query": "S(x)",
        })
        assert status == 200
        status, _, _ = request(port, "POST", "/query", {
            "session": session, "query": "S(x)",
        })
        assert status == 200
        status, headers, error = request(port, "POST", "/query", {
            "session": session, "query": "S(x)",
        })
        assert status == 429
        assert float(headers["Retry-After"]) > 0
        assert "exceeded" in error["error"]
        _, _, stats = request(port, "GET", "/stats")
        assert stats["admission"]["rejected_rate_limited"] == 1


def test_admission_tracks_only_live_sessions():
    manager = SessionManager(
        ServerPolicy(rate=10_000.0, burst=1_000, max_sessions=2)
    )
    with serve_in_thread(manager) as handle:
        port = handle.port
        # Unknown ids are refused before admission: 404 and no bucket.
        for index in range(50):
            status, _, _ = request(port, "POST", "/query", {
                "session": f"{index:016x}", "query": "S(x)",
            })
            assert status == 404
        for path, extra in (("/explain", {"query": "S(x)"}),
                            ("/mutate", {"insert": {"S": [[1]]}})):
            status, _, _ = request(port, "POST", path, dict(
                extra, session="0" * 16,
            ))
            assert status == 404
        _, _, stats = request(port, "GET", "/stats")
        assert stats["admission"]["tracked_sessions"] == 0
        # Evicted sessions' buckets go when the next connect evicts them.
        for _ in range(10):
            session = connect_nat(port)
            status, _, _ = request(port, "POST", "/query", {
                "session": session, "query": "S(x)",
            })
            assert status == 200
        _, _, stats = request(port, "GET", "/stats")
        assert stats["sessions"]["live_sessions"] == 2
        assert stats["admission"]["tracked_sessions"] <= 2


def test_unknown_session_never_spends_or_creates_a_token():
    # A one-token burst: were unknown ids admitted first, every request after
    # the first would be rate limited (429) instead of refused (404).
    manager = SessionManager(ServerPolicy(rate=0.001, burst=1))
    with serve_in_thread(manager) as handle:
        port = handle.port
        for _ in range(5):
            status, _, error = request(port, "POST", "/query", {
                "session": "f" * 16, "query": "S(x)",
            })
            assert status == 404
            assert "unknown or expired session" in error["error"]
        _, _, stats = request(port, "GET", "/stats")
        assert stats["admission"] == dict(
            stats["admission"], admitted=0, rejected_rate_limited=0,
            tracked_sessions=0,
        )


def test_expired_sessions_lose_their_buckets_on_the_next_connect():
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = Clock()
    manager = SessionManager(
        ServerPolicy(rate=10_000.0, burst=1_000, session_ttl=10.0), clock=clock
    )
    with serve_in_thread(manager) as handle:
        port = handle.port
        stale = connect_nat(port)
        status, _, _ = request(port, "POST", "/query", {
            "session": stale, "query": "S(x)",
        })
        assert status == 200
        clock.now = 11.0                  # the session expires
        fresh = connect_nat(port)
        _, _, stats = request(port, "GET", "/stats")
        assert stats["admission"]["tracked_sessions"] == 0
        status, _, _ = request(port, "POST", "/query", {
            "session": stale, "query": "S(x)",
        })
        assert status == 404
        status, _, _ = request(port, "POST", "/query", {
            "session": fresh, "query": "S(x)",
        })
        assert status == 200
        _, _, stats = request(port, "GET", "/stats")
        assert stats["admission"]["tracked_sessions"] == 1


def test_stats_reports_only_the_in_memory_plan_cache(served):
    port = served.port
    session = connect_nat(port)
    for _ in range(2):
        status, _, _ = request(port, "POST", "/query", {
            "session": session, "query": "S(x)", "strategy": "vectorized",
        })
        assert status == 200
    _, _, stats = request(port, "GET", "/stats")
    plan_cache = stats["plan_cache"]
    assert set(plan_cache) == {
        "hits", "misses", "evictions", "size", "maxsize", "hit_rate",
    }
    assert plan_cache["misses"] >= 1 and plan_cache["hits"] >= 1


# ---------------------------------------------------------------------------
# Error mapping
# ---------------------------------------------------------------------------


def test_bad_requests_get_400(served):
    port = served.port
    session = connect_nat(port)

    # malformed JSON body
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/query", body="{not json")
        assert connection.getresponse().status == 400
    finally:
        connection.close()

    # missing session / missing query / unparsable query / bad budget
    assert request(port, "POST", "/query", {"query": "S(x)"})[0] == 400
    assert request(port, "POST", "/query", {"session": session})[0] == 400
    assert request(port, "POST", "/query", {
        "session": session, "query": "S(x",
    })[0] == 400
    assert request(port, "POST", "/query", {
        "session": session, "query": "S(x)", "budget": {"max_rows": -1},
    })[0] == 400
    assert request(port, "POST", "/query", {
        "session": session, "query": "S(x)", "budget": {"nonsense": 1},
    })[0] == 400
    # a strategy that no longer exists
    assert request(port, "POST", "/query", {
        "session": session, "query": "S(x)", "strategy": "parallel",
    })[0] == 400

    # unknown domain / bad schema on connect
    assert request(port, "POST", "/connect", {"domain": "no-such"})[0] == 400
    assert request(port, "POST", "/connect", {"schema": [1, 2]})[0] == 400


def test_nan_time_limit_gets_400_instead_of_escaping_the_cap(served):
    # json.loads accepts a NaN literal; clamped, ``min(nan, cap)`` would be
    # nan and the deadline would never expire.
    session = connect_nat(served.port)
    status, _, error = request(served.port, "POST", "/query", {
        "session": session, "query": "S(x)",
        "budget": {"time_limit": float("nan")},
    })
    assert status == 400
    assert "time_limit" in error["error"]


def test_unknown_session_gets_404(served):
    status, _, error = request(served.port, "POST", "/query", {
        "session": "0000000000000000", "query": "S(x)",
    })
    assert status == 404 and "unknown or expired" in error["error"]


def test_unknown_route_404_and_wrong_method_405(served):
    assert request(served.port, "GET", "/nope")[0] == 404
    assert request(served.port, "GET", "/query")[0] == 405
    assert request(served.port, "POST", "/stats")[0] == 405


def test_load_shed_returns_503_body_and_retry_after():
    manager = SessionManager(
        ServerPolicy(rate=10_000.0, burst=1_000, max_inflight=1)
    )
    with serve_in_thread(manager) as handle:
        port = handle.port
        session = connect_nat(port)
        # Occupy the single in-flight slot through the server's own gate, so
        # the next HTTP request is shed exactly as under real overload.
        ticket = handle.server._admission.admit(session)
        try:
            status, headers, error = request(port, "POST", "/query", {
                "session": session, "query": "S(x)",
            })
        finally:
            ticket.release()
        assert status == 503
        assert "at capacity" in error["error"]
        assert "retry later" in error["error"]
        assert float(headers["Retry-After"]) > 0
        _, _, stats = request(port, "GET", "/stats")
        assert stats["admission"]["rejected_over_capacity"] == 1
        # The slot freed up: the same request now succeeds.
        status, _, answer = request(port, "POST", "/query", {
            "session": session, "query": "S(x)",
        })
        assert status == 200 and answer["rows"] == [[3], [5], [9]]


def test_oversized_request_body_gets_413(served):
    port = served.port
    # Announce a body over the 8 MiB cap; the server must refuse from the
    # Content-Length alone, before reading (or us sending) any of it.
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.putrequest("POST", "/query")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", str(9 * 1024 * 1024))
        connection.endheaders()
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    assert response.status == 413
    error = json.loads(raw)
    assert "exceeds" in error["error"]


def test_streaming_query_error_is_json_not_event_stream(served):
    # A query that raises before any rows exist must answer with a JSON
    # error document, never a half-open SSE stream — even though the client
    # asked for streaming.
    port = served.port
    session = connect_nat(port)
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/query", body=json.dumps({
            "session": session,
            "query": "S(x",  # parse error surfaces mid-handling
            "stream": True,
        }))
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    assert response.status == 400
    assert response.getheader("Content-Type") == "application/json"
    error = json.loads(raw)
    assert "error" in error
    # The session survives the failed stream and still answers normally.
    status, _, answer = request(port, "POST", "/query", {
        "session": session, "query": "S(x)",
    })
    assert status == 200 and answer["row_count"] == 3


# ---------------------------------------------------------------------------
# Shutdown
# ---------------------------------------------------------------------------


def test_clean_shutdown_releases_the_port():
    manager = SessionManager(ServerPolicy())
    handle = serve_in_thread(manager).start()
    port = handle.port
    connect_nat(port)
    handle.close()
    with pytest.raises((ConnectionRefusedError, socket.timeout, OSError)):
        request(port, "GET", "/stats")
    assert len(manager) == 0  # sessions dropped by the shutdown


# ---------------------------------------------------------------------------
# Deadlines, cancellation, graceful drain (the resilience layer over HTTP)
# ---------------------------------------------------------------------------

#: a 4-way self-join that cannot finish within a few-millisecond deadline
BIG_JOIN = (
    "exists u. exists v. exists w. "
    "(F(x, u) & F(u, v) & F(v, w) & F(w, z))"
)


def connect_big(port, rows=60_000):
    """A session over a state big enough that BIG_JOIN runs for seconds."""
    status, _, body = request(port, "POST", "/connect", {
        "domain": "nat<",
        "schema": {"F": 2},
        "state": {"F": [[i, (i * 7) % rows] for i in range(rows)]},
    })
    assert status == 200
    return body["session"]


def wait_for_inflight(port, minimum=1, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, stats = request(port, "GET", "/stats")
        if stats["cancellation"]["inflight_queries"] >= minimum:
            return
        time.sleep(0.005)
    raise AssertionError("the query never showed up as in flight")


def test_deadline_exceeded_maps_to_504_with_payload():
    manager = SessionManager(
        ServerPolicy(rate=10_000.0, burst=1_000, time_limit_cap=0.01)
    )
    with serve_in_thread(manager) as handle:
        session = connect_big(handle.port)
        status, _, error = request(handle.port, "POST", "/query", {
            "session": session, "query": BIG_JOIN, "strategy": "compiled",
        })
    assert status == 504
    assert error["error"] == "DeadlineExceeded"
    assert error["operator"], "the payload names the operator reached"
    assert "partial_stats" in error and "message" in error


def test_post_cancel_aborts_an_inflight_query():
    manager = SessionManager(ServerPolicy(rate=10_000.0, burst=1_000))
    with serve_in_thread(manager) as handle:
        port = handle.port
        session = connect_big(port)
        outcome = {}

        def run():
            outcome["response"] = request(port, "POST", "/query", {
                "session": session, "query": BIG_JOIN, "strategy": "compiled",
            })

        worker = threading.Thread(target=run)
        worker.start()
        try:
            wait_for_inflight(port)
            status, _, receipt = request(port, "POST", "/cancel", {
                "session": session, "reason": "killed over http",
            })
            assert status == 200
            assert receipt == {"session": session, "cancelled": 1}
        finally:
            worker.join(timeout=30)
        assert not worker.is_alive()
        status, _, error = outcome["response"]
        assert status == 499
        assert error["error"] == "Cancelled"
        assert "killed over http" in error["message"]
        # The session survives its cancelled query and still answers.
        status, _, answer = request(port, "POST", "/query", {
            "session": session, "query": "F(x, y)",
            "strategy": "compiled", "state": {"F": [[1, 2]]},
        })
        assert status == 200 and answer["rows"] == [[1, 2]]
        _, _, stats = request(port, "GET", "/stats")
        assert stats["cancellation"]["cancelled"] == 1


def test_cancel_requires_post_and_tolerates_idle_sessions(served):
    assert request(served.port, "GET", "/cancel")[0] == 405
    session = connect_nat(served.port)
    status, _, receipt = request(served.port, "POST", "/cancel", {
        "session": session,
    })
    assert status == 200 and receipt["cancelled"] == 0  # nothing in flight
    assert request(served.port, "POST", "/cancel", {
        "session": session, "reason": 7,
    })[0] == 400


def test_shutdown_with_inflight_query_returns_a_structured_499():
    manager = SessionManager(
        ServerPolicy(rate=10_000.0, burst=1_000, shutdown_grace=0.05)
    )
    handle = serve_in_thread(manager).start()
    port = handle.port
    session = connect_big(port)
    outcome = {}

    def run():
        outcome["response"] = request(port, "POST", "/query", {
            "session": session, "query": BIG_JOIN, "strategy": "compiled",
        })

    worker = threading.Thread(target=run)
    worker.start()
    try:
        wait_for_inflight(port)
    finally:
        handle.close()
        worker.join(timeout=30)
    assert not worker.is_alive()
    status, _, error = outcome["response"]
    assert status == 499
    assert error["error"] == "Cancelled"
    assert "shutting down" in error["message"]
    # The port is released and every session was dropped.
    with pytest.raises((ConnectionRefusedError, socket.timeout, OSError)):
        request(port, "GET", "/stats")
    assert len(manager) == 0


def test_draining_manager_maps_to_503():
    manager = SessionManager(ServerPolicy(rate=10_000.0, burst=1_000))
    with serve_in_thread(manager) as handle:
        # Drain the manager directly while the HTTP front end is still up —
        # the window a real shutdown passes through before the port closes.
        manager.shutdown()
        status, _, error = request(handle.port, "POST", "/connect", {
            "domain": "nat<",
        })
    assert status == 503
    assert error["draining"] is True
    assert "shutting down" in error["error"]
