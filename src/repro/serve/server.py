"""A framework-free asyncio HTTP/SSE front end for the query engine.

Stdlib only, in the same spirit as the engine's gated numpy import: the
serving layer must not make the library grow a web-framework dependency, so
this module speaks just enough HTTP/1.1 over :func:`asyncio.start_server` to
expose four JSON endpoints —

* ``POST /connect`` — open a session (domain, schema, default state), get a
  session id back;
* ``POST /query`` — run a query on a session; JSON rows, or Server-Sent
  Events (``"stream": true``) chunking large answers;
* ``POST /explain`` — the analysis + plan the session would use, unexecuted;
* ``POST /mutate`` — apply an insert/delete delta to the session's default
  state; the next query recomputes its answer on the new state;
* ``GET /stats`` — sessions, shared plan cache, encode cache, admission
  counters, policy;
* ``POST /cancel`` — trip the cancel tokens of a session's in-flight
  queries; they abort at their next cooperative checkpoint;
* ``POST /disconnect`` — drop a session early (TTL would get it eventually),
  cancelling its in-flight queries first.

Failure statuses are structured: a query that exhausts its (clamped) time
budget answers ``504`` and a cancelled one ``499``, both with a JSON body
carrying the operator reached and partial execution stats (see
:meth:`repro.engine.budget.EvaluationInterrupted.payload`); a draining
server answers ``503`` to everything new while in-flight work finishes or
is cancelled within ``policy.shutdown_grace`` seconds.

The asyncio loop only parses requests and shovels bytes; every query runs on
the :class:`~repro.serve.sessions.SessionManager`'s thread pool (distinct
sessions concurrently, one session serially on its lock), so a slow query
never stalls the accept loop.  Admission control
(:mod:`repro.serve.admission`) runs *before* dispatch: rate-limited requests
get ``429`` with ``Retry-After``, an over-capacity server sheds load with
``503`` — both without touching a worker thread.
"""

from __future__ import annotations

import asyncio
import json
import threading
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from ..api.session import SessionError
from ..engine.budget import Budget, Cancelled, EvaluationInterrupted
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.state import DatabaseState, Delta
from .admission import AdmissionController, AdmissionError, AdmissionTicket
from .policy import DEFAULT_POLICY, ServerPolicy
from .sessions import (
    ManagedSession,
    ServerDraining,
    SessionManager,
    UnknownSessionError,
)

__all__ = ["QueryServer", "ServerHandle", "serve_in_thread"]

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    499: "Client Closed Request",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """An error that maps straight to an HTTP response."""

    def __init__(self, status: int, message: str, *, retry_after: float = 0.0):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


# ---------------------------------------------------------------------------
# JSON <-> engine objects
# ---------------------------------------------------------------------------


def _schema_from_json(spec: Any) -> DatabaseSchema:
    """``{"S": 1}`` or ``{"R": {"arity": 2, "attributes": ["lo", "hi"]}}``."""
    if spec is None:
        return DatabaseSchema()
    if not isinstance(spec, dict):
        raise _HttpError(400, "schema must be an object mapping names to arities")
    relations = []
    for name, value in spec.items():
        try:
            if isinstance(value, int):
                relations.append(RelationSchema(name, value))
            elif isinstance(value, dict):
                relations.append(
                    RelationSchema(
                        name,
                        int(value["arity"]),
                        tuple(value.get("attributes", ())),
                    )
                )
            else:
                raise ValueError(f"bad relation spec {value!r}")
        except (KeyError, TypeError, ValueError) as error:
            raise _HttpError(400, f"bad schema entry for {name!r}: {error}")
    return DatabaseSchema(tuple(relations))


def _json_element(value: Any) -> str:
    """The JSON form of an answer element JSON has no type for: a rational
    is its ``p/q`` text, the form the query parser reads as a constant."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


#: every response body is encoded by this one encoder (C-accelerated)
_dumps = json.JSONEncoder(default=_json_element).encode


def _state_from_json(schema: DatabaseSchema, spec: Any) -> Optional[DatabaseState]:
    """``{"S": [[1], [2]]}`` — rows as JSON arrays of ints/strings."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise _HttpError(400, "state must be an object mapping relation names to rows")
    try:
        return DatabaseState(schema, {name: rows for name, rows in spec.items()})
    except (TypeError, ValueError, KeyError) as error:
        raise _HttpError(400, f"bad state: {error}")


def _delta_from_json(body: Dict[str, Any]) -> Delta:
    """``{"insert": {"S": [[1]]}, "delete": {"S": [[2]]}}`` — either optional."""
    def rows_of(spec: Any, verb: str) -> Dict[str, Any]:
        if spec is None:
            return {}
        if not isinstance(spec, dict):
            raise _HttpError(
                400, f"{verb!r} must be an object mapping relation names to rows"
            )
        table = {}
        for name, rows in spec.items():
            if not isinstance(rows, list):
                raise _HttpError(400, f"{verb}[{name!r}] must be a list of rows")
            table[name] = [tuple(row) if isinstance(row, list) else row for row in rows]
        return table

    try:
        return Delta(
            inserts=rows_of(body.get("insert"), "insert"),
            deletes=rows_of(body.get("delete"), "delete"),
        )
    except (TypeError, ValueError) as error:
        raise _HttpError(400, f"bad delta: {error}")


def _budget_from_json(spec: Any) -> Optional[Budget]:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise _HttpError(400, "budget must be an object")
    allowed = {"max_rows", "max_candidates", "fuel", "time_limit"}
    unknown = set(spec) - allowed
    if unknown:
        raise _HttpError(400, f"unknown budget field(s): {sorted(unknown)}")
    try:
        return Budget(**spec)
    except (TypeError, ValueError) as error:
        raise _HttpError(400, f"bad budget: {error}")


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


class QueryServer:
    """One listening server over one :class:`SessionManager`."""

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        *,
        policy: Optional[ServerPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 8765,
    ):
        if manager is None:
            manager = SessionManager(policy if policy is not None else DEFAULT_POLICY)
        elif policy is not None and policy is not manager.policy:
            raise ValueError("pass the policy via the SessionManager, not both")
        self._manager = manager
        self._policy = manager.policy
        self._admission = AdmissionController(self._policy)
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: live connection-handler tasks, so a graceful stop can drain them
        self._conn_tasks: "set[asyncio.Task[None]]" = set()

    @property
    def manager(self) -> SessionManager:
        return self._manager

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with ``port=0``)."""
        if self._server is None:
            return self._port
        sockets = self._server.sockets or []
        return sockets[0].getsockname()[1] if sockets else self._port

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful stop: close the listener, drain, then drop everything.

        The sequence (idempotent):

        1. close the listening socket — no new connections;
        2. run :meth:`SessionManager.shutdown` off-loop: it stops admitting
           (new requests on *kept-alive* handler tasks get 503), waits up to
           ``policy.shutdown_grace`` for in-flight queries, then trips their
           cancel tokens so stragglers abort at the next checkpoint;
        3. await the surviving connection handlers so every in-flight client
           receives its response (a result, or a structured 499/504) before
           the loop goes away.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Off the event loop: shutdown() blocks polling the drain, and the
        # loop must keep running to shovel final responses to clients.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._manager.shutdown)
        pending = {task for task in self._conn_tasks if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=self._policy.shutdown_grace)

    # -- request plumbing ----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as error:
                await self._write_json(
                    writer, error.status, {"error": str(error)}
                )
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # client went away or sent garbage; nothing to answer
            await self._dispatch(method, path, body, writer)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, Any]]:
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "headers too large")
        if len(header_blob) > _MAX_HEADER_BYTES:
            raise _HttpError(413, "headers too large")
        head, _, _ = header_blob.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
        raw = await reader.readexactly(length) if length else b""
        body: Dict[str, Any] = {}
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise _HttpError(400, f"request body is not valid JSON: {error}")
            if not isinstance(body, dict):
                raise _HttpError(400, "request body must be a JSON object")
        path = target.split("?", 1)[0]
        return method, path, body

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        blob = _dumps(payload).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(blob)}",
            "Connection: close",
        ]
        headers.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + blob)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: Dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            if (method, path) == ("POST", "/connect"):
                payload = self._handle_connect(body)
            elif (method, path) == ("POST", "/query"):
                await self._handle_query(body, writer)
                return
            elif (method, path) == ("POST", "/explain"):
                payload = await self._handle_explain(body)
            elif (method, path) == ("POST", "/mutate"):
                payload = await self._handle_mutate(body)
            elif (method, path) == ("GET", "/stats"):
                payload = self._handle_stats()
            elif (method, path) == ("POST", "/cancel"):
                payload = self._handle_cancel(body)
            elif (method, path) == ("POST", "/disconnect"):
                payload = self._handle_disconnect(body)
            elif path in ("/connect", "/query", "/explain", "/mutate",
                          "/cancel", "/disconnect", "/stats"):
                raise _HttpError(405, f"{method} not supported on {path}")
            else:
                raise _HttpError(404, f"no route {method} {path}")
        except _HttpError as error:
            extra: Tuple[Tuple[str, str], ...] = ()
            if error.retry_after > 0:
                extra = (("Retry-After", f"{error.retry_after:.3f}"),)
            await self._write_json(
                writer, error.status, {"error": str(error)}, extra_headers=extra
            )
            return
        except EvaluationInterrupted as error:
            # 504 for a deadline the server's clamp imposed, 499 when the
            # client (or a drain) cancelled; the body carries the operator
            # reached and the partial stats so the failure is diagnosable.
            status = 499 if isinstance(error, Cancelled) else 504
            await self._write_json(writer, status, error.payload())
            return
        except ServerDraining as error:
            await self._write_json(
                writer, 503, {"error": str(error), "draining": True}
            )
            return
        except Exception as error:  # noqa: BLE001 - last-resort 500
            await self._write_json(
                writer, 500, {"error": f"{type(error).__name__}: {error}"}
            )
            return
        await self._write_json(writer, 200, payload)

    # -- handlers ------------------------------------------------------------

    def _handle_connect(self, body: Dict[str, Any]) -> Dict[str, Any]:
        domain = body.get("domain", "equality")
        schema = _schema_from_json(body.get("schema"))
        state = _state_from_json(schema, body.get("state"))
        options: Dict[str, Any] = {}
        for key in ("guard", "restrict"):
            if key in body:
                options[key] = bool(body[key])
        try:
            managed = self._manager.connect(
                domain, schema, state=state, **options
            )
        except (SessionError, LookupError, ValueError) as error:
            raise _HttpError(400, str(error))
        # Connecting may have expired or evicted sessions: drop their buckets.
        self._admission.retain(self._manager.session_ids())
        return {
            "session": managed.session_id,
            "domain": managed.session.domain.name,
            "relations": list(managed.session.schema.names),
            "ttl_seconds": self._policy.session_ttl,
        }

    def _admitted_session(self, body: Dict[str, Any]) -> str:
        session_id = body.get("session")
        if not isinstance(session_id, str) or not session_id:
            raise _HttpError(400, "missing 'session' (POST /connect first)")
        return session_id

    def _live_session(self, session_id: str) -> ManagedSession:
        """The live session, or 404 — checked *before* admission, so an
        unknown id never gets a rate-limit bucket."""
        try:
            return self._manager.get(session_id)
        except UnknownSessionError as error:
            raise _HttpError(404, str(error))

    def _admit(self, session_id: str) -> AdmissionTicket:
        try:
            return self._admission.admit(session_id)
        except AdmissionError as error:
            raise _HttpError(
                error.status, str(error), retry_after=error.retry_after
            )

    async def _handle_query(
        self, body: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        session_id = self._admitted_session(body)
        query = body.get("query")
        if not isinstance(query, str) or not query:
            raise _HttpError(400, "missing 'query' (calculus text)")
        strategy = body.get("strategy", "auto")
        budget = _budget_from_json(body.get("budget"))
        stream = bool(body.get("stream", False))
        managed = self._live_session(session_id)
        ticket = self._admit(session_id)
        try:
            state = _state_from_json(managed.session.schema, body.get("state"))
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self._manager.executor,
                lambda: self._manager.run_query(
                    session_id, query, state, strategy=strategy, budget=budget
                ),
            )
        except UnknownSessionError as error:
            raise _HttpError(404, str(error))
        except (SessionError, ValueError) as error:
            raise _HttpError(400, str(error))
        finally:
            ticket.release()
        # The answer's sorted row tuple goes to the encoder as it is: tuples
        # encode as JSON arrays, so the body is the same without a copy.
        rows = result.answer.rows()
        meta = {
            "method": result.answer.method,
            "is_finite": result.answer.is_finite,
            "row_count": result.answer.row_count,
            "elapsed_ms": round(result.elapsed * 1000, 3),
            "plan": result.plan.explain(),
            "rewritten": result.rewritten,
            "verdict": None if result.verdict is None else result.verdict.status.value,
        }
        if not stream:
            await self._write_json(writer, 200, dict(meta, rows=rows))
            return
        await self._write_sse(writer, meta, rows)

    async def _write_sse(
        self,
        writer: asyncio.StreamWriter,
        meta: Dict[str, Any],
        rows: Any,
    ) -> None:
        """Stream an answer as Server-Sent Events: meta, row chunks, done."""
        headers = [
            "HTTP/1.1 200 OK",
            "Content-Type: text/event-stream",
            "Cache-Control: no-cache",
            "Connection: close",
        ]
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n")

        def event(name: str, payload: Any) -> bytes:
            return f"event: {name}\ndata: {_dumps(payload)}\n\n".encode("utf-8")

        writer.write(event("meta", meta))
        chunk = self._policy.sse_chunk_rows
        for start in range(0, len(rows), chunk):
            writer.write(event("rows", rows[start : start + chunk]))
            await writer.drain()
        writer.write(event("done", {"row_count": len(rows)}))
        await writer.drain()

    async def _handle_explain(self, body: Dict[str, Any]) -> Dict[str, Any]:
        session_id = self._admitted_session(body)
        query = body.get("query")
        if not isinstance(query, str) or not query:
            raise _HttpError(400, "missing 'query' (calculus text)")
        strategy = body.get("strategy", "auto")
        managed = self._live_session(session_id)
        ticket = self._admit(session_id)
        try:
            state = _state_from_json(managed.session.schema, body.get("state"))
            loop = asyncio.get_running_loop()

            def explain() -> str:
                with managed.lock:
                    return managed.session.explain(query, state, strategy=strategy)

            text = await loop.run_in_executor(self._manager.executor, explain)
        except UnknownSessionError as error:
            raise _HttpError(404, str(error))
        except (SessionError, ValueError) as error:
            raise _HttpError(400, str(error))
        finally:
            ticket.release()
        return {"session": session_id, "explanation": text}

    async def _handle_mutate(self, body: Dict[str, Any]) -> Dict[str, Any]:
        session_id = self._admitted_session(body)
        delta = _delta_from_json(body)
        self._live_session(session_id)
        ticket = self._admit(session_id)
        try:
            loop = asyncio.get_running_loop()
            receipt = await loop.run_in_executor(
                self._manager.executor,
                lambda: self._manager.mutate(session_id, delta),
            )
        except UnknownSessionError as error:
            raise _HttpError(404, str(error))
        except (SessionError, ValueError) as error:
            raise _HttpError(400, str(error))
        finally:
            ticket.release()
        return receipt

    def _handle_stats(self) -> Dict[str, Any]:
        stats = self._manager.stats()
        stats["admission"] = self._admission.stats()
        stats["policy"] = self._policy.describe()
        return stats

    def _handle_cancel(self, body: Dict[str, Any]) -> Dict[str, Any]:
        session_id = self._admitted_session(body)
        reason = body.get("reason")
        if reason is not None and not isinstance(reason, str):
            raise _HttpError(400, "'reason' must be a string")
        cancelled = self._manager.cancel_session(
            session_id, reason=reason or "cancelled by client"
        )
        return {"session": session_id, "cancelled": cancelled}

    def _handle_disconnect(self, body: Dict[str, Any]) -> Dict[str, Any]:
        session_id = self._admitted_session(body)
        closed = self._manager.close(session_id)
        self._admission.forget(session_id)
        return {"session": session_id, "closed": closed}


# ---------------------------------------------------------------------------
# Running in a background thread (tests, smoke checks, embedding)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on a daemon thread; ``close()`` is a clean shutdown."""

    def __init__(self, server: QueryServer):
        self._server = server
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def server(self) -> QueryServer:
        return self._server

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced via start()
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self._server.start()
        self._ready.set()
        await self._stop.wait()
        await self._server.stop()

    def start(self, timeout: float = 10.0) -> "ServerHandle":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error!r}")
        return self

    def close(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already gone
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server did not shut down in time")

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def serve_in_thread(
    manager: Optional[SessionManager] = None,
    *,
    policy: Optional[ServerPolicy] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServerHandle:
    """A :class:`ServerHandle` on an ephemeral port (by default), not yet
    started — entering it as a context manager starts and cleanly stops it::

        with serve_in_thread() as handle:
            ...  # http://127.0.0.1:{handle.port}
    """
    server = QueryServer(manager, policy=policy, host=host, port=port)
    return ServerHandle(server)
