"""Session-id-keyed session lifecycles for the serving layer.

The pattern follows the per-session pod manager sketched in SNIPPETS.md
(Snippet 1): every connection gets a session id derived by hashing a
monotonic counter with fresh randomness, the id keys an isolated unit of
state with a TTL, and the manager owns create / lookup / expire / evict for
the whole population.  Here the unit is not a Kubernetes pod but a
:class:`~repro.api.session.Session` plus its default database state and a
lock:

* **isolation** — each session has its own domain, schema, guards, and
  default state; nothing a session does can corrupt another (the only
  shared structure is the thread-safe plan cache);
* **serialization per session** — a session's queries run under its
  ``lock``, so one client's requests execute in order even when sent
  concurrently; *distinct* sessions run genuinely concurrently on the
  manager's thread pool;
* **lifecycle** — sessions expire after ``policy.session_ttl`` idle seconds
  (every use refreshes the clock), and when ``policy.max_sessions`` is
  exceeded the least recently used session is evicted early;
* **shared caches** — every session is created with the manager's
  process-wide :class:`~repro.engine.plan_cache.PlanCache`, so any
  session's compile warms every other session.  Encoded columns live on
  the :class:`~repro.relational.state.DatabaseState` they encode, so
  sessions querying the same state object share them, and a mutation
  hands them to the new state (:func:`repro.relational.columnar.apply_delta`).
"""

from __future__ import annotations

import hashlib
import secrets
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Union

from ..api.session import QueryResult, Session
from ..domains.base import Domain
from ..engine.budget import Budget, CancelToken
from ..engine.plan_cache import PlanCache
from ..relational.schema import DatabaseSchema
from ..relational.state import DatabaseState, Delta
from .policy import DEFAULT_POLICY, ServerPolicy

__all__ = [
    "ManagedSession",
    "SessionManager",
    "UnknownSessionError",
    "ServerDraining",
]


class UnknownSessionError(LookupError):
    """The session id is not (or no longer) registered."""


class ServerDraining(RuntimeError):
    """The manager is shutting down and no longer admits work."""


class ManagedSession:
    """One live session: the Session itself plus serving bookkeeping."""

    def __init__(
        self,
        session_id: str,
        session: Session,
        created_at: float,
        state: Optional[DatabaseState] = None,
    ):
        self.session_id = session_id
        self.session = session
        self.created_at = created_at
        self.last_used = created_at
        #: the default state queries run against when the request names none
        self.state = state
        #: serializes this session's queries (distinct sessions do not share it)
        self.lock = threading.Lock()
        self.queries_served = 0
        self.mutations_applied = 0

    def touch(self, now: float) -> None:
        self.last_used = now

    def expired(self, now: float, ttl: float) -> bool:
        return now - self.last_used > ttl

    def describe(self) -> Dict[str, Any]:
        """JSON-ready session facts (for ``/stats``)."""
        return {
            "session_id": self.session_id,
            "domain": self.session.domain.name,
            "relations": list(self.session.schema.names),
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "state_version": None if self.state is None else self.state.version,
            "idle_seconds": None,  # filled by the manager, which owns the clock
        }


def _new_session_id(counter: int) -> str:
    """A fresh, unguessable session id (hash of counter + randomness)."""
    combined = f"{counter}-{secrets.token_hex(16)}"
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()[:16]


class SessionManager:
    """Owns every live session, the shared plan cache, and the worker pool."""

    def __init__(
        self,
        policy: ServerPolicy = DEFAULT_POLICY,
        *,
        clock: Optional[Callable[[], float]] = None,
        plan_cache: Optional[PlanCache] = None,
    ):
        self._policy = policy
        self._clock = clock if clock is not None else time.monotonic
        self._plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(maxsize=policy.plan_cache_size)
        )
        self._sessions: "OrderedDict[str, ManagedSession]" = OrderedDict()
        self._lock = threading.Lock()
        self._counter = 0
        self._created = 0
        self._expired = 0
        self._evicted = 0
        self._closed = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        #: in-flight cancel tokens per session id (the cancellation registry
        #: behind ``/cancel`` and ``/disconnect``)
        self._tokens: Dict[str, List[CancelToken]] = {}
        self._cancelled = 0
        self._inflight = 0
        self._draining = False

    # -- shared infrastructure ----------------------------------------------

    @property
    def policy(self) -> ServerPolicy:
        return self._policy

    @property
    def plan_cache(self) -> PlanCache:
        """The process-wide plan cache every managed session compiles through."""
        return self._plan_cache

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The worker pool (created lazily so library use never spawns threads)."""
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._policy.workers,
                    thread_name_prefix="repro-serve",
                )
            return self._executor

    # -- lifecycle -----------------------------------------------------------

    def connect(
        self,
        domain: Union[str, Domain] = "equality",
        schema: Optional[DatabaseSchema] = None,
        *,
        state: Optional[DatabaseState] = None,
        **options: Any,
    ) -> ManagedSession:
        """Create a session; expire stale ones and evict over capacity.

        ``options`` are forwarded to :class:`~repro.api.session.Session`
        (``guard``, ``restrict``, ``budget``, ...) — except the plan cache,
        which is always the manager's shared one.
        """
        if self._draining:
            raise ServerDraining("the server is shutting down; not accepting sessions")
        options.pop("plan_cache", None)
        options.pop("plan_cache_size", None)
        session = Session(domain, schema, plan_cache=self._plan_cache, **options)
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            self._counter += 1
            session_id = _new_session_id(self._counter)
            managed = ManagedSession(session_id, session, now, state=state)
            self._sessions[session_id] = managed
            while len(self._sessions) > self._policy.max_sessions:
                _, evicted = self._sessions.popitem(last=False)
                self._evicted += 1
            self._created += 1
            return managed

    def get(self, session_id: str) -> ManagedSession:
        """The live session for ``session_id`` (refreshing TTL and recency)."""
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            managed = self._sessions.get(session_id)
            if managed is None:
                raise UnknownSessionError(
                    f"unknown or expired session {session_id!r}; POST /connect "
                    "for a fresh one"
                )
            managed.touch(now)
            self._sessions.move_to_end(session_id)
            return managed

    def close(self, session_id: str) -> bool:
        """Drop a session explicitly; True iff it was live.

        Cancels the session's in-flight queries first, so a ``/disconnect``
        aborts work the client will never read.
        """
        self.cancel_session(session_id, reason="session disconnected")
        with self._lock:
            managed = self._sessions.pop(session_id, None)
            if managed is not None:
                self._closed += 1
            return managed is not None

    # -- cancellation registry ----------------------------------------------

    def cancel_session(
        self, session_id: str, reason: str = "cancelled by client"
    ) -> int:
        """Trip every in-flight cancel token of a session; tokens tripped.

        The queries abort at their next cooperative checkpoint with a
        :class:`~repro.engine.budget.Cancelled` carrying ``reason``.
        """
        with self._lock:
            tokens = list(self._tokens.get(session_id, ()))
        tripped = sum(1 for token in tokens if token.cancel(reason))
        if tripped:
            with self._lock:
                self._cancelled += tripped
        return tripped

    def cancel_all(self, reason: str = "server shutting down") -> int:
        """Trip every in-flight cancel token across sessions."""
        with self._lock:
            tokens = [t for bucket in self._tokens.values() for t in bucket]
        tripped = sum(1 for token in tokens if token.cancel(reason))
        if tripped:
            with self._lock:
                self._cancelled += tripped
        return tripped

    def _register_token(self, session_id: str, token: CancelToken) -> None:
        with self._lock:
            self._tokens.setdefault(session_id, []).append(token)
            self._inflight += 1

    def _unregister_token(self, session_id: str, token: CancelToken) -> None:
        with self._lock:
            bucket = self._tokens.get(session_id)
            if bucket is not None:
                try:
                    bucket.remove(token)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not bucket:
                    del self._tokens[session_id]
            self._inflight -= 1

    @property
    def draining(self) -> bool:
        """True once a graceful shutdown has begun (no new work admitted)."""
        return self._draining

    def inflight_queries(self) -> int:
        """Queries currently executing (or queued with a registered token)."""
        with self._lock:
            return self._inflight

    def sweep(self) -> int:
        """Expire TTL-stale sessions now; the number dropped."""
        with self._lock:
            return self._sweep_locked(self._clock())

    def _sweep_locked(self, now: float) -> int:
        stale = [
            session_id
            for session_id, managed in self._sessions.items()
            if managed.expired(now, self._policy.session_ttl)
        ]
        for session_id in stale:
            del self._sessions[session_id]
            self._expired += 1
        return len(stale)

    def session_ids(self) -> List[str]:
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- query execution -----------------------------------------------------

    def run_query(
        self,
        session_id: str,
        query: Any,
        state: Optional[DatabaseState] = None,
        *,
        strategy: str = "auto",
        budget: Optional[Budget] = None,
        cancel_token: Optional[CancelToken] = None,
    ) -> QueryResult:
        """Run one query on a session, serialized on the session's lock.

        The budget is clamped by server policy before execution — the
        clamped budget always carries a time limit, so every served query
        runs under a cooperative deadline.  A cancel token (fresh unless one
        is passed in) is registered for the duration, so
        :meth:`cancel_session` and the ``/cancel`` endpoint can abort the
        query mid-flight.  An evicted or expired session raises
        :class:`UnknownSessionError` — clients reconnect rather than
        silently resurrect state.
        """
        if self._draining:
            raise ServerDraining("the server is shutting down; not accepting queries")
        managed = self.get(session_id)
        clamped = self._policy.clamp(budget)
        token = cancel_token if cancel_token is not None else CancelToken()
        self._register_token(session_id, token)
        try:
            with managed.lock:
                result = managed.session.run(
                    query,
                    state if state is not None else managed.state,
                    strategy=strategy,
                    budget=clamped,
                    cancel_token=token,
                )
                managed.queries_served += 1
        finally:
            self._unregister_token(session_id, token)
        managed.touch(self._clock())
        return result

    def mutate(self, session_id: str, delta: Delta) -> Dict[str, Any]:
        """Apply a delta to a session's default state; JSON-ready receipt.

        The mutation runs under the session's lock (serialized with its
        queries), replaces the managed default state with the one
        :meth:`Session.apply_delta <repro.api.session.Session.apply_delta>`
        returns — structurally sharing untouched relations, growing encoded
        columns on insert-only deltas.  The next query recomputes its answer
        on the new state.
        """
        if self._draining:
            raise ServerDraining("the server is shutting down; not accepting mutations")
        managed = self.get(session_id)
        with managed.lock:
            base = managed.state if managed.state is not None else managed.session.state()
            new_state = managed.session.apply_delta(base, delta)
            changed = 0
            if new_state is not base:
                managed.state = new_state
                managed.mutations_applied += 1
                changed = new_state.effective_delta.row_count()
            receipt = {
                "session_id": session_id,
                "applied": new_state is not base,
                "changed_rows": changed,
                "state_version": new_state.version,
                "fingerprint": f"{new_state.fingerprint():016x}",
                "total_rows": sum(
                    len(relation) for relation in new_state.relations.values()
                ),
            }
        managed.touch(self._clock())
        return receipt

    def submit_query(
        self,
        session_id: str,
        query: Any,
        state: Optional[DatabaseState] = None,
        *,
        strategy: str = "auto",
        budget: Optional[Budget] = None,
        cancel_token: Optional[CancelToken] = None,
    ) -> "Future[QueryResult]":
        """:meth:`run_query` on the worker pool; distinct sessions overlap."""
        return self.executor.submit(
            self.run_query, session_id, query, state, strategy=strategy,
            budget=budget, cancel_token=cancel_token,
        )

    # -- stats / teardown ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-ready counters across sessions and the shared caches."""
        now = self._clock()
        with self._lock:
            sessions = []
            for managed in self._sessions.values():
                facts = managed.describe()
                facts["idle_seconds"] = round(now - managed.last_used, 3)
                sessions.append(facts)
            counters = {
                "live_sessions": len(self._sessions),
                "created": self._created,
                "expired": self._expired,
                "evicted": self._evicted,
                "closed": self._closed,
            }
            cancellation = {
                "inflight_queries": self._inflight,
                "cancelled": self._cancelled,
                "draining": self._draining,
            }
        info = self._plan_cache.info()
        plan_cache = {
            "hits": info.hits,
            "misses": info.misses,
            "evictions": info.evictions,
            "size": info.size,
            "maxsize": info.maxsize,
            "hit_rate": round(info.hit_rate, 4),
        }
        from ..relational.columnar import encode_cache_info

        encode_info = encode_cache_info()
        return {
            "sessions": counters,
            "session_details": sessions,
            "cancellation": cancellation,
            "plan_cache": plan_cache,
            "encode_cache": {
                "hits": encode_info.hits,
                "misses": encode_info.misses,
                "grown": encode_info.grown,
                "invalidated": encode_info.invalidated,
                "grown_columns": encode_info.grown_columns,
            },
        }

    def shutdown(self, grace: Optional[float] = None) -> Dict[str, Any]:
        """Graceful shutdown: stop admitting, drain, cancel, stop the pool.

        Idempotent.  The sequence is:

        1. flip the draining flag — :meth:`connect`, :meth:`run_query`, and
           :meth:`mutate` reject new work with :class:`ServerDraining`;
        2. wait up to ``grace`` seconds (``policy.shutdown_grace`` by
           default) for in-flight queries to finish on their own;
        3. trip every remaining cancel token — stragglers abort at their
           next cooperative checkpoint — and wait for them to unwind;
        4. drop every session and stop the worker pool.

        Returns a JSON-ready receipt of what the drain did.
        """
        grace = self._policy.shutdown_grace if grace is None else grace
        with self._lock:
            already = self._draining
            self._draining = True
        drained_naturally = True
        cancelled = 0
        if not already:
            end = time.monotonic() + grace
            while self.inflight_queries() > 0 and time.monotonic() < end:
                time.sleep(0.01)
            drained_naturally = self.inflight_queries() == 0
            cancelled = self.cancel_all("server shutting down")
        with self._lock:
            self._sessions.clear()
            executor, self._executor = self._executor, None
        if executor is not None:
            # The pool's queries were cancelled cooperatively above, so this
            # wait is bounded by one checkpoint interval, not a full query.
            executor.shutdown(wait=True)
        return {
            "drained_naturally": drained_naturally,
            "cancelled_inflight": cancelled,
            "grace": grace,
        }
