"""repro.serve — the query service layer.

Turns the single-caller library into a multi-tenant service:

* :mod:`repro.serve.sessions` — :class:`SessionManager`, session-id-keyed
  :class:`~repro.api.session.Session` lifecycles (TTL expiry, LRU eviction,
  per-session serialization, a shared thread pool, and one in-memory
  :class:`~repro.engine.plan_cache.PlanCache` shared by every session);
* :mod:`repro.serve.admission` — :class:`TokenBucket` rate limiting per
  session id, bounded in-flight load shedding, fast 429/503 rejection;
* :mod:`repro.serve.policy` — :class:`ServerPolicy`, including per-request
  :class:`~repro.engine.budget.Budget` clamping;
* :mod:`repro.serve.server` — the framework-free asyncio HTTP/SSE front end
  (``/connect``, ``/query``, ``/explain``, ``/mutate``, ``/stats``,
  ``/disconnect``).

Run one with ``python -m repro.serve`` (see ``README.md``), or embed::

    from repro.serve import SessionManager, ServerPolicy, serve_in_thread

    manager = SessionManager(ServerPolicy(max_sessions=16))
    with serve_in_thread(manager) as handle:
        ...  # http://127.0.0.1:{handle.port}
"""

from .admission import AdmissionController, AdmissionError, TokenBucket
from .policy import DEFAULT_POLICY, ServerPolicy
from .server import QueryServer, ServerHandle, serve_in_thread
from .sessions import ManagedSession, SessionManager, UnknownSessionError

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "TokenBucket",
    "DEFAULT_POLICY",
    "ServerPolicy",
    "QueryServer",
    "ServerHandle",
    "serve_in_thread",
    "ManagedSession",
    "SessionManager",
    "UnknownSessionError",
]
