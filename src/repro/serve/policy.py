"""Server policy: the knobs that turn the library into a multi-tenant service.

A single :class:`ServerPolicy` value configures every serving component —
session lifecycle and the shared plan cache (:mod:`repro.serve.sessions`),
admission control (:mod:`repro.serve.admission`), and the HTTP front end
(:mod:`repro.serve.server`).  It is a frozen dataclass so a running server's
policy can be reported verbatim from ``/stats`` without aliasing worries.

The one piece of *behaviour* here is :meth:`ServerPolicy.clamp`: per-request
:class:`~repro.engine.budget.Budget` values are taken from the client but
**clamped** by the server's caps, so no request can buy more enumeration
candidates, answer rows, fuel, or wall-clock than the operator allows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from ..engine.budget import Budget

__all__ = ["ServerPolicy", "DEFAULT_POLICY"]


@dataclass(frozen=True)
class ServerPolicy:
    """Operator-set limits and sizes for one server process."""

    # -- session lifecycle ---------------------------------------------------
    #: sessions kept alive at once; beyond this the least recently used is
    #: evicted (even if not yet expired)
    max_sessions: int = 64
    #: idle seconds before a session expires (TTL; refreshed on every use)
    session_ttl: float = 300.0

    # -- per-request budget caps --------------------------------------------
    #: hard ceilings a request's Budget is clamped to (see :meth:`clamp`)
    max_rows_cap: int = 10_000
    max_candidates_cap: int = 100_000
    fuel_cap: int = 100_000
    #: wall-clock ceiling per request, seconds (also the default when the
    #: request does not set a time limit)
    time_limit_cap: float = 30.0

    # -- rate limiting / queueing -------------------------------------------
    #: token-bucket refill rate per session id, requests/second
    rate: float = 50.0
    #: token-bucket capacity (burst size) per session id
    burst: int = 20
    #: requests admitted concurrently (running + queued on the thread pool);
    #: beyond this the server rejects fast with 503 instead of queueing
    max_inflight: int = 32
    #: worker threads executing queries (distinct sessions run concurrently;
    #: one session's queries serialize on its lock)
    workers: int = 8

    # -- shared plan cache ---------------------------------------------------
    #: entries in the process-wide shared plan cache
    plan_cache_size: int = 1024

    # -- HTTP/SSE ------------------------------------------------------------
    #: rows per SSE ``rows`` event when streaming large answers
    sse_chunk_rows: int = 256

    # -- resilience ----------------------------------------------------------
    #: seconds a graceful shutdown waits for in-flight queries to drain
    #: before cancelling them
    shutdown_grace: float = 5.0
    #: maximum relative jitter added to computed ``Retry-After`` values
    #: (0.25 = up to +25%), de-synchronizing client retry stampedes
    retry_jitter: float = 0.25

    def __post_init__(self) -> None:
        for name in ("max_sessions", "burst", "max_inflight", "workers",
                     "plan_cache_size", "sse_chunk_rows"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        # Each float bound is written so NaN fails it: every comparison
        # with NaN is false, so ``value <= 0`` would let it through.
        for name in ("session_ttl", "rate", "time_limit_cap"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in ("max_rows_cap", "max_candidates_cap", "fuel_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        for name in ("shutdown_grace", "retry_jitter"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    def clamp(self, requested: Optional[Budget] = None) -> Budget:
        """The budget a request actually runs under.

        Every numeric bound is the minimum of what the client asked for and
        the server's cap; a missing budget (or a missing time limit) gets the
        caps outright.  Clamping never *raises* a request's own bounds.
        """
        if requested is None:
            return Budget(
                max_rows=self.max_rows_cap,
                max_candidates=self.max_candidates_cap,
                fuel=self.fuel_cap,
                time_limit=self.time_limit_cap,
            )
        time_limit = (
            self.time_limit_cap
            if requested.time_limit is None
            else min(requested.time_limit, self.time_limit_cap)
        )
        return Budget(
            max_rows=min(requested.max_rows, self.max_rows_cap),
            max_candidates=min(requested.max_candidates, self.max_candidates_cap),
            fuel=min(requested.fuel, self.fuel_cap),
            time_limit=time_limit,
        )

    def describe(self) -> Dict[str, Any]:
        """The policy as a JSON-ready dict (for the ``/stats`` endpoint)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: the policy a bare ``repro.serve`` server runs under
DEFAULT_POLICY = ServerPolicy()
