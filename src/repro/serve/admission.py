"""Admission control: decide *fast* whether a request may run at all.

Three independent gates, all cheap enough to sit in front of every request:

* **budget clamping** — :meth:`repro.serve.policy.ServerPolicy.clamp` caps
  the per-request :class:`~repro.engine.budget.Budget` (applied by the
  caller; this module gates *whether*, the policy gates *how much*);
* **rate limiting** — a classic :class:`TokenBucket` per session id
  (``policy.rate`` tokens/second, ``policy.burst`` capacity): a session
  hammering the server gets 429-style rejections with a ``retry_after``
  hint while other sessions are unaffected;
* **load shedding** — a bounded in-flight counter: when
  ``policy.max_inflight`` requests are already running or queued on the
  worker pool, new arrivals are rejected immediately (503-style) instead of
  building an unbounded queue.  Rejecting fast keeps tail latency bounded —
  a client retry is cheaper than a request parked behind thirty others.

Everything is thread-safe and clock-injectable (tests pass a fake
``clock``); nothing here knows about HTTP — the server layer translates
:class:`AdmissionError` into status codes.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Iterable, Optional

from .policy import ServerPolicy

__all__ = ["AdmissionError", "TokenBucket", "AdmissionController"]


class AdmissionError(Exception):
    """A request was rejected before execution.

    ``status`` mirrors the HTTP status the server responds with (429 for
    rate limiting, 503 for load shedding); ``retry_after`` is the seconds a
    well-behaved client should wait before retrying.
    """

    def __init__(self, message: str, *, status: int, retry_after: float = 0.0):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second, ``burst`` capacity.

    >>> bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: 0.0)
    >>> bucket.try_acquire(), bucket.try_acquire(), bucket.try_acquire()
    (True, True, False)
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float],
    ):
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be positive, got {rate!r}, {burst!r}")
        self._rate = rate
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self._burst, self._tokens + elapsed * self._rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available at the refill rate."""
        with self._lock:
            self._refill(self._clock())
            deficit = tokens - self._tokens
            if deficit <= 0:
                return 0.0
            return deficit / self._rate

    @property
    def tokens(self) -> float:
        """The current token count (after refill; for stats/tests)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class AdmissionController:
    """The per-server gate combining rate limiting and load shedding."""

    def __init__(
        self,
        policy: ServerPolicy,
        clock: Optional[Callable[[], float]] = None,
        rng: Optional[random.Random] = None,
    ):
        self._policy = policy
        self._clock = clock if clock is not None else time.monotonic
        self._rng = rng if rng is not None else random.Random()
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight = 0
        self._lock = threading.Lock()
        self._admitted = 0
        self._rejected_rate = 0
        self._rejected_load = 0

    def _bucket_for(self, session_id: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(session_id)
            if bucket is None:
                bucket = TokenBucket(
                    self._policy.rate, self._policy.burst, self._clock
                )
                self._buckets[session_id] = bucket
            return bucket

    def _jittered(self, seconds: float) -> float:
        """``Retry-After`` with up to ``policy.retry_jitter`` relative jitter.

        Every rejected client computing the *same* deterministic backoff
        retries at the same instant; spreading the hints de-synchronizes the
        stampede.  Jitter only ever lengthens the wait, so the hint stays
        honest about when capacity will actually exist.
        """
        if seconds <= 0:
            return seconds
        return seconds * (1.0 + self._rng.uniform(0.0, self._policy.retry_jitter))

    def admit(self, session_id: str) -> "AdmissionTicket":
        """Admit one request for ``session_id`` or raise :class:`AdmissionError`.

        Returns a ticket that **must** be released (use it as a context
        manager) — the ticket holds one in-flight slot.
        """
        bucket = self._bucket_for(session_id)
        if not bucket.try_acquire():
            with self._lock:
                self._rejected_rate += 1
            raise AdmissionError(
                f"session {session_id!r} exceeded {self._policy.rate}/s "
                f"(burst {self._policy.burst}); retry later",
                status=429,
                retry_after=self._jittered(bucket.retry_after()),
            )
        with self._lock:
            if self._inflight >= self._policy.max_inflight:
                self._rejected_load += 1
                raise AdmissionError(
                    f"server at capacity ({self._policy.max_inflight} requests "
                    "in flight); retry later",
                    status=503,
                    retry_after=self._jittered(1.0),
                )
            self._inflight += 1
            self._admitted += 1
        return AdmissionTicket(self)

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1

    def forget(self, session_id: str) -> None:
        """Drop the bucket of an expired/closed session."""
        with self._lock:
            self._buckets.pop(session_id, None)

    def retain(self, session_ids: Iterable[str]) -> None:
        """Drop every bucket whose session is not in ``session_ids``.

        >>> gate = AdmissionController(ServerPolicy(), clock=lambda: 0.0)
        >>> gate.admit("a").release(); gate.admit("b").release()
        >>> gate.retain(["b"]); gate.stats()["tracked_sessions"]
        1
        """
        live = set(session_ids)
        with self._lock:
            for session_id in [s for s in self._buckets if s not in live]:
                del self._buckets[session_id]

    def stats(self) -> Dict[str, int]:
        """Admission counters (JSON-ready, for ``/stats``)."""
        with self._lock:
            return {
                "admitted": self._admitted,
                "rejected_rate_limited": self._rejected_rate,
                "rejected_over_capacity": self._rejected_load,
                "inflight": self._inflight,
                "tracked_sessions": len(self._buckets),
            }


class AdmissionTicket:
    """One admitted request's in-flight slot; release exactly once."""

    def __init__(self, controller: AdmissionController):
        self._controller = controller
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release()

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()
