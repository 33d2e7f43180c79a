"""Per-substrate failure breakers for the transparent fallback ladder.

The accelerated rungs of the algebra fallback ladder (``"vectorized"``,
``"answer-cache"``) sit above the reference implementations (set executor,
tree walker).  A *fault* — any unexpected exception out of an accelerated
rung, e.g. an injected kernel failure — already degrades one query
transparently; the breaker makes *repeated* faults cheap by demoting the
rung for a cooldown, so a persistently broken accelerator stops being
retried on every request.  The ladder wraps every rung the same way, by
name: :meth:`SubstrateBreaker.allow` before it runs, then
:meth:`~SubstrateBreaker.record_success` or
:meth:`~SubstrateBreaker.record_fault`.

Classic three-state circuit breaker, per substrate name:

* **closed** — normal operation; faults increment a counter, a success
  resets it;
* **open** — the counter reached ``threshold``: :meth:`allow` answers False
  (plans skip the substrate, recording the demotion in ``explain()``) until
  ``cooldown`` seconds have passed;
* **half-open** — the cooldown elapsed: the next :meth:`allow` admits a
  recovery probe.  A success closes the breaker; a fault reopens it for
  another cooldown.

The reference substrates are never demoted — they *are* the floor of the
ladder.  One process-wide default breaker (:func:`default_breaker`) is
shared by every plan that is not handed an explicit instance; the serving
layer configures its thresholds from ``ServerPolicy`` and surfaces
:meth:`snapshot` under ``/stats``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["SubstrateBreaker", "default_breaker", "configure_default_breaker"]

#: breaker states, as the strings ``snapshot()`` reports
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class _Entry:
    __slots__ = ("faults", "total_faults", "successes", "state", "opened_at",
                 "last_fault", "trips")

    def __init__(self) -> None:
        self.faults = 0          # consecutive faults since the last success
        self.total_faults = 0
        self.successes = 0
        self.state = CLOSED
        self.opened_at = 0.0
        self.last_fault: Optional[str] = None
        self.trips = 0           # closed→open transitions


class SubstrateBreaker:
    """Thread-safe per-substrate circuit breakers (see the module docstring)."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be positive, got {threshold!r}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown!r}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()

    def _entry(self, substrate: str) -> _Entry:
        entry = self._entries.get(substrate)
        if entry is None:
            entry = self._entries[substrate] = _Entry()
        return entry

    def allow(self, substrate: str) -> bool:
        """May the substrate run?  Admits a half-open recovery probe after
        the cooldown."""
        with self._lock:
            entry = self._entries.get(substrate)
            if entry is None or entry.state == CLOSED:
                return True
            if entry.state == OPEN:
                if self._clock() - entry.opened_at >= self.cooldown:
                    entry.state = HALF_OPEN
                    return True
                return False
            return True  # half-open: probe in flight, let it run

    def record_fault(self, substrate: str, error: Optional[BaseException] = None) -> None:
        """A substrate execution failed unexpectedly (not a static obstacle)."""
        with self._lock:
            entry = self._entry(substrate)
            entry.faults += 1
            entry.total_faults += 1
            if error is not None:
                entry.last_fault = f"{type(error).__name__}: {error}"
            if entry.state == HALF_OPEN or entry.faults >= self.threshold:
                if entry.state != OPEN:
                    entry.trips += 1
                entry.state = OPEN
                entry.opened_at = self._clock()

    def record_success(self, substrate: str) -> None:
        """A substrate execution completed; closes a half-open breaker."""
        with self._lock:
            entry = self._entries.get(substrate)
            if entry is None:
                entry = self._entry(substrate)
            entry.successes += 1
            entry.faults = 0
            entry.state = CLOSED

    def state(self, substrate: str) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"`` (cooldown-aware)."""
        with self._lock:
            entry = self._entries.get(substrate)
            if entry is None:
                return CLOSED
            if entry.state == OPEN and self._clock() - entry.opened_at >= self.cooldown:
                return HALF_OPEN
            return entry.state

    def describe(self, substrate: str) -> str:
        """One line for ``explain()``: why the substrate is demoted."""
        with self._lock:
            entry = self._entries.get(substrate)
            if entry is None:
                return "closed"
            text = (
                f"{entry.state} after {entry.faults} consecutive fault(s), "
                f"threshold {self.threshold}"
            )
            if entry.last_fault:
                text += f", last: {entry.last_fault}"
            if entry.state == OPEN:
                wait = max(0.0, self.cooldown - (self._clock() - entry.opened_at))
                text += f"; recovery probe in {wait:.1f}s"
            return text

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of every tracked substrate (for ``/stats``)."""
        with self._lock:
            return {
                "threshold": self.threshold,
                "cooldown": self.cooldown,
                "substrates": {
                    name: {
                        "state": entry.state,
                        "consecutive_faults": entry.faults,
                        "total_faults": entry.total_faults,
                        "successes": entry.successes,
                        "trips": entry.trips,
                        "last_fault": entry.last_fault,
                    }
                    for name, entry in self._entries.items()
                },
            }

    def reset(self) -> None:
        """Forget every substrate's history (tests, operator intervention)."""
        with self._lock:
            self._entries.clear()


_DEFAULT = SubstrateBreaker()


def default_breaker() -> SubstrateBreaker:
    """The process-wide breaker used by plans without an explicit one."""
    return _DEFAULT


def configure_default_breaker(
    threshold: Optional[int] = None, cooldown: Optional[float] = None
) -> SubstrateBreaker:
    """Adjust the default breaker's knobs in place (serving layer start-up).

    Existing fault history is kept; only the thresholds move.
    """
    if threshold is not None:
        if threshold < 1:
            raise ValueError(f"threshold must be positive, got {threshold!r}")
        _DEFAULT.threshold = threshold
    if cooldown is not None:
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown!r}")
        _DEFAULT.cooldown = cooldown
    return _DEFAULT
