"""Resource budgets for query answering.

The Section 1.1 enumeration algorithm terminates on finite queries but can
run forever on infinite ones, and the trace-domain safety checks can only
*semi*-decide halting.  Every evaluation entry point therefore accepts a
:class:`Budget` bounding the work it may perform; when a budget is exhausted
the engine returns an :class:`~repro.engine.answers.UnknownAnswer` instead of
looping.

``Budget`` replaces the ``max_rows`` / ``max_candidates`` / ``fuel`` keyword
arguments that used to be threaded separately through the evaluator, the
enumeration algorithm, and the safety guards.  The old keywords remain
accepted by the legacy shims for backwards compatibility.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

__all__ = [
    "Budget",
    "BudgetClock",
    "CancelToken",
    "Deadline",
    "EvaluationInterrupted",
    "DeadlineExceeded",
    "Cancelled",
]


@dataclass(frozen=True)
class Budget:
    """Bounds on the work a single query evaluation may perform.

    * ``max_rows`` — answer rows materialised before giving up (the answer
      may be infinite);
    * ``max_candidates`` — candidate tuples examined between two answer rows
      during enumeration;
    * ``fuel`` — simulation steps granted to fuel-bounded semi-decision of
      relative safety (the trace domain's ``semi_decide``);
    * ``time_limit`` — optional wall-clock bound in seconds.  Enumeration
      returns an ``UnknownAnswer`` when it runs out; every other strategy
      raises :class:`DeadlineExceeded` from a cooperative checkpoint (see
      :class:`Deadline`).
    """

    max_rows: int = 1000
    max_candidates: int = 10_000
    fuel: int = 10_000
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_rows", "max_candidates", "fuel"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        # ``not >= 0`` so NaN is refused too: ``nan < 0`` is false, and a NaN
        # limit would never expire (``monotonic() >= nan`` is never true).
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time_limit must be non-negative, got {self.time_limit!r}")

    def start(self) -> "BudgetClock":
        """Start a wall clock for this budget (a no-op without a time limit)."""
        return BudgetClock(self)

    def start_deadline(self, token: "Optional[CancelToken]" = None) -> "Deadline":
        """Start a :class:`Deadline` — a budget clock that *raises* on expiry
        and honours cooperative cancellation through ``token``."""
        return Deadline(self, token)

    def replace(self, **changes) -> "Budget":
        """A copy of this budget with the given fields changed."""
        return replace(self, **changes)

    def describe(self) -> str:
        """A one-line human-readable summary of the bounds."""
        parts = [
            f"max_rows={self.max_rows}",
            f"max_candidates={self.max_candidates}",
            f"fuel={self.fuel}",
        ]
        if self.time_limit is not None:
            parts.append(f"time_limit={self.time_limit}s")
        return "Budget(" + ", ".join(parts) + ")"


class BudgetClock:
    """A started budget: tracks wall-clock expiry for one evaluation."""

    __slots__ = ("budget", "_deadline")

    def __init__(self, budget: Budget):
        self.budget = budget
        if budget.time_limit is None:
            self._deadline: Optional[float] = None
        else:
            self._deadline = time.monotonic() + budget.time_limit

    @property
    def expired(self) -> bool:
        """True iff the budget's wall-clock limit has been reached."""
        return self._deadline is not None and time.monotonic() >= self._deadline

    def remaining(self) -> Optional[float]:
        """Seconds left on the clock, or ``None`` when there is no time limit."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())


class EvaluationInterrupted(RuntimeError):
    """Base of the structured interruptions a :class:`Deadline` raises.

    Carries the operator (or loop label) the execution had reached and the
    partial statistics object the substrate was filling when the checkpoint
    fired — surfaced by ``Plan.explain()`` and the serving layer's error
    bodies, so an aborted query still says how far it got.
    """

    def __init__(
        self,
        message: str,
        *,
        operator: Optional[str] = None,
        stats: Optional[Any] = None,
    ) -> None:
        super().__init__(message)
        self.operator = operator
        self.stats = stats

    def describe(self) -> str:
        """One line for ``explain()``: what stopped the run, and where."""
        text = str(self)
        if self.operator:
            text += f" (reached operator {self.operator})"
        summary = self.stats_summary()
        if summary:
            partial = ", ".join(f"{k}={v}" for k, v in summary.items())
            text += f"; partial stats: {partial}"
        return text

    def stats_summary(self) -> Dict[str, int]:
        """JSON-ready integer counters from the partial stats, best effort."""
        summary: Dict[str, int] = {}
        stats = self.stats
        if stats is None:
            return summary
        for name in (
            "peak_rows", "total_rows", "nodes_touched", "rows_touched",
            "tested",
        ):
            value = getattr(stats, name, None)
            if isinstance(value, int):
                summary[name] = value
        operator_rows = getattr(stats, "operator_rows", None)
        if isinstance(operator_rows, list):
            summary["operators_completed"] = len(operator_rows)
        return summary

    def payload(self) -> Dict[str, Any]:
        """The JSON body the server attaches to 504/499 responses."""
        return {
            "error": type(self).__name__,
            "message": str(self),
            "operator": self.operator,
            "partial_stats": self.stats_summary(),
        }


class DeadlineExceeded(EvaluationInterrupted):
    """The budget's wall-clock limit expired at a cooperative checkpoint."""


class Cancelled(EvaluationInterrupted):
    """The evaluation's :class:`CancelToken` was tripped by another thread."""


class CancelToken:
    """A cooperative cancellation flag, settable from any thread.

    The execution substrates never poll the token directly — they call
    :meth:`Deadline.check` / :meth:`Deadline.tick` at their checkpoints, and
    the deadline consults its token.  ``cancel()`` is idempotent; the first
    call wins and records the reason.
    """

    __slots__ = ("_event", "_reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled by caller") -> bool:
        """Trip the token; returns True on the first (effective) call."""
        if self._event.is_set():
            return False
        self._reason = reason
        self._event.set()
        return True

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        return self._reason or "cancelled"


class Deadline(BudgetClock):
    """A started budget clock that raises at cooperative checkpoints.

    Extends :class:`BudgetClock` with two things every execution substrate
    threads through its hot loops:

    * :meth:`check` — raise :class:`Cancelled` when the token tripped, then
      :class:`DeadlineExceeded` when the wall clock expired; called between
      operators and kernel stages;
    * :meth:`tick` — a strided :meth:`check` for per-candidate loops (the
      tree walker's grids): only every ``stride``-th call pays
      the ``time.monotonic()`` read, so instrumentation stays cheap.

    A deadline without a time limit *and* without a token never raises;
    callers skip constructing one entirely in that case (plans pass
    ``deadline=None`` down, and the substrates check ``is not None`` once).
    """

    __slots__ = ("token", "_stride", "_countdown")

    #: checkpoints between clock reads in strided (per-candidate) loops
    DEFAULT_STRIDE = 256

    def __init__(
        self,
        budget: Budget,
        token: Optional[CancelToken] = None,
        stride: int = DEFAULT_STRIDE,
    ) -> None:
        super().__init__(budget)
        self.token = token
        self._stride = max(1, stride)
        self._countdown = self._stride

    @property
    def active(self) -> bool:
        """True when this deadline can ever interrupt an execution."""
        return self._deadline is not None or self.token is not None

    def check(
        self, operator: str = "", stats: Optional[Any] = None
    ) -> None:
        """Raise :class:`Cancelled` / :class:`DeadlineExceeded` if due."""
        token = self.token
        if token is not None and token.cancelled:
            raise Cancelled(token.reason, operator=operator or None, stats=stats)
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise DeadlineExceeded(
                f"time limit of {self.budget.time_limit}s exceeded",
                operator=operator or None,
                stats=stats,
            )

    def check_cancelled(
        self, operator: str = "", stats: Optional[Any] = None
    ) -> None:
        """Raise only on cancellation (enumeration keeps its own expiry
        contract: time exhaustion degrades to an ``UnknownAnswer``)."""
        token = self.token
        if token is not None and token.cancelled:
            raise Cancelled(token.reason, operator=operator or None, stats=stats)

    def tick(self, operator: str = "", stats: Optional[Any] = None) -> None:
        """A strided :meth:`check` for tight per-candidate loops."""
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self._stride
            self.check(operator, stats)
