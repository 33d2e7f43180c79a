"""Deterministic fault injection for the execution and serving stacks.

The production code paths carry **named injection points** — one-line hooks
that are no-ops until a :class:`FaultPlan` is activated:

* ``"kernel-entry"`` — the vectorized columnar executor, before each
  operator's kernel dispatch;
* ``"maintenance-rule"`` — the ΔQ maintenance engine, before each node's
  maintenance rule.

A plan is a list of :class:`FaultSpec` triggers: *at hit ``after`` of point
``P``, do ``kind``* — raise an :class:`InjectedFault` or sleep ``delay``
seconds.  :meth:`FaultPlan.seeded` derives the trigger offsets from a seed,
and :meth:`FaultPlan.matrix` enumerates one seeded plan per (point, kind)
pair — the fixed matrix the
``faults`` conformance check and the chaos CI job run over.

Everything is deterministic given the seed and the execution, and the whole
module is thread-safe: counters are locked, so hooks firing on concurrent
serving threads stay correct.

>>> plan = FaultPlan([FaultSpec("kernel-entry", "exception", after=1)])
>>> with inject(plan):
...     fire("kernel-entry")      # hit 0: below the trigger
...     try:
...         fire("kernel-entry")  # hit 1: trips
...     except InjectedFault as error:
...         print("tripped:", error.point)
tripped: kernel-entry
>>> fire("kernel-entry")          # inactive outside the context: no-op
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "INJECTION_POINTS",
    "FAULT_KINDS",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "inject",
    "active",
    "fire",
]

#: every named injection point wired into the production code paths
INJECTION_POINTS: Tuple[str, ...] = (
    "kernel-entry",
    "maintenance-rule",
)

#: the fault behaviours a spec can trigger
FAULT_KINDS: Tuple[str, ...] = ("exception", "delay")


class InjectedFault(RuntimeError):
    """The structured failure an ``"exception"`` spec raises.

    Deliberately *not* a subclass of any engine error: the fallback ladder
    and the serving layer must degrade it like an arbitrary substrate fault.
    """

    def __init__(self, message: str, *, point: str, hit: int) -> None:
        super().__init__(message)
        self.point = point
        self.hit = hit


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: at hit ``after`` (0-based) of ``point``, do ``kind``
    for ``count`` consecutive hits (``None`` = every hit from ``after`` on)."""

    point: str
    kind: str
    after: int = 0
    count: Optional[int] = 1
    delay: float = 0.02

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"expected one of {INJECTION_POINTS}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.after < 0:
            raise ValueError(f"after must be non-negative, got {self.after!r}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be positive or None, got {self.count!r}")
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay!r}")

    def covers(self, hit: int) -> bool:
        if hit < self.after:
            return False
        return self.count is None or hit < self.after + self.count


class FaultPlan:
    """A deterministic set of fault triggers plus per-point hit counters."""

    def __init__(self, specs: Sequence[FaultSpec], label: str = "") -> None:
        self.specs = tuple(specs)
        self.label = label or ", ".join(
            f"{spec.kind}@{spec.point}#{spec.after}" for spec in self.specs
        )
        self._hits: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"FaultPlan({self.label})"

    def trigger(self, point: str) -> Tuple[Optional[FaultSpec], int]:
        """Count one hit of ``point``; the spec covering it (if any) and the
        hit index."""
        with self._lock:
            hit = self._hits.get(point, 0)
            self._hits[point] = hit + 1
            for spec in self.specs:
                if spec.point == point and spec.covers(hit):
                    self._fired[point] = self._fired.get(point, 0) + 1
                    return spec, hit
            return None, hit

    def hits(self) -> Dict[str, int]:
        """Hits observed per point (did the instrumented path actually run?)."""
        with self._lock:
            return dict(self._hits)

    def fired(self) -> Dict[str, int]:
        """Faults actually triggered per point."""
        with self._lock:
            return dict(self._fired)

    @classmethod
    def seeded(
        cls,
        seed: object,
        *,
        points: Sequence[str] = INJECTION_POINTS,
        kinds: Sequence[str] = FAULT_KINDS,
        max_after: int = 3,
    ) -> "FaultPlan":
        """One plan with a seeded random (point, kind, offset) triple."""
        rng = random.Random(f"faults/{seed}")
        point = rng.choice(tuple(points))
        kind = rng.choice(tuple(kinds))
        after = rng.randrange(max_after + 1)
        return cls(
            [FaultSpec(point, kind, after=after)], label=f"seed={seed!r}"
        )

    @classmethod
    def matrix(cls, seed: object, *, max_after: int = 3) -> "List[FaultPlan]":
        """One plan per (point, kind) pair, offsets seeded."""
        rng = random.Random(f"faults-matrix/{seed}")
        plans: List[FaultPlan] = []
        for point in INJECTION_POINTS:
            for kind in FAULT_KINDS:
                after = rng.randrange(max_after + 1)
                plans.append(
                    cls(
                        [FaultSpec(point, kind, after=after)],
                        label=f"{kind}@{point}#{after} (seed={seed!r})",
                    )
                )
        return plans


_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


def active() -> Optional[FaultPlan]:
    """The currently injected plan, or ``None`` (the production state)."""
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the dynamic extent of the block.

    Injection is process-global (the hooks live in shared executors), so
    nesting or concurrent activation is refused rather than silently
    interleaved.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError(
                f"a fault plan is already active ({_ACTIVE!r}); "
                "fault injection does not nest"
            )
        _ACTIVE = plan
    try:
        yield plan
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = None


def fire(point: str) -> None:
    """The injection hook: no-op unless an active spec covers this hit.

    ``"exception"`` raises :class:`InjectedFault`; ``"delay"`` sleeps the
    spec's ``delay``.
    """
    plan = _ACTIVE
    if plan is None:
        return
    spec, hit = plan.trigger(point)
    if spec is None:
        return
    if spec.kind == "delay":
        time.sleep(spec.delay)
        return
    raise InjectedFault(
        f"injected {spec.kind} at {point!r} (hit #{hit})", point=point, hit=hit
    )

