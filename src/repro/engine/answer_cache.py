"""Per-session answer caching with delta maintenance.

The :class:`AnswerCache` stores one :class:`~repro.relational.delta.MaterializedPlan`
per (query, schema, domain, extras, probed) key — the whole operator-by-operator row
materialisation of the last execution, stamped with the state fingerprint it
answers for.  A repeat query then costs:

* **fingerprint unchanged** — O(answer): the cached root rows are returned;
* **state mutated through** :meth:`~repro.relational.state.DatabaseState.apply`
  — O(Δ · answer): the state's lineage is walked back to the cached
  fingerprint, the intervening effective deltas are composed
  (:meth:`~repro.relational.state.Delta.then`), and the materialisation is
  patched by the ΔQ rules of :mod:`repro.relational.delta`;
* **anything else** (unrelated state, lineage longer than the states' bounded
  chain, a delta the algebra cannot maintain) — one full materialising
  execution, replacing the entry.

Which of the three happened — and why — is reported as a decision string that
:class:`~repro.engine.plans.IncrementalAlgebraPlan` surfaces in ``explain()``.

Keying on the 64-bit mixed fingerprint (not the full state) keeps hits O(1);
the standard birthday argument makes a collision across a cache of dozens of
entries vanishingly unlikely, and a collision can only ever serve a stale
answer, never corrupt the materialisation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Set, Tuple

from ..relational.compile import CompiledQuery
from .budget import Deadline, EvaluationInterrupted
from ..relational.delta import (
    DeltaUnsupported,
    MaintenanceStats,
    MaterializedPlan,
    maintain_plan,
    materialize_plan,
)
from ..relational.state import DatabaseState, Delta, Row

__all__ = ["AnswerCache", "AnswerCacheInfo"]


@dataclass(frozen=True)
class AnswerCacheInfo:
    """A point-in-time snapshot of answer-cache effectiveness."""

    hits: int
    maintained: int
    misses: int
    rematerialized: int
    evictions: int
    size: int
    maxsize: int
    #: total rows touched by all delta-maintenance passes (the O(Δ) work)
    maintained_rows: int = 0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} maintained={self.maintained} "
            f"misses={self.misses} rematerialized={self.rematerialized} "
            f"evictions={self.evictions} size={self.size}/{self.maxsize}"
        )


class AnswerCache:
    """An LRU cache of materialised plan executions, patched by deltas.

    Thread-safe: serving sessions serialise their own queries, but the cache
    still guards its structures so a shared session cannot corrupt a
    materialisation mid-maintenance.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize!r}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Any, MaterializedPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._maintained = 0
        self._misses = 0
        self._rematerialized = 0
        self._evictions = 0
        self._maintained_rows = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def answer(
        self,
        key: Any,
        compiled: CompiledQuery,
        state: DatabaseState,
        extras: Tuple[Any, ...],
        domain: Any,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Set[Row], str]:
        """The answer rows for ``compiled`` in ``state``, plus the decision.

        The decision string says whether the answer was served from cache,
        delta-maintained (and at what cost), or recomputed in full (and
        why) — :class:`~repro.engine.plans.IncrementalAlgebraPlan` surfaces
        it verbatim in ``explain()``.

        A ``deadline`` is threaded into both maintenance and materialising
        executions.  An interrupted maintenance leaves the materialisation
        undefined, so the entry is dropped before the interruption
        propagates.
        """
        fingerprint = state.fingerprint()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if entry.fingerprint == fingerprint:
                    self._hits += 1
                    return set(entry.rows), (
                        "answer cache hit: state fingerprint unchanged "
                        f"(version {state.version})"
                    )
                chain = _delta_chain(state, entry.fingerprint)
                if chain is not None:
                    composed = chain[0]
                    for link in chain[1:]:
                        composed = composed.then(link)
                    stats = MaintenanceStats()
                    try:
                        maintain_plan(
                            entry,
                            composed,
                            state,
                            compiled.universe(state, extras),
                            domain,
                            stats,
                            deadline,
                        )
                    except EvaluationInterrupted:
                        # A half-maintained materialisation is undefined:
                        # drop it, then surface the deadline/cancel upward.
                        del self._entries[key]
                        raise
                    except Exception as error:  # DeltaUnsupported or corruption
                        del self._entries[key]
                        reason = (
                            f"delta maintenance unsupported: {error}"
                            if isinstance(error, DeltaUnsupported)
                            else f"delta maintenance failed: {error}"
                        )
                    else:
                        self._maintained += 1
                        self._maintained_rows += stats.rows_touched
                        decision = (
                            "delta-maintained: "
                            f"{composed.row_count()} changed row(s) across "
                            f"{len(chain)} delta(s); touched {stats.describe()}"
                        )
                        return set(entry.rows), decision
                else:
                    reason = (
                        "no lineage path from the cached state "
                        "(unrelated state or more than the bounded chain of "
                        "mutations apart)"
                    )
                self._rematerialized += 1
            else:
                self._misses += 1
                reason = "first execution for this plan (answer cache miss)"
        # Materialise outside the lock: it is the expensive path, and an
        # idempotent one (a racing duplicate just wastes one execution).
        fresh = materialize_plan(
            compiled.plan, state, compiled.universe(state, extras), domain,
            deadline,
        )
        with self._lock:
            self._entries[key] = fresh
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
        return set(fresh.rows), f"recomputed in full: {reason}"

    def clear(self) -> None:
        """Drop every materialisation (the counters survive)."""
        with self._lock:
            self._entries.clear()

    def info(self) -> AnswerCacheInfo:
        """Hit/maintained/miss counters and current occupancy."""
        with self._lock:
            return AnswerCacheInfo(
                hits=self._hits,
                maintained=self._maintained,
                misses=self._misses,
                rematerialized=self._rematerialized,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
                maintained_rows=self._maintained_rows,
            )


def _delta_chain(
    state: DatabaseState, fingerprint: int
) -> Optional[Tuple[Delta, ...]]:
    """The effective deltas from the state fingerprinted ``fingerprint`` to
    ``state``, oldest first — or ``None`` when no lineage link reaches it."""
    lineage = state.lineage
    for start, (parent_fingerprint, _) in enumerate(lineage):
        if parent_fingerprint == fingerprint:
            return tuple(delta for _, delta in lineage[start:])
    return None
