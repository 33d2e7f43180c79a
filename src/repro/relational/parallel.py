"""Morsel-driven parallel execution of compiled relational-algebra plans.

This is the **fourth execution substrate**, layered directly on the
vectorized columnar executor (:mod:`repro.relational.columnar`): the same
plan IR, the same int64 code tables, the same kernels — but every data-sized
kernel invocation is partitioned into fixed-size **morsels** (row chunks)
and dispatched to a process-wide thread pool.  NumPy kernels release the GIL
while they crunch, so plain threads give real multi-core speedups without
the serialization cost of multiprocessing, and every intermediate array can
be shared by reference.

How each kernel parallelises (all merges reuse existing machinery):

* **dedupe** (``unique_rows``) — each morsel deduplicates independently,
  the per-morsel survivors are concatenated, and one final sequential
  ``unique_rows`` merges them (a union of sets is a set);
* **joins** (``join_indices``) — the *left* table is chunked; each morsel
  joins against the full right side.  Disjoint left slices of a
  deduplicated table produce disjoint join outputs, so the concatenated
  result needs no re-dedupe;
* **antijoins** (``membership_mask``) — left-chunked mask computation,
  masks concatenate positionally;
* **pads** (``cross_pad_arrays``, ``interval_pad``) — source rows are
  chunked by *estimated output rows* (``morsel_rows // pad width``), so a
  morsel's output stays bounded even when the pad explodes row counts;
* **selection masks** — the table is row-chunked and each morsel evaluates
  the full condition list on its slice;
* **interval unions** (``range_union_mask``) — the witness ranges are
  chunked and the per-morsel cover masks merge with logical OR.

Tables at or below one morsel bypass the pool entirely — tiny inputs never
pay thread-dispatch overhead, which keeps the substrate safe to leave on.

Exactness is inherited: for every plan the decoded row set equals
:func:`repro.relational.columnar.run_plan_vectorized` (and therefore the set
executor and the tree walker) on the same inputs, and results are
deterministic — morsels are gathered in submission order and every merge is
order-independent at the set level.

Doctest — a forced-multi-morsel join agrees with the sequential executors:

>>> from repro.experiments.corpora import family_schema
>>> from repro.relational.state import DatabaseState
>>> from repro.relational.compile import compile_query
>>> from repro.logic.parser import parse_formula
>>> from repro.domains.equality import EqualityDomain
>>> from repro.relational.columnar import run_plan_vectorized
>>> state = DatabaseState(family_schema(), {"F": [(0, 1), (1, 2), (1, 3)]})
>>> compiled = compile_query(parse_formula("exists y. (F(x, y) & F(y, z))"),
...                          state.schema, EqualityDomain())
>>> adom = [0, 1, 2, 3]
>>> stats = MorselStats()
>>> rows = run_plan_parallel(compiled.plan, state, adom, EqualityDomain(),
...                          morsel_rows=2, stats=stats)
>>> sorted(rows)
[(0, 2), (0, 3)]
>>> rows == run_plan_vectorized(compiled.plan, state, adom, EqualityDomain())
True
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine.budget import Deadline

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from ..testing import faults
from .columnar import (
    CodedRows,
    EncodeCache,
    VectorizationError,
    _ColumnarExecutor,
    _prepare_columns,
    vectorization_obstacle,
)
from .exec import PlanNode
from .state import DatabaseState, Element, Row

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "WORKERS_ENV",
    "MorselStats",
    "StageMergeStats",
    "default_worker_count",
    "configure_worker_pool",
    "worker_pool",
    "worker_pool_info",
    "shutdown_worker_pool",
    "execute_parallel",
    "run_plan_parallel",
]

#: rows per morsel; sized so one morsel's working set (a few int64 columns)
#: stays around a megabyte — well inside L2/L3, far above thread overhead
DEFAULT_MORSEL_ROWS = 65536

#: environment override for the worker count (CI runners pin this so
#: few-core machines behave deterministically); unset means ``os.cpu_count``
WORKERS_ENV = "REPRO_PARALLEL_WORKERS"


def default_worker_count() -> int:
    """The worker count a fresh pool would use.

    The :data:`WORKERS_ENV` environment variable wins when set (and
    positive); otherwise ``os.cpu_count()``.  Always at least 1.
    """
    override = os.environ.get(WORKERS_ENV)
    if override is not None:
        try:
            workers = int(override)
        except ValueError:
            workers = 0
        if workers >= 1:
            return workers
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# The process-wide kernel worker pool
# ---------------------------------------------------------------------------
#
# One pool per process, shared by every parallel execution (library calls and
# the serving layer alike) — morsel tasks are short and CPU-bound, so a
# second pool would only add threads competing for the same cores.  The pool
# is distinct from the serve layer's *request* pool on purpose: request
# workers block waiting on morsel futures, so sharing one pool would
# deadlock the moment every worker held a query and none was free to run its
# morsels.  Morsel tasks never submit further morsel tasks, so this pool
# cannot deadlock on itself.

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_CONFIGURED: Optional[int] = None
_POOL_TASKS = 0
_POOL_LOCK = threading.Lock()


def configure_worker_pool(workers: Optional[int]) -> int:
    """Pin (or unpin) the shared pool's worker count; returns the effective count.

    ``workers=None`` reverts to :func:`default_worker_count`.  A live pool of
    a different size is shut down (letting queued morsels finish) and lazily
    rebuilt at the new size on next use.  The serving layer calls this from
    ``SessionManager`` with its ``policy.morsel_workers`` knob.
    """
    global _POOL, _POOL_WORKERS, _POOL_CONFIGURED
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    with _POOL_LOCK:
        _POOL_CONFIGURED = workers
        effective = workers if workers is not None else default_worker_count()
        if _POOL is not None and _POOL_WORKERS != effective:
            _POOL.shutdown(wait=False)
            _POOL = None
            _POOL_WORKERS = 0
        return effective


def worker_pool() -> ThreadPoolExecutor:
    """The shared morsel worker pool (created lazily on first parallel run)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None:
            _POOL_WORKERS = (
                _POOL_CONFIGURED
                if _POOL_CONFIGURED is not None
                else default_worker_count()
            )
            _POOL = ThreadPoolExecutor(
                max_workers=_POOL_WORKERS, thread_name_prefix="repro-morsel"
            )
        return _POOL


def shutdown_worker_pool() -> None:
    """Stop the shared pool (idempotent); it is rebuilt lazily on next use."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
        _POOL_WORKERS = 0
    if pool is not None:
        pool.shutdown(wait=True)


def worker_pool_info() -> Dict[str, Any]:
    """JSON-ready facts about the shared pool (for ``/stats`` and tests)."""
    with _POOL_LOCK:
        return {
            "workers": _POOL_WORKERS if _POOL is not None else None,
            "configured": _POOL_CONFIGURED,
            "default": default_worker_count(),
            "live": _POOL is not None,
            "tasks_dispatched": _POOL_TASKS,
        }


def _count_tasks(count: int) -> None:
    global _POOL_TASKS
    with _POOL_LOCK:
        _POOL_TASKS += count


# ---------------------------------------------------------------------------
# Morsel bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class StageMergeStats:
    """What one kernel stage did across all its invocations in a run."""

    #: morsels dispatched to the pool (sequential bypasses count as 1)
    morsels: int = 0
    #: input rows partitioned across those morsels
    rows_in: int = 0
    #: output rows after the stage's merge
    rows_out: int = 0

    def describe(self) -> str:
        return f"{self.morsels} morsel(s), {self.rows_in}->{self.rows_out} rows"


@dataclass
class MorselStats:
    """Per-run morsel accounting, surfaced by ``ParallelAlgebraPlan.explain()``.

    >>> stats = MorselStats(workers=4, morsel_rows=1000)
    >>> stats.record("join", morsels=3, rows_in=2500, rows_out=900)
    >>> stats.record("join", morsels=1, rows_in=10, rows_out=10)
    >>> stats.morsels, stats.describe()
    (4, 'workers=4 morsel_rows=1000 morsels=4; join: 4 morsel(s), 2510->910 rows')
    """

    #: workers in the pool the run dispatched to
    workers: int = 0
    #: the row budget per morsel the run partitioned by
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    #: per-stage merge accounting, keyed by kernel-stage name
    stages: Dict[str, StageMergeStats] = field(default_factory=dict)

    @property
    def morsels(self) -> int:
        """Total morsels across every stage."""
        return sum(stage.morsels for stage in self.stages.values())

    def record(self, stage: str, morsels: int, rows_in: int, rows_out: int) -> None:
        entry = self.stages.setdefault(stage, StageMergeStats())
        entry.morsels += morsels
        entry.rows_in += rows_in
        entry.rows_out += rows_out

    def describe(self) -> str:
        text = (
            f"workers={self.workers} morsel_rows={self.morsel_rows} "
            f"morsels={self.morsels}"
        )
        if self.stages:
            text += "; " + "; ".join(
                f"{name}: {stage.describe()}"
                for name, stage in sorted(self.stages.items())
            )
        return text


# ---------------------------------------------------------------------------
# The morsel-parallel executor
# ---------------------------------------------------------------------------


class _ParallelExecutor(_ColumnarExecutor):
    """The columnar executor with every kernel hook chunked across the pool.

    Only the kernel hooks are overridden — operator semantics, encoding, and
    interval machinery live entirely in :class:`_ColumnarExecutor`, so the
    two substrates cannot drift apart.
    """

    def __init__(
        self,
        state: DatabaseState,
        adom: Sequence[Element],
        codec: Any,
        relation_columns: Optional[Dict[str, Any]] = None,
        *,
        pool: ThreadPoolExecutor,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        stats: Optional[MorselStats] = None,
        deadline: "Optional[Deadline]" = None,
    ) -> None:
        super().__init__(state, adom, codec, relation_columns, deadline)
        self._pool = pool
        self._morsel_rows = morsel_rows
        self._stats = stats

    # -- chunk dispatch ------------------------------------------------------

    def _map_chunks(
        self,
        stage: str,
        rows: int,
        kernel: Callable[[int, int], Any],
        *,
        chunk_rows: Optional[int] = None,
    ) -> List[Any]:
        """Run ``kernel(start, end)`` per morsel; results in submission order.

        Exceptions raised inside a worker (e.g. a carrier-dependent
        :class:`VectorizationError` from a selection mask) propagate to the
        caller through ``Future.result()``, exactly as if the kernel had run
        inline.  A single-morsel input runs on the calling thread.
        """
        chunk = chunk_rows if chunk_rows is not None else self._morsel_rows
        chunk = max(1, chunk)
        if rows <= chunk:
            result = kernel(0, rows)
            self._record(stage, 1, rows, result)
            return [result]
        # Cooperative checkpoint before each pool submission wave: a deadline
        # or a cancellation stops dispatching stragglers — the morsels already
        # in flight finish (kernels are uninterruptible) but no new wave starts.
        if self._deadline is not None:
            self._deadline.check(f"{stage} morsel dispatch")
        faults.fire("pool-submit")
        bounds = [(start, min(start + chunk, rows)) for start in range(0, rows, chunk)]
        futures = [self._pool.submit(kernel, start, end) for start, end in bounds]
        _count_tasks(len(futures))
        results = [future.result() for future in futures]
        self._record(stage, len(results), rows, *results)
        return results

    def _record(self, stage: str, morsels: int, rows_in: int, *results: Any) -> None:
        if self._stats is None:
            return
        rows_out = 0
        for result in results:
            shape = getattr(result, "shape", None)
            if shape:
                rows_out += int(shape[0])
        self._stats.record(stage, morsels, rows_in, rows_out)

    # -- kernel hooks, chunked ----------------------------------------------

    def _unique_rows(self, codes: Any) -> Any:
        parts = self._map_chunks(
            "unique", codes.shape[0],
            lambda start, end: self._k.unique_rows(codes[start:end]),
        )
        if len(parts) == 1:
            return parts[0]
        # Hierarchical dedupe: per-morsel uniques drop the bulk of the
        # duplicates in parallel; one sequential pass merges the survivors.
        return self._k.unique_rows(np.concatenate(parts, axis=0))

    def _join_codes(
        self,
        left_codes: Any,
        right_codes: Any,
        left_key: Sequence[int],
        right_key: Sequence[int],
        rest: Sequence[int],
    ) -> Any:
        join = super()._join_codes
        parts = self._map_chunks(
            "join", left_codes.shape[0],
            lambda start, end: join(
                left_codes[start:end], right_codes, left_key, right_key, rest
            ),
        )
        # Disjoint left slices of a deduplicated table join to disjoint
        # outputs, so concatenation needs no re-dedupe.
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    def _membership(self, left_keys: Any, right_keys: Any) -> Any:
        member = super()._membership
        parts = self._map_chunks(
            "antijoin", left_keys.shape[0],
            lambda start, end: member(left_keys[start:end], right_keys),
        )
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _pad_codes(self, codes: Any, values: Any) -> Any:
        pad = super()._pad_codes
        # Chunk by *output* rows: each source row fans out |values| times.
        chunk_rows = max(1, self._morsel_rows // max(1, int(values.shape[0])))
        parts = self._map_chunks(
            "pad", codes.shape[0],
            lambda start, end: pad(codes[start:end], values),
            chunk_rows=chunk_rows,
        )
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    def _interval_pad_codes(
        self, codes: Any, values_sorted: Any, starts: Any, ends: Any
    ) -> Any:
        pad = super()._interval_pad_codes
        chunk_rows = max(
            1, self._morsel_rows // max(1, int(values_sorted.shape[0]))
        )
        parts = self._map_chunks(
            "interval-pad", codes.shape[0],
            lambda start, end: pad(
                codes[start:end], values_sorted, starts[start:end], ends[start:end]
            ),
            chunk_rows=chunk_rows,
        )
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    def _union_mask(self, starts: Any, ends: Any, size: int) -> Any:
        mask = super()._union_mask
        parts = self._map_chunks(
            "interval-union", starts.shape[0],
            lambda start, end: mask(starts[start:end], ends[start:end], size),
        )
        if len(parts) == 1:
            return parts[0]
        # A union of unions: per-morsel cover masks merge with logical OR.
        return np.logical_or.reduce(parts)

    def _select_mask(self, table: Any, conditions: Tuple[Any, ...]) -> Any:
        sequential = super()._select_mask
        table_cls = type(table)
        parts = self._map_chunks(
            "select", table.codes.shape[0],
            lambda start, end: sequential(
                table_cls(table.attrs, table.codes[start:end]), conditions
            ),
        )
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_plan_parallel(
    node: PlanNode,
    state: DatabaseState,
    adom: Sequence[Element],
    domain: object = None,
    *,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    pool: Optional[ThreadPoolExecutor] = None,
    stats: Optional[MorselStats] = None,
    cache: Optional[EncodeCache] = None,
    use_cache: bool = True,
    deadline: "Optional[Deadline]" = None,
) -> Set[Row]:
    """Evaluate a compiled plan with morsel-parallel columnar kernels.

    The contract is identical to
    :func:`repro.relational.columnar.run_plan_vectorized` — same plan IR,
    same explicit active domain, same set-of-rows result, same
    :class:`~repro.relational.columnar.VectorizationError` on plans or
    carriers without a vectorized execution — plus morsel knobs:

    * ``morsel_rows`` — the row budget per chunk (pads chunk by *estimated
      output* rows, so a morsel's working set stays bounded);
    * ``pool`` — an explicit worker pool (tests pin a 1-worker pool here);
      default is the process-wide shared pool (:func:`worker_pool`);
    * ``stats`` — a :class:`MorselStats` filled with per-stage merge
      accounting.

    Inputs at or below one morsel run on the calling thread — callers can
    leave this substrate on without a size check, though
    :class:`~repro.engine.plans.ParallelAlgebraPlan` adds a state-size
    heuristic so tiny queries skip even the encode of the shared pool path.

    >>> from repro.relational.exec import AdomScan
    >>> from repro.relational.schema import DatabaseSchema
    >>> state = DatabaseState(DatabaseSchema())
    >>> sorted(run_plan_parallel(AdomScan(("x",)), state, [3, 1, 2],
    ...                          morsel_rows=1))
    [(1,), (2,), (3,)]
    """
    return execute_parallel(
        node, state, adom, morsel_rows=morsel_rows, pool=pool, stats=stats,
        cache=cache, use_cache=use_cache, deadline=deadline,
    ).decode()


def execute_parallel(
    node: PlanNode,
    state: DatabaseState,
    adom: Sequence[Element],
    *,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    pool: Optional[ThreadPoolExecutor] = None,
    stats: Optional[MorselStats] = None,
    cache: Optional[EncodeCache] = None,
    use_cache: bool = True,
    deadline: "Optional[Deadline]" = None,
) -> CodedRows:
    """:func:`run_plan_parallel`, stopping short of decoding the result."""
    obstacle = vectorization_obstacle(node)
    if obstacle is not None:
        raise VectorizationError(obstacle)
    if morsel_rows < 1:
        raise ValueError(f"morsel_rows must be positive, got {morsel_rows!r}")
    codec, store = _prepare_columns(
        node, state, adom, cache=cache, use_cache=use_cache
    )
    effective_pool = pool if pool is not None else worker_pool()
    if stats is not None:
        stats.workers = getattr(effective_pool, "_max_workers", 0)
        stats.morsel_rows = morsel_rows
    executor = _ParallelExecutor(
        state,
        adom,
        codec,
        store,
        pool=effective_pool,
        morsel_rows=morsel_rows,
        stats=stats,
        deadline=deadline,
    )
    table = executor.run(node)
    if deadline is not None:
        deadline.check("decode")
    return CodedRows(codec, table.codes)
