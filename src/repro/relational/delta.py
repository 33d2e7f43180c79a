"""Incremental (ΔQ) maintenance of executed relational-algebra plans.

Given a plan that has been *materialised* against one state — every operator's
output row set retained (:func:`materialize_plan`) — and a
:class:`~repro.relational.state.Delta` separating that state from a new one,
:func:`maintain_plan` patches the materialisation to the new state's answer by
propagating per-node row deltas bottom-up instead of re-executing, so the cost
is O(Δ · answer) rather than O(|state|).

The soundness argument is the paper's: a guard-certified answer is
domain-independent, so it can only change through tuples that touch the
active domain — and every ΔQ rule below preserves exactly the set-semantics
answer of :func:`repro.relational.exec.run_plan` over the new state.

Per-node rules (``A`` = added rows, ``R`` = removed rows, all *effective*:
added rows genuinely new, removed rows genuinely gone):

========================  ====================================================
node                      rule
========================  ====================================================
``Scan``                  filter/project the delta rows; a scan's output
                          uniquely determines the stored row (constants +
                          repeated-variable positions reconstruct it), so no
                          support counting is needed
``Select`` (permuting)    filter the child delta through the conditions
``Select`` (dropping)     support-counted, like ``Project``
``Project``               support counts per output row (0→1 adds, 1→0
                          removes)
``Join``                  Δ(A ⋈ B) = ΔA ⋈ Bₙₑᵥᵥ ∪ Aₒₗ𝒹 ⋈ ΔB (n-ary,
                          mixed old/new operands); output rows determine each
                          operand's row by projection, so candidate removals
                          are exact
``AntiJoin``              right-side key counts; newly present keys re-check
                          only the cached output rows they block, newly
                          absent keys re-check only the left rows they
                          unblock
``UnionAll``              per-part membership counts
``CrossPad``              pad the source delta with the (unchanged) adom;
                          recomputed node-locally when the adom grew
``AdomScan``              emits the new universe elements
``Literal``               never changes
========================  ====================================================

Fallback conditions — :func:`maintain_plan` raises :class:`DeltaUnsupported`
and the caller re-materialises from scratch, recording the reason:

* the active domain **shrank** (a delete removed an element's last
  occurrence): pad/adom nodes would have to *forget* rows that
  nothing locally witnesses;
* the materialisation is for a different plan or its fingerprint does not
  match the claimed parent state.

A failed or interrupted maintenance leaves the materialisation undefined;
callers must discard it (the answer cache does).
"""

from __future__ import annotations

from itertools import product
from typing import (
    TYPE_CHECKING, Callable, Collection, Dict, FrozenSet, List, Optional, Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine.budget import Deadline

from .exec import (
    AdomScan,
    AntiJoin,
    Comparison,
    Condition,
    ConstRef,
    CrossPad,
    Join,
    Literal,
    PlanNode,
    Project,
    Scan,
    Select,
    UnionAll,
    ValueRef,
    _Executor,
    walk_plan,
)
from .state import DatabaseState, Delta, Element, Row

__all__ = [
    "DeltaUnsupported",
    "MaintenanceStats",
    "MaterializedPlan",
    "materialize_plan",
    "maintain_plan",
]


class DeltaUnsupported(RuntimeError):
    """The delta cannot be maintained incrementally; re-materialise instead."""


class _RecordingExecutor(_Executor):
    """The set executor, retaining every node's output row set.

    Results are keyed by the (hashable, frozen) plan nodes themselves, so
    structurally equal subtrees share one entry — exactly the sharing the
    maintenance pass relies on to apply each node's delta once.
    """

    def __init__(
        self,
        state: DatabaseState,
        adom: Collection[Element],
        domain,
        deadline: "Optional[Deadline]" = None,
    ) -> None:
        super().__init__(state, adom, domain, None, deadline)
        self.results: Dict[PlanNode, Set[Row]] = {}

    def run(self, node: PlanNode) -> Set[Row]:
        cached = self.results.get(node)
        if cached is not None:
            return cached
        rows = super().run(node)
        self.results[node] = rows
        return rows


class _PatchExecutor(_Executor):
    """Re-run a *single* node, reading its children from a materialisation.

    Used for the node-local recompute rules (pad nodes under
    an adom change): the target node is dispatched normally, but any child
    lookup returns the already-maintained result set instead of re-executing
    the subtree.
    """

    def __init__(
        self,
        state: DatabaseState,
        adom: Collection[Element],
        domain,
        results: Dict[PlanNode, Set[Row]],
        deadline: "Optional[Deadline]" = None,
    ) -> None:
        super().__init__(state, adom, domain, None, deadline)
        self._results = results
        self._entered = False

    def run(self, node: PlanNode) -> Set[Row]:
        if self._entered:
            cached = self._results.get(node)
            if cached is not None:
                return cached
        self._entered = True
        return self._dispatch(node)


class MaterializedPlan:
    """One executed plan with every operator's output rows retained.

    The unit an answer cache stores: ``rows`` is the root answer for the
    state whose content hash is ``fingerprint``; :func:`maintain_plan`
    patches the whole structure to a mutated state at O(Δ) cost.  Support
    counts are kept only for the operators that need them (projections,
    unions, antijoin right sides).
    """

    def __init__(
        self,
        plan: PlanNode,
        fingerprint: int,
        universe: FrozenSet[Element],
        results: Dict[PlanNode, Set[Row]],
    ) -> None:
        self.plan = plan
        self.fingerprint = fingerprint
        self.universe = universe
        self.results = results
        #: support counts for Project / attribute-dropping Select nodes
        self.map_counts: Dict[PlanNode, Dict[Row, int]] = {}
        #: per-part membership counts for UnionAll nodes
        self.union_counts: Dict[PlanNode, Dict[Row, int]] = {}
        #: right-side key counts for AntiJoin nodes (shared-attr form)
        self.anti_counts: Dict[PlanNode, Dict[Row, int]] = {}
        #: hash indexes over join operands, keyed (join node, operand
        #: position, shared-attr key) → {key → operand rows}; prebuilt at
        #: materialisation and patched alongside ``results`` so a ΔJoin
        #: probe costs O(Δ · matches) instead of rehashing the full partner
        self.join_indexes: Dict[
            Tuple[PlanNode, int, Tuple[str, ...]], Dict[Row, Set[Row]]
        ] = {}
        #: how many times this materialisation was delta-maintained
        self.maintained = 0

    @property
    def rows(self) -> Set[Row]:
        """The root answer rows (live; copy before mutating)."""
        return self.results[self.plan]

    def total_rows(self) -> int:
        """Rows retained across all operators (the memory footprint)."""
        return sum(len(rows) for rows in self.results.values())


class MaintenanceStats:
    """What one :func:`maintain_plan` call did, for ``explain()``."""

    def __init__(self) -> None:
        self.nodes_touched = 0
        self.rows_touched = 0
        self.answer_added = 0
        self.answer_removed = 0

    def describe(self) -> str:
        return (
            f"{self.rows_touched} row(s) across {self.nodes_touched} node(s), "
            f"answer +{self.answer_added}/-{self.answer_removed}"
        )


def _join_probe_specs(node: Join) -> Set[Tuple[int, Tuple[str, ...]]]:
    """The (operand position, shared-attr key) lookups a ΔJoin can need.

    A delta arriving at operand ``i`` is folded against the remaining
    operands in ascending position order; each lookup keys the partner by
    its attrs shared with everything accumulated so far.  Enumerating the
    fold for every ``i`` (and deduplicating) yields the indexes to prebuild.
    """
    specs: Set[Tuple[int, Tuple[str, ...]]] = set()
    for i, part in enumerate(node.parts):
        accumulated = set(part.attrs)
        for j, partner in enumerate(node.parts):
            if j == i:
                continue
            shared = tuple(name for name in partner.attrs if name in accumulated)
            specs.add((j, shared))
            accumulated |= set(partner.attrs)
    return specs


def _build_join_index(
    rows: Set[Row], attrs: Tuple[str, ...], shared: Tuple[str, ...]
) -> Dict[Row, Set[Row]]:
    columns = [attrs.index(name) for name in shared]
    buckets: Dict[Row, Set[Row]] = {}
    for row in rows:
        buckets.setdefault(tuple(row[c] for c in columns), set()).add(row)
    return buckets


def materialize_plan(
    plan: PlanNode,
    state: DatabaseState,
    adom: Collection[Element],
    domain,
    deadline: "Optional[Deadline]" = None,
) -> MaterializedPlan:
    """Execute ``plan`` retaining every operator's output, plus the support
    counts the ΔQ rules need.

    Costs one normal execution plus O(total intermediate rows) memory.  The
    executor short-circuits some subtrees (an antijoin with an empty left
    side never runs its right side); those are forced afterwards so every
    node of the plan has a result to maintain.  With a ``deadline``, the
    recording execution runs the set executor's cooperative checkpoints.
    """
    recorder = _RecordingExecutor(state, adom, domain, deadline)
    recorder.run(plan)
    for node in walk_plan(plan):
        if node not in recorder.results:
            recorder.run(node)
    materialized = MaterializedPlan(
        plan, state.fingerprint(), frozenset(adom), recorder.results
    )
    for node in set(walk_plan(plan)):
        if isinstance(node, (Project, Select)):
            mapper = _row_mapper(node, domain)
            if mapper is None:
                continue  # a permuting Select: injective, no counts needed
            counts: Dict[Row, int] = {}
            for row in materialized.results[_source_of(node)]:
                image = mapper(row)
                if image is not None:
                    counts[image] = counts.get(image, 0) + 1
            materialized.map_counts[node] = counts
        elif isinstance(node, UnionAll):
            counts = {}
            for part in node.parts:
                for row in materialized.results[part]:
                    counts[row] = counts.get(row, 0) + 1
            materialized.union_counts[node] = counts
        elif isinstance(node, Join):
            for j, shared in _join_probe_specs(node):
                materialized.join_indexes[(node, j, shared)] = _build_join_index(
                    materialized.results[node.parts[j]], node.parts[j].attrs, shared
                )
        elif isinstance(node, AntiJoin):
            left_attrs, right_attrs = node.left.attrs, node.right.attrs
            shared = [name for name in left_attrs if name in right_attrs]
            if not shared:
                continue
            key_columns = [right_attrs.index(name) for name in shared]
            counts = {}
            for row in materialized.results[node.right]:
                key = tuple(row[i] for i in key_columns)
                counts[key] = counts.get(key, 0) + 1
            materialized.anti_counts[node] = counts
    return materialized


def maintain_plan(
    materialized: MaterializedPlan,
    delta: Delta,
    state: DatabaseState,
    adom: Collection[Element],
    domain,
    stats: Optional[MaintenanceStats] = None,
    deadline: "Optional[Deadline]" = None,
) -> MaintenanceStats:
    """Patch ``materialized`` to answer against ``state``.

    ``delta`` must be the *effective* delta from the materialisation's state
    to ``state`` (what :meth:`DatabaseState.apply` records in the lineage,
    composed across hops with :meth:`Delta.then`), and ``adom`` the new
    explicit active domain.  Raises :class:`DeltaUnsupported` when the
    algebra cannot maintain the change (see the module docstring for the
    conditions); the materialisation is then in an undefined intermediate
    state and must be discarded.  With a ``deadline``, a cooperative
    checkpoint runs before every node's maintenance rule; an interrupted
    maintenance likewise leaves the materialisation undefined.
    """
    stats = stats if stats is not None else MaintenanceStats()
    new_universe = frozenset(adom)
    if not materialized.universe <= new_universe:
        gone = sorted(materialized.universe - new_universe, key=repr)[:3]
        raise DeltaUnsupported(
            "the active domain shrank (e.g. "
            + ", ".join(map(repr, gone))
            + " no longer occur): pad/adom operators cannot forget rows "
            "incrementally"
        )
    adom_grew = new_universe != materialized.universe
    engine = _MaintenanceEngine(
        materialized, delta, state, tuple(adom), domain, adom_grew, stats,
        deadline,
    )
    root_delta = engine.visit(materialized.plan)
    stats.answer_added = len(root_delta.added)
    stats.answer_removed = len(root_delta.removed)
    materialized.fingerprint = state.fingerprint()
    materialized.universe = new_universe
    materialized.maintained += 1
    return stats


class _NodeDelta:
    """Effective added/removed output rows of one node."""

    __slots__ = ("added", "removed")

    def __init__(self, added: Set[Row], removed: Set[Row]) -> None:
        self.added = added
        self.removed = removed

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


_EMPTY_DELTA = _NodeDelta(set(), set())

#: shared empty probe result — never mutated, only subtracted/unioned
_NO_PARTNERS: Set[Row] = set()


class _MaintenanceEngine:
    """One maintenance pass: memoised bottom-up delta propagation.

    Every :meth:`visit` returns the node's *effective* output delta
    (``added`` disjoint from the old output, ``removed`` a subset of it) and
    updates ``results[node]`` in place; a parent that must see the
    *pre-update* rows (a join processing removals) recovers them per probe
    key by undoing the child's memoised delta.
    """

    def __init__(
        self,
        materialized: MaterializedPlan,
        delta: Delta,
        state: DatabaseState,
        adom: Tuple[Element, ...],
        domain,
        adom_grew: bool,
        stats: MaintenanceStats,
        deadline: "Optional[Deadline]" = None,
    ) -> None:
        self._mat = materialized
        self._delta = delta
        self._state = state
        self._adom = adom
        self._domain = domain
        self._adom_grew = adom_grew
        self._stats = stats
        self._deadline = deadline
        self._deltas: Dict[PlanNode, _NodeDelta] = {}

    # -- helpers -------------------------------------------------------------

    def _run_fragment(self, node: PlanNode) -> Set[Row]:
        """Execute a small synthetic plan fragment (delta rows as literals)."""
        return _Executor(
            self._state, self._adom, self._domain, None, self._deadline
        ).run(node)

    def _recompute(self, node: PlanNode) -> _NodeDelta:
        """Node-local recompute: re-run one operator over its maintained
        children and diff against the old output."""
        patched = _PatchExecutor(
            self._state, self._adom, self._domain, self._mat.results,
            self._deadline,
        )
        new_rows = patched.run(node)
        old_rows = self._mat.results[node]
        return _NodeDelta(new_rows - old_rows, old_rows - new_rows)

    # -- the pass ------------------------------------------------------------

    def visit(self, node: PlanNode) -> _NodeDelta:
        memoised = self._deltas.get(node)
        if memoised is not None:
            return memoised
        # Checkpoint between maintenance rules: an interrupted pass leaves
        # the materialisation undefined, so the caller must discard it.
        if self._deadline is not None:
            self._deadline.check("Δ" + type(node).__name__, self._stats)
        node_delta = self._dispatch(node)
        self._deltas[node] = node_delta
        if node_delta:
            current = self._mat.results[node]
            self._mat.results[node] = (current - node_delta.removed) | node_delta.added
            self._stats.nodes_touched += 1
            self._stats.rows_touched += len(node_delta.added) + len(node_delta.removed)
        return node_delta

    def _dispatch(self, node: PlanNode) -> _NodeDelta:
        if isinstance(node, Literal):
            return _EMPTY_DELTA
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, AdomScan):
            if not self._adom_grew:
                return _EMPTY_DELTA
            added = {(element,) for element in self._adom} - self._mat.results[node]
            return _NodeDelta(added, set())
        if isinstance(node, Select):
            return self._select(node)
        if isinstance(node, Project):
            return self._counted(node, self.visit(node.source))
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, AntiJoin):
            return self._antijoin(node)
        if isinstance(node, CrossPad):
            return self._cross_pad(node)
        if isinstance(node, UnionAll):
            return self._union(node)
        raise DeltaUnsupported(f"no ΔQ rule for plan node {type(node).__name__!r}")

    # -- leaves --------------------------------------------------------------

    def _scan(self, node: Scan) -> _NodeDelta:
        inserted = self._delta.inserts.get(node.relation, frozenset())
        deleted = self._delta.deletes.get(node.relation, frozenset())
        if not inserted and not deleted:
            return _EMPTY_DELTA
        # The scan is injective on passing stored rows (constants + repeated
        # variables reconstruct the row from its output), so the projected
        # effective delta is itself effective.
        return _NodeDelta(
            _scan_rows(node, inserted), _scan_rows(node, deleted)
        )

    # -- unary operators -----------------------------------------------------

    def _select(self, node: Select) -> _NodeDelta:
        child = self.visit(node.source)
        if not child:
            return _EMPTY_DELTA
        mapper = _row_mapper(node, self._domain)
        if mapper is not None:  # attribute-dropping: support-counted
            return self._counted(node, child)
        source_attrs = node.source.attrs
        added = self._run_fragment(
            Select(Literal(source_attrs, tuple(child.added)), node.conditions, node.attrs)
        )
        removed = self._run_fragment(
            Select(Literal(source_attrs, tuple(child.removed)), node.conditions, node.attrs)
        )
        return _NodeDelta(added, removed)

    def _counted(self, node: "Project | Select", child: _NodeDelta) -> _NodeDelta:
        if not child:
            return _EMPTY_DELTA
        mapper = _row_mapper(node, self._domain)
        assert mapper is not None
        counts = self._mat.map_counts[node]
        added, removed = _apply_counts(counts, child, mapper)
        return _NodeDelta(added, removed)

    # -- joins ---------------------------------------------------------------

    def _join(self, node: Join) -> _NodeDelta:
        child_deltas = [self.visit(part) for part in node.parts]
        if not any(child_deltas):
            return _EMPTY_DELTA
        if set(node.attrs) != {name for part in node.parts for name in part.attrs}:
            # A projecting join (today's compiler never emits one) would not
            # determine its operands' rows from the output.
            raise DeltaUnsupported(
                "join output does not cover all operand attributes"
            )
        for j, child in enumerate(child_deltas):
            if child:
                self._patch_join_indexes(node, j, child)
        added_candidates: Set[Row] = set()
        removed_candidates: Set[Row] = set()
        for i, part in enumerate(node.parts):
            child = child_deltas[i]
            if child.removed:
                removed_candidates |= self._join_delta(
                    node, i, child.removed, old_side=True
                )
            if child.added:
                added_candidates |= self._join_delta(
                    node, i, child.added, old_side=False
                )
        old_output = self._mat.results[node]
        # A removed candidate's i-th projection is genuinely gone, and the
        # output row determines every operand's row by projection, so each
        # candidate is an exact removal; added candidates have all their
        # projections in the *new* operands, so the two sets are disjoint.
        return _NodeDelta(added_candidates - old_output, removed_candidates)

    def _patch_join_indexes(
        self, node: Join, position: int, child: _NodeDelta
    ) -> None:
        """Apply one operand's delta to every prebuilt index over it."""
        part_attrs = node.parts[position].attrs
        for (index_node, pos, shared), buckets in self._mat.join_indexes.items():
            if index_node != node or pos != position:
                continue
            columns = [part_attrs.index(name) for name in shared]
            for row in child.removed:
                key = tuple(row[c] for c in columns)
                bucket = buckets.get(key)
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del buckets[key]
            for row in child.added:
                key = tuple(row[c] for c in columns)
                buckets.setdefault(key, set()).add(row)

    def _join_delta(
        self, node: Join, index: int, rows: Set[Row], *, old_side: bool
    ) -> Set[Row]:
        """Join one operand's delta rows against the other operands.

        Removals join against the *old* co-operands (the rows existed in the
        old output); additions join against the *new* ones (they must exist
        in the new output).  Partners are probed through the prebuilt hash
        indexes of the materialisation — already patched to the new operand
        rows — so the cost is O(Δ · matches), not O(|operand|); the old side
        is recovered per key by undoing the partner's own (small) delta.
        """
        accumulated: List[str] = list(node.parts[index].attrs)
        acc_rows: Set[Row] = set(rows)
        for j, part in enumerate(node.parts):
            if j == index:
                continue
            if not acc_rows:
                return set()
            positions = {name: c for c, name in enumerate(accumulated)}
            shared = tuple(name for name in part.attrs if name in positions)
            buckets = self._mat.join_indexes.get((node, j, shared))
            if buckets is None:  # unforeseen probe shape: build once, keep
                buckets = _build_join_index(
                    self._mat.results[part], part.attrs, shared
                )
                self._mat.join_indexes[(node, j, shared)] = buckets
            part_delta = self._deltas.get(part)
            corrections = old_side and part_delta is not None and bool(part_delta)
            added_by_key: Dict[Row, Set[Row]] = {}
            removed_by_key: Dict[Row, Set[Row]] = {}
            if corrections:
                assert part_delta is not None
                columns = [part.attrs.index(name) for name in shared]
                for row in part_delta.added:
                    key = tuple(row[c] for c in columns)
                    added_by_key.setdefault(key, set()).add(row)
                for row in part_delta.removed:
                    key = tuple(row[c] for c in columns)
                    removed_by_key.setdefault(key, set()).add(row)
            probe_columns = [positions[name] for name in shared]
            rest_columns = [
                c for c, name in enumerate(part.attrs) if name not in positions
            ]
            merged: Set[Row] = set()
            for acc_row in acc_rows:
                key = tuple(acc_row[c] for c in probe_columns)
                partners: Set[Row] = buckets.get(key, _NO_PARTNERS)
                if corrections:
                    partners = (partners - added_by_key.get(key, _NO_PARTNERS)) | (
                        removed_by_key.get(key, _NO_PARTNERS)
                    )
                for partner in partners:
                    merged.add(
                        acc_row + tuple(partner[c] for c in rest_columns)
                    )
            accumulated.extend(
                name for name in part.attrs if name not in positions
            )
            acc_rows = merged
        order = [accumulated.index(name) for name in node.attrs]
        return {tuple(row[c] for c in order) for row in acc_rows}

    def _antijoin(self, node: AntiJoin) -> _NodeDelta:
        left = self.visit(node.left)
        right = self.visit(node.right)
        if not left and not right:
            return _EMPTY_DELTA
        left_attrs, right_attrs = node.left.attrs, node.right.attrs
        shared = [name for name in left_attrs if name in right_attrs]
        old_output = self._mat.results[node]
        if not shared:
            # A negated sentence: the right side's emptiness decides all-or-
            # nothing, so only an emptiness flip (or a left change while
            # empty) moves the output.
            new_output = (
                set()
                if self._mat.results[node.right]
                else set(self._mat.results[node.left])
            )
            return _NodeDelta(new_output - old_output, old_output - new_output)
        left_key = [left_attrs.index(name) for name in shared]
        right_key = [right_attrs.index(name) for name in shared]
        counts = self._mat.anti_counts[node]
        blocked: Set[Row] = set()
        unblocked: Set[Row] = set()
        for row in right.added:
            key = tuple(row[i] for i in right_key)
            prior = counts.get(key, 0)
            counts[key] = prior + 1
            if prior == 0:
                blocked.add(key)
        for row in right.removed:
            key = tuple(row[i] for i in right_key)
            remaining = counts[key] - 1
            if remaining:
                counts[key] = remaining
            else:
                del counts[key]
                unblocked.add(key)
        net_blocked = blocked - unblocked
        net_unblocked = unblocked - blocked
        added: Set[Row] = set()
        removed: Set[Row] = set()
        for row in left.added:
            if tuple(row[i] for i in left_key) not in counts:
                added.add(row)
        for row in left.removed:
            if row in old_output:
                removed.add(row)
        if net_blocked:
            # Re-check only the output rows the newly present keys block.
            removed |= {
                row
                for row in old_output
                if tuple(row[i] for i in left_key) in net_blocked
            }
        if net_unblocked:
            # Re-check only the left rows the newly absent keys unblock.
            added |= {
                row
                for row in self._mat.results[node.left]
                if tuple(row[i] for i in left_key) in net_unblocked
            }
        return _NodeDelta(added - old_output, removed & old_output)

    # -- padding ------------------------------------------------------------

    def _cross_pad(self, node: CrossPad) -> _NodeDelta:
        child = self.visit(node.source)
        if self._adom_grew:
            # Surviving source rows need combinations over the new elements
            # too, so the node is recomputed locally (children are already
            # maintained).
            return self._recompute(node)
        if not child:
            return _EMPTY_DELTA
        pads = list(product(self._adom, repeat=len(node.pad)))
        added = {row + pad for row in child.added for pad in pads}
        removed = {row + pad for row in child.removed for pad in pads}
        return _NodeDelta(added, removed)

    # -- unions --------------------------------------------------------------

    def _union(self, node: UnionAll) -> _NodeDelta:
        counts = self._mat.union_counts[node]
        added: Set[Row] = set()
        removed: Set[Row] = set()
        identity: Callable[[Row], Optional[Row]] = lambda row: row
        for part in node.parts:
            child = self.visit(part)
            if not child:
                continue
            part_added, part_removed = _apply_counts(counts, child, identity)
            added |= part_added
            removed |= part_removed
        return _NodeDelta(added - removed, removed - added)


# ---------------------------------------------------------------------------
# Row-level helpers
# ---------------------------------------------------------------------------


def _source_of(node: "Project | Select") -> PlanNode:
    return node.source


def _scan_rows(node: Scan, rows: FrozenSet[Row]) -> Set[Row]:
    """The scan's output for an explicit bag of stored rows (mirrors
    :meth:`repro.relational.exec._Executor._scan`)."""
    first_seen: Dict[str, int] = {}
    duplicate_checks: List[Tuple[int, int]] = []
    for index, name in enumerate(node.columns):
        if name is None:
            continue
        if name in first_seen:
            duplicate_checks.append((index, first_seen[name]))
        else:
            first_seen[name] = index
    output_columns = [first_seen[name] for name in node.attrs]
    passing: Set[Row] = set()
    for row in rows:
        if any(row[i] != value for i, value in node.constants):
            continue
        if any(row[i] != row[j] for i, j in duplicate_checks):
            continue
        passing.add(tuple(row[i] for i in output_columns))
    return passing


def _row_mapper(
    node: "Project | Select", domain
) -> Optional[Callable[[Row], Optional[Row]]]:
    """The per-row output mapping of a support-counted unary node.

    ``Project`` always maps (pure column projection).  ``Select`` maps only
    when it *drops* attributes (today's compiler always emits permuting
    selects, which are injective and need no counting — the mapper is then
    ``None``); a dropping select filters, permutes, and projects in one.
    """
    source_attrs = node.source.attrs
    if isinstance(node, Select) and len(node.attrs) == len(source_attrs):
        return None
    index = {name: i for i, name in enumerate(source_attrs)}
    columns = [index[name] for name in node.attrs]
    if isinstance(node, Project):
        return lambda row: tuple(row[i] for i in columns)
    conditions = node.conditions
    evaluators = [_condition_evaluator(c, index, domain) for c in conditions]

    def mapper(row: Row) -> Optional[Row]:
        for evaluate in evaluators:
            if not evaluate(row):
                return None
        return tuple(row[i] for i in columns)

    return mapper


def _condition_evaluator(
    condition: Condition, index: Dict[str, int], domain
) -> Callable[[Row], bool]:
    """A per-row predicate for one Select condition (mirrors
    :meth:`repro.relational.exec._Executor._apply_condition`)."""

    def resolve(ref: ValueRef) -> Callable[[Row], Element]:
        if isinstance(ref, ConstRef):
            value = ref.value
            return lambda row: value
        position = index[ref.name]
        return lambda row: row[position]

    if isinstance(condition, Comparison):
        left, right = resolve(condition.left), resolve(condition.right)
        negated = condition.negated
        return lambda row: (left(row) == right(row)) != negated
    getters = [resolve(arg) for arg in condition.args]
    predicate, negated = condition.predicate, condition.negated
    evaluate = domain.eval_predicate
    return lambda row: evaluate(predicate, [get(row) for get in getters]) != negated


def _apply_counts(
    counts: Dict[Row, int],
    child: _NodeDelta,
    mapper: Callable[[Row], Optional[Row]],
) -> Tuple[Set[Row], Set[Row]]:
    """Update a support-count map with a child delta; the output delta is
    the set of 0→1 transitions (added) and 1→0 transitions (removed)."""
    added: Set[Row] = set()
    removed: Set[Row] = set()
    for row in child.added:
        image = mapper(row)
        if image is None:
            continue
        prior = counts.get(image, 0)
        counts[image] = prior + 1
        if prior == 0:
            added.add(image)
    for row in child.removed:
        image = mapper(row)
        if image is None:
            continue
        remaining = counts[image] - 1
        if remaining:
            counts[image] = remaining
        else:
            del counts[image]
            removed.add(image)
    return added - removed, removed - added
