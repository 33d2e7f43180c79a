"""Set-at-a-time execution of compiled relational-algebra plans.

The tree-walking evaluator in :mod:`repro.relational.calculus` answers a
query one candidate tuple at a time; the operators here answer it one
*relation* at a time, which is where the speed comes from:

* **hash joins** — n-ary :class:`Join` nodes are ordered greedily at run
  time (smallest intermediate first, cross products last) and each pairwise
  join builds a hash table on the smaller side;
* **antijoins** — negated conjuncts become :class:`AntiJoin` (set difference
  after a semijoin) instead of a difference against a full active-domain
  power;
* **selection pushdown** — the compiler attaches :class:`Comparison` and
  :class:`DomainCondition` filters to the deepest operator that binds their
  attributes, so rows are discarded before they multiply.

Every node carries its output ``attrs`` (one attribute per free variable of
the subformula it came from); :func:`run_plan` evaluates a node against a
database state, an explicit active domain, and a domain interpretation,
returning a set of rows in ``attrs`` order.  Plans reference the active
domain symbolically (:class:`AdomScan`, :class:`CrossPad`), so one compiled
plan can be reused across states — that is what makes the session plan cache
sound.

Invariants shared with the other execution substrates (the tree walker in
:mod:`repro.relational.calculus` and the vectorized columnar executor in
:mod:`repro.relational.columnar`):

* **set semantics** — every operator returns a Python ``set`` of rows, so
  duplicates can never influence an answer;
* **active-domain closure** — every element in any output row comes from the
  state, the plan's embedded constants, or the explicit ``adom`` collection;
  the executor invents nothing outside that universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine.budget import Deadline

from .state import DatabaseState, Element, Row

__all__ = [
    "AttrRef",
    "ConstRef",
    "ValueRef",
    "Comparison",
    "DomainCondition",
    "Condition",
    "Scan",
    "AdomScan",
    "Literal",
    "Select",
    "Project",
    "Join",
    "AntiJoin",
    "CrossPad",
    "UnionAll",
    "PlanNode",
    "ExecutionStats",
    "run_plan",
    "walk_plan",
    "plan_summary",
]


# ---------------------------------------------------------------------------
# Filter conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttrRef:
    """A reference to an attribute (column) of the current operator."""

    name: str


@dataclass(frozen=True)
class ConstRef:
    """An inline constant value."""

    value: Element


ValueRef = Union[AttrRef, ConstRef]


@dataclass(frozen=True)
class Comparison:
    """An (in)equality filter between two attribute/constant references."""

    left: ValueRef
    right: ValueRef
    negated: bool = False


@dataclass(frozen=True)
class DomainCondition:
    """A filter delegating to the domain interpretation, e.g. ``x < y``."""

    predicate: str
    args: Tuple[ValueRef, ...]
    negated: bool = False


Condition = Union[Comparison, DomainCondition]


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scan:
    """One pass over a stored relation: constant filters, repeated-variable
    filters, and projection to distinct variables, all fused."""

    relation: str
    #: variable name per column, or ``None`` for a constant-only position
    columns: Tuple[Optional[str], ...]
    #: (column index, required value) filters
    constants: Tuple[Tuple[int, Element], ...]
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class AdomScan:
    """The active domain as a unary relation."""

    attrs: Tuple[str, ...]  # exactly one attribute


@dataclass(frozen=True)
class Literal:
    """An inline constant relation."""

    attrs: Tuple[str, ...]
    rows: Tuple[Row, ...]


@dataclass(frozen=True)
class Select:
    """Filter rows of ``source`` by a conjunction of conditions."""

    source: "PlanNode"
    conditions: Tuple[Condition, ...]
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class Project:
    """Keep (and reorder to) the named attributes, removing duplicates."""

    source: "PlanNode"
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class Join:
    """N-ary natural join; the executor picks the join order greedily."""

    parts: Tuple["PlanNode", ...]
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class AntiJoin:
    """Rows of ``left`` with no ``right`` row agreeing on the shared attrs."""

    left: "PlanNode"
    right: "PlanNode"
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class CrossPad:
    """Cross product with one active-domain column per attribute in ``pad``."""

    source: "PlanNode"
    pad: Tuple[str, ...]
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class UnionAll:
    """Set union of parts sharing one attribute list."""

    parts: Tuple["PlanNode", ...]
    attrs: Tuple[str, ...]


PlanNode = Union[
    Scan, AdomScan, Literal, Select, Project, Join, AntiJoin, CrossPad,
    UnionAll,
]


def walk_plan(node: PlanNode) -> Iterator[PlanNode]:
    """Yield ``node`` and all of its operator subtrees, in pre-order.

    >>> plan = Project(Join((Scan("F", ("x", "y"), (), ("x", "y")),
    ...                      Scan("F", ("y", "z"), (), ("y", "z"))),
    ...                     ("x", "y", "z")), ("x",))
    >>> [type(sub).__name__ for sub in walk_plan(plan)]
    ['Project', 'Join', 'Scan', 'Scan']
    """
    yield node
    if isinstance(node, (Select, Project, CrossPad)):
        yield from walk_plan(node.source)
    elif isinstance(node, (Join, UnionAll)):
        for part in node.parts:
            yield from walk_plan(part)
    elif isinstance(node, AntiJoin):
        yield from walk_plan(node.left)
        yield from walk_plan(node.right)


def plan_summary(node: PlanNode) -> str:
    """A compact operator census, e.g. ``2 scans, 1 join, 1 antijoin``.

    >>> plan = AntiJoin(Scan("F", ("x", "y"), (), ("x", "y")),
    ...                 Scan("F", ("y", "x"), (), ("y", "x")),
    ...                 ("x", "y"))
    >>> plan_summary(plan)
    '2 scans, 1 antijoin'
    """
    labels = {
        Scan: "scan", AdomScan: "adom-scan", Literal: "literal",
        Select: "select", Project: "project", Join: "join",
        AntiJoin: "antijoin", CrossPad: "adom-pad", UnionAll: "union",
    }
    counts: Dict[str, int] = {}
    for sub in walk_plan(node):
        label = labels[type(sub)]
        counts[label] = counts.get(label, 0) + 1
    order = ["scan", "adom-scan", "literal", "select", "project", "join",
             "antijoin", "adom-pad", "union"]
    return ", ".join(
        f"{counts[label]} {label}{'s' if counts[label] != 1 else ''}"
        for label in order if label in counts
    )


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


@dataclass
class ExecutionStats:
    """Row counts observed while running one plan.

    ``peak_rows`` is the largest single operator output the execution
    materialised — the number a pad-before-filter plan inflates to
    ``|adom|^k`` and the compiler keeps down by firing each condition
    between one-column pads and projecting unused columns before joins.
    The conformance bench smoke and the compiler tests assert on it because
    it is deterministic where wall-clock time is noisy.
    """

    #: largest row set materialised by any single operator (or pairwise join)
    peak_rows: int = 0
    #: total rows produced across all operators
    total_rows: int = 0
    #: rows produced per operator label, in execution order
    operator_rows: List[Tuple[str, int]] = field(default_factory=list)

    def record(self, label: str, count: int) -> None:
        self.peak_rows = max(self.peak_rows, count)
        self.total_rows += count
        self.operator_rows.append((label, count))


class _Executor:
    """Evaluate plan nodes bottom-up; every method returns a set of rows in
    the node's declared ``attrs`` order."""

    def __init__(
        self,
        state: DatabaseState,
        adom: Iterable[Element],
        domain,
        stats: Optional[ExecutionStats] = None,
        deadline: "Optional[Deadline]" = None,
    ) -> None:
        self._state = state
        self._adom = tuple(adom)
        self._domain = domain
        self._stats = stats
        self._deadline = deadline

    def run(self, node: PlanNode) -> Set[Row]:
        if self._deadline is not None:
            # Cooperative checkpoint between operators: a deadline or a
            # cancellation aborts before the next operator materialises.
            self._deadline.check(type(node).__name__, self._stats)
        result = self._dispatch(node)
        if self._stats is not None:
            self._stats.record(type(node).__name__, len(result))
        return result

    def _dispatch(self, node: PlanNode) -> Set[Row]:
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, AdomScan):
            return {(element,) for element in self._adom}
        if isinstance(node, Literal):
            return set(node.rows)
        if isinstance(node, Select):
            return self._select(node)
        if isinstance(node, Project):
            return self._project(node)
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, AntiJoin):
            return self._antijoin(node)
        if isinstance(node, CrossPad):
            return self._cross_pad(node)
        if isinstance(node, UnionAll):
            result: Set[Row] = set()
            for part in node.parts:
                result |= self.run(part)
            return result
        raise TypeError(f"not a plan node: {node!r}")

    # -- leaves -------------------------------------------------------------

    def _scan(self, node: Scan) -> Set[Row]:
        relation = self._state[node.relation]
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
        rows: Set[Row] = set()
        for row in relation.rows:
            if any(row[i] != value for i, value in node.constants):
                continue
            if any(row[i] != row[j] for i, j in duplicate_checks):
                continue
            rows.add(tuple(row[i] for i in output_columns))
        return rows

    # -- filters ------------------------------------------------------------

    def _select(self, node: Select) -> Set[Row]:
        source_attrs = _attrs_of(node.source)
        index = {name: i for i, name in enumerate(source_attrs)}
        rows = self.run(node.source)
        for condition in node.conditions:
            rows = self._apply_condition(rows, condition, index)
        if node.attrs == source_attrs:
            return rows
        permutation = [index[name] for name in node.attrs]
        return {tuple(row[i] for i in permutation) for row in rows}

    def _apply_condition(
        self, rows: Set[Row], condition: Condition, index: Dict[str, int]
    ) -> Set[Row]:
        def resolve(ref: ValueRef):
            if isinstance(ref, ConstRef):
                value = ref.value
                return lambda row: value
            position = index[ref.name]
            return lambda row: row[position]

        if isinstance(condition, Comparison):
            left, right = resolve(condition.left), resolve(condition.right)
            if condition.negated:
                return {row for row in rows if left(row) != right(row)}
            return {row for row in rows if left(row) == right(row)}
        getters = [resolve(arg) for arg in condition.args]
        predicate, negated = condition.predicate, condition.negated
        evaluate = self._domain.eval_predicate
        return {
            row
            for row in rows
            if evaluate(predicate, [get(row) for get in getters]) != negated
        }

    def _project(self, node: Project) -> Set[Row]:
        source_attrs = _attrs_of(node.source)
        columns = [source_attrs.index(name) for name in node.attrs]
        return {tuple(row[i] for i in columns) for row in self.run(node.source)}

    # -- joins --------------------------------------------------------------

    def _join(self, node: Join) -> Set[Row]:
        pending: List[Tuple[Tuple[str, ...], Set[Row]]] = [
            (_attrs_of(part), self.run(part)) for part in node.parts
        ]
        while len(pending) > 1:
            best = None
            best_cost = None
            for i in range(len(pending)):
                for j in range(i + 1, len(pending)):
                    shares = bool(set(pending[i][0]) & set(pending[j][0]))
                    cost = (
                        not shares,  # prefer real joins over cross products
                        len(pending[i][1]) * len(pending[j][1]),
                    )
                    if best_cost is None or cost < best_cost:
                        best, best_cost = (i, j), cost
            i, j = best  # type: ignore[misc]
            (left_attrs, left_rows) = pending[i]
            (right_attrs, right_rows) = pending.pop(j)
            if self._deadline is not None:
                self._deadline.check("Join(pairwise)", self._stats)
            pending[i] = _hash_join(left_attrs, left_rows, right_attrs, right_rows)
            # The final merge is the Join node's own output, which run()
            # records; only intermediate merges are extra materialisations.
            if self._stats is not None and len(pending) > 1:
                self._stats.record("Join(pairwise)", len(pending[i][1]))
        attrs, rows = pending[0]
        if attrs == node.attrs:
            return rows
        index = {name: i for i, name in enumerate(attrs)}
        permutation = [index[name] for name in node.attrs]
        return {tuple(row[i] for i in permutation) for row in rows}

    def _antijoin(self, node: AntiJoin) -> Set[Row]:
        left_attrs = _attrs_of(node.left)
        right_attrs = _attrs_of(node.right)
        left_rows = self.run(node.left)
        if not left_rows:
            return left_rows
        right_rows = self.run(node.right)
        shared = [name for name in left_attrs if name in right_attrs]
        if not shared:
            # A negated sentence: it either kills every row or none.
            return set() if right_rows else left_rows
        left_key = [left_attrs.index(name) for name in shared]
        right_key = [right_attrs.index(name) for name in shared]
        seen = {tuple(row[i] for i in right_key) for row in right_rows}
        return {
            row for row in left_rows
            if tuple(row[i] for i in left_key) not in seen
        }

    def _cross_pad(self, node: CrossPad) -> Set[Row]:
        rows = self.run(node.source)
        for _ in node.pad:
            if self._deadline is not None:
                self._deadline.check("CrossPad(column)", self._stats)
            rows = {row + (element,) for row in rows for element in self._adom}
        return rows


def _attrs_of(node: PlanNode) -> Tuple[str, ...]:
    return node.attrs


def _hash_join(
    left_attrs: Tuple[str, ...],
    left_rows: Set[Row],
    right_attrs: Tuple[str, ...],
    right_rows: Set[Row],
) -> Tuple[Tuple[str, ...], Set[Row]]:
    """Natural hash join; builds the hash table on the smaller operand."""
    shared = [name for name in left_attrs if name in right_attrs]
    right_only = [name for name in right_attrs if name not in shared]
    out_attrs = left_attrs + tuple(right_only)
    left_index = {name: i for i, name in enumerate(left_attrs)}
    right_index = {name: i for i, name in enumerate(right_attrs)}
    left_key = [left_index[name] for name in shared]
    right_key = [right_index[name] for name in shared]
    right_rest = [right_index[name] for name in right_only]
    rows: Set[Row] = set()
    if len(left_rows) <= len(right_rows):
        buckets: Dict[Row, List[Row]] = {}
        for row in left_rows:
            buckets.setdefault(tuple(row[i] for i in left_key), []).append(row)
        for row in right_rows:
            key = tuple(row[i] for i in right_key)
            rest = tuple(row[i] for i in right_rest)
            for partner in buckets.get(key, ()):
                rows.add(partner + rest)
    else:
        buckets = {}
        for row in right_rows:
            key = tuple(row[i] for i in right_key)
            buckets.setdefault(key, []).append(tuple(row[i] for i in right_rest))
        for row in left_rows:
            key = tuple(row[i] for i in left_key)
            for rest in buckets.get(key, ()):
                rows.add(row + rest)
    return out_attrs, rows


def run_plan(
    node: PlanNode,
    state: DatabaseState,
    adom: Iterable[Element],
    domain,
    stats: Optional[ExecutionStats] = None,
    deadline: "Optional[Deadline]" = None,
) -> Set[Row]:
    """Evaluate a compiled plan against a state, an explicit active domain,
    and a domain interpretation; rows come back in ``node.attrs`` order.

    Pass an :class:`ExecutionStats` to observe per-operator row counts (the
    blowup-guard regression tests assert on its ``peak_rows``).  Pass a
    started :class:`~repro.engine.budget.Deadline` to make the execution
    interruptible: a cooperative checkpoint runs between operators (and
    between pairwise join merges / pad columns), raising
    ``DeadlineExceeded`` / ``Cancelled`` with the partial stats attached.

    >>> from repro.domains.equality import EqualityDomain
    >>> from repro.experiments.corpora import family_schema
    >>> state = DatabaseState(family_schema(), {"F": [(0, 1), (2, 2)]})
    >>> diagonal = Scan("F", ("x", "x"), (), ("x",))
    >>> sorted(run_plan(diagonal, state, [0, 1, 2], EqualityDomain()))
    [(2,)]
    """
    return _Executor(state, adom, domain, stats, deadline).run(node)
