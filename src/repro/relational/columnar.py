"""Columnar (vectorized) execution of compiled relational-algebra plans.

This is the third execution substrate, sitting on top of the same operator IR
that :mod:`repro.relational.exec` interprets set-at-a-time:

* relations are encoded as **column stores** — one ``np.int64`` code per
  attribute value, with a dictionary-encoded carrier
  (:class:`ElementCodec`) whenever elements are not machine-sized integers
  (strings, mixed carriers, bignums).  Every code table, stored or
  intermediate, is a :class:`~repro.relational.kernels.CodeTable`: a tuple
  of contiguous 1-D columns plus a row count (nullary tables have no
  columns), so masks and gathers run one column at a time and a
  projection or permutation picks columns without copying them;
* scans, selections, and equality filters run as **array masks**, and a
  scan with no filter returns the stored columns as they are;
* joins (:func:`repro.relational.kernels.join_indices`: each row's key
  packed into one ``np.int64``) **address dense keys directly** — a key
  span within twice the rows of both sides is counted with ``bincount`` —
  and sort sparser ones for ``np.searchsorted``; antijoins are membership
  masks chosen the same way, and active-domain padding is an array
  broadcast;
* relation encoding is amortised by **per-state encode stores**, memoised
  on the :class:`~repro.relational.state.DatabaseState` like its
  ``elements()``: repeated executions against the same state reuse the
  already-encoded column arrays and pay only kernel time, and the columns
  are freed along with the state.  :func:`apply_delta` hands them to the
  successor of an insert-only delta.  Each stored code table is kept
  lexsorted, so scans, and the joins over them, come out in order and the
  decode need not sort.

Invariants (shared with the tree walker and the set executor):

* **set semantics** — tables are deduplicated at every operator whose output
  could contain duplicates, so row multiplicity never leaks into answers;
* **active-domain closure** — the executor only ever materialises codes for
  the state's stored elements and the elements passed to
  :func:`run_plan_vectorized` (plus the constants embedded in the plan), the
  same universe the other substrates quantify over;
* **exactness** — for every plan the decoded row set equals
  :func:`repro.relational.exec.run_plan` on the same inputs.

Vectorization is deliberately partial, mirroring how compilation itself is
partial: domain-predicate filters (``x < y``) vectorize only when the carrier
is numeric (codes *are* values) and the predicate is one of the standard
integer comparisons; anything else raises :class:`VectorizationError` and the
caller — :class:`repro.engine.plans.VectorizedAlgebraPlan` — falls back to
the set executor, recording the reason in ``explain()``.  NumPy itself is a
soft dependency: without it every plan falls back the same way.

Doctest — a vectorized scan-and-join, equal to the set executor's answer:

>>> from repro.experiments.corpora import family_schema
>>> from repro.relational.state import DatabaseState
>>> from repro.relational.compile import compile_query
>>> from repro.logic.parser import parse_formula
>>> from repro.domains.equality import EqualityDomain
>>> state = DatabaseState(family_schema(), {"F": [(0, 1), (1, 2)]})
>>> compiled = compile_query(parse_formula("exists y. (F(x, y) & F(y, z))"),
...                          state.schema, EqualityDomain())
>>> sorted(run_plan_vectorized(compiled.plan, state, [0, 1, 2], EqualityDomain()))
[(0, 2)]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Collection, Dict, FrozenSet, Iterable, Optional, Sequence,
    Set, Tuple, Union,
)

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np

    from . import kernels
    from .kernels import CodeTable
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine.budget import Deadline

from .exec import (
    AdomScan,
    AntiJoin,
    Comparison,
    ConstRef,
    CrossPad,
    DomainCondition,
    Join,
    Literal,
    PlanNode,
    Project,
    Scan,
    Select,
    UnionAll,
    ValueRef,
    walk_plan,
)
from .compile import CompiledQuery
from .state import DatabaseState, Delta, Element, Row, int64_safe

__all__ = [
    "HAVE_NUMPY",
    "VectorizationError",
    "ElementCodec",
    "EncodeCacheInfo",
    "encode_cache_info",
    "apply_delta",
    "vectorization_obstacle",
    "CodedRows",
    "execute_vectorized",
    "run_plan_vectorized",
]

#: True when numpy imported; without it every vectorized execution falls back
HAVE_NUMPY = np is not None

#: the encode-store key of the stored elements' adom code column (relation
#: names are strings, so it names no relation)
_STORED_ADOM = ("adom",)

#: domain predicates with a vectorized kernel over *numeric* carriers; the
#: built-in numeric domains (``(N, <)``, Presburger) give these the standard
#: integer semantics, which is exactly what the array comparison computes
_NUMERIC_PREDICATES = ("<", "<=", ">", ">=")


class VectorizationError(ValueError):
    """Raised when a plan or carrier has no vectorized execution; callers
    fall back to the set-at-a-time executor."""


def vectorization_obstacle(plan: PlanNode) -> Optional[str]:
    """The *static* reason ``plan`` cannot run vectorized, or ``None``.

    This is state-independent (it depends only on the operators in the plan)
    and cheap, so :func:`execute_vectorized` checks it before encoding
    anything.  Carrier-dependent obstacles (e.g. a domain predicate over a
    dictionary-encoded carrier) surface later, during execution.

    >>> from repro.relational.exec import Select, Literal, DomainCondition, AttrRef
    >>> vectorization_obstacle(Literal(("x",), ((1,),))) is None
    True
    >>> probe = Select(Literal(("x",), ()),
    ...                (DomainCondition("divides", (AttrRef("x"), AttrRef("x"))),),
    ...                ("x",))
    >>> vectorization_obstacle(probe)
    "domain predicate 'divides' has no vectorized kernel"
    """
    if not HAVE_NUMPY:
        return "numpy is not installed"
    for node in walk_plan(plan):
        if isinstance(node, Select):
            for condition in node.conditions:
                if (
                    isinstance(condition, DomainCondition)
                    and condition.predicate not in _NUMERIC_PREDICATES
                ):
                    return (
                        f"domain predicate {condition.predicate!r} has no "
                        "vectorized kernel"
                    )
    return None


# ---------------------------------------------------------------------------
# Element encoding
# ---------------------------------------------------------------------------


class ElementCodec:
    """A bijection between domain elements and ``np.int64`` codes.

    Two modes, chosen by :meth:`for_universe` (and per state by the
    executor's encode store):

    * **numeric passthrough** — every element is a machine-sized ``int``, so
      the code *is* the value and numeric domain predicates vectorize as
      plain array comparisons;
    * **dictionary** — elements (strings, mixed carriers, bignums) are
      assigned dense codes in a deterministic order; equality-based operators
      (scans, joins, antijoins, comparisons) still vectorize, but domain
      predicates do not, because codes no longer carry the numeric value.

    Dictionary tables can *grow monotonically*: :meth:`extend` appends the
    new elements after the existing ones, so every previously assigned code
    stays valid — which is what lets a state keep serving its
    already-encoded columns across codec changes (new query constants
    outside the carrier) instead of re-encoding from scratch.

    >>> codec = ElementCodec.for_universe([10, 3])
    >>> codec.numeric, codec.encode(10)
    (True, 10)
    >>> named = ElementCodec.for_universe(["eve", "adam"])
    >>> named.numeric, named.decode(named.encode("eve"))
    (False, 'eve')
    >>> grown = named.extend(["cain"])
    >>> grown.encode("eve") == named.encode("eve"), grown.decode(grown.encode("cain"))
    (True, 'cain')
    """

    def __init__(self, numeric: bool, table: Tuple[Element, ...]):
        self.numeric = numeric
        self._table = table
        self._codes: Dict[Element, int] = {
            element: code for code, element in enumerate(table)
        }

    @classmethod
    def for_universe(cls, elements: Iterable[Element]) -> "ElementCodec":
        """The codec for a finite universe: passthrough if it is all
        machine-sized ints (:func:`~repro.relational.state.int64_safe`), a
        dictionary otherwise."""
        universe = set(elements)
        if int64_safe(universe):
            return _NUMERIC_CODEC
        return cls.dictionary(universe)

    @classmethod
    def dictionary(cls, elements: Iterable[Element]) -> "ElementCodec":
        """The dictionary codec of ``elements``, in a deterministic order."""
        return cls(False, tuple(sorted(set(elements), key=repr)))

    def extend(self, elements: Iterable[Element]) -> "ElementCodec":
        """A codec that also covers ``elements``, preserving existing codes.

        New elements are appended after the current table (sorted among
        themselves for determinism), so the result encodes every previously
        encodable element to the same code — append-only dictionary growth.
        Returns ``self`` when nothing is new.
        """
        if self.numeric:
            return self
        fresh = sorted(
            {element for element in elements if element not in self._codes},
            key=repr,
        )
        if not fresh:
            return self
        return ElementCodec(False, self._table + tuple(fresh))

    def encode(self, element: Element) -> int:
        """The code of one element (raises on elements outside the universe)."""
        if self.numeric:
            return int(element)
        try:
            return self._codes[element]
        except KeyError:
            raise VectorizationError(
                f"element {element!r} is outside the encoded universe"
            ) from None

    def encodable(self, element: Element) -> bool:
        """True iff :meth:`encode` accepts ``element``."""
        if self.numeric:
            return isinstance(element, int)
        return element in self._codes

    def decode(self, code: int) -> Element:
        """The element behind one code."""
        if self.numeric:
            return int(code)
        return self._table[code]

    def encode_column(self, elements: Collection[Element]) -> "np.ndarray":
        """The 1-D int64 codes of ``elements`` (distinct, in iteration order)."""
        if self.numeric:
            return np.fromiter(elements, dtype=np.int64, count=len(elements))
        codes = self._codes
        return np.fromiter(
            (codes[element] for element in elements),
            dtype=np.int64,
            count=len(elements),
        )

    def encode_rows(self, rows: Sequence[Row], arity: int) -> "CodeTable":
        """A fresh code table for ``rows``: one contiguous int64 column per
        attribute."""
        if not rows:
            return CodeTable.empty(arity)
        if self.numeric:
            flat = np.array(list(rows), dtype=np.int64)
        else:
            codes = self._codes
            flat = np.array(
                [codes[value] for row in rows for value in row], dtype=np.int64
            )
        # One transposing copy: each row of the result is one column.
        return CodeTable(tuple(flat.reshape(len(rows), arity).T.copy()), len(rows))


#: the one passthrough codec: every numeric codec encodes identically
_NUMERIC_CODEC = ElementCodec(numeric=True, table=())


# ---------------------------------------------------------------------------
# Per-state encode stores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodeCacheInfo:
    """A point-in-time snapshot of the process-wide encode counters."""

    #: executions served by a state's existing store
    hits: int
    #: executions that made a state's store (its first under a codec kind)
    misses: int
    #: dictionary-table growth events (codec changes served without re-encode)
    grown: int = 0
    #: stores a mutated state did not inherit (a delete, or an inserted
    #: element the passthrough codec cannot hold)
    invalidated: int = 0
    #: code tables grown for a mutated state (insert-only deltas merge the
    #: new rows' codes into the encoded arrays instead of re-encoding the
    #: relation)
    grown_columns: int = 0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} grown={self.grown} "
            f"invalidated={self.invalidated} grown_columns={self.grown_columns}"
        )


#: the process-wide counters behind :func:`encode_cache_info`; unlocked, so
#: concurrent executions may drop an increment (they are diagnostics only)
_COUNTS: Dict[str, int] = dict.fromkeys(
    ("hits", "misses", "grown", "invalidated", "grown_columns"), 0
)


def encode_cache_info() -> EncodeCacheInfo:
    """The process-wide counters of the per-state encode stores."""
    return EncodeCacheInfo(**_COUNTS)


class _Store:
    """One state's encoded columns under one codec kind.

    ``columns`` maps relation names to lexsorted code tables, and
    :data:`_STORED_ADOM` to the stored elements' code column; the executor
    fills it lazily, one relation at a time.  ``codec`` is the passthrough
    codec, or the state's append-only dictionary codec.  Fills are
    idempotent and stored columns hold only the codes of stored elements,
    which no growth of the dictionary changes, so concurrent executions
    share a store without a lock: a race at worst encodes one relation
    twice, or keeps one of two grown codecs that differ only on elements
    outside the state."""

    __slots__ = ("codec", "columns")

    def __init__(self, codec: ElementCodec, columns: Dict[Any, Any]):
        self.codec = codec
        self.columns = columns


def _store_for(
    state: DatabaseState, extra: Collection[Element]
) -> Tuple[ElementCodec, Dict[Any, Any]]:
    """The codec and the columns of ``state``'s store for a universe that
    adds ``extra`` (elements the state does not store) to its stored
    elements; the store's codec first grows to cover ``extra``.

    A state keeps at most two stores, memoised on the state like
    :meth:`~repro.relational.state.DatabaseState.elements`: one for a
    machine-int universe (numeric passthrough) and one for every other
    universe (dictionary), whose codec only ever appends — a codec change
    (new constants outside the carrier) leaves every encoded column valid.
    """
    numeric = state.int64_safe() and int64_safe(extra)
    stores = state.__dict__.get("_encoded")
    if stores is None:
        stores = state.__dict__.setdefault("_encoded", {})
    store = stores.get(numeric)
    if store is None:
        _COUNTS["misses"] += 1
        codec = (
            _NUMERIC_CODEC if numeric
            else ElementCodec.dictionary(state.elements() | frozenset(extra))
        )
        # A racing first fill may have stored its own; use whichever won.
        store = stores.setdefault(numeric, _Store(codec, {}))
    else:
        _COUNTS["hits"] += 1
    # The codec this execution encodes with: a racing growth may replace
    # ``store.codec`` with one that lacks ``extra``.
    codec = store.codec.extend(extra)
    if codec is not store.codec:
        _COUNTS["grown"] += 1
        store.codec = codec
    return codec, store.columns


def apply_delta(state: DatabaseState, delta: Delta) -> DatabaseState:
    """``state.apply(delta)``, handing ``state``'s encoded columns to the
    new state.

    After an **insert-only** effective delta the touched relations get the
    inserted rows' codes merged into their lexsorted block
    (:func:`~repro.relational.kernels.insert_rows`: O(rows) array passes,
    no Python pass over the stored rows), untouched ones share the parent's
    arrays, and the dictionary codec first grows by the new elements.  The
    stored adom column is not carried: the new state encodes its own on
    first use.  A delta with a delete carries nothing, and neither does a
    passthrough store whose inserted elements are not machine ints; the new
    state then encodes on first use.
    """
    new = state.apply(delta)
    stores = state.__dict__.get("_encoded")
    if new is state or not stores:
        return new
    effective = new.effective_delta
    if not effective.insert_only():
        _COUNTS["invalidated"] += len(stores)
        return new
    fresh = tuple(
        value for rows in effective.inserts.values() for row in rows for value in row
    )
    carried: Dict[bool, _Store] = {}
    for numeric, store in list(stores.items()):
        if numeric and not new.int64_safe():
            _COUNTS["invalidated"] += 1
            continue
        codec = store.codec.extend(fresh)
        if codec is not store.codec:
            _COUNTS["grown"] += 1
        columns: Dict[Any, Any] = {}
        for name, codes in list(store.columns.items()):
            if name == _STORED_ADOM:
                continue
            rows = effective.inserts.get(name)
            if not rows:
                columns[name] = codes  # untouched: share the parent's arrays
                continue
            columns[name] = kernels.insert_rows(
                codes, codec.encode_rows(tuple(rows), len(codes.columns))
            )
            _COUNTS["grown_columns"] += 1
        carried[numeric] = _Store(codec, columns)
    object.__setattr__(new, "_encoded", carried)
    return new


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Table:
    """An intermediate result: attribute names plus a deduplicated code table."""

    attrs: Tuple[str, ...]
    codes: "CodeTable"  # one column per attribute, in ``attrs`` order


class _ColumnarExecutor:
    """Evaluate plan nodes bottom-up on int64 code tables.

    Every method keeps the invariant that its output table is deduplicated,
    so joins never have to re-dedupe (a natural join of sets is a set).
    Tables are column tuples: masks and gathers run one column at a time,
    and a permutation or projection picks columns without copying them."""

    def __init__(
        self,
        state: DatabaseState,
        outside: Collection[Element],
        codec: ElementCodec,
        relation_columns: Dict[Any, Any],
        deadline: "Optional[Deadline]" = None,
    ) -> None:
        self._state = state
        self._codec = codec
        self._deadline = deadline
        #: the universe's elements the state does not store
        self._outside = outside
        self._adom_codes: Any = None
        #: relation name → encoded code table, plus the stored elements' adom
        #: column: the state's encode store, so encodings persist across
        #: executions of the same state
        self._relations = relation_columns

    def run(self, node: PlanNode) -> _Table:
        if self._deadline is not None:
            # Cooperative checkpoint between kernel stages: individual NumPy
            # kernels are uninterruptible, but the plan aborts between them.
            self._deadline.check(type(node).__name__)
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, AdomScan):
            return _Table(node.attrs, CodeTable.of(self._adom()))
        if isinstance(node, Literal):
            rows = tuple(set(node.rows))
            return _Table(node.attrs, self._codec.encode_rows(rows, len(node.attrs)))
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
            parts = [self.run(part).codes for part in node.parts]
            if not parts:
                return _Table(node.attrs, CodeTable.empty(len(node.attrs)))
            return _Table(node.attrs, kernels.unique_rows(kernels.concat_rows(parts)))
        raise TypeError(f"not a plan node: {node!r}")

    # -- leaves -------------------------------------------------------------

    def _adom(self) -> Any:
        """The universe's codes, one per (distinct) element, built on first
        use: only ``AdomScan`` and ``CrossPad`` read them.  The stored
        elements' column is encoded once per state and codec, in the encode
        store; an execution encodes only the elements outside the state."""
        if self._adom_codes is None:
            stored = self._relations.get(_STORED_ADOM)
            if stored is None:
                stored = self._codec.encode_column(self._state.elements())
                self._relations[_STORED_ADOM] = stored
            if self._outside:
                stored = np.concatenate(
                    [stored, self._codec.encode_column(self._outside)]
                )
            self._adom_codes = stored
        return self._adom_codes

    def _relation_codes(self, name: str) -> "CodeTable":
        """The stored relation's code table, lexsorted (encoded and sorted
        once per state and codec), so scans come out in order."""
        cached = self._relations.get(name)
        if cached is None:
            relation = self._state[name]
            cached = kernels.unique_rows(
                self._codec.encode_rows(tuple(relation.rows), relation.arity)
            )
            self._relations[name] = cached
        return cached

    def _scan(self, node: Scan) -> _Table:
        stored = self._relation_codes(node.relation)
        columns = stored.columns
        mask: Any = None
        for index, value in node.constants:
            if self._codec.encodable(value):
                hits = columns[index] == self._codec.encode(value)
            else:
                hits = np.zeros(stored.rows, dtype=bool)
            mask = hits if mask is None else mask & hits
        first_seen: Dict[str, int] = {}
        for index, name in enumerate(node.columns):
            if name is None:
                continue
            if name in first_seen:
                hits = columns[index] == columns[first_seen[name]]
                mask = hits if mask is None else mask & hits
            else:
                first_seen[name] = index
        output = [first_seen[name] for name in node.attrs]
        table = stored.pick(output)
        if mask is not None:
            table = table.take(mask)
        if len(output) < len(first_seen):
            table = kernels.unique_rows(table)
        # Otherwise the scan keeps every distinct variable (the compiler
        # always builds it so), and the columns it drops equal a constant or
        # a kept column on every surviving row: distinct stored rows stay
        # distinct, so there is nothing to dedupe.  With no filter either,
        # the stored columns come back as they are.
        return _Table(node.attrs, table)

    # -- filters ------------------------------------------------------------

    def _column(self, table: _Table, ref: ValueRef) -> Any:
        if isinstance(ref, ConstRef):
            if not self._codec.encodable(ref.value):
                # A constant outside the universe can never equal any encoded
                # value; representing it as an impossible code keeps equality
                # masks correct (inequality masks become all-True).
                return np.full(table.codes.rows, -1, dtype=np.int64)
            return np.full(
                table.codes.rows, self._codec.encode(ref.value), dtype=np.int64
            )
        return table.codes.columns[table.attrs.index(ref.name)]

    def _select(self, node: Select) -> _Table:
        table = self.run(node.source)
        mask = np.ones(table.codes.rows, dtype=bool)
        for condition in node.conditions:
            if isinstance(condition, Comparison):
                hits = self._column(table, condition.left) == self._column(
                    table, condition.right
                )
            else:
                hits = self._domain_mask(table, condition)
            mask &= ~hits if condition.negated else hits
        return _Table(node.attrs, self._pick(table, node.attrs).take(mask))

    def _domain_mask(self, table: _Table, condition: DomainCondition) -> Any:
        if not self._codec.numeric:
            raise VectorizationError(
                f"domain predicate {condition.predicate!r} over a "
                "dictionary-encoded (non-integer) carrier cannot be vectorized"
            )
        left = self._column(table, condition.args[0])
        right = self._column(table, condition.args[1])
        if condition.predicate == "<":
            return left < right
        if condition.predicate == "<=":
            return left <= right
        if condition.predicate == ">":
            return left > right
        if condition.predicate == ">=":
            return left >= right
        raise VectorizationError(  # pre-empted by vectorization_obstacle()
            f"domain predicate {condition.predicate!r} has no vectorized kernel"
        )

    def _project(self, node: Project) -> _Table:
        table = self.run(node.source)
        return _Table(node.attrs, kernels.unique_rows(self._pick(table, node.attrs)))

    @staticmethod
    def _pick(table: _Table, attrs: Sequence[str]) -> "CodeTable":
        """The columns of ``attrs``, in that order, uncopied."""
        if table.attrs == tuple(attrs):
            return table.codes
        return table.codes.pick([table.attrs.index(name) for name in attrs])

    # -- joins --------------------------------------------------------------

    def _join(self, node: Join) -> _Table:
        pending = [self.run(part) for part in node.parts]
        while len(pending) > 1:
            best = (0, 1)
            best_cost: Optional[Tuple[bool, int]] = None
            for i in range(len(pending)):
                for j in range(i + 1, len(pending)):
                    shares = bool(set(pending[i].attrs) & set(pending[j].attrs))
                    cost = (
                        not shares,
                        pending[i].codes.rows * pending[j].codes.rows,
                    )
                    if best_cost is None or cost < best_cost:
                        best, best_cost = (i, j), cost
            i, j = best
            left, right = pending[i], pending.pop(j)
            pending[i] = self._pairwise_join(left, right)
        return _Table(node.attrs, self._pick(pending[0], node.attrs))

    def _pairwise_join(self, left: _Table, right: _Table) -> _Table:
        shared = [name for name in left.attrs if name in right.attrs]
        right_only = [name for name in right.attrs if name not in shared]
        li, ri = kernels.join_indices(
            self._pick(left, shared), self._pick(right, shared)
        )
        kept = left.codes.take(li).columns + self._pick(right, right_only).take(ri).columns
        # A natural join of deduplicated tables is itself duplicate-free.
        return _Table(left.attrs + tuple(right_only), CodeTable(kept, li.shape[0]))

    def _antijoin(self, node: AntiJoin) -> _Table:
        left = self.run(node.left)
        if left.codes.rows == 0:
            return left
        right = self.run(node.right)
        shared = [name for name in left.attrs if name in right.attrs]
        if not shared:
            if right.codes.rows:
                return _Table(left.attrs, CodeTable.empty(len(left.attrs)))
            return left
        mask = kernels.membership_mask(
            self._pick(left, shared), self._pick(right, shared)
        )
        return _Table(left.attrs, left.codes.take(~mask))

    def _cross_pad(self, node: CrossPad) -> _Table:
        table = self.run(node.source)
        codes = table.codes
        for _ in node.pad:
            codes = kernels.cross_pad_arrays(codes, self._adom())
        return _Table(node.attrs, codes)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _plan_constants(plan: PlanNode) -> FrozenSet[Element]:
    """Every constant embedded in the plan (scan filters, literals, refs)."""
    constants: Set[Element] = set()
    for node in walk_plan(plan):
        if isinstance(node, Scan):
            constants.update(value for _, value in node.constants)
        elif isinstance(node, Literal):
            constants.update(value for row in node.rows for value in row)
        elif isinstance(node, Select):
            for condition in node.conditions:
                refs: Tuple[ValueRef, ...]
                if isinstance(condition, Comparison):
                    refs = (condition.left, condition.right)
                else:
                    refs = condition.args
                constants.update(
                    ref.value for ref in refs if isinstance(ref, ConstRef)
                )
    return frozenset(constants)


class CodedRows:
    """An executed code table and its codec, decoded only on request.

    :meth:`split` separates rows by the elements they mention *before*
    decoding, so a caller that needs only some of the rows (the rows
    mentioning a fresh element, say) never decodes the rest.

    On a numeric (passthrough) codec code order *is* element order, so
    :meth:`rows` decodes the table once, column by column at C speed, into a
    tuple already in sorted order: stored code tables are lexsorted and the
    kernels keep that order, and a table that is not in order gets sorted
    as codes first (:func:`~repro.relational.kernels.sorted_unique_rows`).
    Dictionary codes follow the codec's table, not the elements, so there
    the rows come back as a set, as from :meth:`decode`.

    >>> codec = ElementCodec.for_universe(["a", "b", "z"])
    >>> coded = CodedRows(codec, codec.encode_rows([("a",), ("b",)], 1))
    >>> sorted(coded.decode())
    [('a',), ('b',)]
    >>> hits, rest = coded.split(["z"])
    >>> hits, sorted(rest)
    (set(), [('a',), ('b',)])
    >>> coded.split(["b"])
    ({('b',)}, set())

    The same on a numeric table, whose rows come back sorted whatever order
    the table holds them in, and on the zero-column table of a true
    sentence, whose one row is ``()``:

    >>> numeric = ElementCodec.for_universe([1, 2, 9])
    >>> pairs = CodedRows(numeric, numeric.encode_rows([(2, 9), (1, 2)], 2))
    >>> pairs.rows()
    ((1, 2), (2, 9))
    >>> pairs.split([9])
    (((2, 9),), ())
    >>> pairs.split([7, 9])
    ((), ((1, 2),))
    >>> true = CodedRows(numeric, CodeTable((), 1))
    >>> true.rows(), true.split([9])
    (((),), ((), ((),)))
    """

    def __init__(self, codec: ElementCodec, codes: "CodeTable"):
        self.codec = codec
        #: the deduplicated code table
        self.codes = codes

    def decode(self, codes: "Optional[CodeTable]" = None) -> Set[Row]:
        """The decoded rows (of ``codes``, a slice of the table, if given)."""
        codes = self.codes if codes is None else codes
        if not codes.columns:
            return {()} if codes.rows else set()
        columns = [column.tolist() for column in codes.columns]
        if not self.codec.numeric:
            decode = self.codec.decode
            columns = [[decode(code) for code in column] for column in columns]
        return set(zip(*columns))

    def rows(self, codes: "Optional[CodeTable]" = None) -> Collection[Row]:
        """The decoded rows (of ``codes``, a slice of the table, if given):
        distinct and sorted in a tuple on a numeric codec, a set otherwise."""
        codes = self.codes if codes is None else codes
        if not self.codec.numeric:
            return self.decode(codes)
        codes = kernels.sorted_unique_rows(codes)
        if not codes.columns:
            return ((),) * codes.rows
        return tuple(zip(*(column.tolist() for column in codes.columns)))

    def split(
        self, elements: Sequence[Element]
    ) -> Tuple[Collection[Row], Collection[Row]]:
        """``(hits, rest)``: the decoded rows mentioning ``elements[0]`` —
        and, when there are none, the decoded rows mentioning no element of
        ``elements`` (elements outside the codec mention no row); both as
        :meth:`rows` decodes them.

        Rows are marked with one ``==`` per code and column.  When no row
        mentions any of the elements the rest is the table itself,
        uncopied."""
        codes = self.codes
        none = CodeTable.empty(len(codes.columns))
        marks = [self.codec.encode(e) for e in elements if self.codec.encodable(e)]
        if not marks or not codes.rows or not codes.columns:
            return self.rows(none), self.rows()
        if self.codec.encodable(elements[0]):
            hits = self._mentions(marks[:1])
            if hits.any():
                return self.rows(codes.take(hits)), self.rows(none)
        mentioned = self._mentions(marks)
        if not mentioned.any():
            return self.rows(none), self.rows()
        return self.rows(none), self.rows(codes.take(~mentioned))

    def _mentions(self, marks: Sequence[int]) -> Any:
        """Mask of the rows holding any of the codes ``marks`` in any column."""
        mask = np.zeros(self.codes.rows, dtype=bool)
        for column in self.codes.columns:
            for mark in marks:
                mask |= column == mark
        return mask


def run_plan_vectorized(
    node: PlanNode,
    state: DatabaseState,
    adom: Iterable[Element],
    domain: object = None,
    *,
    deadline: "Optional[Deadline]" = None,
) -> Set[Row]:
    """Evaluate a compiled plan on NumPy code tables.

    The contract is that of :func:`repro.relational.exec.run_plan` — same
    plan IR, same set-of-rows result — over the universe of the state's
    stored elements plus ``adom``, which equals ``run_plan``'s explicit
    active domain whenever that holds the stored elements (a compiled
    query's :meth:`~repro.relational.compile.CompiledQuery.universe`
    always does), and then the two executors agree.  ``domain`` is accepted
    for signature parity but unused: every domain predicate that vectorizes
    does so by its standard integer semantics.  Raises :class:`VectorizationError` when the
    plan, the carrier, or the environment cannot be vectorized; callers fall
    back to the set executor.

    Relation encoding is amortised through the state's own encode store:
    repeated executions against the same state object skip the O(rows)
    re-encode and pay only kernel time.

    >>> from repro.relational.exec import AdomScan
    >>> from repro.relational.schema import DatabaseSchema
    >>> state = DatabaseState(DatabaseSchema())
    >>> sorted(run_plan_vectorized(AdomScan(("x",)), state, ["b", "a"]))
    [('a',), ('b',)]
    """
    return execute_vectorized(node, state, adom, deadline=deadline).decode()


def execute_vectorized(
    node: Union[PlanNode, CompiledQuery],
    state: DatabaseState,
    outside: Iterable[Element] = (),
    *,
    deadline: "Optional[Deadline]" = None,
) -> CodedRows:
    """:func:`run_plan_vectorized`, stopping short of decoding the result.

    ``node`` is a plan, or a compiled query whose plan runs: the plan's
    static facts (its vectorization obstacle and its constants) are then
    read off the query, derived once per query
    (:meth:`~repro.relational.compile.CompiledQuery.fact`), instead of
    walking the plan on every call.

    The universe is the state's stored elements plus ``outside``: a caller
    passes only the elements the state may not store (query constants,
    extra and fresh elements), and a call looks only at those — the stored
    elements' codes come from the state's encode store, once per state and
    codec kind.
    """
    if isinstance(node, CompiledQuery):
        plan = node.plan
        obstacle = node.fact(vectorization_obstacle)
        constants = node.fact(_plan_constants)
    else:
        plan = node
        obstacle = vectorization_obstacle(plan)
        constants = _plan_constants(plan)
    if obstacle is not None:
        raise VectorizationError(obstacle)
    stored = state.elements()
    # C-level set differences over the small operands only: no Python pass
    # over the active domain per call.
    extra = frozenset(outside) - stored
    # The store owns the codec choice: for dictionary carriers it hands out
    # the state's append-only codec, so a codec change (new constants)
    # reuses the already-encoded columns.
    codec, columns = _store_for(state, extra | (constants - stored))
    table = _ColumnarExecutor(state, extra, codec, columns, deadline).run(plan)
    if deadline is not None:
        deadline.check("decode")
    return CodedRows(codec, table.codes)
