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
* relation encoding is amortised by a **per-state encode cache**
  (:class:`EncodeCache`): repeated executions against an unchanged state
  reuse the already-encoded column arrays and pay only kernel time.  Each
  stored code table is kept lexsorted, so scans, and the joins over them,
  come out in order and the decode need not sort.

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

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Collection, Dict, Iterable, Optional, Sequence, Set, Tuple,
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
from .state import DatabaseState, Element, Row, int64_safe

__all__ = [
    "HAVE_NUMPY",
    "VectorizationError",
    "ElementCodec",
    "EncodeCache",
    "EncodeCacheInfo",
    "encode_cache",
    "encode_cache_info",
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

    Two modes, chosen by :meth:`for_universe` (and per state by
    :meth:`EncodeCache.codec_for`):

    * **numeric passthrough** — every element is a machine-sized ``int``, so
      the code *is* the value and numeric domain predicates vectorize as
      plain array comparisons;
    * **dictionary** — elements (strings, mixed carriers, bignums) are
      assigned dense codes in a deterministic order; equality-based operators
      (scans, joins, antijoins, comparisons) still vectorize, but domain
      predicates do not, because codes no longer carry the numeric value.

    Dictionary tables can *grow monotonically*: :meth:`extend` appends the
    new elements after the existing ones, so every previously assigned code
    stays valid — which is what lets the encode cache keep serving a state's
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

    def __init__(
        self,
        numeric: bool,
        table: Tuple[Element, ...],
        *,
        growing: bool = False,
    ):
        self.numeric = numeric
        #: True for cache-managed dictionary codecs whose table only ever
        #: grows (append-only), making their encoded columns reusable
        self.growing = growing
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
    def dictionary(
        cls, elements: Iterable[Element], *, growing: bool = False
    ) -> "ElementCodec":
        """The dictionary codec of ``elements``, in a deterministic order."""
        return cls(False, tuple(sorted(set(elements), key=repr)), growing=growing)

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
        return ElementCodec(
            False, self._table + tuple(fresh), growing=self.growing
        )

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

    def cache_key(self) -> Tuple[Any, ...]:
        """A hashable token identifying the element→code mapping.

        All numeric (passthrough) codecs encode identically; dictionary
        codecs encode identically iff their tables agree.  The encode cache
        keys entries by this, so plans with different constants can share one
        state's encoded columns whenever their codecs agree.  Cache-managed
        *growing* dictionary codecs share one stable key: their table only
        ever appends, so columns encoded under an earlier table version stay
        valid under every later one.
        """
        if self.numeric:
            return ("numeric",)
        if self.growing:
            return ("dictionary-growing",)
        return ("dictionary", self._table)


#: the one passthrough codec: every numeric codec encodes identically
_NUMERIC_CODEC = ElementCodec(numeric=True, table=())


# ---------------------------------------------------------------------------
# The per-state encode cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodeCacheInfo:
    """A point-in-time snapshot of encode-cache effectiveness."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    #: dictionary-table growth events (codec changes served without re-encode)
    grown: int = 0
    #: entries dropped eagerly because their state was superseded or
    #: explicitly invalidated (as opposed to LRU-pressure evictions)
    invalidated: int = 0
    #: column arrays migrated to a mutated state (insert-only deltas merge
    #: the new rows' codes into the encoded arrays instead of re-encoding
    #: the relation)
    grown_columns: int = 0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} evictions={self.evictions} "
            f"size={self.size}/{self.maxsize} grown={self.grown} "
            f"invalidated={self.invalidated} grown_columns={self.grown_columns}"
        )


class EncodeCache:
    """An LRU cache of encoded relation columns, keyed per database state.

    Encoding a state's relations into int64 code tables is the O(rows)
    prologue every vectorized execution used to pay; for a serving workload
    over a slowly-changing state it dominates the (kernel) work that actually
    answers the query.  This cache keys the encoded columns by the pair
    *(state, codec key)* — states are immutable value objects with a cached
    fingerprint hash, so an unchanged state hits and a changed one can never
    serve stale columns.  Entries are filled lazily, one relation at a time,
    by the executor.

    The module-level instance (:func:`encode_cache`) is shared process-wide,
    mirroring how compiled plans are shared through the session plan cache;
    :func:`encode_cache_info` gives ``cache_info()``-style counters.

    The cache is **thread-safe**: concurrent serving sessions
    (:mod:`repro.serve`) querying states with equal ``fingerprint()`` share
    one instance, so LRU bookkeeping and codec growth happen under an
    internal lock.  The column dicts handed out by :meth:`columns_for` are
    filled *outside* the lock by the executor — that is safe because fills
    are idempotent (re-encoding the same relation of the same state yields
    equal code arrays) and single dict writes are atomic under the GIL, so a
    race at worst duplicates one relation's encode work.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize!r}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Any, Dict[Any, Any]]" = OrderedDict()
        #: per-entry growing dictionary codecs, evicted together with entries
        self._codecs: Dict[Any, ElementCodec] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._grown = 0
        self._invalidated = 0
        self._grown_columns = 0
        self._lock = threading.Lock()

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def codec_for(
        self, state: DatabaseState, elements: Iterable[Element]
    ) -> ElementCodec:
        """The codec covering ``state``'s stored elements and ``elements``,
        to encode against ``state``'s cached columns.

        Whether the state's own elements are machine ints is memoised on the
        state (:meth:`~repro.relational.state.DatabaseState.int64_safe`), so
        a request checks in Python only the elements outside it — the query
        constants and a probe's fresh elements.  A numeric (passthrough)
        universe gets the shared numeric codec.  For dictionary carriers the
        cache keeps one *growing* codec per state: a codec change (new
        constants outside the carrier) appends the new elements to the
        existing table instead of rebuilding it, so every column already
        encoded for the state stays valid — the codec-change path hits the
        cache instead of re-encoding from scratch.
        """
        stored = state.elements()
        outside = frozenset(elements) - stored
        if state.int64_safe() and int64_safe(outside):
            return _NUMERIC_CODEC
        if self._maxsize == 0:
            return ElementCodec.dictionary(stored | outside)
        key = (state, ("dictionary-growing",))
        with self._lock:
            prior = self._codecs.get(key)
            if prior is None:
                grown = ElementCodec.dictionary(stored | outside, growing=True)
            else:
                # The table already covers every stored element.
                grown = prior.extend(outside)
                if grown is not prior:
                    self._grown += 1
            self._codecs[key] = grown
            return grown

    def columns_for(
        self, state: DatabaseState, codec: ElementCodec
    ) -> Dict[Any, Any]:
        """The (shared, lazily filled) relation→codes store for ``state``,
        which also holds the stored elements' adom column."""
        key = (state, codec.cache_key())
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry
            self._misses += 1
            entry = {}
            if self._maxsize == 0:
                return entry
            self._entries[key] = entry
            while len(self._entries) > self._maxsize:
                evicted_key, _ = self._entries.popitem(last=False)
                self._codecs.pop(evicted_key, None)
                self._evictions += 1
            return entry

    def invalidate(self, state: DatabaseState) -> int:
        """Eagerly drop every entry (and growing codec) keyed by ``state``.

        Superseded states' entries are *correct* (states are immutable) but
        useless once a mutation produces a successor; without this they
        linger until LRU pressure evicts them.  Returns the number of entries
        dropped; the drops are counted as ``invalidated``, not ``evictions``.
        """
        with self._lock:
            return self._invalidate_locked(state)

    def _invalidate_locked(self, state: DatabaseState) -> int:
        stale = [key for key in self._entries if key[0] is state or key[0] == state]
        for key in stale:
            del self._entries[key]
            self._codecs.pop(key, None)
            self._invalidated += 1
        for key in [k for k in self._codecs if k[0] is state or k[0] == state]:
            del self._codecs[key]
        return len(stale)

    def migrate(
        self, old_state: DatabaseState, new_state: DatabaseState, delta: Any
    ) -> int:
        """Move ``old_state``'s entries to ``new_state`` after a mutation.

        For an **insert-only** effective delta the encoded column arrays are
        grown: untouched relations share the parent's arrays, touched ones
        get the inserted rows' codes merged into their lexsorted block
        (:func:`~repro.relational.kernels.insert_rows`: O(rows) array
        passes, no Python pass over the stored rows), growing the state's
        dictionary codec first when the new rows bring new elements.
        Anything else — deletes, or an entry whose fixed-table codec cannot
        encode a new element — cannot reuse the arrays, so the old entries
        are invalidated instead.  Returns the number of entries migrated.
        """
        inserts: Dict[str, Any] = {
            name: rows
            for name, rows in (getattr(delta, "inserts", {}) or {}).items()
            if name in old_state
        }
        insert_only = not getattr(delta, "deletes", None)
        with self._lock:
            if not insert_only or np is None:
                self._invalidate_locked(old_state)
                return 0
            fresh_elements = tuple(
                value for rows in inserts.values() for row in rows for value in row
            )
            migrated = 0
            for key in list(self._entries):
                if not (key[0] is old_state or key[0] == old_state):
                    continue
                entry = self._entries.pop(key)
                codec_key = key[1]
                codec = self._pick_codec(key, codec_key, fresh_elements)
                if codec is None:
                    self._invalidated += 1
                    continue
                try:
                    moved = self._grow_entry(entry, codec, inserts)
                except VectorizationError:
                    self._invalidated += 1
                    continue
                new_key = (new_state, codec_key)
                self._entries[new_key] = moved
                self._entries.move_to_end(new_key)
                if codec_key == ("dictionary-growing",):
                    self._codecs[new_key] = codec
                self._codecs.pop(key, None)
                migrated += 1
            # Any growing codec without a column entry still moves forward so
            # later encodes against the new state keep their code assignments.
            old_codec_key = (old_state, ("dictionary-growing",))
            if old_codec_key in self._codecs:
                codec = self._codecs.pop(old_codec_key).extend(fresh_elements)
                self._codecs.setdefault((new_state, ("dictionary-growing",)), codec)
            return migrated

    def _pick_codec(
        self, key: Any, codec_key: Any, fresh_elements: Sequence[Element]
    ) -> Optional[ElementCodec]:
        """The codec to encode the inserted rows under one entry's key."""
        if codec_key == ("numeric",):
            return _NUMERIC_CODEC if int64_safe(fresh_elements) else None
        if codec_key == ("dictionary-growing",):
            prior = self._codecs.get(key)
            if prior is None:
                return None
            grown = prior.extend(tuple(fresh_elements))
            if grown is not prior:
                self._grown += 1
            return grown
        # Fixed-table dictionary codecs cannot learn new elements; migrate
        # only when every inserted element is already encodable.
        prior = ElementCodec(False, codec_key[1]) if codec_key[0] == "dictionary" else None
        if prior is not None and all(prior.encodable(v) for v in fresh_elements):
            return prior
        return None

    def _grow_entry(
        self,
        entry: Dict[Any, Any],
        codec: ElementCodec,
        inserts: Dict[str, Any],
    ) -> Dict[Any, Any]:
        """Merge the inserted rows' codes into the touched relations'
        lexsorted arrays; a row an array already holds (a requested delta
        may re-insert one) is dropped, keeping the arrays distinct."""
        moved: Dict[Any, Any] = {}
        for name, codes in entry.items():
            if name == _STORED_ADOM:
                continue  # the new state's own column is encoded on first use
            rows = inserts.get(name)
            if not rows:
                moved[name] = codes  # untouched: share the parent's array
                continue
            moved[name] = kernels.insert_rows(
                codes, codec.encode_rows(rows, len(codes.columns))
            )
            self._grown_columns += 1
        return moved

    def clear(self) -> None:
        """Drop every entry (the counters survive)."""
        with self._lock:
            self._entries.clear()
            self._codecs.clear()

    def info(self) -> EncodeCacheInfo:
        """Hit/miss/eviction counters and current occupancy."""
        with self._lock:
            return EncodeCacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
                grown=self._grown,
                invalidated=self._invalidated,
                grown_columns=self._grown_columns,
            )


_ENCODE_CACHE = EncodeCache()


def encode_cache() -> EncodeCache:
    """The process-wide encode cache used by :func:`run_plan_vectorized`."""
    return _ENCODE_CACHE


def encode_cache_info() -> EncodeCacheInfo:
    """Counters for the process-wide encode cache."""
    return _ENCODE_CACHE.info()


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
        relation_columns: Optional[Dict[Any, Any]] = None,
        deadline: "Optional[Deadline]" = None,
    ) -> None:
        self._state = state
        self._codec = codec
        self._deadline = deadline
        #: the universe's elements the state does not store
        self._outside = outside
        self._adom_codes: Any = None
        #: relation name → encoded code table, plus the stored elements' adom
        #: column; when the encode cache supplies this dict, encodings persist
        #: across executions of the same state
        self._relations: Dict[Any, Any] = (
            relation_columns if relation_columns is not None else {}
        )

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


def _plan_constants(plan: PlanNode) -> Set[Element]:
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
    return constants


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
    cache: Optional[EncodeCache] = None,
    use_cache: bool = True,
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

    Relation encoding is amortised through the per-state encode cache (the
    module-wide one, or ``cache``): repeated executions against an unchanged
    state skip the O(rows) re-encode and pay only kernel time.  Pass
    ``use_cache=False`` to force a fresh encode.

    >>> from repro.relational.exec import AdomScan
    >>> from repro.relational.schema import DatabaseSchema
    >>> state = DatabaseState(DatabaseSchema())
    >>> sorted(run_plan_vectorized(AdomScan(("x",)), state, ["b", "a"]))
    [('a',), ('b',)]
    """
    return execute_vectorized(
        node, state, adom, cache=cache, use_cache=use_cache, deadline=deadline
    ).decode()


def execute_vectorized(
    node: PlanNode,
    state: DatabaseState,
    outside: Iterable[Element] = (),
    *,
    cache: Optional[EncodeCache] = None,
    use_cache: bool = True,
    deadline: "Optional[Deadline]" = None,
) -> CodedRows:
    """:func:`run_plan_vectorized`, stopping short of decoding the result.

    The universe is the state's stored elements plus ``outside``: a caller
    passes only the elements the state may not store (query constants,
    extra and fresh elements), and a call looks only at those — the stored
    elements' codes come from the encode store, once per state and codec.
    """
    obstacle = vectorization_obstacle(node)
    if obstacle is not None:
        raise VectorizationError(obstacle)
    stored = state.elements()
    # C-level set differences over the small operands only: no Python pass
    # over the active domain per call.
    extra = frozenset(outside) - stored
    codec_extra = extra | (_plan_constants(node) - stored)
    store: Optional[Dict[Any, Any]] = None
    if use_cache:
        shared = cache if cache is not None else _ENCODE_CACHE
        # The cache owns the codec choice: for dictionary carriers it hands
        # out the state's monotonically *growing* codec, so a codec change
        # (new constants) reuses the already-encoded columns.
        codec = shared.codec_for(state, codec_extra)
        store = shared.columns_for(state, codec)
    else:
        codec = ElementCodec.for_universe(stored | codec_extra)
    table = _ColumnarExecutor(state, extra, codec, store, deadline).run(node)
    if deadline is not None:
        deadline.check("decode")
    return CodedRows(codec, table.codes)
