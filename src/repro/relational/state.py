"""Database states: finite relations stored under a database schema.

"Database relations (tables) are always going to be finite" — the paper,
Section 1.  A :class:`Relation` is an immutable finite set of tuples of domain
elements; a :class:`DatabaseState` maps every relation name of a schema to a
relation of the right arity.

States stay immutable value objects; *mutation* is expressed by
:meth:`DatabaseState.apply` taking a :class:`Delta` (row inserts/deletes per
relation) and producing a new state that structurally shares every untouched
:class:`Relation` and *patches* the content fingerprint in O(Δ) instead of
re-hashing every stored row.  The new state records the *effective* delta
that produced it (:attr:`~DatabaseState.effective_delta`), which is what
:func:`repro.relational.columnar.apply_delta` reads to grow the parent's
encoded columns for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping,
    Sequence, Tuple, Union,
)

from .schema import DatabaseSchema

__all__ = ["Element", "Row", "Relation", "Delta", "DatabaseState", "int64_safe"]

Element = Union[int, str]
Row = Tuple[Element, ...]

_FP_MASK = (1 << 64) - 1

#: ints strictly inside ±this bound are their own ``np.int64`` codes in the
#: columnar executor (:mod:`repro.relational.columnar`)
_INT64_LIMIT = 2 ** 62


def int64_safe(elements: Iterable[Element]) -> bool:
    """True iff every element is an ``int`` strictly inside ±2**62.

    >>> int64_safe([0, -5, 2 ** 62 - 1]), int64_safe([2 ** 62]), int64_safe(["a"])
    (True, False, False)
    """
    return all(
        isinstance(element, int) and -_INT64_LIMIT < element < _INT64_LIMIT
        for element in elements
    )


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: scramble a 64-bit value into a well-mixed one.

    Python's builtin ``hash`` is nearly the identity on small ints, which
    would make XOR-accumulated row tokens cancel catastrophically (e.g.
    ``{(0, 1)}`` vs ``{(1, 0)}``); one multiply-xorshift round restores
    avalanche so the XOR of tokens behaves like a random set hash.
    """
    value &= _FP_MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _FP_MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _FP_MASK
    return value ^ (value >> 31)


def _row_token(name: str, row: Row) -> int:
    """The fingerprint contribution of one stored row of one relation."""
    return _mix64(hash((name, row)))


@dataclass(frozen=True)
class Relation:
    """A finite relation: a set of equal-length tuples of domain elements."""

    arity: int
    rows: FrozenSet[Row]

    def __init__(self, arity: int, rows: Iterable[Sequence[Element]] = ()):
        object.__setattr__(self, "arity", arity)
        normalised = frozenset(tuple(row) for row in rows)
        for row in normalised:
            if len(row) != arity:
                raise ValueError(
                    f"row {row!r} has {len(row)} columns, expected {arity}"
                )
        object.__setattr__(self, "rows", normalised)

    @classmethod
    def unchecked(cls, arity: int, rows: Iterable[Row]) -> "Relation":
        """A relation over ``rows``, ``arity``-tuples the caller vouches
        for: one C-level ``frozenset`` build, no per-row normalisation or
        arity check (for executor output, whose plan already fixes the
        arity).

        >>> Relation.unchecked(2, {(1, 2)}) == Relation(2, [[1, 2]])
        True
        """
        relation = cls.__new__(cls)
        object.__setattr__(relation, "arity", arity)
        object.__setattr__(relation, "rows", frozenset(rows))
        return relation

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Element]]) -> "Relation":
        """Build a relation from a non-empty iterable of rows, inferring the arity."""
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("cannot infer arity from an empty set of rows; "
                             "use Relation(arity, []) instead")
        return cls(len(rows[0]), rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(sorted(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Sequence[Element]) -> bool:
        return tuple(row) in self.rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def elements(self) -> FrozenSet[Element]:
        """All domain elements appearing in some row of the relation."""
        return frozenset(value for row in self.rows for value in row)

    def union(self, other: "Relation") -> "Relation":
        """Set union (arities must agree)."""
        self._check_arity(other)
        return Relation(self.arity, self.rows | other.rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference (arities must agree)."""
        self._check_arity(other)
        return Relation(self.arity, self.rows - other.rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection (arities must agree)."""
        self._check_arity(other)
        return Relation(self.arity, self.rows & other.rows)

    def _check_arity(self, other: "Relation") -> None:
        if self.arity != other.arity:
            raise ValueError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )

    def __str__(self) -> str:
        rows = ", ".join(str(row) for row in sorted(self.rows))
        return f"Relation[{self.arity}]{{{rows}}}"


@dataclass(frozen=True)
class Delta:
    """A batch mutation: per-relation row inserts and deletes.

    Deltas are plain values (hashable, comparable); applying one to a state
    removes the deletes first and then adds the inserts, so a row named in
    both ends up present.  Empty row sets are dropped during normalisation,
    making ``Delta() == Delta(inserts={"R": []})``.

    >>> d = Delta(inserts={"F": [(1, 2)]}, deletes={"F": [(0, 1)]})
    >>> d.changed_relations(), d.row_count(), d.insert_only()
    (('F',), 2, False)
    """

    inserts: Mapping[str, FrozenSet[Row]]
    deletes: Mapping[str, FrozenSet[Row]]

    def __init__(
        self,
        inserts: Mapping[str, Iterable[Sequence[Element]]] = (),
        deletes: Mapping[str, Iterable[Sequence[Element]]] = (),
    ):
        object.__setattr__(self, "inserts", _normalise_rows(inserts))
        object.__setattr__(self, "deletes", _normalise_rows(deletes))

    @classmethod
    def insert(cls, relation: str, *rows: Sequence[Element]) -> "Delta":
        """A pure-insert delta for one relation."""
        return cls(inserts={relation: rows})

    @classmethod
    def delete(cls, relation: str, *rows: Sequence[Element]) -> "Delta":
        """A pure-delete delta for one relation."""
        return cls(deletes={relation: rows})

    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes

    def insert_only(self) -> bool:
        """True iff the delta only ever adds rows (never removes one)."""
        return not self.deletes

    def changed_relations(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.inserts) | set(self.deletes)))

    def row_count(self) -> int:
        """Total number of row changes named by the delta."""
        return sum(len(rows) for rows in self.inserts.values()) + sum(
            len(rows) for rows in self.deletes.values()
        )

    def __hash__(self) -> int:
        return hash((
            tuple(sorted(self.inserts.items())),
            tuple(sorted(self.deletes.items())),
        ))

    def __str__(self) -> str:
        parts = []
        for name in self.changed_relations():
            added = len(self.inserts.get(name, ()))
            removed = len(self.deletes.get(name, ()))
            parts.append(f"{name}: +{added}/-{removed}")
        return "Delta{" + "; ".join(parts) + "}"


def _normalise_rows(
    table: Mapping[str, Iterable[Sequence[Element]]],
) -> Dict[str, FrozenSet[Row]]:
    normalised: Dict[str, FrozenSet[Row]] = {}
    for name, rows in (dict(table) if table else {}).items():
        frozen = frozenset(tuple(row) for row in rows)
        if frozen:
            normalised[name] = frozen
    return normalised


@dataclass(frozen=True)
class DatabaseState:
    """A database state: one finite relation per relation of the schema."""

    schema: DatabaseSchema
    relations: Mapping[str, Relation]

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Mapping[str, Union[Relation, Iterable[Sequence[Element]]]] = (),
    ):
        object.__setattr__(self, "schema", schema)
        table: Dict[str, Relation] = {}
        provided = dict(relations) if relations else {}
        for rel_schema in schema:
            value = provided.pop(rel_schema.name, None)
            if value is None:
                table[rel_schema.name] = Relation(rel_schema.arity, [])
            elif isinstance(value, Relation):
                if value.arity != rel_schema.arity:
                    raise ValueError(
                        f"relation {rel_schema.name}: arity {value.arity} does not "
                        f"match schema arity {rel_schema.arity}"
                    )
                table[rel_schema.name] = value
            else:
                table[rel_schema.name] = Relation(rel_schema.arity, value)
        if provided:
            raise ValueError(f"relations not in schema: {sorted(provided)}")
        object.__setattr__(self, "relations", dict(table))

    def __getitem__(self, name: str) -> Relation:
        if name not in self.relations:
            raise KeyError(f"no relation named {name!r} in this state")
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def elements(self) -> FrozenSet[Element]:
        """All domain elements stored anywhere in the state (memoised)."""
        cached = self.__dict__.get("_elements")
        if cached is None:
            cached = frozenset(
                value
                for relation in self.relations.values()
                for row in relation.rows
                for value in row
            )
            object.__setattr__(self, "_elements", cached)
        return cached

    def int64_safe(self) -> bool:
        """:func:`int64_safe` of the stored elements, memoised like
        :meth:`elements`.  :meth:`apply` hands a ``True`` parent's verdict
        down as that of the inserted values (deletes add no element); a
        mutated state derives any other verdict on first use."""
        cached = self.__dict__.get("_int64_safe")
        if cached is None:
            cached = int64_safe(self.elements())
            object.__setattr__(self, "_int64_safe", cached)
        return cached

    def first_outside(
        self,
        carrier: Hashable,
        enumerate_carrier: Callable[[], Iterable[Element]],
        count: int,
    ) -> Tuple[Element, ...]:
        """The first ``count`` elements of ``enumerate_carrier()`` that the
        state does not store.

        Memoised per ``carrier`` key like :meth:`elements` (and never
        inherited by :meth:`apply`: a mutated state walks anew), so the walk
        of the carrier past the stored elements runs once per state and
        carrier.  It runs again only for a larger ``count``, and then
        derives at least twice as many elements as before.

        >>> from repro.relational.schema import DatabaseSchema, RelationSchema
        >>> import itertools
        >>> state = DatabaseState(DatabaseSchema([RelationSchema("S", 1)]),
        ...                       {"S": [(0,), (2,)]})
        >>> state.first_outside("naturals", itertools.count, 3)
        (1, 3, 4)
        """
        memo = self.__dict__.get("_outside")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_outside", memo)
        known = memo.get(carrier, ())
        if len(known) < count:
            stored = self.elements()
            known = tuple(itertools.islice(
                (e for e in enumerate_carrier() if e not in stored),
                max(count, 2 * len(known)),
            ))
            memo[carrier] = known
        return known[:count]

    def fingerprint(self) -> int:
        """A stable content hash of the state, computed once and memoised.

        States are immutable value objects, so the fingerprint never goes
        stale; it is what makes states cheap dictionary keys for the
        per-state caches (the memoised relative-safety verdicts) — without
        it every lookup would re-hash every stored row.

        The hash is the XOR of one splitmix64-mixed token per stored
        ``(relation name, row)`` pair (plus a schema token).  XOR is
        order-independent and self-inverse, which is what lets
        :meth:`apply` *patch* the parent fingerprint with just the changed
        rows' tokens — O(Δ) — instead of re-hashing the whole state.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = _mix64(hash(self.schema))
            for name, relation in self.relations.items():
                for row in relation.rows:
                    cached ^= _row_token(name, row)
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @property
    def version(self) -> int:
        """How many effective mutations separate this state from its root.

        Freshly constructed states are version 0; each :meth:`apply` that
        actually changes something increments it.
        """
        return self.__dict__.get("_version", 0)

    @property
    def effective_delta(self) -> Delta:
        """The delta :meth:`apply` actually made to reach this state from
        its parent (inserts already present and deletes already absent
        dropped); empty for a state that no :meth:`apply` produced."""
        return self.__dict__.get("_effective_delta") or Delta()

    def apply(self, delta: Delta) -> "DatabaseState":
        """The state after a batch mutation (deletes first, then inserts).

        The new state structurally shares every :class:`Relation` the delta
        does not touch, inherits a fingerprint *patched* with the changed
        rows' tokens (never re-hashing untouched rows), and records the
        *effective* delta — inserts already present and deletes already
        absent are dropped — as its :attr:`effective_delta`.  Applying a
        delta with no effective change returns ``self`` unchanged.

        >>> from repro.relational.schema import DatabaseSchema, RelationSchema
        >>> schema = DatabaseSchema([RelationSchema("F", 2)])
        >>> state = DatabaseState(schema, {"F": [(0, 1)]})
        >>> grown = state.apply(Delta.insert("F", (1, 2)))
        >>> sorted(grown["F"].rows), grown.version
        ([(0, 1), (1, 2)], 1)
        >>> state.apply(Delta.insert("F", (0, 1), (1, 2))).effective_delta
        Delta(inserts={'F': frozenset({(1, 2)})}, deletes={})
        >>> grown.fingerprint() == DatabaseState(schema,
        ...     {"F": [(0, 1), (1, 2)]}).fingerprint()
        True
        """
        effective_ins: Dict[str, FrozenSet[Row]] = {}
        effective_del: Dict[str, FrozenSet[Row]] = {}
        relations: Dict[str, Relation] = dict(self.relations)
        for name in delta.changed_relations():
            relation = self.relations.get(name)
            if relation is None:
                raise ValueError(f"no relation named {name!r} in this state")
            requested_ins = delta.inserts.get(name, frozenset())
            requested_del = delta.deletes.get(name, frozenset())
            for row in requested_ins | requested_del:
                if len(row) != relation.arity:
                    raise ValueError(
                        f"relation {name}: row {row!r} has {len(row)} "
                        f"columns, expected {relation.arity}"
                    )
            # Deletes apply first, so a row in both sets ends up present:
            # new = (old - deletes) | inserts.
            ins = requested_ins - relation.rows
            dels = (requested_del & relation.rows) - requested_ins
            if not ins and not dels:
                continue
            effective_ins[name] = ins if ins else frozenset()
            effective_del[name] = dels if dels else frozenset()
            relations[name] = Relation.unchecked(
                relation.arity, (relation.rows - dels) | ins
            )
        effective = Delta(effective_ins, effective_del)
        if effective.is_empty():
            return self
        state = DatabaseState(self.schema, relations)
        patched = self.fingerprint()
        for name, rows in effective.inserts.items():
            for row in rows:
                patched ^= _row_token(name, row)
        for name, rows in effective.deletes.items():
            for row in rows:
                patched ^= _row_token(name, row)
        object.__setattr__(state, "_fingerprint", patched)
        object.__setattr__(state, "_version", self.version + 1)
        object.__setattr__(state, "_effective_delta", effective)
        fresh = frozenset(
            value for rows in effective.inserts.values() for row in rows for value in row
        )
        # Insert-only deltas can also patch the memoised element set (if the
        # parent ever computed it); deletes cannot, since an element may have
        # other occurrences.
        parent_elements = self.__dict__.get("_elements")
        if parent_elements is not None and effective.insert_only():
            object.__setattr__(state, "_elements", parent_elements | fresh)
        # Deletes add no element, so a safe parent's verdict is that of the
        # inserted values; an unsafe parent may have lost its last unsafe
        # element, so it leaves the verdict to the new state.
        if self.__dict__.get("_int64_safe"):
            object.__setattr__(state, "_int64_safe", int64_safe(fresh))
        return state

    def with_relation(
        self, name: str, rows: Union[Relation, Iterable[Sequence[Element]]]
    ) -> "DatabaseState":
        """A new state with one relation replaced."""
        updated = dict(self.relations)
        schema = self.schema.relation(name)
        if isinstance(rows, Relation):
            updated[name] = rows
        else:
            updated[name] = Relation(schema.arity, rows)
        return DatabaseState(self.schema, updated)

    def total_rows(self) -> int:
        """Total number of rows stored across all relations."""
        return sum(len(r) for r in self.relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseState):
            return NotImplemented
        return self.schema == other.schema and self.relations == other.relations

    def __hash__(self) -> int:
        return self.fingerprint()

    def __str__(self) -> str:
        parts = [f"{name}: {relation}" for name, relation in sorted(self.relations.items())]
        return "DatabaseState{" + "; ".join(parts) + "}"
