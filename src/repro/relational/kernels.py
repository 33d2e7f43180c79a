"""Vectorized NumPy kernels for the columnar executor.

This module is the lowest layer of the vectorized execution substrate
(:mod:`repro.relational.columnar`): every function here operates on plain
``np.int64`` arrays and knows nothing about plans, formulas, domains, or
dictionary encodings.  A relation is a :class:`CodeTable`: a tuple of
contiguous 1-D ``np.int64`` columns (:data:`Columns`) plus a row count.
The row count is what a zero-column table holds: such tables are the
nullary relations that encode sentences (one row means *true*, no rows
means *false*).  Column-major storage keeps every reduction, mask and
gather a pass over one contiguous array; picking or permuting columns
copies nothing.

Invariants shared with the set-at-a-time executor
(:mod:`repro.relational.exec`):

* **set semantics** — callers dedupe with :func:`unique_rows` at projection
  boundaries; kernels themselves may produce duplicate rows (e.g. a join of
  bags) but never drop a distinct row;
* **order independence** — every kernel's *set* of output rows is independent
  of input row order, so the columnar executor can sort freely.

Every dedupe and key sort runs on **one packed key per row**
(:func:`_row_keys`): each column, less its minimum, is shifted by the bit
widths of the columns after it, so one ``np.int64`` orders the rows like a
lexsort and a plain ``argsort`` plus an adjacent compare replaces
``np.lexsort`` and ``np.unique`` (classical sort-based duplicate
elimination).  Only tables whose column widths sum to more than 62 bits —
codes near ±2**62 in two or more columns — fall back to ``np.lexsort``.
Sorted inputs stay sorted: :func:`unique_rows` returns its rows in
lexicographic order, and a natural join of a lexsorted left table keeps
the left table's order.

Joins and membership tests choose between **direct addressing** and
**sorting** by the span of their keys (max − min + 1 over both sides).  A
span of at most :data:`_DENSE_SPAN` times the two sides' row count is dense:
:func:`np.bincount` counts each key, a ``cumsum`` gives each key's run start,
and every left key indexes its run directly.  Wider spans sort the right
side and locate each left key's run with :func:`np.searchsorted`.  Like the
62-bit key fallback, the choice follows from the data alone.

Doctest — a join of two small key columns:

>>> import numpy as np
>>> left = CodeTable.of(np.array([1, 2, 2, 9]))
>>> right = CodeTable.of(np.array([2, 2, 1]))
>>> li, ri = join_indices(left, right)
>>> sorted(zip(li.tolist(), ri.tolist()))
[(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Columns",
    "CodeTable",
    "concat_rows",
    "unique_rows",
    "sorted_unique_rows",
    "insert_rows",
    "key_codes",
    "join_indices",
    "membership_mask",
    "cross_pad_arrays",
    "expand_ranges",
]

#: the dtype every column of a code table uses
CODE_DTYPE = np.int64

#: the most bits a packed row key (:func:`_row_keys`) may span: keys stay
#: non-negative int64 values
_KEY_BITS = 62

#: a join or membership test addresses its keys directly when their span is
#: at most this many times the rows of both sides (:func:`_dense_span`)
_DENSE_SPAN = 2

#: a code table's columns: contiguous 1-D ``np.int64`` arrays, one per
#: attribute, all of one length
Columns = Tuple[np.ndarray, ...]


class CodeTable(NamedTuple):
    """A code table: its :data:`Columns` and its row count.

    The row count is redundant for a table with columns, but it is all a
    zero-column (nullary) table holds.

    >>> import numpy as np
    >>> table = CodeTable.of(np.array([3, 1, 2]), np.array([7, 8, 9]))
    >>> table.rows
    3
    >>> table.pick([1]).columns[0] is table.columns[1]
    True
    >>> [column.tolist() for column in table.take(np.array([2, 0])).columns]
    [[2, 3], [9, 7]]
    >>> picked = table.take(np.array([True, False, True]))
    >>> picked.rows, [column.tolist() for column in picked.columns]
    (2, [[3, 2], [7, 9]])
    """

    columns: Columns
    rows: int

    @classmethod
    def of(cls, *columns: Any) -> "CodeTable":
        """The table of one or more equally long 1-D columns."""
        columns = tuple(np.ascontiguousarray(c, dtype=CODE_DTYPE) for c in columns)
        return cls(columns, columns[0].shape[0])

    @classmethod
    def empty(cls, arity: int) -> "CodeTable":
        """The table of ``arity`` columns and no rows."""
        return cls(tuple(np.empty(0, dtype=CODE_DTYPE) for _ in range(arity)), 0)

    def pick(self, positions: Sequence[int]) -> "CodeTable":
        """The columns at ``positions``, in that order, uncopied."""
        return CodeTable(tuple(self.columns[p] for p in positions), self.rows)

    def take(self, index: "np.ndarray") -> "CodeTable":
        """The rows an integer ``index`` or a boolean mask selects,
        gathered one column at a time."""
        rows = (
            int(np.count_nonzero(index)) if index.dtype == np.bool_
            else index.shape[0]
        )
        return CodeTable(tuple(column[index] for column in self.columns), rows)


def concat_rows(tables: Sequence[CodeTable]) -> CodeTable:
    """The rows of one or more tables of one column count, one after another.

    >>> import numpy as np
    >>> parts = [CodeTable.of(np.array([1])), CodeTable.of(np.array([0, 1]))]
    >>> concat_rows(parts)
    CodeTable(columns=(array([1, 0, 1]),), rows=3)
    """
    if len(tables) == 1:
        return tables[0]
    return CodeTable(
        tuple(np.concatenate(parts) for parts in zip(*(t.columns for t in tables))),
        sum(t.rows for t in tables),
    )


def _row_keys(*tables: Columns) -> "Optional[np.ndarray]":
    """One ``np.int64`` key per row of ``tables`` (concatenated), ordered
    like the rows, or ``None`` when the rows are too wide to pack.

    The tables share one column count of at least one.  A single column
    (or an empty table's first) is its own key.  Wider rows pack into one
    integer: each column, less its minimum over every table, is shifted
    left by the bit widths of the columns after it, so comparing keys
    compares rows lexicographically.  When the widths sum to more than
    :data:`_KEY_BITS` the rows are left to the caller's ``np.lexsort``
    fallback.

    >>> import numpy as np
    >>> _row_keys((np.array([2, 1, 2]), np.array([-1, 3, 0]))).tolist()
    [8, 4, 9]
    >>> _row_keys((np.array([0, 2 ** 62]), np.array([0, 2 ** 62]))) is None
    True
    """
    columns = tables[0] if len(tables) == 1 else tuple(
        np.concatenate(parts) for parts in zip(*tables)
    )
    if len(columns) == 1 or columns[0].shape[0] == 0:
        return columns[0]
    # Python ints: a span of two int64 codes may not fit in an int64.
    lows = [int(column.min()) for column in columns]
    widths = [
        (int(column.max()) - low).bit_length() for column, low in zip(columns, lows)
    ]
    if sum(widths) > _KEY_BITS:
        return None
    keys = columns[0] - lows[0]
    for column, low, width in zip(columns[1:], lows[1:], widths[1:]):
        keys <<= width
        keys |= column - low
    return keys


def _fresh(*ordered: "np.ndarray") -> "np.ndarray":
    """Mask of the rows of a sorted key column (or of lexsorted columns)
    that differ from the row before them: the first row of each run of
    equals."""
    fresh = np.empty(ordered[0].shape[0], dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[0][1:], ordered[0][:-1], out=fresh[1:])
    for column in ordered[1:]:
        fresh[1:] |= column[1:] != column[:-1]
    return fresh


def _sort_distinct(table: CodeTable, keys: "Optional[np.ndarray]") -> CodeTable:
    """The distinct rows of a table of at least one column, lexsorted:
    one argsort of the packed ``keys``, or ``np.lexsort`` without them."""
    if keys is None:
        ordered = table.take(np.lexsort(table.columns[::-1]))
        return ordered.take(_fresh(*ordered.columns))
    if len(table.columns) == 1:
        ordered = np.sort(keys)
        return CodeTable.of(ordered[_fresh(ordered)])
    order = np.argsort(keys)
    return table.take(order[_fresh(keys[order])])


def unique_rows(table: CodeTable) -> CodeTable:
    """Distinct rows of a code table (the set-semantics dedupe kernel), in
    lexicographic order.

    Rows are sorted on their packed keys and deduped on adjacent runs
    (classical sort-based duplicate elimination).  Zero-column tables are
    handled explicitly: all their rows are equal, so the result is at most
    one row.

    >>> import numpy as np
    >>> t = CodeTable.of(np.array([3, 1, 3]), np.array([4, 2, 4]))
    >>> unique_rows(t)
    CodeTable(columns=(array([1, 3]), array([2, 4])), rows=2)
    >>> unique_rows(CodeTable((), 5)).rows
    1
    """
    if not table.columns:
        return CodeTable((), min(table.rows, 1))
    if table.rows <= 1:
        return table
    return _sort_distinct(table, _row_keys(table.columns))


def sorted_unique_rows(table: CodeTable) -> CodeTable:
    """The distinct rows of a code table in lexicographic order.

    :func:`unique_rows` leaves its output in this order, so a table that
    comes out of one usually already is: one comparison of adjacent packed
    keys finds that, and the table comes back as it is, unsorted and
    uncopied.  Any other table, and any too wide to pack, is sorted.

    >>> import numpy as np
    >>> t = CodeTable.of(np.array([1, 2, 2]), np.array([5, 0, 3]))
    >>> sorted_unique_rows(t) is t
    True
    >>> sorted_unique_rows(t.take(np.array([2, 1, 0])))
    CodeTable(columns=(array([1, 2, 2]), array([5, 0, 3])), rows=3)
    >>> sorted_unique_rows(CodeTable.of(np.array([4, 4])))
    CodeTable(columns=(array([4]),), rows=1)
    """
    if not table.columns or table.rows <= 1:
        return unique_rows(table)
    keys = _row_keys(table.columns)
    if keys is not None and bool((keys[1:] > keys[:-1]).all()):
        return table
    return _sort_distinct(table, keys)


def insert_rows(table: CodeTable, added: CodeTable) -> CodeTable:
    """The distinct rows of ``table`` and ``added``, in lexicographic
    order, for a ``table`` that already is sorted and distinct.

    The new rows are sorted among themselves and then merged in by binary
    search, one column at a time, so the stored table is read only by
    O(rows) array passes; rows ``table`` already holds are dropped.

    >>> import numpy as np
    >>> t = CodeTable.of(np.array([1, 3]), np.array([2, 4]))
    >>> new = CodeTable.of(np.array([5, 1, 0]), np.array([0, 2, 9]))
    >>> insert_rows(t, new)
    CodeTable(columns=(array([0, 1, 3, 5]), array([9, 2, 4, 0])), rows=4)
    """
    keys = (
        _row_keys(table.columns, added.columns)
        if table.columns and table.rows else None
    )
    if keys is None:
        return unique_rows(concat_rows([table, added]))
    stored, new = keys[: table.rows], keys[table.rows:]
    order = np.argsort(new)
    new = new[order]
    keep = _fresh(new)
    keep &= ~_found(stored, new)
    at = np.searchsorted(stored, new[keep])
    picked = order[keep]
    return CodeTable(
        tuple(
            np.insert(column, at, more[picked])
            for column, more in zip(table.columns, added.columns)
        ),
        table.rows + at.shape[0],
    )


def key_codes(left: CodeTable, right: CodeTable) -> Tuple["np.ndarray", "np.ndarray"]:
    """Comparable single-column keys for two multi-column key tables.

    Rows that are equal across the two tables get equal keys, and unequal
    rows unequal ones, which turns any multi-column join/membership problem
    into a single-column one.  Both inputs must have the same number of
    columns.  A one-column key comes back as it is; wider ones are packed
    (:func:`_row_keys`), or densified along a lexsort when too wide to pack.

    >>> import numpy as np
    >>> l = CodeTable.of(np.array([1, 3]), np.array([2, 4]))
    >>> r = CodeTable.of(np.array([3, 5]), np.array([4, 6]))
    >>> lc, rc = key_codes(l, r)
    >>> bool(lc[1] == rc[0]), bool(lc[0] == rc[1])
    (True, False)
    """
    if not left.columns:
        return (
            np.zeros(left.rows, dtype=CODE_DTYPE),
            np.zeros(right.rows, dtype=CODE_DTYPE),
        )
    codes = _row_keys(left.columns, right.columns)
    if codes is None:
        both = concat_rows([left, right])
        order = np.lexsort(both.columns[::-1])
        codes = np.empty(both.rows, dtype=CODE_DTYPE)
        codes[order] = np.cumsum(_fresh(*(c[order] for c in both.columns))) - 1
    return codes[: left.rows], codes[left.rows:]


def expand_ranges(
    starts: "np.ndarray", counts: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """``(group, positions)``: ``positions`` concatenates ``arange(starts[i],
    starts[i] + counts[i])`` for every i, and ``group`` names the i each
    position came from.

    >>> import numpy as np
    >>> group, positions = expand_ranges(np.array([4, 0, 9]), np.array([2, 0, 3]))
    >>> positions.tolist(), group.tolist()
    ([4, 5, 9, 10, 11], [0, 0, 2, 2, 2])
    """
    group = np.repeat(np.arange(starts.shape[0]), counts)
    # Each position is its global index less the slots of the ranges before
    # its own, plus its range's start.
    shift = starts - np.cumsum(counts) + counts
    return group, np.arange(group.shape[0]) + shift[group]


def _dense_span(left: "np.ndarray", right: "np.ndarray") -> Optional[Tuple[int, int]]:
    """``(low, span)`` of two non-empty key columns — their least key and
    max − min + 1 — when the span is at most :data:`_DENSE_SPAN` times their
    total length, so the keys less ``low`` address a table directly;
    otherwise ``None``."""
    low = min(int(left.min()), int(right.min()))
    span = max(int(left.max()), int(right.max())) - low + 1
    if span <= _DENSE_SPAN * (left.shape[0] + right.shape[0]):
        return low, span
    return None


def _ascending(keys: "np.ndarray") -> bool:
    """True iff a key column is in non-decreasing order."""
    return bool((keys[1:] >= keys[:-1]).all())


def join_indices(left: CodeTable, right: CodeTable) -> Tuple["np.ndarray", "np.ndarray"]:
    """Row-index pairs of the natural join of two key tables.

    Returns ``(li, ri)`` such that row ``li[k]`` of ``left`` equals row
    ``ri[k]`` of ``right`` for every ``k``, covering exactly the matching
    pairs, in the left table's row order and, within one left row, in the
    right table's.  With zero-column keys this is the full cross product.
    Dense keys (:func:`_dense_span`) find each left row's run of matches by
    direct addressing: a ``bincount`` of the right keys gives each key's
    run length and its ``cumsum`` the run start.  Sparse keys locate the
    runs by :func:`np.searchsorted`.  Either way the right side is grouped
    by key with a stable sort, skipped when its keys already ascend.
    """
    n, m = left.rows, right.rows
    if n == 0 or m == 0:
        return np.empty(0, dtype=CODE_DTYPE), np.empty(0, dtype=CODE_DTYPE)
    if not left.columns:
        return np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
    left_codes, right_codes = key_codes(left, right)
    dense = _dense_span(left_codes, right_codes)
    if dense is not None:
        low, span = dense
        left_codes, right_codes = left_codes - low, right_codes - low
    order = None if _ascending(right_codes) else np.argsort(right_codes, kind="stable")
    if dense is not None:
        runs = np.bincount(right_codes, minlength=span)
        counts = runs[left_codes]
        starts = (np.cumsum(runs) - runs)[left_codes]
    else:
        ordered = right_codes if order is None else right_codes[order]
        starts = np.searchsorted(ordered, left_codes, side="left")
        counts = np.searchsorted(ordered, left_codes, side="right") - starts
    li, ri = expand_ranges(starts, counts)
    return li, (ri if order is None else order[ri])


def membership_mask(left: CodeTable, right: CodeTable) -> "np.ndarray":
    """Boolean mask: which rows of ``left`` appear in ``right``.

    This is the antijoin/semijoin kernel — an antijoin keeps the rows where
    the mask is ``False``.  Zero-column keys degenerate to "is the right side
    non-empty".  Dense keys (:func:`_dense_span`) mark the right keys in a
    direct-address table; sparse ones binary-search the sorted right keys.

    >>> import numpy as np
    >>> l = CodeTable.of(np.array([1, 2, 3]))
    >>> r = CodeTable.of(np.array([2, 9]))
    >>> membership_mask(l, r).tolist()
    [False, True, False]
    """
    if not left.columns:
        return np.full(left.rows, right.rows > 0)
    if right.rows == 0 or left.rows == 0:
        return np.zeros(left.rows, dtype=bool)
    left_codes, right_codes = key_codes(left, right)
    dense = _dense_span(left_codes, right_codes)
    if dense is None:
        return _found(np.sort(right_codes), left_codes)
    low, span = dense
    present = np.zeros(span, dtype=bool)
    present[right_codes - low] = True
    return present[left_codes - low]


def _found(ordered: "np.ndarray", keys: "np.ndarray") -> "np.ndarray":
    """Mask of the ``keys`` present in the non-empty sorted key column
    ``ordered``: one binary search per key."""
    at = np.searchsorted(ordered, keys)
    return ordered[np.minimum(at, ordered.shape[0] - 1)] == keys


def cross_pad_arrays(table: CodeTable, values: "np.ndarray") -> CodeTable:
    """Cross product with one extra column ranging over ``values``.

    Every row of ``table`` is repeated once per value; the pad column is
    appended on the right.  This is the array form of the ``CrossPad``
    operator (adom padding as a broadcast instead of a nested Python loop).

    >>> import numpy as np
    >>> t = CodeTable.of(np.array([7, 8]))
    >>> cross_pad_arrays(t, np.array([1, 2], dtype=np.int64))
    CodeTable(columns=(array([7, 7, 8, 8]), array([1, 2, 1, 2])), rows=4)
    """
    n, m = table.rows, values.shape[0]
    repeated = tuple(np.repeat(column, m) for column in table.columns)
    return CodeTable(repeated + (np.tile(values, n),), n * m)
