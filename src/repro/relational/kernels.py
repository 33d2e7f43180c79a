"""Vectorized NumPy kernels for the columnar executor.

This module is the lowest layer of the vectorized execution substrate
(:mod:`repro.relational.columnar`): every function here operates on plain
``np.int64`` arrays and knows nothing about plans, formulas, domains, or
dictionary encodings.  A relation is a 2-D code table of shape
``(rows, columns)``; zero-column tables are meaningful (they are the nullary
relations that encode sentences: one row means *true*, no rows means
*false*).

Invariants shared with the set-at-a-time executor
(:mod:`repro.relational.exec`):

* **set semantics** — callers dedupe with :func:`unique_rows` at projection
  boundaries; kernels themselves may produce duplicate rows (e.g. a join of
  bags) but never drop a distinct row;
* **order independence** — every kernel's *set* of output rows is independent
  of input row order, so the columnar executor can sort freely for
  ``np.searchsorted``-based joins.

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

Doctest — a sort-based join of two small key columns:

>>> import numpy as np
>>> left = np.array([[1], [2], [2], [9]], dtype=np.int64)
>>> right = np.array([[2], [2], [1]], dtype=np.int64)
>>> li, ri = join_indices(left, right)
>>> sorted(zip(li.tolist(), ri.tolist()))
[(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
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


def _row_keys(*tables: "np.ndarray") -> "Optional[np.ndarray]":
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
    >>> t = np.array([[2, -1], [1, 3], [2, 0]], dtype=np.int64)
    >>> _row_keys(t).tolist()
    [8, 4, 9]
    >>> _row_keys(np.array([[0, 0], [2 ** 62, 2 ** 62]], dtype=np.int64)) is None
    True
    """
    stacked = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=0)
    if stacked.shape[1] == 1 or stacked.shape[0] == 0:
        return stacked[:, 0]
    lows = stacked.min(axis=0)
    # Python ints: a span of two int64 codes may not fit in an int64.
    widths = [
        (high - low).bit_length()
        for low, high in zip(lows.tolist(), stacked.max(axis=0).tolist())
    ]
    if sum(widths) > _KEY_BITS:
        return None
    keys = np.zeros(stacked.shape[0], dtype=CODE_DTYPE)
    for column, width in enumerate(widths):
        keys <<= width
        keys |= stacked[:, column] - lows[column]
    return keys


def _fresh(ordered: "np.ndarray") -> "np.ndarray":
    """Mask of the entries of a sorted key column (or lexsorted table) that
    differ from the one before them: the first row of each run of equals."""
    fresh = np.empty(ordered.shape[0], dtype=bool)
    fresh[:1] = True
    if ordered.ndim == 1:
        np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    else:
        np.any(ordered[1:] != ordered[:-1], axis=1, out=fresh[1:])
    return fresh


def _sort_distinct(table: "np.ndarray", keys: "Optional[np.ndarray]") -> "np.ndarray":
    """The distinct rows of a table of at least one column, lexsorted:
    one argsort of the packed ``keys``, or ``np.lexsort`` without them."""
    if keys is None:
        order = np.lexsort(table.T[::-1])
        return table[order[_fresh(table[order])]]
    if table.shape[1] == 1:
        ordered = np.sort(keys)
        return ordered[_fresh(ordered)].reshape(-1, 1)
    order = np.argsort(keys)
    return table[order[_fresh(keys[order])]]


def unique_rows(table: "np.ndarray") -> "np.ndarray":
    """Distinct rows of a code table (the set-semantics dedupe kernel), in
    lexicographic order.

    Rows are sorted on their packed keys and deduped on adjacent runs
    (classical sort-based duplicate elimination).  Zero-column tables are
    handled explicitly: all their rows are equal, so the result is at most
    one row.

    >>> import numpy as np
    >>> t = np.array([[3, 4], [1, 2], [3, 4]], dtype=np.int64)
    >>> unique_rows(t).tolist()
    [[1, 2], [3, 4]]
    >>> unique_rows(np.empty((5, 0), dtype=np.int64)).shape
    (1, 0)
    """
    if table.shape[1] == 0:
        return table[:1]
    if table.shape[0] <= 1:
        return table
    return _sort_distinct(table, _row_keys(table))


def sorted_unique_rows(table: "np.ndarray") -> "np.ndarray":
    """The distinct rows of a code table in lexicographic order.

    :func:`unique_rows` leaves its output in this order, so a table that
    comes out of one usually already is: one comparison of adjacent packed
    keys finds that, and the table comes back as it is, unsorted and
    uncopied.  Any other table, and any too wide to pack, is sorted.

    >>> import numpy as np
    >>> t = np.array([[1, 5], [2, 0], [2, 3]], dtype=np.int64)
    >>> sorted_unique_rows(t) is t
    True
    >>> sorted_unique_rows(t[::-1]).tolist()
    [[1, 5], [2, 0], [2, 3]]
    >>> sorted_unique_rows(np.array([[4], [4]], dtype=np.int64)).tolist()
    [[4]]
    """
    if table.shape[1] == 0 or table.shape[0] <= 1:
        return unique_rows(table)
    keys = _row_keys(table)
    if keys is not None and bool((keys[1:] > keys[:-1]).all()):
        return table
    return _sort_distinct(table, keys)


def insert_rows(table: "np.ndarray", rows: "np.ndarray") -> "np.ndarray":
    """The distinct rows of ``table`` and ``rows``, in lexicographic order,
    for a ``table`` that already is sorted and distinct.

    The new rows are sorted among themselves and then merged in by binary
    search, so the stored table is read only by O(rows) array passes;
    rows ``table`` already holds are dropped.

    >>> import numpy as np
    >>> t = np.array([[1, 2], [3, 4]], dtype=np.int64)
    >>> insert_rows(t, np.array([[5, 0], [1, 2], [0, 9]], dtype=np.int64)).tolist()
    [[0, 9], [1, 2], [3, 4], [5, 0]]
    """
    keys = _row_keys(table, rows) if table.shape[1] and table.shape[0] else None
    if keys is None:
        return unique_rows(np.concatenate([table, rows], axis=0))
    stored, added = keys[: table.shape[0]], keys[table.shape[0]:]
    order = np.argsort(added)
    added = added[order]
    keep = _fresh(added)
    keep &= ~_found(stored, added)
    return np.insert(
        table, np.searchsorted(stored, added[keep]), rows[order[keep]], axis=0
    )


def key_codes(left: "np.ndarray", right: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Comparable single-column keys for two multi-column key tables.

    Rows that are equal across the two tables get equal keys, and unequal
    rows unequal ones, which turns any multi-column join/membership problem
    into a single-column one.  Both inputs must have the same number of
    columns.  A one-column key comes back as it is; wider ones are packed
    (:func:`_row_keys`), or densified along a lexsort when too wide to pack.

    >>> import numpy as np
    >>> l = np.array([[1, 2], [3, 4]], dtype=np.int64)
    >>> r = np.array([[3, 4], [5, 6]], dtype=np.int64)
    >>> lc, rc = key_codes(l, r)
    >>> bool(lc[1] == rc[0]), bool(lc[0] == rc[1])
    (True, False)
    """
    if left.shape[1] == 0:
        return (
            np.zeros(left.shape[0], dtype=CODE_DTYPE),
            np.zeros(right.shape[0], dtype=CODE_DTYPE),
        )
    codes = _row_keys(left, right)
    if codes is None:
        stacked = np.concatenate([left, right], axis=0)
        order = np.lexsort(stacked.T[::-1])
        codes = np.empty(stacked.shape[0], dtype=CODE_DTYPE)
        codes[order] = np.cumsum(_fresh(stacked[order])) - 1
    return codes[: left.shape[0]], codes[left.shape[0]:]


def expand_ranges(starts: "np.ndarray", counts: "np.ndarray") -> "np.ndarray":
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` for every i.

    >>> import numpy as np
    >>> expand_ranges(np.array([4, 0, 9]), np.array([2, 0, 3])).tolist()
    [4, 5, 9, 10, 11]
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=CODE_DTYPE)
    # For each output slot, subtract the cumulative offset of its group so the
    # global arange restarts at every group boundary.
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    group = np.repeat(np.arange(starts.shape[0]), counts)
    return np.arange(total) - offsets[group] + starts[group]


def join_indices(
    left_keys: "np.ndarray", right_keys: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Row-index pairs of the natural join of two key tables.

    Returns ``(li, ri)`` such that ``left_keys[li[k]] == right_keys[ri[k]]``
    row-wise for every ``k``, covering exactly the matching pairs.  With
    zero-column keys this is the full cross product.  The join is sort-based:
    the right side is sorted by key code and each left code locates its
    matching run with :func:`np.searchsorted`.
    """
    n, m = left_keys.shape[0], right_keys.shape[0]
    if n == 0 or m == 0:
        return np.empty(0, dtype=CODE_DTYPE), np.empty(0, dtype=CODE_DTYPE)
    if left_keys.shape[1] == 0:
        return (
            np.repeat(np.arange(n), m),
            np.tile(np.arange(m), n),
        )
    left_codes, right_codes = key_codes(left_keys, right_keys)
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = ends - starts
    li = np.repeat(np.arange(n), counts)
    ri = order[expand_ranges(starts, counts)]
    return li, ri


def membership_mask(left_keys: "np.ndarray", right_keys: "np.ndarray") -> "np.ndarray":
    """Boolean mask: which rows of ``left_keys`` appear in ``right_keys``.

    This is the antijoin/semijoin kernel — an antijoin keeps the rows where
    the mask is ``False``.  Zero-column keys degenerate to "is the right side
    non-empty".

    >>> import numpy as np
    >>> l = np.array([[1], [2], [3]], dtype=np.int64)
    >>> r = np.array([[2], [9]], dtype=np.int64)
    >>> membership_mask(l, r).tolist()
    [False, True, False]
    """
    if left_keys.shape[1] == 0:
        return np.full(left_keys.shape[0], right_keys.shape[0] > 0)
    if right_keys.shape[0] == 0:
        return np.zeros(left_keys.shape[0], dtype=bool)
    left_codes, right_codes = key_codes(left_keys, right_keys)
    return _found(np.sort(right_codes), left_codes)


def _found(ordered: "np.ndarray", keys: "np.ndarray") -> "np.ndarray":
    """Mask of the ``keys`` present in the non-empty sorted key column
    ``ordered``: one binary search per key."""
    at = np.searchsorted(ordered, keys)
    return ordered[np.minimum(at, ordered.shape[0] - 1)] == keys


def cross_pad_arrays(table: "np.ndarray", values: "np.ndarray") -> "np.ndarray":
    """Cross product with one extra column ranging over ``values``.

    Every row of ``table`` is repeated once per value; the pad column is
    appended on the right.  This is the array form of the ``CrossPad``
    operator (adom padding as a broadcast instead of a nested Python loop).

    >>> import numpy as np
    >>> t = np.array([[7], [8]], dtype=np.int64)
    >>> cross_pad_arrays(t, np.array([1, 2], dtype=np.int64)).tolist()
    [[7, 1], [7, 2], [8, 1], [8, 2]]
    """
    n, m = table.shape[0], values.shape[0]
    repeated = np.repeat(table, m, axis=0)
    tiled = np.tile(values, n).reshape(-1, 1)
    return np.concatenate([repeated, tiled], axis=1)
