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

Doctest — a sort-based join of two small key columns:

>>> import numpy as np
>>> left = np.array([[1], [2], [2], [9]], dtype=np.int64)
>>> right = np.array([[2], [2], [1]], dtype=np.int64)
>>> li, ri = join_indices(left, right)
>>> sorted(zip(li.tolist(), ri.tolist()))
[(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "unique_rows",
    "sorted_unique_rows",
    "key_codes",
    "join_indices",
    "membership_mask",
    "cross_pad_arrays",
    "expand_ranges",
]

#: the dtype every column of a code table uses
CODE_DTYPE = np.int64


def unique_rows(table: "np.ndarray") -> "np.ndarray":
    """Distinct rows of a code table (the set-semantics dedupe kernel).

    Zero-column tables are handled explicitly: all their rows are equal, so
    the result is at most one row.

    >>> import numpy as np
    >>> t = np.array([[1, 2], [1, 2], [3, 4]], dtype=np.int64)
    >>> unique_rows(t).tolist()
    [[1, 2], [3, 4]]
    >>> unique_rows(np.empty((5, 0), dtype=np.int64)).shape
    (1, 0)
    """
    if table.shape[1] == 0:
        return table[:1]
    if table.shape[0] <= 1:
        return table
    if table.shape[1] == 1:
        return np.unique(table[:, 0]).reshape(-1, 1)
    # np.unique(axis=0) sorts a void view, which is an order of magnitude
    # slower than a plain integer lexsort; dedupe on sorted runs instead.
    order = np.lexsort(table.T[::-1])
    table = table[order]
    keep = np.ones(table.shape[0], dtype=bool)
    np.any(table[1:] != table[:-1], axis=1, out=keep[1:])
    return table[keep]


def sorted_unique_rows(table: "np.ndarray") -> "np.ndarray":
    """The distinct rows of a code table in lexicographic order.

    :func:`unique_rows` leaves its output in this order, so a table that
    comes out of one usually already is: one vectorised comparison of
    adjacent rows finds that, and the table comes back as it is, unsorted
    and uncopied.  Any other table goes through :func:`unique_rows`.

    >>> import numpy as np
    >>> t = np.array([[1, 5], [2, 0], [2, 3]], dtype=np.int64)
    >>> sorted_unique_rows(t) is t
    True
    >>> sorted_unique_rows(t[::-1]).tolist()
    [[1, 5], [2, 0], [2, 3]]
    >>> sorted_unique_rows(np.array([[4], [4]], dtype=np.int64)).tolist()
    [[4]]
    """
    if table.shape[0] > 1 and table.shape[1] and _strictly_ascending(table):
        return table
    return unique_rows(table)


def _strictly_ascending(table: "np.ndarray") -> bool:
    """True iff every row of ``table`` is lexicographically greater than the
    row before it (so the rows are also distinct)."""
    previous, following = table[:-1], table[1:]
    if table.shape[1] == 1:
        return bool((following[:, 0] > previous[:, 0]).all())
    differ = previous != following
    first = differ.argmax(axis=1)  # the first column where each pair differs
    pairs = np.arange(first.shape[0])
    return bool(
        differ[pairs, first].all()
        and (following[pairs, first] > previous[pairs, first]).all()
    )


def key_codes(left: "np.ndarray", right: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Dense single-column codes for two multi-column key tables.

    Rows that are equal across the two tables get the same code, which turns
    any multi-column join/membership problem into a single-column one.  Both
    inputs must have the same number of columns.

    >>> import numpy as np
    >>> l = np.array([[1, 2], [3, 4]], dtype=np.int64)
    >>> r = np.array([[3, 4], [5, 6]], dtype=np.int64)
    >>> lc, rc = key_codes(l, r)
    >>> bool(lc[1] == rc[0]), bool(lc[0] == rc[1])
    (True, False)
    """
    stacked = np.concatenate([left, right], axis=0)
    if stacked.shape[1] == 0:
        codes = np.zeros(stacked.shape[0], dtype=CODE_DTYPE)
    elif stacked.shape[1] == 1:
        _, codes = np.unique(stacked[:, 0], return_inverse=True)
        codes = codes.reshape(-1)  # numpy >= 2.1 keeps the input shape
    else:
        # Group identical rows along sorted runs (see unique_rows for why
        # this beats np.unique(axis=0)).
        order = np.lexsort(stacked.T[::-1])
        ordered = stacked[order]
        fresh = np.empty(ordered.shape[0], dtype=bool)
        fresh[0] = True
        np.any(ordered[1:] != ordered[:-1], axis=1, out=fresh[1:])
        codes = np.empty(ordered.shape[0], dtype=CODE_DTYPE)
        codes[order] = np.cumsum(fresh) - 1
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
    return np.isin(left_codes, right_codes)


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
