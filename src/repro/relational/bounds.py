"""Interval endpoints shared by the plan optimizer and its executors.

On domains whose carrier is totally ordered by the standard integer
comparison (``Domain.ordered_carrier``), the plan optimizer
(:mod:`repro.relational.optimize`) turns adom pads filtered by comparisons
into interval joins, range scans, and interval-union scans.  Their endpoints
are the :class:`Bound` / :class:`AggBound` values defined here, and the
executors collapse per-witness slices of the sorted active domain with
:func:`merge_index_ranges`.

This module is deliberately free of plan-node and domain imports, so the
optimizer and every executor can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Tuple, Union

from .state import Element

__all__ = [
    "ORDER_PREDICATES",
    "domain_is_ordered",
    "AttrRef",
    "ConstRef",
    "ValueRef",
    "Bound",
    "AggBound",
    "RangeBound",
    "merge_index_ranges",
]

#: the comparison predicates that induce interval bounds on ordered carriers
ORDER_PREDICATES = ("<", "<=", ">", ">=")


def domain_is_ordered(domain: Any) -> bool:
    """True when ``domain`` declares ``ordered_carrier``.

    Ordered means: the carrier is totally ordered by the standard integer
    comparison and the domain's ``<``/``<=``/``>``/``>=`` predicates have
    exactly that semantics, so filtered pads may be replaced with
    sorted-adom interval generation.

    >>> from repro.domains.nat_order import NaturalOrderDomain
    >>> from repro.domains.equality import EqualityDomain
    >>> domain_is_ordered(NaturalOrderDomain()), domain_is_ordered(EqualityDomain())
    (True, False)
    """
    return bool(getattr(domain, "ordered_carrier", False))


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
class Bound:
    """One side of an interval: a value reference plus inclusivity.

    Interval bounds are only ever emitted by the plan optimizer
    (:mod:`repro.relational.optimize`) for domains whose carrier is totally
    ordered by the standard integer comparison, so executors may compare
    elements with ``int`` semantics instead of calling
    ``domain.eval_predicate`` pointwise.
    """

    ref: ValueRef
    inclusive: bool = False


@dataclass(frozen=True)
class AggBound:
    """A bound aggregated at run time from a unary subplan.

    ``kind`` is ``"min"`` or ``"max"``.  ``AggBound(P, "min", False)`` as a
    *lower* bound encodes ``∃a ∈ P: a < x`` (the union of the nested
    intervals ``(a, ∞)`` is ``(min P, ∞)``); an empty ``P`` makes the bound —
    and therefore the whole range scan — empty, which is exactly the
    semantics of the eliminated existential witness.  ``source`` is a plan
    node of :mod:`repro.relational.exec` (typed loosely here to keep this
    module free of executor imports).
    """

    source: Any
    kind: str
    inclusive: bool = False


RangeBound = Union[Bound, AggBound]


def merge_index_ranges(
    ranges: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """The union of half-open index ranges ``[start, end)``, sorted & merged.

    Used by the executors to collapse per-witness ``searchsorted``/``bisect`` slices of the sorted
    active domain into O(answer) output — the union-of-intervals reduction.

    >>> merge_index_ranges([(4, 6), (0, 2), (5, 9), (2, 3)])
    [(0, 3), (4, 9)]
    >>> merge_index_ranges([(3, 3)])
    []
    """
    cleaned = sorted((lo, hi) for lo, hi in ranges if lo < hi)
    merged: List[Tuple[int, int]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged
