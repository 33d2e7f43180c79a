"""Shared bound analysis: interval domains, endpoints, and inference.

The paper's central move is replacing unbounded quantification with
evaluation over finitely many *relevant* elements.  Concretely, on domains
whose carrier is totally ordered by the standard integer comparison
(``Domain.ordered_carrier``), the comparison literals of a formula
imply per-variable *interval bounds*, and three very different consumers all
want the same analysis:

* the **plan optimizer** (:mod:`repro.relational.optimize`) turns adom pads
  filtered by comparisons into interval joins, range scans, and
  interval-union scans whose endpoints are the :class:`Bound` /
  :class:`AggBound` values defined here;
* the **tree-walking evaluator** (:mod:`repro.relational.calculus`) narrows
  each quantifier's candidate range from the full active domain to the
  inferred interval union, bisecting over the sorted adom
  (:class:`QuantifierNarrower`);
* the **enumeration engine** (:mod:`repro.engine.enumeration`) intersects
  its candidate generator with the inferred bounds of the free variables,
  so decidable ordered domains stop paying ``max_candidates`` per answer
  row.

This module is deliberately free of plan-node and domain imports, so every
layer — logic, relational, engine — can depend on it without cycles.

The workhorse data type is the :class:`IntervalSet`: a union of disjoint
closed integer intervals with optional open ends, normalised by the sorted
interval-merge :func:`merge_intervals` (O(n log n)).  On an integer carrier
adjacent intervals fuse exactly (``[1,3] ∪ [4,6] = [1,6]``), which is what
makes unions of *non-nested* per-witness intervals collapse:

>>> merge_intervals([(4, 6), (1, 3), (10, None)])
((1, 6), (10, None))
>>> IntervalSet.at_most(5).intersect(IntervalSet.at_least(2))
IntervalSet(parts=((2, 5),))
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..logic.formulas import (
    And,
    Atom,
    Bottom,
    Equals,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
)
from ..logic.terms import Const, Term, Var
from .state import DatabaseState, Element

__all__ = [
    "ORDER_PREDICATES",
    "domain_is_ordered",
    "AttrRef",
    "ConstRef",
    "ValueRef",
    "Bound",
    "AggBound",
    "RangeBound",
    "Endpoint",
    "IntervalSet",
    "merge_intervals",
    "merge_index_ranges",
    "comparison_interval",
    "BoundAnalysis",
    "NarrowingStats",
    "QuantifierNarrower",
]

#: the comparison predicates that induce interval bounds on ordered carriers
ORDER_PREDICATES = ("<", "<=", ">", ">=")


def domain_is_ordered(domain: Any) -> bool:
    """True when ``domain`` declares ``ordered_carrier``.

    Ordered means: the carrier is totally ordered by the standard integer
    comparison and the domain's ``<``/``<=``/``>``/``>=`` predicates have
    exactly that semantics, so quantifier ranges and filtered pads may be
    replaced with sorted-adom interval generation.

    >>> from repro.domains.nat_order import NaturalOrderDomain
    >>> from repro.domains.equality import EqualityDomain
    >>> domain_is_ordered(NaturalOrderDomain()), domain_is_ordered(EqualityDomain())
    (True, False)
    """
    return bool(getattr(domain, "ordered_carrier", False))


# ---------------------------------------------------------------------------
# Value references and interval endpoints (shared by every plan executor)
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


# ---------------------------------------------------------------------------
# Interval sets
# ---------------------------------------------------------------------------

#: one end of a closed integer interval; ``None`` means unbounded
Endpoint = Optional[int]


def merge_intervals(
    intervals: Iterable[Tuple[Endpoint, Endpoint]]
) -> Tuple[Tuple[Endpoint, Endpoint], ...]:
    """The union of closed integer intervals, as sorted disjoint intervals.

    The classic sorted interval-merge, O(n log n): sort by lower end, then
    sweep, fusing intervals that overlap or are adjacent (on an integer
    carrier ``[1,3]`` and ``[4,6]`` cover exactly ``[1,6]``).  Empty
    (inverted) intervals are dropped.

    >>> merge_intervals([(5, 7), (1, 2), (3, 3), (None, 0)])
    ((None, 3), (5, 7))
    >>> merge_intervals([])
    ()
    """
    cleaned = [
        (lo, hi)
        for lo, hi in intervals
        if lo is None or hi is None or lo <= hi
    ]
    if not cleaned:
        return ()
    cleaned.sort(key=lambda part: (part[0] is not None, part[0] or 0))
    merged: List[Tuple[Endpoint, Endpoint]] = [cleaned[0]]
    for lo, hi in cleaned[1:]:
        last_lo, last_hi = merged[-1]
        if last_hi is None or (lo is not None and lo > last_hi + 1):
            if last_hi is None:
                break  # the running interval is unbounded above: covered
            merged.append((lo, hi))
        else:
            if hi is None or (last_hi is not None and hi > last_hi):
                merged[-1] = (last_lo, hi)
    return tuple(merged)


def merge_index_ranges(
    ranges: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """The union of half-open index ranges ``[start, end)``, sorted & merged.

    The positional twin of :func:`merge_intervals`, used by the executors to
    collapse per-witness ``searchsorted``/``bisect`` slices of the sorted
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


@dataclass(frozen=True)
class IntervalSet:
    """A union of disjoint closed integer intervals (``None`` = unbounded).

    The abstract domain of the bound analysis: each variable's satisfying
    values are over-approximated by one of these.  ``TOP`` (everything) and
    ``EMPTY`` (nothing) are the lattice extremes; :meth:`union` and
    :meth:`intersect` keep the parts normalised through
    :func:`merge_intervals`.

    >>> evens = IntervalSet.point(2).union(IntervalSet.point(4))
    >>> evens.intersect(IntervalSet.at_least(3))
    IntervalSet(parts=((4, 4),))
    >>> IntervalSet.point(7).complement().contains(7)
    False
    """

    parts: Tuple[Tuple[Endpoint, Endpoint], ...]

    # -- constructors -------------------------------------------------------

    @classmethod
    def top(cls) -> "IntervalSet":
        return _TOP

    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    @classmethod
    def point(cls, value: int) -> "IntervalSet":
        return cls(((value, value),))

    @classmethod
    def at_most(cls, value: int) -> "IntervalSet":
        return cls(((None, value),))

    @classmethod
    def at_least(cls, value: int) -> "IntervalSet":
        return cls(((value, None),))

    @classmethod
    def between(cls, lo: Endpoint, hi: Endpoint) -> "IntervalSet":
        if lo is not None and hi is not None and lo > hi:
            return _EMPTY
        return cls(((lo, hi),))

    # -- structure ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def is_top(self) -> bool:
        return self.parts == ((None, None),)

    @property
    def lower(self) -> Endpoint:
        """The least element, or ``None`` when empty or unbounded below."""
        return self.parts[0][0] if self.parts else None

    @property
    def upper(self) -> Endpoint:
        """The greatest element, or ``None`` when empty or unbounded above."""
        return self.parts[-1][1] if self.parts else None

    @property
    def bounded(self) -> bool:
        """True when non-empty and bounded on both sides."""
        return bool(self.parts) and self.lower is not None and self.upper is not None

    def contains(self, value: int) -> bool:
        return any(
            (lo is None or lo <= value) and (hi is None or value <= hi)
            for lo, hi in self.parts
        )

    def values(self) -> Iterable[int]:
        """Every integer in the set (requires :attr:`bounded`)."""
        if not self.bounded:
            raise ValueError(f"interval set {self!r} is not finitely bounded")
        for lo, hi in self.parts:
            assert lo is not None and hi is not None
            yield from range(lo, hi + 1)

    def size(self) -> int:
        """The number of integers in the set (requires :attr:`bounded`)."""
        if self.is_empty:
            return 0
        if not self.bounded:
            raise ValueError(f"interval set {self!r} is not finitely bounded")
        return sum(hi - lo + 1 for lo, hi in self.parts)  # type: ignore[misc]

    # -- lattice operations -------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_top or other.is_empty:
            return self
        if other.is_top or self.is_empty:
            return other
        return IntervalSet(merge_intervals(self.parts + other.parts))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_top:
            return other
        if other.is_top:
            return self
        if self.is_empty or other.is_empty:
            return _EMPTY
        pieces: List[Tuple[Endpoint, Endpoint]] = []
        for a_lo, a_hi in self.parts:
            for b_lo, b_hi in other.parts:
                lo = a_lo if b_lo is None else (b_lo if a_lo is None else max(a_lo, b_lo))
                hi = a_hi if b_hi is None else (b_hi if a_hi is None else min(a_hi, b_hi))
                if lo is None or hi is None or lo <= hi:
                    pieces.append((lo, hi))
        return IntervalSet(merge_intervals(pieces))

    def complement(self) -> "IntervalSet":
        """The integers outside the set."""
        if self.is_empty:
            return _TOP
        gaps: List[Tuple[Endpoint, Endpoint]] = []
        previous_hi: Endpoint = None
        first_lo = self.parts[0][0]
        if first_lo is not None:
            gaps.append((None, first_lo - 1))
        for index, (lo, hi) in enumerate(self.parts):
            if index > 0 and previous_hi is not None and lo is not None:
                gaps.append((previous_hi + 1, lo - 1))
            previous_hi = hi
        if previous_hi is not None:
            gaps.append((previous_hi + 1, None))
        return IntervalSet(merge_intervals(gaps))


_TOP = IntervalSet(((None, None),))
_EMPTY = IntervalSet(())

#: flipping a comparison across the argument order (``a < x`` ⟺ ``x > a``)
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
#: complementing a comparison on a total order (``¬(x < a)`` ⟺ ``x >= a``)
_COMPLEMENT = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def comparison_interval(
    predicate: str, value: int, *, var_on_left: bool = True, negated: bool = False
) -> IntervalSet:
    """The interval a comparison literal allows for its variable side.

    ``comparison_interval("<", 7)`` is the set of x with ``x < 7``; flips
    the predicate when the variable sits on the right, and complements it
    (sound on a total order) when the literal is negated.

    >>> comparison_interval("<", 7)
    IntervalSet(parts=((None, 6),))
    >>> comparison_interval("<", 7, var_on_left=False, negated=True)
    IntervalSet(parts=((None, 7),))
    """
    if not var_on_left:
        predicate = _FLIP[predicate]
    if negated:
        predicate = _COMPLEMENT[predicate]
    if predicate == "<":
        return IntervalSet.at_most(value - 1)
    if predicate == "<=":
        return IntervalSet.at_most(value)
    if predicate == ">":
        return IntervalSet.at_least(value + 1)
    if predicate == ">=":
        return IntervalSet.at_least(value)
    raise ValueError(f"not an order predicate: {predicate!r}")


# ---------------------------------------------------------------------------
# Formula-level bound inference
# ---------------------------------------------------------------------------


def _as_int(value: Element) -> Optional[int]:
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


class BoundAnalysis:
    """Infer per-variable interval bounds from a formula's comparison literals.

    For a formula F and a variable x, :meth:`intervals` returns an
    :class:`IntervalSet` that **over-approximates** the projection to x of
    F's satisfying assignments: whenever F holds with ``x = v`` (and the
    other assigned variables as in ``resolve``), ``v`` lies in the returned
    set.  Soundness therefore lets consumers *skip* everything outside the
    set — the narrowed quantifier range, the pruned candidate stream — while
    never changing an answer.

    The analysis reads:

    * comparison literals over :data:`ORDER_PREDICATES` whose other side is
      an integer constant, a resolved variable, or a sibling variable whose
      own bounds were inferred (quantifier witnesses propagate their
      envelopes: in ``∃y (S(y) ∧ x < y)``, x inherits ``x < max S``);
    * equality literals (points, and complements of points when negated);
    * database atoms, bounded by the stored column's min/max envelope when a
      ``state`` is supplied;
    * the boolean structure (∧ intersects, ∨ unions, ¬ dualises via
      De Morgan, → and ↔ expand).

    ``assume_nonempty`` states that quantifiers range over a non-empty
    universe; it is required for extracting bounds from *universal* bodies
    (``∀y B`` only implies ``B`` somewhere when there is a y at all) and is
    what the tree walker guarantees before narrowing.
    """

    def __init__(
        self,
        state: Optional[DatabaseState] = None,
        *,
        assume_nonempty: bool = True,
    ) -> None:
        self._state = state
        self._assume_nonempty = assume_nonempty
        #: (relation, column) → stored-column envelope, memoised
        self._column_envelopes: Dict[Tuple[str, int], IntervalSet] = {}

    # -- public entry points -------------------------------------------------

    def intervals(
        self,
        formula: Formula,
        var: str,
        resolve: Optional[Mapping[str, int]] = None,
        envelopes: Optional[Mapping[str, IntervalSet]] = None,
    ) -> IntervalSet:
        """Bounds for ``var`` implied by ``formula``.

        ``resolve`` maps already-assigned variables to their integer values
        (the tree walker's environment); ``envelopes`` maps other variables
        to previously inferred interval sets (used for sibling free
        variables).  A binding for ``var`` itself is dropped: the question
        is which values ``var`` *can* take, so an outer same-named binding
        (shadowing) must not constant-fold the literals that constrain it.
        """
        return self._infer(
            formula,
            var,
            False,
            {k: v for k, v in (resolve or {}).items() if k != var},
            {k: v for k, v in (envelopes or {}).items() if k != var},
        )

    def free_variable_intervals(
        self, formula: Formula, variables: Sequence[str], passes: int = 2
    ) -> Dict[str, IntervalSet]:
        """Bounds for every free variable, propagated across comparisons.

        Runs ``passes`` rounds so that chains like ``x < y ∧ y < 7`` reach
        x through y's envelope.
        """
        envelopes: Dict[str, IntervalSet] = {}
        for _ in range(max(1, passes)):
            envelopes = {
                name: self._infer(formula, name, False, {}, dict(envelopes))
                for name in variables
            }
        return envelopes

    # -- the recursion -------------------------------------------------------

    def _infer(
        self,
        f: Formula,
        var: str,
        negated: bool,
        resolve: Dict[str, int],
        envelopes: Dict[str, IntervalSet],
    ) -> IntervalSet:
        if isinstance(f, Top):
            return _EMPTY if negated else _TOP
        if isinstance(f, Bottom):
            return _TOP if negated else _EMPTY
        if isinstance(f, Not):
            return self._infer(f.body, var, not negated, resolve, envelopes)
        if isinstance(f, And):
            sets = [
                self._infer(c, var, negated, resolve, envelopes)
                for c in f.conjuncts
            ]
            return self._combine(sets, union=negated)
        if isinstance(f, Or):
            sets = [
                self._infer(d, var, negated, resolve, envelopes)
                for d in f.disjuncts
            ]
            return self._combine(sets, union=not negated)
        if isinstance(f, Implies):
            # a → b  ⟺  ¬a ∨ b;   ¬(a → b)  ⟺  a ∧ ¬b
            left = self._infer(f.antecedent, var, not negated, resolve, envelopes)
            right = self._infer(f.consequent, var, negated, resolve, envelopes)
            return self._combine([left, right], union=not negated)
        if isinstance(f, Iff):
            return _TOP  # either polarity: no cheap interval form
        if isinstance(f, (Exists, ForAll)):
            return self._quantifier(f, var, negated, resolve, envelopes)
        if isinstance(f, Equals):
            return self._equality(f, var, negated, resolve, envelopes)
        if isinstance(f, Atom):
            return self._atom(f, var, negated, resolve, envelopes)
        return _TOP

    @staticmethod
    def _combine(sets: List[IntervalSet], *, union: bool) -> IntervalSet:
        result: Optional[IntervalSet] = None
        for one in sets:
            if result is None:
                result = one
            else:
                result = result.union(one) if union else result.intersect(one)
        return result if result is not None else (_EMPTY if union else _TOP)

    def _quantifier(
        self,
        f: "Exists | ForAll",
        var: str,
        negated: bool,
        resolve: Dict[str, int],
        envelopes: Dict[str, IntervalSet],
    ) -> IntervalSet:
        if f.var == var:
            return _TOP  # the quantifier shadows the variable of interest
        # Effective polarity of the body: ∃ keeps it, ¬∃ ⟺ ∀¬ flips it, etc.
        # Extracting bounds from a body under a ∀-shaped quantifier is only
        # sound when the universe is non-empty (a vacuous ∀ implies nothing).
        universal = isinstance(f, ForAll) != negated
        if universal and not self._assume_nonempty:
            return _TOP
        inner_resolve = {k: v for k, v in resolve.items() if k != f.var}
        inner_envelopes = {k: v for k, v in envelopes.items() if k != f.var}
        witness = self._infer(
            f.body, f.var, negated, dict(inner_resolve), dict(inner_envelopes)
        )
        inner_envelopes[f.var] = witness
        return self._infer(f.body, var, negated, inner_resolve, inner_envelopes)

    def _term_value(
        self,
        term: Term,
        resolve: Dict[str, int],
    ) -> Tuple[Optional[int], Optional[str]]:
        """Resolve a term to ``(int value, None)``, ``(None, var name)`` for
        an unresolved variable, or ``(None, None)`` for anything else."""
        if isinstance(term, Const):
            return _as_int(term.value), None
        if isinstance(term, Var):
            if term.name in resolve:
                return resolve[term.name], None
            return None, term.name
        return None, None

    def _equality(
        self,
        f: Equals,
        var: str,
        negated: bool,
        resolve: Dict[str, int],
        envelopes: Dict[str, IntervalSet],
    ) -> IntervalSet:
        left_value, left_var = self._term_value(f.left, resolve)
        right_value, right_var = self._term_value(f.right, resolve)
        if left_var == var and right_var == var:
            return _EMPTY if negated else _TOP  # x = x
        if left_var != var and right_var != var:
            # A literal not constraining var: fold it when fully resolved.
            if left_value is not None and right_value is not None:
                holds = (left_value == right_value) != negated
                return _TOP if holds else _EMPTY
            return _TOP
        other_value = right_value if left_var == var else left_value
        other_var = right_var if left_var == var else left_var
        if other_value is not None:
            point = IntervalSet.point(other_value)
            return point.complement() if negated else point
        if other_var is not None and not negated:
            return envelopes.get(other_var, _TOP)
        return _TOP

    def _atom(
        self,
        f: Atom,
        var: str,
        negated: bool,
        resolve: Dict[str, int],
        envelopes: Dict[str, IntervalSet],
    ) -> IntervalSet:
        if f.predicate in ORDER_PREDICATES and len(f.args) == 2:
            return self._comparison(f, var, negated, resolve, envelopes)
        if negated:
            return _TOP
        if self._state is None or f.predicate not in self._state.schema:
            return _TOP
        # A positive database atom bounds var by the stored column envelope.
        result = _TOP
        for position, arg in enumerate(f.args):
            if isinstance(arg, Var) and arg.name == var:
                result = result.intersect(
                    self._column_envelope(f.predicate, position)
                )
        return result

    def _column_envelope(self, relation: str, column: int) -> IntervalSet:
        key = (relation, column)
        cached = self._column_envelopes.get(key)
        if cached is None:
            assert self._state is not None
            values = [
                _as_int(row[column]) for row in self._state[relation].rows
            ]
            if not values:
                cached = _EMPTY  # an empty relation satisfies no atom
            elif any(value is None for value in values):
                cached = _TOP  # non-integer carrier: no numeric envelope
            else:
                ints = [value for value in values if value is not None]
                cached = IntervalSet.between(min(ints), max(ints))
            self._column_envelopes[key] = cached
        return cached

    def _comparison(
        self,
        f: Atom,
        var: str,
        negated: bool,
        resolve: Dict[str, int],
        envelopes: Dict[str, IntervalSet],
    ) -> IntervalSet:
        left_value, left_var = self._term_value(f.args[0], resolve)
        right_value, right_var = self._term_value(f.args[1], resolve)
        if left_var == var and right_var == var:
            # x < x and friends: decidable without values.
            holds = f.predicate in ("<=", ">=")
            return _TOP if holds != negated else _EMPTY
        if left_var != var and right_var != var:
            if left_value is not None and right_value is not None:
                holds = self._evaluate(f.predicate, left_value, right_value)
                return _TOP if holds != negated else _EMPTY
            return _TOP
        var_on_left = left_var == var
        other_value = right_value if var_on_left else left_value
        other_var = right_var if var_on_left else left_var
        if other_value is not None:
            return comparison_interval(
                f.predicate, other_value, var_on_left=var_on_left, negated=negated
            )
        if other_var is None:
            return _TOP  # a function term: no bound
        envelope = envelopes.get(other_var)
        if envelope is None or envelope.is_top:
            return _TOP
        if envelope.is_empty:
            # No possible witness value at all: the literal cannot hold.
            return _EMPTY
        # var < w with w ≤ upper(w's envelope) implies var < upper; dually
        # for lower bounds — only the outer endpoint on the relevant side
        # transfers, and only when that side is bounded.
        predicate = f.predicate if var_on_left else _FLIP[f.predicate]
        if negated:
            predicate = _COMPLEMENT[predicate]
        if predicate in ("<", "<="):
            limit = envelope.upper
        else:
            limit = envelope.lower
        if limit is None:
            return _TOP
        return comparison_interval(predicate, limit)

    @staticmethod
    def _evaluate(predicate: str, left: int, right: int) -> bool:
        if predicate == "<":
            return left < right
        if predicate == "<=":
            return left <= right
        if predicate == ">":
            return left > right
        return left >= right


# ---------------------------------------------------------------------------
# Quantifier-range narrowing for the tree walker
# ---------------------------------------------------------------------------


@dataclass
class NarrowingStats:
    """What quantifier-range narrowing did during one evaluation."""

    #: True when a narrower was active (ordered carrier, integer universe)
    enabled: bool = False
    #: quantifier (and free-variable) range computations performed
    ranges: int = 0
    #: computations whose candidate range actually shrank
    narrowed: int = 0
    #: candidates kept across all narrowed/unnarrowed ranges
    candidates: int = 0
    #: candidates pruned by the inferred bounds
    skipped: int = 0

    def record(self, kept: int, total: int) -> None:
        self.ranges += 1
        self.candidates += kept
        self.skipped += total - kept
        if kept < total:
            self.narrowed += 1

    def describe(self) -> str:
        if not self.enabled:
            return "quantifier-range narrowing inactive (unordered carrier)"
        examined = self.candidates + self.skipped
        return (
            f"quantifier-range narrowing: {self.narrowed} of {self.ranges} "
            f"range(s) narrowed, {self.candidates} of {examined} candidate(s) kept"
        )


class QuantifierNarrower:
    """Narrow quantifier candidate ranges over a sorted integer universe.

    Built once per evaluation by the tree walker
    (:func:`repro.relational.calculus.evaluate_query_active_domain`) on
    ordered carriers: the universe is sorted by integer value, and each
    quantifier's candidate list becomes the bisected slice union of the
    bounds :class:`BoundAnalysis` infers from the quantifier body — the
    tree-walking twin of the optimizer's interval joins.

    >>> from repro.logic.parser import parse_formula
    >>> narrower = QuantifierNarrower([1, 5, 9, 13])
    >>> body = parse_formula("S(y) & y < x")
    >>> narrower.candidates(body, "y", {"x": 9})
    [1, 5]
    """

    def __init__(
        self,
        universe: Sequence[Element],
        state: Optional[DatabaseState] = None,
        stats: Optional[NarrowingStats] = None,
    ) -> None:
        pairs = sorted(
            ((int(element), element) for element in universe),
            key=lambda pair: pair[0],
        )
        self._keys = [key for key, _ in pairs]
        self._elements = [element for _, element in pairs]
        self._analysis = BoundAnalysis(state, assume_nonempty=bool(pairs))
        self.stats = stats if stats is not None else NarrowingStats()
        self.stats.enabled = True

    @classmethod
    def for_universe(
        cls,
        universe: Sequence[Element],
        interpretation: Any,
        state: Optional[DatabaseState] = None,
        stats: Optional[NarrowingStats] = None,
    ) -> Optional["QuantifierNarrower"]:
        """A narrower for ``universe``, or ``None`` when narrowing is not
        sound (unordered carrier) or not possible (non-integer elements)."""
        if not domain_is_ordered(interpretation):
            return None
        try:
            return cls(universe, state, stats)
        except (TypeError, ValueError):
            return None

    @property
    def universe_size(self) -> int:
        return len(self._elements)

    def candidates(
        self,
        body: Formula,
        var: str,
        env: Mapping[Any, Element],
    ) -> List[Element]:
        """The universe elements ``var`` can take without falsifying the
        comparison literals of ``body``, in ascending value order."""
        total = len(self._elements)
        if total == 0:
            return []
        resolve: Dict[str, int] = {}
        for name, value in env.items():
            coerced = _as_int(value)
            if coerced is not None:
                resolve[name.name if isinstance(name, Var) else name] = coerced
        interval_set = self._analysis.intervals(body, var, resolve)
        if interval_set.is_top:
            self.stats.record(total, total)
            return self._elements
        kept = self.elements_in(interval_set)
        self.stats.record(len(kept), total)
        return kept

    def elements_in(self, interval_set: IntervalSet) -> List[Element]:
        """The universe elements inside an interval set, by bisection."""
        keys = self._keys
        ranges = []
        for lo, hi in interval_set.parts:
            start = 0 if lo is None else bisect_left(keys, lo)
            end = len(keys) if hi is None else bisect_right(keys, hi)
            if start < end:
                ranges.append((start, end))
        elements = self._elements
        return [
            element
            for start, end in merge_index_ranges(ranges)
            for element in elements[start:end]
        ]
