"""The logical plan optimizer: algebra-IR rewrites between compile and run.

The compiler (:mod:`repro.relational.compile`) emits a *correct* plan; this
module makes it a *cheap* one.  Every rewrite preserves the plan's answer on
every state and every active domain — the optimizer is pure plan surgery, so
it runs once per compilation and its output is cached alongside the plan.

Four families of rewrites, applied bottom-up in one pass:

1. **interleaved pad/filter** — a ``Select`` over a multi-column ``CrossPad``
   is decomposed into per-column pads with each condition applied the moment
   its attributes are bound, so filters fire between pads instead of after
   the full ``|adom|^k`` product;
2. **interval joins on ordered domains** — when the domain's carrier is
   declared ordered (``Domain.ordered_carrier``), a padded column filtered
   by ``<``/``<=`` (or their negations/flips) becomes an ``IntervalJoin``:
   the column ranges over a binary-searched slice of the sorted active
   domain instead of being generated and then filtered pointwise;
3. **projection pushdown** — a ``Project`` over a ``Join`` pushes into the
   parts (attributes used by only one part are dropped before the join), a
   ``Project`` over a ``CrossPad`` drops pad columns it does not keep
   (guarding the all-dropped case with a non-empty-adom check), and nested
   projections collapse;
4. **range reduction** — ``Project`` to just the padded variable over an
   ``IntervalJoin`` eliminates the existential witness: ``∃y (S(y) ∧ y < x)``
   becomes ``x > min(S)``, a :class:`~repro.relational.exec.RangeScan` with
   an aggregated bound, turning the "strictly between two members" plan from
   ``O(|adom|^3)`` materialisation into ``O(|answer|)``.  When one witness
   component bounds the variable on *both* sides
   (``∃y∃z (R(y, z) ∧ y < x ∧ x < z)``) the per-row intervals are not
   nested, so no single aggregated bound exists; the reduction then emits an
   :class:`~repro.relational.exec.IntervalUnionScan`, which merges the
   per-row ranges with :func:`~repro.relational.bounds.merge_index_ranges`
   — still ``O(|answer|)`` peak rows.

The endpoint machinery (``Bound``/``AggBound``, the order-predicate table,
:func:`~repro.relational.bounds.domain_is_ordered`) lives in
:mod:`repro.relational.bounds`, shared with the executors.

The rewrites it performed are returned as human-readable notes, which
:meth:`repro.relational.compile.CompiledQuery.summary` (and therefore
``Plan.explain()``) surface for debuggability.

Doctest — the between-two-members shape reduces to a single range scan
whose bounds aggregate the two witness scans (``min S < x < max S``):

>>> from repro.domains.nat_order import NaturalOrderDomain
>>> from repro.experiments.corpora import numeric_schema
>>> from repro.logic.parser import parse_formula
>>> from repro.relational.compile import compile_query
>>> between = parse_formula("exists y. exists z. (S(y) & S(z) & y < x & x < z)")
>>> compiled = compile_query(between, numeric_schema(), NaturalOrderDomain())
>>> compiled.summary()
'2 scans, 1 range-scan; optimizer: interleaved 2 condition(s) with adom pads, introduced 1 interval join(s), reduced 1 interval join(s) to range scans'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .bounds import ORDER_PREDICATES, domain_is_ordered
from .exec import (
    AdomScan,
    AggBound,
    AntiJoin,
    AttrRef,
    Bound,
    Comparison,
    Condition,
    ConstRef,
    CrossPad,
    DomainCondition,
    IntervalJoin,
    IntervalUnionScan,
    Join,
    Literal,
    PlanNode,
    Project,
    RangeBound,
    RangeScan,
    Select,
    UnionAll,
)

__all__ = [
    "optimize_plan",
    "domain_is_ordered",
    "next_pad_column",
    "OPTIMIZABLE_PREDICATES",
]

#: domain predicates the optimizer can turn into interval bounds (the shared
#: constant from :mod:`repro.relational.bounds`, kept under its legacy name)
OPTIMIZABLE_PREDICATES = ORDER_PREDICATES


@dataclass
class _RewriteLog:
    """Counters for the rewrites one :func:`optimize_plan` call performed."""

    interleaved: int = 0
    interval_joins: int = 0
    range_reductions: int = 0
    union_reductions: int = 0
    pads_eliminated: int = 0
    projections_pushed: int = 0

    def notes(self) -> Tuple[str, ...]:
        parts: List[str] = []
        if self.interleaved:
            parts.append(
                f"interleaved {self.interleaved} condition(s) with adom pads"
            )
        if self.interval_joins:
            parts.append(f"introduced {self.interval_joins} interval join(s)")
        if self.range_reductions:
            parts.append(
                f"reduced {self.range_reductions} interval join(s) to range scans"
            )
        if self.union_reductions:
            parts.append(
                f"reduced {self.union_reductions} both-sided witness(es) to "
                "interval-union scans"
            )
        if self.pads_eliminated:
            parts.append(f"eliminated {self.pads_eliminated} adom pad column(s)")
        if self.projections_pushed:
            parts.append(
                f"pushed {self.projections_pushed} projection(s) into joins"
            )
        return tuple(parts)


def optimize_plan(
    plan: PlanNode, *, ordered: bool = False
) -> Tuple[PlanNode, Tuple[str, ...]]:
    """Rewrite ``plan`` into an answer-equivalent but cheaper plan.

    ``ordered`` enables the interval-join rewrites (only sound on domains
    whose comparison predicates follow the integer order — see
    :func:`domain_is_ordered`).  Returns the rewritten plan plus notes
    describing the rewrites performed (empty when nothing changed).
    """
    rewriter = _Rewriter(ordered)
    return rewriter.rewrite(plan), rewriter.log.notes()


def next_pad_column(
    bound_attrs: Set[str],
    candidates: Sequence[str],
    pending_needs: Sequence[Set[str]],
) -> str:
    """The pad column enabling the most pending conditions (ties by name).

    The shared ordering heuristic behind interleaved padding — the compiler's
    conjunction handler and the optimizer's pad normalisation both use it, so
    compiled and re-derived plans always pick the same pad order (and hence
    the same interval joins).
    """

    def enabled(column: str) -> int:
        with_column = bound_attrs | {column}
        return sum(1 for needed in pending_needs if needed <= with_column)

    return min(candidates, key=lambda column: (-enabled(column), column))


def _aligned(node: PlanNode, attrs: Tuple[str, ...]) -> PlanNode:
    return node if node.attrs == attrs else Project(node, attrs)


def _condition_needs(condition: Condition) -> Set[str]:
    refs = (
        (condition.left, condition.right)
        if isinstance(condition, Comparison)
        else condition.args
    )
    return {ref.name for ref in refs if isinstance(ref, AttrRef)}


class _Rewriter:
    def __init__(self, ordered: bool) -> None:
        self._ordered = ordered
        self.log = _RewriteLog()

    # -- dispatch -----------------------------------------------------------

    def rewrite(self, node: PlanNode) -> PlanNode:
        if isinstance(node, Select):
            return self._select(node)
        if isinstance(node, Project):
            return self._project(node)
        if isinstance(node, Join):
            parts = tuple(self.rewrite(part) for part in node.parts)
            return Join(parts, node.attrs)
        if isinstance(node, AntiJoin):
            return AntiJoin(
                self.rewrite(node.left), self.rewrite(node.right), node.attrs
            )
        if isinstance(node, CrossPad):
            return CrossPad(self.rewrite(node.source), node.pad, node.attrs)
        if isinstance(node, IntervalJoin):
            return IntervalJoin(
                self.rewrite(node.source), node.var,
                node.lowers, node.uppers, node.attrs,
            )
        if isinstance(node, IntervalUnionScan):
            return IntervalUnionScan(
                self.rewrite(node.source), node.var,
                node.lowers, node.uppers, node.attrs,
            )
        if isinstance(node, UnionAll):
            parts = tuple(self.rewrite(part) for part in node.parts)
            return UnionAll(parts, node.attrs)
        if isinstance(node, RangeScan):
            lowers = tuple(self._rewrite_bound(bound) for bound in node.lowers)
            uppers = tuple(self._rewrite_bound(bound) for bound in node.uppers)
            return RangeScan(lowers, uppers, node.attrs)
        return node  # Scan, AdomScan, Literal: leaves

    def _rewrite_bound(self, bound: RangeBound) -> RangeBound:
        if isinstance(bound, AggBound):
            return AggBound(self.rewrite(bound.source), bound.kind, bound.inclusive)
        return bound

    # -- pad/filter interleaving and interval joins -------------------------

    def _select(self, node: Select) -> PlanNode:
        source = self.rewrite(node.source)
        conditions: List[Condition] = list(node.conditions)
        while isinstance(source, Select):
            conditions = list(source.conditions) + conditions
            source = source.source
        if isinstance(source, CrossPad):
            rewritten = self._interleave(
                source.source, list(source.pad), conditions
            )
        elif conditions:
            rewritten = Select(source, tuple(conditions), source.attrs)
        else:
            rewritten = source
        return _aligned(rewritten, node.attrs)

    def _interleave(
        self,
        source: PlanNode,
        pad: List[str],
        conditions: List[Condition],
    ) -> PlanNode:
        current = source
        pending = list(conditions)

        def attach_ready() -> None:
            nonlocal current, pending
            bound_attrs = set(current.attrs)
            ready = [c for c in pending if _condition_needs(c) <= bound_attrs]
            if not ready:
                return
            if pad:  # fired before the last pad column: genuinely interleaved
                self.log.interleaved += len(ready)
            pending = [c for c in pending if c not in ready]
            current = _fuse_select(current, tuple(ready))

        attach_ready()
        while pad:
            column = next_pad_column(
                set(current.attrs), pad, [_condition_needs(c) for c in pending]
            )
            pad.remove(column)
            bound_attrs = set(current.attrs) | {column}
            ready = [c for c in pending if _condition_needs(c) <= bound_attrs]
            pending = [c for c in pending if c not in ready]
            lowers, uppers, residual = self._extract_bounds(
                column, set(current.attrs), ready
            )
            if lowers or uppers:
                self.log.interval_joins += 1
                self.log.interleaved += len(ready) - len(residual)
                current = IntervalJoin(
                    current, column, tuple(lowers), tuple(uppers),
                    current.attrs + (column,),
                )
            else:
                current = CrossPad(current, (column,), current.attrs + (column,))
            if residual:
                if pad:
                    self.log.interleaved += len(residual)
                current = _fuse_select(current, tuple(residual))
        if pending:  # conditions whose attributes the plan never binds: keep
            current = _fuse_select(current, tuple(pending))
        return current

    def _extract_bounds(
        self,
        column: str,
        bound_attrs: Set[str],
        conditions: Sequence[Condition],
    ) -> Tuple[List[Bound], List[Bound], List[Condition]]:
        """Split conditions on ``column`` into interval bounds + residual."""
        lowers: List[Bound] = []
        uppers: List[Bound] = []
        residual: List[Condition] = []
        for condition in conditions:
            bound = None
            if (
                self._ordered
                and isinstance(condition, DomainCondition)
                and condition.predicate in OPTIMIZABLE_PREDICATES
                and len(condition.args) == 2
            ):
                bound = self._as_bound(column, bound_attrs, condition)
            if bound is None:
                residual.append(condition)
            else:
                side, ref, inclusive = bound
                (lowers if side == "lower" else uppers).append(
                    Bound(ref, inclusive)
                )
        return lowers, uppers, residual

    @staticmethod
    def _as_bound(
        column: str, bound_attrs: Set[str], condition: DomainCondition
    ) -> Optional[Tuple[str, "AttrRef | ConstRef", bool]]:
        left, right = condition.args
        column_left = isinstance(left, AttrRef) and left.name == column
        column_right = isinstance(right, AttrRef) and right.name == column
        if column_left == column_right:  # both sides or neither: not a bound
            return None
        other = right if column_left else left
        if isinstance(other, ConstRef):
            # Non-integer constants under an ordered comparison stay on the
            # pointwise path, which preserves its (coercion) error behaviour.
            if not isinstance(other.value, int):
                return None
        elif not (isinstance(other, AttrRef) and other.name in bound_attrs):
            return None
        # Normalise to (side, inclusive) with the pad column on the left.
        table = {
            "<": ("upper", False), "<=": ("upper", True),
            ">": ("lower", False), ">=": ("lower", True),
        }
        side, inclusive = table[condition.predicate]
        if not column_left:  # e.g. "y < x" is a lower bound on x
            side = "lower" if side == "upper" else "upper"
        if condition.negated:  # ¬(x < y) ⟺ x >= y on a total order
            side = "lower" if side == "upper" else "upper"
            inclusive = not inclusive
        return side, other, inclusive

    # -- projection rules ---------------------------------------------------

    def _project(self, node: Project) -> PlanNode:
        source = self.rewrite(node.source)
        attrs = node.attrs
        while isinstance(source, Project):  # collapse nested projections
            source = source.source
        if isinstance(source, CrossPad):
            source = self._eliminate_pads(source, attrs)
        if isinstance(source, IntervalJoin) and attrs == (source.var,):
            reduced = self._reduce_interval(source)
            if reduced is not None:
                return _aligned(reduced, attrs)
        if isinstance(source, Join):
            source = self._push_projection(source, attrs)
        return _aligned(source, attrs)

    def _eliminate_pads(self, pad: CrossPad, wanted: Tuple[str, ...]) -> PlanNode:
        """Drop pad columns the enclosing projection discards.

        Under set semantics an unprojected pad column only multiplies rows,
        so it can vanish — except that a pad over an *empty* active domain
        empties the result, which the all-dropped case preserves by joining
        with an explicit non-empty-adom check.
        """
        dropped = [column for column in pad.pad if column not in wanted]
        if not dropped:
            return pad
        self.log.pads_eliminated += len(dropped)
        kept = tuple(column for column in pad.pad if column in wanted)
        source = pad.source
        if kept:
            return CrossPad(source, kept, source.attrs + kept)
        witness = Project(AdomScan((dropped[0],)), ())
        return Join((source, witness), source.attrs)

    def _push_projection(self, join: Join, wanted: Tuple[str, ...]) -> PlanNode:
        """Project join parts early: attributes used by a single part and not
        in the output are dropped before the join instead of after it."""
        counts: Dict[str, int] = {}
        for part in join.parts:
            for attr in set(part.attrs):
                counts[attr] = counts.get(attr, 0) + 1
        needed = set(wanted) | {attr for attr, n in counts.items() if n > 1}
        new_parts: List[PlanNode] = []
        changed = False
        for part in join.parts:
            keep = tuple(attr for attr in part.attrs if attr in needed)
            if len(keep) < len(part.attrs):
                new_parts.append(self.rewrite(Project(part, keep)))
                changed = True
            else:
                new_parts.append(part)
        if not changed:
            return join
        self.log.projections_pushed += 1
        seen: List[str] = []
        for part in new_parts:
            for attr in part.attrs:
                if attr not in seen:
                    seen.append(attr)
        return Join(tuple(new_parts), tuple(seen))

    # -- range reduction ----------------------------------------------------

    def _reduce_interval(self, node: IntervalJoin) -> Optional[PlanNode]:
        """Eliminate the existential witness of a fully-projected interval join.

        ``Project_(x)(IntervalJoin(src, x, …))`` asks for the x with *some*
        witness row — a union of intervals.  When the witnesses decompose
        into independent components each contributing a single one-sided
        bound, the union collapses to one interval with aggregated (min/max)
        endpoints: a :class:`RangeScan`.  Components that resist reduction
        stay as smaller interval joins; bound-less components become
        non-emptiness checks.  Returns ``None`` when nothing reduces.
        """
        source = node.source
        if isinstance(source, Join) and _parts_disjoint(source.parts):
            components: Tuple[PlanNode, ...] = source.parts
        else:
            components = (source,)
        owner: Dict[str, int] = {}
        for index, component in enumerate(components):
            for attr in component.attrs:
                owner[attr] = index

        range_lowers: List[RangeBound] = []
        range_uppers: List[RangeBound] = []
        #: per-component attr bounds: (is_lower, ref, inclusive)
        component_bounds: Dict[int, List[Tuple[bool, AttrRef, bool]]] = {}
        for is_lower, bounds in ((True, node.lowers), (False, node.uppers)):
            for bound in bounds:
                if isinstance(bound.ref, ConstRef):
                    target = range_lowers if is_lower else range_uppers
                    target.append(bound)
                else:
                    index = owner[bound.ref.name]
                    component_bounds.setdefault(index, []).append(
                        (is_lower, bound.ref, bound.inclusive)
                    )

        factors: List[PlanNode] = []
        reduced_any = False
        reduced_union = False
        for index, component in enumerate(components):
            bounds = component_bounds.get(index)
            if bounds is None:
                if not _trivially_nonempty(component):
                    factors.append(Project(component, ()))
                continue
            if len(bounds) == 1:
                is_lower, ref, inclusive = bounds[0]
                aggregate = AggBound(
                    _aligned(component, (ref.name,)),
                    "min" if is_lower else "max",
                    inclusive,
                )
                (range_lowers if is_lower else range_uppers).append(aggregate)
                reduced_any = True
            else:
                # ≥2 bounds from one component: the per-row intervals are not
                # nested, so no aggregated min/max endpoint covers them — but
                # their *union* is still computable in O(n log n) by the
                # sorted interval-merge, which IntervalUnionScan performs
                # without materialising the per-row pairs first.
                lowers = tuple(
                    Bound(ref, inc) for is_low, ref, inc in bounds if is_low
                )
                uppers = tuple(
                    Bound(ref, inc) for is_low, ref, inc in bounds if not is_low
                )
                factors.append(
                    IntervalUnionScan(
                        component, node.var, lowers, uppers, (node.var,)
                    )
                )
                reduced_union = True
        if not reduced_any and not reduced_union and not (
            range_lowers or range_uppers
        ):
            return None
        if reduced_union:
            self.log.union_reductions += sum(
                1 for factor in factors if isinstance(factor, IntervalUnionScan)
            )
        if reduced_any or range_lowers or range_uppers:
            self.log.range_reductions += 1
            factors.insert(
                0,
                RangeScan(tuple(range_lowers), tuple(range_uppers), (node.var,)),
            )
        if len(factors) == 1:
            return factors[0]
        return Join(tuple(factors), (node.var,))


def _parts_disjoint(parts: Sequence[PlanNode]) -> bool:
    seen: Set[str] = set()
    for part in parts:
        attrs = set(part.attrs)
        if attrs & seen:
            return False
        seen |= attrs
    return True


def _trivially_nonempty(node: PlanNode) -> bool:
    return isinstance(node, Literal) and bool(node.rows)


def _fuse_select(node: PlanNode, conditions: Tuple[Condition, ...]) -> PlanNode:
    if not conditions:
        return node
    if isinstance(node, Select):
        return Select(node.source, node.conditions + conditions, node.attrs)
    return Select(node, conditions, node.attrs)
