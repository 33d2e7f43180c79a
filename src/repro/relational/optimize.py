"""The logical plan optimizer: algebra-IR rewrites between compile and run.

The compiler (:mod:`repro.relational.compile`) emits a *correct* plan; this
module makes it a *cheap* one.  Every rewrite preserves the plan's answer on
every state and every active domain — the optimizer is pure plan surgery, so
it runs once per compilation and its output is cached alongside the plan.

Two families of rewrites, applied bottom-up in one pass:

1. **interleaved pad/filter** — a ``Select`` over a multi-column ``CrossPad``
   is decomposed into per-column pads with each condition applied the moment
   its attributes are bound, so filters fire between pads instead of after
   the full ``|adom|^k`` product;
2. **projection pushdown** — a ``Project`` over a ``Join`` pushes into the
   parts (attributes used by only one part are dropped before the join), a
   ``Project`` over a ``CrossPad`` drops pad columns it does not keep
   (guarding the all-dropped case with a non-empty-adom check), and nested
   projections collapse.

The rewrites it performed are returned as human-readable notes, which
:meth:`repro.relational.compile.CompiledQuery.summary` (and therefore
``Plan.explain()``) surface for debuggability.

Doctest — a filter over a two-column pad fires after the first column, so
the second column pads only the rows that survive it:

>>> from repro.relational.exec import AttrRef, DomainCondition, Scan, plan_summary
>>> pad = CrossPad(Scan("S", ("y",), (), ("y",)), ("x", "w"), ("y", "x", "w"))
>>> naive = Select(pad, (DomainCondition("<", (AttrRef("y"), AttrRef("x"))),), pad.attrs)
>>> plan, notes = optimize_plan(naive)
>>> notes
('interleaved 1 condition(s) with adom pads',)
>>> plan_summary(plan)
'1 scan, 1 select, 2 adom-pads'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .exec import (
    AdomScan,
    AntiJoin,
    AttrRef,
    Comparison,
    Condition,
    CrossPad,
    Join,
    PlanNode,
    Project,
    Select,
    UnionAll,
)

__all__ = ["optimize_plan", "next_pad_column"]


@dataclass
class _RewriteLog:
    """Counters for the rewrites one :func:`optimize_plan` call performed."""

    interleaved: int = 0
    pads_eliminated: int = 0
    projections_pushed: int = 0

    def notes(self) -> Tuple[str, ...]:
        parts: List[str] = []
        if self.interleaved:
            parts.append(
                f"interleaved {self.interleaved} condition(s) with adom pads"
            )
        if self.pads_eliminated:
            parts.append(f"eliminated {self.pads_eliminated} adom pad column(s)")
        if self.projections_pushed:
            parts.append(
                f"pushed {self.projections_pushed} projection(s) into joins"
            )
        return tuple(parts)


def optimize_plan(plan: PlanNode) -> Tuple[PlanNode, Tuple[str, ...]]:
    """Rewrite ``plan`` into an answer-equivalent but cheaper plan.

    Returns the rewritten plan plus notes describing the rewrites performed
    (empty when nothing changed).
    """
    rewriter = _Rewriter()
    return rewriter.rewrite(plan), rewriter.log.notes()


def next_pad_column(
    bound_attrs: Set[str],
    candidates: Sequence[str],
    pending_needs: Sequence[Set[str]],
) -> str:
    """The pad column enabling the most pending conditions (ties by name).

    The shared ordering heuristic behind interleaved padding — the compiler's
    conjunction handler and the optimizer's pad normalisation both use it, so
    compiled and re-derived plans always pick the same pad order.
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
    def __init__(self) -> None:
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
        if isinstance(node, UnionAll):
            parts = tuple(self.rewrite(part) for part in node.parts)
            return UnionAll(parts, node.attrs)
        return node  # Scan, AdomScan, Literal: leaves

    # -- pad/filter interleaving --------------------------------------------

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
            current = CrossPad(current, (column,), current.attrs + (column,))
            attach_ready()
        if pending:  # conditions whose attributes the plan never binds: keep
            current = _fuse_select(current, tuple(pending))
        return current

    # -- projection rules ---------------------------------------------------

    def _project(self, node: Project) -> PlanNode:
        source = self.rewrite(node.source)
        attrs = node.attrs
        while isinstance(source, Project):  # collapse nested projections
            source = source.source
        if isinstance(source, CrossPad):
            source = self._eliminate_pads(source, attrs)
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


def _fuse_select(node: PlanNode, conditions: Tuple[Condition, ...]) -> PlanNode:
    if not conditions:
        return node
    if isinstance(node, Select):
        return Select(node.source, node.conditions + conditions, node.attrs)
    return Select(node, conditions, node.attrs)
