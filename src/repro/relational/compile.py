"""Compilation of relational-calculus queries into executable algebra plans.

This is the set-level reading of the paper's Section 1.1 query-answering
story: a safe calculus query is not a recipe for testing candidate tuples one
at a time but a finite relational object, and it can be *computed* as one.
The compiler turns a formula into the operator IR of
:mod:`repro.relational.exec` under **active-domain semantics** — the same
semantics as :func:`repro.relational.calculus.evaluate_query_active_domain`,
so for guard-certified (finite, domain-independent) queries the compiled
answer is exact:

* database atoms become fused scans (constant and repeated-variable filters
  applied in the same pass);
* conjunctions become n-ary hash joins, with equality and domain-predicate
  conjuncts pushed down onto the deepest operator that binds them;
* negated conjuncts become antijoins, and bare negation becomes set
  difference against an active-domain power;
* existentials become projections, universals the classical ``¬∃¬`` double
  difference, and disjunctions unions padded to a common attribute list.

Compilation is deliberately partial: formulas using domain *function*
symbols (e.g. ``succ(x)``) or unknown predicates raise
:class:`CompilationError`, and callers fall back to the tree-walking
evaluator.  A :class:`CompiledQuery` is immutable and state-independent
(the active domain is resolved at execution time), which is what makes it
cacheable across repeated queries.

Two invariants tie the compiler to every executor that consumes its plans
(the set-at-a-time interpreter in :mod:`repro.relational.exec` and the
vectorized columnar executor in :mod:`repro.relational.columnar`):

* **set semantics** — a plan node denotes a *set* of rows over its ``attrs``;
  operators may not let duplicates change answers;
* **active-domain closure** — plans reference the active domain only
  symbolically (``AdomScan``, ``CrossPad``), and every element an execution
  can produce comes from the state, the query's constants, or the explicitly
  supplied extra elements; nothing escapes that universe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar,
)

from ..logic.analysis import free_variables, functions_of
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
    walk_formulas,
)
from ..logic.substitution import rename_bound_variables
from ..logic.terms import Const, Term, Var
from .active_domain import active_domain_of_query
from .exec import (
    AdomScan,
    AntiJoin,
    AttrRef,
    Comparison,
    Condition,
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
    plan_summary,
    run_plan,
)
from .schema import DatabaseSchema
from .state import DatabaseState, Element, Relation

__all__ = ["CompilationError", "CompiledQuery", "compile_query"]

_UNIT = Literal((), ((),))

_Fact = TypeVar("_Fact")


class CompilationError(ValueError):
    """Raised when a query has no algebra translation; callers fall back."""


@dataclass(frozen=True)
class CompiledQuery:
    """An executable algebra plan for one formula over one schema.

    >>> from repro.domains.equality import EqualityDomain
    >>> from repro.experiments.corpora import family_schema
    >>> from repro.logic.parser import parse_formula
    >>> from repro.relational.state import DatabaseState
    >>> grandfather = parse_formula("exists y. (F(x, y) & F(y, z))")
    >>> compiled = compile_query(grandfather, family_schema(), EqualityDomain())
    >>> state = DatabaseState(family_schema(), {"F": [(0, 1), (1, 2)]})
    >>> sorted(compiled.execute(state, EqualityDomain()))
    [(0, 2)]
    """

    formula: Formula
    #: output attribute order: the free variables, sorted by name (the same
    #: column order the tree-walking evaluator uses)
    output: Tuple[str, ...]
    plan: PlanNode

    @property
    def constants(self) -> FrozenSet[Element]:
        """The query's constants, which the active domain holds in every
        state (memoised: the formula never changes)."""
        cached = self.__dict__.get("_constants")
        if cached is None:
            cached = active_domain_of_query(self.formula)
            object.__setattr__(self, "_constants", cached)
        return cached

    def fact(self, of_plan: Callable[[PlanNode], _Fact]) -> _Fact:
        """``of_plan(self.plan)``, computed once per compiled query: the plan
        never changes, so neither does a fact read off it alone (its
        operator census, its vectorization obstacle, its constants).  A
        cached query is executed many times; its facts are derived once.

        >>> from repro.domains.equality import EqualityDomain
        >>> from repro.experiments.corpora import family_schema
        >>> from repro.logic.parser import parse_formula
        >>> compiled = compile_query(parse_formula("F(x, y)"), family_schema(),
        ...                          EqualityDomain())
        >>> compiled.fact(plan_summary), compiled.summary()
        ('1 scan', '1 scan')
        """
        facts = self.__dict__.setdefault("_facts", {})
        try:
            return facts[of_plan]
        except KeyError:
            value = facts[of_plan] = of_plan(self.plan)
            return value

    def universe(
        self, state: DatabaseState, extra_elements: Iterable[Element] = ()
    ) -> FrozenSet[Element]:
        """The explicit active domain the plan quantifies over in ``state``:
        stored elements + query constants + ``extra_elements``, as a set —
        every execution substrate treats it as one, and its results are
        sets of rows, so no order is imposed.  The set executor reads it;
        the vectorized rung takes only the elements outside the state
        (:attr:`constants` and the extras) and encodes the stored ones once
        per state."""
        return state.elements() | self.constants | frozenset(extra_elements)

    def execute(
        self,
        state: DatabaseState,
        domain,
        extra_elements: Iterable[Element] = (),
        *,
        stats=None,
        deadline=None,
    ) -> Relation:
        """Run the plan under active-domain semantics in ``state``.

        ``stats`` and ``deadline`` are forwarded to the set executor's
        :func:`~repro.relational.exec.run_plan` (cooperative checkpoints run
        between operators when a deadline is given).
        """
        rows = run_plan(
            self.plan, state, self.universe(state, extra_elements), domain,
            stats, deadline,
        )
        return Relation(len(self.output), rows)

    def summary(self) -> str:
        """A compact census of the plan's operators (a :meth:`fact`)."""
        return self.fact(plan_summary)


def compile_query(
    formula: Formula,
    schema: DatabaseSchema,
    domain,
) -> CompiledQuery:
    """Compile ``formula`` into an algebra plan over ``schema``.

    ``domain`` supplies the predicate signature (checked at compile time) and
    the evaluation of domain atoms (at run time).  Raises
    :class:`CompilationError` when the formula uses function symbols or
    predicates that are neither database relations nor domain predicates.

    The emitted plan is final: conditions fire between one-column pads as
    soon as their attributes are bound, and every projection is simplified
    as it is built (see :func:`_align`), so no rewrite pass follows.

    >>> from repro.domains.equality import EqualityDomain
    >>> from repro.experiments.corpora import family_schema
    >>> from repro.logic.parser import parse_formula
    >>> grandfather = parse_formula("exists y. (F(x, y) & F(y, z))")
    >>> compiled = compile_query(grandfather, family_schema(), EqualityDomain())
    >>> compiled.output
    ('x', 'z')
    >>> compiled.summary()
    '2 scans, 1 project, 1 join'
    """
    functions = sorted(functions_of(formula))
    if functions:
        raise CompilationError(
            f"function symbol(s) {', '.join(map(repr, functions))} have no "
            "algebra translation; only relational atoms compile"
        )
    signature = getattr(domain, "signature", None)
    for sub in walk_formulas(formula):
        if isinstance(sub, Atom) and sub.predicate not in schema:
            if signature is None or not signature.has_predicate(sub.predicate):
                raise CompilationError(
                    f"predicate {sub.predicate!r} is neither a database "
                    "relation nor a domain predicate"
                )
    compiler = _Compiler(schema)
    root = compiler.compile(rename_bound_variables(formula))
    output = tuple(sorted(v.name for v in free_variables(formula)))
    return CompiledQuery(formula, output, _align(root, output))


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def _fv(formula: Formula) -> Set[str]:
    return {v.name for v in free_variables(formula)}


def _align(node: PlanNode, attrs: Sequence[str]) -> PlanNode:
    """``node`` projected onto ``attrs``, simplified as it is built.

    Under set semantics a column nobody reads only multiplies rows, so:
    a ``Project`` over a ``Project`` collapses; projected-away pad columns
    are dropped (a pad with none left becomes the non-empty-adom witness);
    and a join part holding an attribute that neither the output nor
    another part needs is projected before the join.  Pushing into the
    parts recurses, so nested pads shrink too.
    """
    attrs = tuple(attrs)
    if node.attrs == attrs:
        return node
    while isinstance(node, Project):
        node = node.source
    if isinstance(node, CrossPad):
        dropped = [column for column in node.pad if column not in attrs]
        kept = tuple(column for column in node.pad if column in attrs)
        if not kept:
            node = _witnessed(node.source, dropped[0])
        elif dropped:
            node = CrossPad(node.source, kept, node.source.attrs + kept)
    if isinstance(node, Join):
        counts = Counter(attr for part in node.parts for attr in set(part.attrs))
        needed = set(attrs) | {attr for attr, n in counts.items() if n > 1}
        parts = tuple(
            _align(part, [attr for attr in part.attrs if attr in needed])
            for part in node.parts
        )
        if any(new is not old for new, old in zip(parts, node.parts)):
            node = Join(parts, _union_attrs(parts))
    return node if node.attrs == attrs else Project(node, attrs)


def _witnessed(node: PlanNode, var: str) -> PlanNode:
    """``node`` guarded by a witness for ``var``: under active-domain
    semantics a quantifier over an empty universe is false."""
    return Join((node, Project(AdomScan((var,)), ())), node.attrs)


def _union_attrs(parts: Sequence[PlanNode]) -> Tuple[str, ...]:
    """The parts' attributes in first-seen order."""
    return tuple(dict.fromkeys(attr for part in parts for attr in part.attrs))


def _next_pad_column(
    bound_attrs: Set[str],
    candidates: Sequence[str],
    pending_needs: Sequence[Set[str]],
) -> str:
    """The pad column enabling the most pending conditions (ties by name)."""

    def enabled(column: str) -> int:
        with_column = bound_attrs | {column}
        return sum(1 for needed in pending_needs if needed <= with_column)

    return min(candidates, key=lambda column: (-enabled(column), column))


def _term_ref(term: Term) -> ValueRef:
    if isinstance(term, Var):
        return AttrRef(term.name)
    if isinstance(term, Const):
        return ConstRef(term.value)
    raise CompilationError(f"term {term!r} has no algebra translation")


class _Compiler:
    def __init__(self, schema: DatabaseSchema) -> None:
        self._schema = schema

    def compile(self, formula: Formula) -> PlanNode:
        """A plan whose attribute set is exactly the formula's free variables."""
        if isinstance(formula, And):
            return self._conjunction(_flatten_and(formula))
        if isinstance(formula, Or):
            return self._disjunction(formula)
        if isinstance(formula, Exists):
            return self._exists(formula)
        if isinstance(formula, ForAll):
            return self.compile(Not(Exists(formula.var, Not(formula.body))))
        if isinstance(formula, Implies):
            return self.compile(Or((Not(formula.antecedent), formula.consequent)))
        if isinstance(formula, Iff):
            return self.compile(Or((
                And((formula.left, formula.right)),
                And((Not(formula.left), Not(formula.right))),
            )))
        return self._conjunction([formula])

    # -- quantifiers and disjunction ----------------------------------------

    def _exists(self, formula: Exists) -> PlanNode:
        inner = self.compile(formula.body)
        if formula.var in inner.attrs:
            return _align(inner, [a for a in inner.attrs if a != formula.var])
        return _witnessed(inner, formula.var)

    def _disjunction(self, formula: Or) -> PlanNode:
        target = tuple(sorted(_fv(formula)))
        parts = []
        for disjunct in formula.disjuncts:
            node = self.compile(disjunct)
            missing = tuple(a for a in target if a not in node.attrs)
            if missing:
                node = CrossPad(node, missing, node.attrs + missing)
            parts.append(_align(node, target))
        return UnionAll(tuple(parts), target)

    # -- conjunctions (the workhorse) ---------------------------------------

    def _conjunction(self, conjuncts: Sequence[Formula]) -> PlanNode:
        generators: List[PlanNode] = []
        #: (condition, attribute names it needs bound)
        deferred: List[Tuple[Condition, Set[str]]] = []
        #: plans for negated conjuncts, applied as antijoins
        antijoins: List[PlanNode] = []
        #: variables that must range over the active domain (e.g. from x = x)
        required: Set[str] = set()
        #: positive var = const equations, turned into literal generators when
        #: nothing else binds the variable
        anchors: List[Tuple[str, Element]] = []

        for conjunct in conjuncts:
            self._gather(conjunct, generators, deferred, antijoins, required, anchors)

        bound: Set[str] = set()
        for generator in generators:
            bound |= set(generator.attrs)
        for name, value in anchors:
            if name in bound:
                deferred.append((Comparison(AttrRef(name), ConstRef(value)), {name}))
            else:
                generators.append(Literal((name,), ((value,),)))
                bound.add(name)

        # Selection pushdown: attach each condition to the first generator
        # that already binds everything it needs.
        leftover: List[Tuple[Condition, Set[str]]] = []
        for condition, needed in deferred:
            for index, generator in enumerate(generators):
                if needed <= set(generator.attrs):
                    generators[index] = _fuse_select(generator, condition)
                    break
            else:
                leftover.append((condition, needed))

        if not generators:
            current: PlanNode = _UNIT
        elif len(generators) == 1:
            current = generators[0]
        else:
            current = Join(tuple(generators), _union_attrs(generators))

        missing: Set[str] = set(required)
        for _, needed in leftover:
            missing |= needed
        for negated in antijoins:
            missing |= set(negated.attrs)
        missing -= set(current.attrs)

        # Interleaved pad/filter: instead of one CrossPad over every missing
        # variable followed by one big Select, pad one column at a time and
        # fire each remaining condition the moment its attributes are bound,
        # so filters cut the row set between pads rather than after the full
        # |adom|^k product.
        pending = list(leftover)

        def attach_ready() -> None:
            nonlocal current, pending
            bound = set(current.attrs)
            ready = [c for c, needed in pending if needed <= bound]
            if ready:
                current = _fuse_conditions(current, tuple(ready))
                pending = [(c, n) for c, n in pending if c not in ready]

        attach_ready()
        while missing:
            column = _next_pad_column(
                set(current.attrs),
                sorted(missing),
                [needed for _, needed in pending],
            )
            missing.remove(column)
            current = CrossPad(current, (column,), current.attrs + (column,))
            attach_ready()
        if pending:  # unreachable by construction, but keep plans total
            current = _fuse_conditions(
                current, tuple(condition for condition, _ in pending)
            )
        for negated in antijoins:
            current = AntiJoin(current, negated, current.attrs)
        return current

    def _gather(
        self,
        conjunct: Formula,
        generators: List[PlanNode],
        deferred: List[Tuple[Condition, Set[str]]],
        antijoins: List[PlanNode],
        required: Set[str],
        anchors: List[Tuple[str, Element]],
    ) -> None:
        if isinstance(conjunct, Top):
            return
        if isinstance(conjunct, Bottom):
            generators.append(Literal((), ()))
            return
        if isinstance(conjunct, Equals):
            self._gather_equality(conjunct, False, generators, deferred, required, anchors)
            return
        if isinstance(conjunct, Atom):
            if conjunct.predicate in self._schema:
                generators.append(self._scan(conjunct))
            else:
                condition = DomainCondition(
                    conjunct.predicate, tuple(_term_ref(a) for a in conjunct.args)
                )
                deferred.append((condition, _fv(conjunct)))
            return
        if isinstance(conjunct, Not):
            body = conjunct.body
            if isinstance(body, Equals):
                self._gather_equality(body, True, generators, deferred, required, anchors)
                return
            if isinstance(body, Atom) and body.predicate not in self._schema:
                condition = DomainCondition(
                    body.predicate,
                    tuple(_term_ref(a) for a in body.args),
                    negated=True,
                )
                deferred.append((condition, _fv(body)))
                return
            if isinstance(body, Top):
                generators.append(Literal((), ()))
                return
            if isinstance(body, Bottom):
                return
            antijoins.append(self.compile(body))
            return
        # Compound conjunct (quantifier, disjunction, ...): compile standalone.
        generators.append(self.compile(conjunct))

    def _gather_equality(
        self,
        equality: Equals,
        negated: bool,
        generators: List[PlanNode],
        deferred: List[Tuple[Condition, Set[str]]],
        required: Set[str],
        anchors: List[Tuple[str, Element]],
    ) -> None:
        left, right = equality.left, equality.right
        if isinstance(left, Const) and isinstance(right, Const):
            holds = (left.value == right.value) != negated
            if not holds:
                generators.append(Literal((), ()))
            return
        if isinstance(left, Const):
            left, right = right, left
        if isinstance(right, Const):
            if not isinstance(left, Var):
                raise CompilationError(f"term {left!r} has no algebra translation")
            if negated:
                deferred.append(
                    (Comparison(AttrRef(left.name), ConstRef(right.value), True),
                     {left.name}),
                )
            else:
                anchors.append((left.name, right.value))
            return
        if not (isinstance(left, Var) and isinstance(right, Var)):
            raise CompilationError(
                f"equality over {left!r} and {right!r} has no algebra translation"
            )
        if left.name == right.name:
            if negated:
                generators.append(Literal((left.name,), ()))
            else:
                required.add(left.name)
            return
        deferred.append(
            (Comparison(AttrRef(left.name), AttrRef(right.name), negated),
             {left.name, right.name}),
        )

    def _scan(self, atom: Atom) -> PlanNode:
        relation = self._schema.relation(atom.predicate)
        if len(atom.args) != relation.arity:
            # The stored relation holds no rows of this arity, so the atom is
            # unsatisfiable — mirror the evaluator, which answers False.
            names: List[str] = []
            for arg in atom.args:
                if isinstance(arg, Var) and arg.name not in names:
                    names.append(arg.name)
            return Literal(tuple(names), ())
        columns: List[Optional[str]] = []
        constants: List[Tuple[int, Element]] = []
        attrs: List[str] = []
        for index, arg in enumerate(atom.args):
            if isinstance(arg, Var):
                columns.append(arg.name)
                if arg.name not in attrs:
                    attrs.append(arg.name)
            elif isinstance(arg, Const):
                columns.append(None)
                constants.append((index, arg.value))
            else:
                raise CompilationError(f"term {arg!r} has no algebra translation")
        return Scan(atom.predicate, tuple(columns), tuple(constants), tuple(attrs))


def _fuse_select(node: PlanNode, condition: Condition) -> PlanNode:
    if isinstance(node, Select):
        return Select(node.source, node.conditions + (condition,), node.attrs)
    return Select(node, (condition,), node.attrs)


def _fuse_conditions(node: PlanNode, conditions: Tuple[Condition, ...]) -> PlanNode:
    for condition in conditions:
        node = _fuse_select(node, condition)
    return node


def _flatten_and(formula: And) -> List[Formula]:
    conjuncts: List[Formula] = []
    for conjunct in formula.conjuncts:
        if isinstance(conjunct, And):
            conjuncts.extend(_flatten_and(conjunct))
        else:
            conjuncts.append(conjunct)
    return conjuncts
