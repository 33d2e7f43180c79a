"""The domain ``(N, ')`` — unordered natural numbers with the successor function.

Section 2.2 of the paper uses this domain to make a technical point: a
recursive syntax for finite queries does not require a discrete order.  The
order is not definable from the successor alone, so the finitization trick of
Theorem 2.2 is unavailable; instead the paper follows Mal'cev's quantifier
elimination:

    "Observe that any formula is equivalent to a disjunction of the formulas
    of the form (∃x)Φ, or their negations, where Φ is a conjunction of
    formulas of the forms x = y⁽ⁿ⁾, x⁽ⁿ⁾ = y, x ≠ y⁽ⁿ⁾, x⁽ⁿ⁾ ≠ y."

The elimination step implemented here follows the paper exactly:

* if Φ contains inequalities only, ``(∃x)Φ`` reduces to the x-free residue
  (a fresh natural number avoiding finitely many excluded values always
  exists);
* if Φ contains an equality ``x = y⁽ⁿ⁾`` the quantifier is eliminated by
  substitution;
* if the equality is of the form ``x = y⁽⁻ⁿ⁾`` the substitution additionally
  introduces the conjunction ``y ≠ 0 ∧ ... ∧ y ≠ n-1``.

Two consequences proved in the paper are exposed programmatically: relative
safety is decidable (Theorem 2.6), and the constants introduced by the
elimination stay within distance ``2^q`` of the original constants, where
``q`` is the quantifier depth — which yields the *extended active domain*
effective syntax of Theorem 2.7 (see
:func:`extended_active_domain_elements`).

Relative safety (Theorem 2.6) is read off the quantifier-free form
(:meth:`SuccessorDomain.quantifier_free`): a satisfiable clause of its DNF
whose positive equalities anchor every free variable to a natural number
contributes exactly that one tuple, and any other satisfiable clause has
infinitely many solutions (:class:`SuccessorQuantifierFreeForm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple, cast

from ..logic.analysis import free_variables
from ..logic.builders import conj
from ..logic.formulas import (
    BOTTOM,
    TOP,
    Atom,
    Bottom,
    Equals,
    Formula,
    Not,
    Top,
)
from ..logic.terms import Apply, Const, Term, Var
from ..logic.transform import dnf_clauses, eliminate_quantifiers
from ..relational.state import Element
from .base import Domain, DomainError
from .signature import Signature

if TYPE_CHECKING:  # repro.engine imports the domains package
    from ..engine.budget import Deadline

__all__ = [
    "SuccessorDomain",
    "SuccessorQuantifierFreeForm",
    "SuccTerm",
    "parse_successor_term",
    "successor_term_to_logic",
    "eliminate_successor_quantifiers",
    "extended_active_domain_radius",
    "extended_active_domain_elements",
]


@dataclass(frozen=True)
class SuccTerm:
    """A normalised successor term: either ``n`` (a constant) or ``x⁽ⁿ⁾``.

    ``base`` is ``None`` for constants; ``shift`` is the constant value or the
    number of successor applications.  Shifts may be temporarily negative
    inside the elimination procedure and are rebalanced before emitting
    formulas.
    """

    base: Optional[str]
    shift: int

    def is_constant(self) -> bool:
        """True iff the term denotes a fixed natural number."""
        return self.base is None

    def shifted(self, offset: int) -> "SuccTerm":
        """The term with ``offset`` added to its shift."""
        return SuccTerm(self.base, self.shift + offset)


def parse_successor_term(term: Term) -> SuccTerm:
    """Normalise a logic term of the successor language."""
    if isinstance(term, Var):
        return SuccTerm(term.name, 0)
    if isinstance(term, Const):
        if not isinstance(term.value, int) or term.value < 0:
            raise DomainError(f"constant {term.value!r} is not a natural number")
        return SuccTerm(None, term.value)
    if isinstance(term, Apply):
        if term.function == "succ" and len(term.args) == 1:
            inner = parse_successor_term(term.args[0])
            return inner.shifted(1)
        raise DomainError(f"function {term.function!r} is not in the successor signature")
    raise TypeError(f"not a term: {term!r}")


def successor_term_to_logic(term: SuccTerm) -> Term:
    """Convert a normalised successor term back to the logic AST."""
    if term.base is None:
        if term.shift < 0:
            raise DomainError("negative constant cannot be expressed in (N, ')")
        return Const(term.shift)
    result: Term = Var(term.base)
    if term.shift < 0:
        raise DomainError("negative shift must be rebalanced before conversion")
    for _ in range(term.shift):
        result = Apply("succ", (result,))
    return result


def _rebalance(left: SuccTerm, right: SuccTerm) -> Optional[Tuple[SuccTerm, SuccTerm]]:
    """Shift both sides of an equality so that no shift is negative.

    Returns ``None`` if the literal is unsatisfiable for trivial reasons (a
    constant would have to be negative).
    """
    offset = 0
    if left.base is not None and left.shift < 0:
        offset = max(offset, -left.shift)
    if right.base is not None and right.shift < 0:
        offset = max(offset, -right.shift)
    left = left.shifted(offset)
    right = right.shifted(offset)
    # Constants may now be negative only if they started negative, which is
    # impossible for well-formed inputs; a negative constant paired with a
    # variable term means the equality can still be rebalanced further.
    extra = 0
    if left.base is None and left.shift < 0:
        extra = max(extra, -left.shift)
    if right.base is None and right.shift < 0:
        extra = max(extra, -right.shift)
    if extra:
        left = left.shifted(extra)
        right = right.shifted(extra)
    if (left.base is None and left.shift < 0) or (right.base is None and right.shift < 0):
        return None
    return left, right


@dataclass(frozen=True)
class _Literal:
    """An (in)equality between normalised successor terms."""

    left: SuccTerm
    right: SuccTerm
    positive: bool

    def mentions(self, var: str) -> bool:
        return self.left.base == var or self.right.base == var

    def to_formula(self) -> Formula:
        rebalanced = _rebalance(self.left, self.right)
        if rebalanced is None:
            return BOTTOM if self.positive else TOP
        left, right = rebalanced
        equality = Equals(successor_term_to_logic(left), successor_term_to_logic(right))
        return equality if self.positive else Not(equality)


def _literal_truth(literal: _Literal) -> Optional[bool]:
    """The truth value of a literal that can be decided syntactically."""
    left, right = literal.left, literal.right
    if left.base is not None and left.base == right.base:
        value = left.shift == right.shift
        return value if literal.positive else not value
    if left.base is None and right.base is None:
        value = left.shift == right.shift
        return value if literal.positive else not value
    return None


def _parse_literal(formula: Formula) -> _Literal:
    if isinstance(formula, Equals):
        return _Literal(
            parse_successor_term(formula.left), parse_successor_term(formula.right), True
        )
    if isinstance(formula, Not) and isinstance(formula.body, Equals):
        return _Literal(
            parse_successor_term(formula.body.left),
            parse_successor_term(formula.body.right),
            False,
        )
    if isinstance(formula, Atom):
        raise DomainError(
            f"predicate {formula.predicate!r} is not in the successor signature"
        )
    raise DomainError(f"unexpected literal in successor formula: {formula!r}")


def _substitute_literal(literal: _Literal, var: str, replacement: SuccTerm) -> _Literal:
    def sub(term: SuccTerm) -> SuccTerm:
        if term.base == var:
            return replacement.shifted(term.shift)
        return term

    return _Literal(sub(literal.left), sub(literal.right), literal.positive)


def _eliminate_exists_clause(var: str, literals: Sequence[Formula]) -> Formula:
    """Eliminate ``exists var`` from a conjunction of successor literals."""
    parsed: List[_Literal] = []
    for raw in literals:
        if isinstance(raw, Top):
            continue
        if isinstance(raw, Bottom):
            return BOTTOM
        parsed.append(_parse_literal(raw))

    # Resolve literals that are decidable outright (x = x, 3 = 5, ...).
    remaining: List[_Literal] = []
    for literal in parsed:
        truth = _literal_truth(literal)
        if truth is True:
            continue
        if truth is False:
            return BOTTOM
        remaining.append(literal)

    with_var = [lit for lit in remaining if lit.mentions(var)]
    without_var = [lit for lit in remaining if not lit.mentions(var)]
    residual = conj(*(lit.to_formula() for lit in without_var))

    equality = next((lit for lit in with_var if lit.positive), None)
    if equality is None:
        # Inequalities only: a natural number avoiding finitely many excluded
        # values always exists, so the quantifier disappears.
        return residual

    # Orient the equality as  var⁽ᵃ⁾ = t  with t free of var.
    if equality.left.base == var:
        var_side, other = equality.left, equality.right
    else:
        var_side, other = equality.right, equality.left
    if other.base == var:
        raise AssertionError("trivial equalities were resolved above")

    # var = other shifted by -var_side.shift  (possibly a "negative successor").
    replacement = other.shifted(-var_side.shift)
    guards: List[Formula] = []
    if replacement.base is None:
        if replacement.shift < 0:
            return BOTTOM
    elif replacement.shift < 0:
        # x = y⁽⁻ⁿ⁾ requires y ≥ n:  y ≠ 0 ∧ ... ∧ y ≠ n-1  (the paper's extra conjunction).
        for value in range(-replacement.shift):
            guards.append(Not(Equals(Var(replacement.base), Const(value))))

    substituted = [
        _substitute_literal(lit, var, replacement)
        for lit in with_var
        if lit is not equality
    ]
    pieces: List[Formula] = guards
    for literal in substituted:
        truth = _literal_truth(literal)
        if truth is True:
            continue
        if truth is False:
            return BOTTOM
        pieces.append(literal.to_formula())
    return conj(residual, *pieces)


def eliminate_successor_quantifiers(
    formula: Formula, deadline: Optional["Deadline"] = None
) -> Formula:
    """Quantifier elimination for ``(N, ')`` following Section 2.2; a
    ``deadline`` is checked once per eliminated quantifier."""
    return eliminate_quantifiers(formula, _eliminate_exists_clause, deadline)


@dataclass
class _OffsetUnionFind:
    """Union-find over variables with integer offsets: ``x = y + offset``."""

    parent: Dict[str, str]
    offset: Dict[str, int]  # value(x) = value(find(x)) + offset[x]
    anchor: Dict[str, Optional[int]]  # concrete value of a root, if known

    @classmethod
    def empty(cls) -> "_OffsetUnionFind":
        return cls({}, {}, {})

    def add(self, item: str) -> None:
        if item not in self.parent:
            self.parent[item] = item
            self.offset[item] = 0
            self.anchor[item] = None

    def find(self, item: str) -> Tuple[str, int]:
        self.add(item)
        if self.parent[item] == item:
            return item, 0
        root, above = self.find(self.parent[item])
        self.parent[item] = root
        self.offset[item] += above
        return root, self.offset[item]

    def union(self, left: str, right: str, delta: int) -> bool:
        """Record ``value(left) = value(right) + delta``; False on contradiction."""
        lroot, loff = self.find(left)
        rroot, roff = self.find(right)
        if lroot == rroot:
            return loff == roff + delta
        # value(lroot) = value(rroot) + (roff + delta - loff)
        self.parent[lroot] = rroot
        self.offset[lroot] = roff + delta - loff
        left_anchor = self.anchor.pop(lroot)
        if left_anchor is not None:
            return self.anchor_value(lroot, left_anchor)
        return True

    def anchor_value(self, item: str, value: int) -> bool:
        """Record ``value(item) = value``; False on contradiction or negativity."""
        root, off = self.find(item)
        root_value = value - off
        if root_value < 0:
            return False
        existing = self.anchor.get(root)
        if existing is None:
            self.anchor[root] = root_value
            return True
        return existing == root_value

    def value_of(self, item: str) -> Optional[int]:
        root, off = self.find(item)
        base = self.anchor.get(root)
        if base is None:
            return None
        return base + off

    def equate(self, left: SuccTerm, right: SuccTerm) -> bool:
        """Record ``left = right``; False on contradiction."""
        if left.base is None:
            if right.base is None:
                return left.shift == right.shift
            return self.anchor_value(right.base, left.shift - right.shift)
        if right.base is None:
            return self.anchor_value(left.base, right.shift - left.shift)
        return self.union(left.base, right.base, right.shift - left.shift)

    def term_value(self, term: SuccTerm) -> Optional[int]:
        """The value of ``term``, if the recorded equalities fix it."""
        if term.base is None:
            return term.shift
        value = self.value_of(term.base)
        return None if value is None else value + term.shift

    def forces_equal(self, left: SuccTerm, right: SuccTerm) -> bool:
        """True iff the recorded equalities force ``left = right``."""
        lvalue, rvalue = self.term_value(left), self.term_value(right)
        if lvalue is not None and rvalue is not None:
            return lvalue == rvalue
        if left.base is None or right.base is None:
            return False
        (lroot, loff), (rroot, roff) = self.find(left.base), self.find(right.base)
        return lroot == rroot and loff + left.shift == roff + right.shift


def _solve_clause(
    clause: Sequence[Formula], variables: Sequence[str]
) -> Optional[Tuple[Optional[int], ...]]:
    """The value each of ``variables`` is anchored to in a DNF clause
    (``None`` where it is free), or ``None`` if the clause is unsatisfiable.

    The positive equalities form a union-find with offsets.  A negative
    literal excludes a solution only when the equalities force its two sides
    equal; otherwise the negatives exclude finitely many values of the free
    components, which can be chosen large and far apart.
    """
    union_find = _OffsetUnionFind.empty()
    negatives: List[Tuple[SuccTerm, SuccTerm]] = []
    for literal in clause:
        positive = not isinstance(literal, Not)
        body = literal.body if isinstance(literal, Not) else literal
        if isinstance(body, (Top, Bottom)):
            if isinstance(body, Top) != positive:
                return None
            continue
        if not isinstance(body, Equals):
            raise ValueError(f"unexpected literal in successor clause: {literal!r}")
        left, right = parse_successor_term(body.left), parse_successor_term(body.right)
        if not positive:
            negatives.append((left, right))
        elif not union_find.equate(left, right):
            return None
    # Over N a variable anchored below zero has no value at all.
    if any((union_find.value_of(v) or 0) < 0 for v in list(union_find.parent)):
        return None
    if any(union_find.forces_equal(left, right) for left, right in negatives):
        return None
    return tuple(union_find.value_of(v) for v in variables)


@dataclass(frozen=True)
class SuccessorQuantifierFreeForm:
    """ψ(x̄): a formula's quantifier-free form over ``(N, ')`` with the
    solution of every satisfiable DNF clause.

    ``solutions`` holds, per satisfiable clause, the value its equalities
    anchor each column to (``None`` for a free column).  ψ is finite iff
    every solution anchors every column (Theorem 2.6); its rows are then
    the anchored tuples.

    >>> from repro.experiments.corpora import numeric_state, successor_query_corpus
    >>> from repro.relational.translate import expand_database_atoms
    >>> query = dict((n, q) for n, q, _ in successor_query_corpus())["successor-of-member"]
    >>> psi = SuccessorDomain().quantifier_free(
    ...     expand_database_atoms(query, numeric_state([3, 5])))
    >>> psi.finite(), sorted(psi.rows())
    (True, [(4,), (6,)])
    """

    body: Formula
    variables: Tuple[str, ...]
    solutions: Tuple[Tuple[Optional[int], ...], ...]

    def finite(self) -> bool:
        """True iff ψ has finitely many rows."""
        return all(None not in solution for solution in self.solutions)

    def rows(self, deadline: Optional["Deadline"] = None) -> Iterator[Tuple[int, ...]]:
        """Every row of a finite ψ (``ValueError`` if it is infinite);
        ``deadline`` is checked once per row."""
        if not self.finite():
            raise ValueError("a clause leaves a column free: the rows are infinite")
        for row in dict.fromkeys(self.solutions):
            if deadline is not None:
                deadline.check("quantifier-free read-off")
            yield cast(Tuple[int, ...], row)


def extended_active_domain_radius(quantifier_depth: int) -> int:
    """The radius ``2^q`` of Section 2.2's extended active domain."""
    if quantifier_depth < 0:
        raise ValueError("quantifier depth must be non-negative")
    return 2 ** quantifier_depth


def extended_active_domain_elements(
    elements: Sequence[int], quantifier_depth: int
) -> Set[int]:
    """The active-domain elements plus everything within distance ``2^q`` of them (and of 0)."""
    radius = extended_active_domain_radius(quantifier_depth)
    extended: Set[int] = set()
    anchors = set(int(e) for e in elements) | {0}
    for anchor in anchors:
        for offset in range(-radius, radius + 1):
            value = anchor + offset
            if value >= 0:
                extended.add(value)
    return extended


class SuccessorDomain(Domain):
    """The natural numbers with the successor function and equality only."""

    name = "naturals_with_successor"
    signature = Signature(predicates={}, functions={"succ": 1})
    has_decidable_theory = True

    # -- carrier -------------------------------------------------------------

    def contains(self, element: Element) -> bool:
        return isinstance(element, int) and not isinstance(element, bool) and element >= 0

    def enumerate_elements(self) -> Iterator[int]:
        value = 0
        while True:
            yield value
            value += 1

    # -- evaluation ----------------------------------------------------------

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        if name == "succ":
            return int(args[0]) + 1
        raise KeyError(f"unknown successor-domain function {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        raise KeyError(f"the successor domain has no predicate {name!r}")

    # -- decision procedure ---------------------------------------------------

    def eliminate_quantifiers(self, formula: Formula) -> Formula:
        """The Section 2.2 quantifier elimination."""
        return eliminate_successor_quantifiers(formula)

    def quantifier_free(
        self,
        formula: Formula,
        free_order: Optional[Sequence[Var]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> SuccessorQuantifierFreeForm:
        """ψ: the Section 2.2 quantifier-free form of a pure ``formula``,
        solved clause by clause.

        Its columns are ``free_order`` (default: the free variables by
        name).  A ``deadline`` is checked once per eliminated quantifier.
        """
        if free_order is None:
            free_order = sorted(free_variables(formula), key=lambda v: v.name)
        variables = tuple(v.name for v in free_order)
        body = eliminate_successor_quantifiers(formula, deadline)
        solutions = (_solve_clause(clause, variables) for clause in dnf_clauses(body))
        return SuccessorQuantifierFreeForm(
            body, variables, tuple(s for s in solutions if s is not None)
        )

    def decide(self, sentence: Formula) -> bool:
        """Decide a pure successor sentence by elimination plus ground evaluation."""
        self._require_sentence(sentence)
        eliminated = eliminate_successor_quantifiers(sentence)
        return self._evaluate_ground(eliminated)

    def _evaluate_ground(self, formula: Formula) -> bool:
        from ..relational.calculus import evaluate_formula

        return evaluate_formula(formula, universe=(), assignment={}, interpretation=self)
