"""The dense linear order ``(Q, <)`` of ordered rationals.

The paper's decidability results are stated for *any* domain with a decidable
theory; the ordered rationals are the classical contrast case to ``(N, <)``
from Section 2.1.  Density changes the safety landscape completely: "strictly
between two members" is finite over ``(N, <)`` but infinite over ``(Q, <)``,
and boundedness alone no longer certifies finiteness — a bounded open
interval still holds infinitely many rationals.  The matching safety decider
(:class:`repro.safety.relative_safety.DenseOrderRelativeSafety`) therefore
checks both boundedness *and* the absence of a full open interval in every
one-dimensional projection.

Decision procedure
------------------
The theory of dense linear orders without endpoints admits quantifier
elimination; the implementation uses the Ferrante–Rackoff test-point method
directly.  To evaluate ``∃x φ(x, p̄)`` it suffices to try finitely many
sample points: the constants mentioned in ``φ``, the current values of the
other free variables, midpoints between consecutive such values, and one
point below the minimum and above the maximum.  Truth of ``φ`` is invariant
on the intervals these points carve out (by quantifier elimination the body
is equivalent to a boolean combination of comparisons among ``x``, the
parameters, and the constants), so the finite sweep is exact.

Quantifier-free forms
---------------------
The guarded default path does not decide sentences.  It eliminates the
quantifiers of the state-expanded query once (:meth:`DenseOrderDomain.quantifier_free`):
``∃x`` over a conjunction of order literals is a substitution when the
clause has ``x = t``, and otherwise "every lower bound of ``x`` lies below
every upper bound".  The verdict and the answer rows are then read off the
resulting ψ by evaluating it at finitely many points
(:class:`DenseQuantifierFreeForm`).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..logic.analysis import constants_of, free_variables
from ..logic.builders import conj, disj, exists_many
from ..logic.formulas import (
    BOTTOM,
    TOP,
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
from ..logic.terms import Apply, Const, Term, Var, walk_terms
from ..logic.transform import eliminate_quantifiers
from ..relational.state import Element
from .base import Domain, DomainError
from .signature import Signature

if TYPE_CHECKING:  # repro.engine imports the domains package
    from ..engine.budget import Deadline

__all__ = ["DenseOrderDomain", "DenseQuantifierFreeForm", "eliminate_dense_quantifiers"]

_COMPARISONS = {"<", "<=", ">", ">="}

#: the normalised literal operators and their truth on two values
_OPERATORS = {"<": operator.lt, "<=": operator.le, "=": operator.eq, "!=": operator.ne}

_OrderLiteral = Tuple[str, Term, Term]

#: a rational number: database elements and query constants are ints or Fractions
_Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Quantifier elimination for dense orders without endpoints
# ---------------------------------------------------------------------------


def _normalise(literal: Formula) -> _OrderLiteral:
    """``(op, left, right)`` with ``op`` one of ``<``, ``<=``, ``=``, ``!=``.

    ``>``/``>=`` swap their sides; a negated order atom is the reversed
    non-strict/strict atom (``¬(a < b)`` is ``b <= a`` in a linear order).
    """
    positive = not isinstance(literal, Not)
    atom = literal.body if isinstance(literal, Not) else literal
    if isinstance(atom, Equals):
        op, left, right = "=", atom.left, atom.right
    elif isinstance(atom, Atom) and atom.predicate in _COMPARISONS:
        op, (left, right) = atom.predicate, atom.args
        if op in (">", ">="):
            op, left, right = op.replace(">", "<"), right, left
    else:
        raise DomainError(f"unexpected literal in a (Q, <) formula: {literal!r}")
    if positive:
        return op, left, right
    if op == "=":
        return "!=", left, right
    return ("<=" if op == "<" else "<"), right, left


def _literal(op: str, left: Term, right: Term) -> Formula:
    """The literal ``left op right``, folded when both sides are constants
    or the same variable."""
    if isinstance(left, Const) and isinstance(right, Const):
        return TOP if _OPERATORS[op](left.value, right.value) else BOTTOM
    if left == right:
        return TOP if op in ("<=", "=") else BOTTOM
    if op == "=":
        return Equals(left, right)
    if op == "!=":
        return Not(Equals(left, right))
    return Atom(op, (left, right))


def _eliminate_exists_clause(var: str, literals: Sequence[Formula]) -> Formula:
    """``∃var`` of a conjunction of order literals, quantifier-free.

    A clause with ``var = t`` substitutes ``t``.  Otherwise the bounds on
    ``var`` are jointly satisfiable iff every lower bound lies below every
    upper bound (non-strictly when both are non-strict); with disequalities
    ``var ≠ t`` the solutions must also avoid finitely many points, which an
    open interval always can, so the clause holds iff the open interval is
    nonempty or some non-strict lower bound is itself a solution.
    """
    x = Var(var)
    residual: List[Formula] = []
    bound: List[_OrderLiteral] = []
    for raw in literals:
        if isinstance(raw, (Top, Bottom)):
            residual.append(raw)
            continue
        op, left, right = _normalise(raw)
        if x in (left, right) and left != right:
            bound.append((op, left, right))
        else:
            residual.append(_literal(op, left, right))

    def at(value: Term) -> Formula:
        """The literals on ``var`` with ``value`` substituted for it."""
        return conj(*(
            _literal(op, value if left == x else left, value if right == x else right)
            for op, left, right in bound
        ))

    pinned = next((
        left if right == x else right for op, left, right in bound if op == "="
    ), None)
    if pinned is not None:
        return conj(*residual, at(pinned))
    lowers = dict.fromkeys(
        (left, op == "<") for op, left, right in bound if right == x and op != "!="
    )
    uppers = dict.fromkeys(
        (right, op == "<") for op, left, right in bound if left == x and op != "!="
    )
    if not any(op == "!=" for op, _, _ in bound):
        return conj(*residual, *(
            _literal("<" if strict or upper_strict else "<=", low, high)
            for low, strict in lowers for high, upper_strict in uppers
        ))
    interval = conj(*(_literal("<", low, high) for low, _ in lowers for high, _ in uppers))
    points = (at(low) for low, strict in lowers if not strict)
    return conj(*residual, disj(interval, *points))


def eliminate_dense_quantifiers(
    formula: Formula, deadline: Optional["Deadline"] = None
) -> Formula:
    """Quantifier elimination for ``(Q, <)``; introduces no new constants."""
    return eliminate_quantifiers(formula, _eliminate_exists_clause, deadline)


def _holds(formula: Formula, env: Dict[str, Any]) -> bool:
    """Evaluate a quantifier-free order formula under ``env``."""
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, And):
        return all(_holds(c, env) for c in formula.conjuncts)
    if isinstance(formula, Or):
        return any(_holds(d, env) for d in formula.disjuncts)
    if isinstance(formula, Not) and not isinstance(formula.body, (Atom, Equals)):
        return not _holds(formula.body, env)
    op, left, right = _normalise(formula)
    values = [t.value if isinstance(t, Const) else env[t.name] for t in (left, right)]
    return _OPERATORS[op](*values)


@dataclass(frozen=True)
class DenseQuantifierFreeForm:
    """ψ(x̄): a formula's quantifier-free form over ``(Q, <)``, read by
    evaluating it at finitely many points.

    ``constants`` is C, the ascending constants of the formula (ψ mentions
    no others), and ``projections[j]`` is ψ with every column but the
    ``j``-th eliminated.  Every automorphism of ``(Q, <)`` that fixes C
    preserves ψ and moves a point outside C anywhere in its open gap, so:

    * ψ has infinitely many rows iff some projection holds at a point
      outside C — one point below C, one above it and one midpoint per gap
      cover every gap (:meth:`infinite_column`);
    * a finite ψ has its rows in C^k (:meth:`rows`).

    >>> from repro.logic.parser import parse_formula
    >>> from repro.relational.state import DatabaseState
    >>> from repro.experiments.corpora import numeric_schema
    >>> between = parse_formula("exists y. exists z. (S(y) & S(z) & y < x & x < z)")
    >>> state = DatabaseState(numeric_schema(), {"S": [(0,), (1,)]})
    >>> from repro.relational.translate import expand_database_atoms
    >>> psi = DenseOrderDomain().quantifier_free(expand_database_atoms(between, state))
    >>> psi.finite(), psi.infinite_column()
    (False, ('x', False))
    >>> members = DenseOrderDomain().quantifier_free(
    ...     expand_database_atoms(parse_formula("S(x)"), state))
    >>> members.finite(), list(members.rows())
    (True, [(0,), (1,)])
    """

    body: Formula
    variables: Tuple[str, ...]
    constants: Tuple[_Rational, ...]
    projections: Tuple[Formula, ...]

    def holds(self, row: Sequence[_Rational]) -> bool:
        """True iff ``row`` (one element per column) satisfies ψ."""
        return _holds(self.body, dict(zip(self.variables, row)))

    def _gap_points(self) -> Tuple[List[_Rational], List[_Rational]]:
        """(the points outside ``[min C, max C]``, one midpoint per inner gap)."""
        if not self.constants:
            return [0], []
        outer = [self.constants[0] - 1, self.constants[-1] + 1]
        inner: List[_Rational] = [
            Fraction(low + high, 2) for low, high in zip(self.constants, self.constants[1:])
        ]
        return outer, inner

    def _holding(
        self, column: int, points: Sequence[_Rational], deadline: Optional["Deadline"]
    ) -> Iterator[_Rational]:
        """The ``points`` at which the projection onto ``column`` holds;
        ``deadline`` is checked once per point."""
        variable, projection = self.variables[column], self.projections[column]
        for point in points:
            if deadline is not None:
                deadline.check("quantifier-free read-off")
            if _holds(projection, {variable: point}):
                yield point

    def infinite_column(
        self, deadline: Optional["Deadline"] = None
    ) -> Optional[Tuple[str, bool]]:
        """The first column whose projection holds outside C, and whether
        it is unbounded (holds below or above C) rather than dense (holds
        in a gap between two constants); ``None`` iff ψ is finite."""
        outer, inner = self._gap_points()
        for column, variable in enumerate(self.variables):
            for points, unbounded in ((outer, True), (inner, False)):
                if next(self._holding(column, points, deadline), None) is not None:
                    return variable, unbounded
        return None

    def finite(self, deadline: Optional["Deadline"] = None) -> bool:
        """True iff ψ has finitely many rows."""
        return self.infinite_column(deadline) is None

    def rows(self, deadline: Optional["Deadline"] = None) -> Iterator[Tuple[_Rational, ...]]:
        """Every row of a finite ψ (``ValueError`` if it is infinite): the
        tuples over each column's constants that satisfy ψ.  ``deadline`` is
        checked once per point tested and once per candidate row."""
        column = self.infinite_column(deadline)
        if column is not None:
            raise ValueError(f"column {column[0]!r} is infinite: the rows are infinite")
        candidates = [
            list(self._holding(j, self.constants, deadline))
            for j in range(len(self.variables))
        ]
        for row in itertools.product(*candidates):
            if deadline is not None:
                deadline.check("quantifier-free read-off")
            if self.holds(row):
                yield row


class DenseOrderDomain(Domain):
    """The ordered rationals ``(Q, <)`` — a dense order without endpoints."""

    name = "rationals_with_order"
    signature = Signature(predicates={"<": 2, "<=": 2, ">": 2, ">=": 2})
    has_decidable_theory = True
    supports_compiled_algebra = True

    # -- carrier -------------------------------------------------------------

    def contains(self, element: Element) -> bool:
        return isinstance(element, (int, Fraction)) and not isinstance(element, bool)

    def enumerate_elements(self) -> Iterator[Element]:
        """``0, 1, -1, 1/2, -1/2, 2, -2, ...`` — every rational exactly once.

        Positive rationals come from the Calkin–Wilf sequence (each appears
        exactly once, in lowest terms); negatives are interleaved.  Integral
        values are yielded as plain ``int`` so they compare and hash exactly
        like database elements.
        """
        yield 0
        q = Fraction(1)
        while True:
            value: Element = int(q) if q.denominator == 1 else q
            yield value
            yield -value
            q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)

    # -- evaluation ----------------------------------------------------------

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        raise KeyError(f"the dense-order domain has no function {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        if name not in _COMPARISONS:
            raise KeyError(f"the dense-order domain has no predicate {name!r}")
        left, right = args
        if not self.contains(left) or not self.contains(right):
            raise DomainError(f"{args!r} are not rationals")
        if name == "<":
            return left < right
        if name == "<=":
            return left <= right
        if name == ">":
            return left > right
        return left >= right

    # -- decision procedure ---------------------------------------------------

    def quantifier_free(
        self,
        formula: Formula,
        free_order: Optional[Sequence[Var]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> DenseQuantifierFreeForm:
        """ψ: the quantifier-free form of a pure ``formula`` and of each of
        its one-column projections.

        Its columns are ``free_order`` (default: the free variables by
        name).  A ``deadline`` is checked once per eliminated quantifier.
        """
        self._validate(formula)
        if free_order is None:
            free_order = sorted(free_variables(formula), key=lambda v: v.name)
        variables = tuple(v.name for v in free_order)
        body = eliminate_dense_quantifiers(formula, deadline)
        projections = tuple(
            eliminate_dense_quantifiers(
                exists_many([o for o in variables if o != v], body), deadline
            )
            for v in variables
        )
        constants = tuple(sorted({c.value for c in constants_of(formula)}))
        return DenseQuantifierFreeForm(body, variables, constants, projections)

    def decide(self, sentence: Formula) -> bool:
        """Decide a pure sentence of ``(Q, <)`` by Ferrante–Rackoff test points."""
        self._require_sentence(sentence)
        self._validate(sentence)
        return self._eval(sentence, {})

    def _validate(self, sentence: Formula) -> None:
        for sub in walk_formulas(sentence):
            terms: Sequence[Term] = ()
            if isinstance(sub, Atom):
                if sub.predicate not in _COMPARISONS:
                    raise DomainError(
                        f"predicate {sub.predicate!r} is not in the (Q, <) signature"
                    )
                terms = sub.args
            elif isinstance(sub, Equals):
                terms = (sub.left, sub.right)
            for term in terms:
                for node in walk_terms(term):
                    if isinstance(node, Apply):
                        raise DomainError("the (Q, <) signature has no functions")
                    if isinstance(node, Const) and not self.contains(node.value):
                        raise DomainError(
                            f"constant {node.value!r} is not a rational"
                        )

    def _eval(self, formula: Formula, env: Dict[str, Element]) -> bool:
        if isinstance(formula, Top):
            return True
        if isinstance(formula, Bottom):
            return False
        if isinstance(formula, Atom):
            return self.eval_predicate(
                formula.predicate, [self._value(t, env) for t in formula.args]
            )
        if isinstance(formula, Equals):
            return self._value(formula.left, env) == self._value(formula.right, env)
        if isinstance(formula, Not):
            return not self._eval(formula.body, env)
        if isinstance(formula, And):
            return all(self._eval(c, env) for c in formula.conjuncts)
        if isinstance(formula, Or):
            return any(self._eval(d, env) for d in formula.disjuncts)
        if isinstance(formula, Implies):
            return (not self._eval(formula.antecedent, env)) or self._eval(
                formula.consequent, env
            )
        if isinstance(formula, Iff):
            return self._eval(formula.left, env) == self._eval(formula.right, env)
        if isinstance(formula, Exists):
            inner = dict(env)
            for point in self._test_points(formula.body, formula.var, env):
                inner[formula.var] = point
                if self._eval(formula.body, inner):
                    return True
            return False
        if isinstance(formula, ForAll):
            return not self._eval(Exists(formula.var, Not(formula.body)), env)
        raise DomainError(f"cannot evaluate {formula!r} over (Q, <)")

    def _value(self, term: Term, env: Dict[str, Element]) -> Element:
        if isinstance(term, Const):
            return term.value
        if isinstance(term, Var):
            if term.name not in env:
                raise DomainError(f"unbound variable {term.name!r}")
            return env[term.name]
        raise DomainError("the (Q, <) signature has no functions")

    def _test_points(
        self, body: Formula, bound_var: str, env: Dict[str, Element]
    ) -> List[Element]:
        """Finitely many sample values that exhaust ``∃ bound_var . body``."""
        anchors = {
            node.value
            for sub in walk_formulas(body)
            if isinstance(sub, (Atom, Equals))
            for term in (sub.args if isinstance(sub, Atom) else (sub.left, sub.right))
            for node in walk_terms(term)
            if isinstance(node, Const)
        }
        anchors.update(
            value for name, value in env.items() if name != bound_var
        )
        if not anchors:
            return [0]
        ordered = sorted(anchors)
        points: List[Element] = [ordered[0] - 1]
        for low, high in zip(ordered, ordered[1:]):
            points.append(low)
            points.append(Fraction(low + high, 2))
        points.append(ordered[-1])
        points.append(ordered[-1] + 1)
        return points
