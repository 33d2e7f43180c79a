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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Sequence

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
from ..logic.terms import Apply, Const, Term, Var, walk_terms
from ..relational.state import Element
from .base import Domain, DomainError
from .signature import Signature

__all__ = ["DenseOrderDomain"]

_COMPARISONS = {"<", "<=", ">", ">="}


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
