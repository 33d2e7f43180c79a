"""Effective syntaxes for finite queries (the paper's central notion).

An *effective syntax* (recursive syntax) for the finite queries of a domain is
a recursive subclass of formulas such that every formula in the subclass is
finite and every finite formula is equivalent to one in the subclass.  The
paper gives three positive constructions, all implemented here:

* :class:`ActiveDomainSyntax` — for the pure-equality domain (and any domain
  where finite = domain-independent): restrict every answer variable to the
  active domain;
* :class:`FinitizationSyntax` — for every extension of ``(N, <)``
  (Theorem 2.2), including Presburger arithmetic and full arithmetic
  (Corollary 2.3): the set of finitizations of all formulas;
* :class:`ExtendedActiveDomainSyntax` — for ``(N, ')`` (Theorem 2.7): restrict
  every answer variable to the *extended* active domain of radius ``2^q``
  where ``q`` is the quantifier depth.

Theorem 3.1 shows that no such construction — indeed no recursive or even
recursively enumerable subclass — exists for the trace domain **T**; the
executable form of that argument lives in :mod:`repro.safety.reductions`.

Each syntax object offers three operations:

* ``restrict(φ)`` — map an arbitrary formula into the subclass; if ``φ`` is
  finite the result is equivalent to ``φ``;
* ``contains(φ)`` — recursive membership test for the subclass;
* ``enumerate_syntax(formulas)`` — the recursive enumeration of the subclass
  induced by an enumeration of all formulas.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Optional, Sequence

from ..logic.analysis import constants_of, free_variables, quantifier_depth
from ..logic.builders import conj, disj
from ..logic.formulas import And, Atom, Equals, Formula
from ..logic.terms import Apply, Const, Var
from ..relational.schema import DatabaseSchema
from .domain_independence import active_domain_formula
from .finitization import finitize, split_finitization

__all__ = [
    "EffectiveSyntax",
    "ActiveDomainSyntax",
    "FinitizationSyntax",
    "ExtendedActiveDomainSyntax",
]


class EffectiveSyntax(ABC):
    """A recursive subclass of formulas capturing exactly the finite queries."""

    #: short human-readable name used in experiment reports
    name: str = "effective-syntax"

    @abstractmethod
    def restrict(self, formula: Formula) -> Formula:
        """Map an arbitrary formula to a member of the subclass.

        For finite formulas the result must be equivalent to the input; for
        arbitrary formulas the result must be finite.
        """

    @abstractmethod
    def contains(self, formula: Formula) -> bool:
        """Recursive membership test for the subclass."""

    def enumerate_syntax(self, formulas: Iterable[Formula]) -> Iterator[Formula]:
        """Enumerate the subclass, given an enumeration of all formulas."""
        for formula in formulas:
            yield self.restrict(formula)


class ActiveDomainSyntax(EffectiveSyntax):
    """Restrict every free variable to the active domain.

    Over the pure-equality domain a finite query's answer rows mention only
    active-domain elements — stored values and query constants (Section 2: a
    row with an outside element has infinitely many symmetric copies), so conjoining the active-domain guard
    ``Δ(x_i)`` for every free variable forces finiteness and keeps every
    finite query's answer.
    """

    name = "active-domain-restriction"

    def __init__(self, schema: DatabaseSchema):
        self._schema = schema

    def guard(self, formula: Formula) -> Formula:
        """The conjunction of active-domain guards for the free variables."""
        constants = constants_of(formula)
        variables = sorted(free_variables(formula), key=lambda v: v.name)
        guards = [
            active_domain_formula(self._schema, v, query_constants=constants)
            for v in variables
        ]
        return conj(*guards)

    def restrict(self, formula: Formula) -> Formula:
        return And((formula, self.guard(formula)))

    def contains(self, formula: Formula) -> bool:
        if not isinstance(formula, And) or len(formula.conjuncts) != 2:
            return False
        core, guard = formula.conjuncts
        return guard == self.guard(core)


class FinitizationSyntax(EffectiveSyntax):
    """The Theorem 2.2 syntax: the set of finitizations of all formulas."""

    name = "finitization"

    def __init__(self, integers: bool = False):
        self._integers = integers

    def restrict(self, formula: Formula) -> Formula:
        return finitize(formula, integers=self._integers)

    def contains(self, formula: Formula) -> bool:
        return split_finitization(formula) is not None


class ExtendedActiveDomainSyntax(EffectiveSyntax):
    """The Theorem 2.7 syntax for ``(N, ')``.

    A formula of quantifier depth ``q`` is finite iff its answer is contained
    in the *extended* active domain: the active domain, the element 0, and
    everything within successor-distance ``2^q`` of them.  The syntax
    conjoins, for every free variable, the guard "within distance ``2^q`` of
    the active domain or of 0".
    """

    name = "extended-active-domain"

    def __init__(self, schema: DatabaseSchema):
        self._schema = schema

    @staticmethod
    def _within_distance(x: Var, anchor, radius: int) -> Formula:
        """``x`` is within successor-distance ``radius`` of ``anchor`` (a term)."""
        options = []
        for distance in range(radius + 1):
            shifted_anchor = anchor
            shifted_x: object = x
            for _ in range(distance):
                shifted_anchor = Apply("succ", (shifted_anchor,))
                shifted_x = Apply("succ", (shifted_x,))
            options.append(Equals(x, shifted_anchor))      # x = anchor + d
            options.append(Equals(shifted_x, anchor))       # x + d = anchor
        return disj(*options)

    def guard(self, formula: Formula) -> Formula:
        """The extended-active-domain guard for every free variable of ``formula``."""
        radius = 2 ** quantifier_depth(formula)
        constants = sorted(constants_of(formula), key=repr)
        variables = sorted(free_variables(formula), key=lambda v: v.name)
        guards = []
        for x in variables:
            anchors: list = [Const(0)] + list(constants)
            options = [self._within_distance(x, anchor, radius) for anchor in anchors]
            # Anchors stored in the database: exists y in some column of some
            # relation with x within distance 2^q of y.
            from ..logic.builders import exists_many
            from ..logic.substitution import fresh_variables

            for relation in self._schema:
                if relation.arity == 0:
                    continue
                fresh = fresh_variables(relation.arity, [x], stem="u")
                atom = Atom(relation.name, tuple(fresh))
                for position in range(relation.arity):
                    near = self._within_distance(x, fresh[position], radius)
                    options.append(exists_many([v.name for v in fresh], conj(atom, near)))
            guards.append(disj(*options))
        return conj(*guards)

    def restrict(self, formula: Formula) -> Formula:
        return And((formula, self.guard(formula)))

    def contains(self, formula: Formula) -> bool:
        if not isinstance(formula, And) or len(formula.conjuncts) != 2:
            return False
        core, guard = formula.conjuncts
        return guard == self.guard(core)
