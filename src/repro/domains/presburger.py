"""Presburger arithmetic and Cooper's quantifier elimination.

Section 2 of the paper lists "natural numbers with <, +, and -" (Presburger
arithmetic) among the domains for which the finitization trick yields a
recursive syntax for finite queries, and Theorem 2.5 needs a decision
procedure for (extensions of) ``(N, <)`` to decide relative safety.  This
module provides both, via Cooper's classical quantifier-elimination algorithm
for linear integer arithmetic.

The implementation works on an internal representation of linear constraints:

* :class:`LinTerm` — a linear term ``c0 + c1*x1 + ... + ck*xk`` with integer
  coefficients;
* internal atoms ``t < 0``, ``t = 0`` and ``d | t``;
* internal connectives mirroring the logic AST.

The public surface converts back and forth between the project-wide logic AST
(:mod:`repro.logic`) and the internal representation, eliminates quantifiers,
and decides sentences.  Natural-number semantics is obtained by relativising
every quantifier to ``x >= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
    Union,
)

from ..logic.analysis import free_variables
from ..logic.builders import conj, disj, neg
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
)
from ..logic.terms import Apply, Const, Term, Var
from ..relational.state import Element
from .base import Domain, DomainError
from .signature import Signature

if TYPE_CHECKING:  # repro.engine imports the domains at package-init time
    from ..engine.budget import Deadline

__all__ = [
    "LinTerm",
    "PresburgerDomain",
    "QuantifierFreeForm",
    "linearize_term",
    "eliminate_presburger_quantifiers",
]


# ---------------------------------------------------------------------------
# Linear terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinTerm:
    """A linear term over integer variables: ``constant + sum(coeff * var)``."""

    coeffs: Tuple[Tuple[str, int], ...]
    constant: int

    @classmethod
    def of(cls, constant: int = 0, **coeffs: int) -> "LinTerm":
        """Build a linear term from a constant and ``var=coeff`` keywords."""
        return cls.make(coeffs, constant)

    @classmethod
    def make(cls, coeffs: Dict[str, int], constant: int) -> "LinTerm":
        """Build a linear term, dropping zero coefficients and sorting variables."""
        cleaned = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return cls(cleaned, constant)

    @classmethod
    def constant_term(cls, value: int) -> "LinTerm":
        """The constant linear term ``value``."""
        return cls((), value)

    @classmethod
    def variable(cls, name: str) -> "LinTerm":
        """The linear term consisting of a single variable."""
        return cls(((name, 1),), 0)

    def coeff_of(self, name: str) -> int:
        """The coefficient of ``name`` (0 if absent)."""
        for var, coeff in self.coeffs:
            if var == name:
                return coeff
        return 0

    def variables(self) -> Tuple[str, ...]:
        """The variables with non-zero coefficient."""
        return tuple(v for v, _ in self.coeffs)

    def add(self, other: "LinTerm") -> "LinTerm":
        """Sum of two linear terms."""
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs:
            coeffs[var] = coeffs.get(var, 0) + coeff
        return LinTerm.make(coeffs, self.constant + other.constant)

    def negate(self) -> "LinTerm":
        """The additive inverse."""
        return self.scale(-1)

    def subtract(self, other: "LinTerm") -> "LinTerm":
        """Difference of two linear terms."""
        return self.add(other.negate())

    def scale(self, factor: int) -> "LinTerm":
        """Multiply by an integer constant."""
        coeffs = {var: coeff * factor for var, coeff in self.coeffs}
        return LinTerm.make(coeffs, self.constant * factor)

    def drop(self, name: str) -> "LinTerm":
        """The term with the coefficient of ``name`` removed."""
        coeffs = {var: coeff for var, coeff in self.coeffs if var != name}
        return LinTerm.make(coeffs, self.constant)

    def substitute(self, name: str, replacement: "LinTerm") -> "LinTerm":
        """Replace ``name`` by a linear term (its coefficient multiplies in)."""
        coeff = self.coeff_of(name)
        if coeff == 0:
            return self
        return self.drop(name).add(replacement.scale(coeff))

    def is_constant(self) -> bool:
        """True iff the term has no variables."""
        return not self.coeffs

    def evaluate(self, assignment: Dict[str, int]) -> int:
        """Evaluate under a complete integer assignment."""
        total = self.constant
        for var, coeff in self.coeffs:
            total += coeff * assignment[var]
        return total

    def to_logic_term(self) -> Term:
        """Convert back into the project-wide logic AST."""
        parts: List[Term] = []
        for var, coeff in self.coeffs:
            if coeff == 1:
                parts.append(Var(var))
            else:
                parts.append(Apply("*", (Const(coeff), Var(var))))
        if self.constant != 0 or not parts:
            parts.append(Const(self.constant))
        result = parts[0]
        for part in parts[1:]:
            result = Apply("+", (result, part))
        return result

    def __str__(self) -> str:
        pieces = [f"{c}*{v}" for v, c in self.coeffs]
        pieces.append(str(self.constant))
        return " + ".join(pieces)


# ---------------------------------------------------------------------------
# Internal constraint formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ILt:
    """The constraint ``term < 0``."""

    term: LinTerm


@dataclass(frozen=True)
class IEq:
    """The constraint ``term = 0``."""

    term: LinTerm


@dataclass(frozen=True)
class IDvd:
    """The constraint ``modulus | term`` (modulus a positive integer)."""

    modulus: int
    term: LinTerm


@dataclass(frozen=True)
class INot:
    body: "IFormula"


@dataclass(frozen=True)
class IAnd:
    parts: Tuple["IFormula", ...]


@dataclass(frozen=True)
class IOr:
    parts: Tuple["IFormula", ...]


@dataclass(frozen=True)
class IExists:
    var: str
    body: "IFormula"


@dataclass(frozen=True)
class ITrue:
    pass


@dataclass(frozen=True)
class IFalse:
    pass


IFormula = Union[ILt, IEq, IDvd, INot, IAnd, IOr, IExists, ITrue, IFalse]

_TRUE = ITrue()
_FALSE = IFalse()


def _iand(parts: Sequence[IFormula]) -> IFormula:
    flat: List[IFormula] = []
    for part in parts:
        if isinstance(part, IFalse):
            return _FALSE
        if isinstance(part, ITrue):
            continue
        if isinstance(part, IAnd):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return _TRUE
    if len(flat) == 1:
        return flat[0]
    return IAnd(tuple(flat))


def _ior(parts: Sequence[IFormula]) -> IFormula:
    flat: List[IFormula] = []
    for part in parts:
        if isinstance(part, ITrue):
            return _TRUE
        if isinstance(part, IFalse):
            continue
        if isinstance(part, IOr):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return _FALSE
    if len(flat) == 1:
        return flat[0]
    return IOr(tuple(flat))


# ---------------------------------------------------------------------------
# Conversion: logic AST -> internal representation
# ---------------------------------------------------------------------------


def linearize_term(term: Term) -> LinTerm:
    """Interpret a logic term as a linear integer term.

    Supported constructs: variables, integer constants, ``+``, ``-`` (binary),
    ``*`` (one side must be constant), and ``succ`` (add one).
    """
    if isinstance(term, Var):
        return LinTerm.variable(term.name)
    if isinstance(term, Const):
        if not isinstance(term.value, int):
            raise DomainError(f"non-integer constant {term.value!r} in arithmetic term")
        return LinTerm.constant_term(term.value)
    if isinstance(term, Apply):
        if term.function == "+" and len(term.args) == 2:
            return linearize_term(term.args[0]).add(linearize_term(term.args[1]))
        if term.function == "-" and len(term.args) == 2:
            return linearize_term(term.args[0]).subtract(linearize_term(term.args[1]))
        if term.function == "succ" and len(term.args) == 1:
            return linearize_term(term.args[0]).add(LinTerm.constant_term(1))
        if term.function == "*" and len(term.args) == 2:
            left = linearize_term(term.args[0])
            right = linearize_term(term.args[1])
            if left.is_constant():
                return right.scale(left.constant)
            if right.is_constant():
                return left.scale(right.constant)
            raise DomainError("non-linear multiplication is outside Presburger arithmetic")
        raise DomainError(f"unsupported function {term.function!r} in arithmetic term")
    raise TypeError(f"not a term: {term!r}")


def _atom_to_internal(formula: Formula) -> IFormula:
    if isinstance(formula, Equals):
        diff = linearize_term(formula.left).subtract(linearize_term(formula.right))
        return IEq(diff)
    if isinstance(formula, Atom):
        name = formula.predicate
        if name in ("<", "<=", ">", ">="):
            left = linearize_term(formula.args[0])
            right = linearize_term(formula.args[1])
            if name == "<":
                return ILt(left.subtract(right))
            if name == ">":
                return ILt(right.subtract(left))
            if name == "<=":
                return ILt(left.subtract(right).add(LinTerm.constant_term(-1)))
            return ILt(right.subtract(left).add(LinTerm.constant_term(-1)))
        if name == "divides" and len(formula.args) == 2:
            modulus_term = linearize_term(formula.args[0])
            if not modulus_term.is_constant() or modulus_term.constant <= 0:
                raise DomainError("divisibility modulus must be a positive integer constant")
            return IDvd(modulus_term.constant, linearize_term(formula.args[1]))
        raise DomainError(f"unknown arithmetic predicate {name!r}")
    raise TypeError(f"not an atom: {formula!r}")


def _formula_to_internal(formula: Formula, relativize_naturals: bool) -> IFormula:
    if isinstance(formula, Top):
        return _TRUE
    if isinstance(formula, Bottom):
        return _FALSE
    if isinstance(formula, (Atom, Equals)):
        return _atom_to_internal(formula)
    if isinstance(formula, Not):
        return INot(_formula_to_internal(formula.body, relativize_naturals))
    if isinstance(formula, And):
        return _iand([_formula_to_internal(c, relativize_naturals) for c in formula.conjuncts])
    if isinstance(formula, Or):
        return _ior([_formula_to_internal(d, relativize_naturals) for d in formula.disjuncts])
    if isinstance(formula, Implies):
        return _ior([
            INot(_formula_to_internal(formula.antecedent, relativize_naturals)),
            _formula_to_internal(formula.consequent, relativize_naturals),
        ])
    if isinstance(formula, Iff):
        left = _formula_to_internal(formula.left, relativize_naturals)
        right = _formula_to_internal(formula.right, relativize_naturals)
        return _iand([_ior([INot(left), right]), _ior([INot(right), left])])
    if isinstance(formula, Exists):
        body = _formula_to_internal(formula.body, relativize_naturals)
        if relativize_naturals:
            non_negative = ILt(LinTerm.make({formula.var: -1}, -1))  # -x - 1 < 0  <=>  x >= 0
            body = _iand([non_negative, body])
        return IExists(formula.var, body)
    if isinstance(formula, ForAll):
        inner = Not(Exists(formula.var, Not(formula.body)))
        return _formula_to_internal(inner, relativize_naturals)
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Cooper's algorithm
# ---------------------------------------------------------------------------


def _nnf(formula: IFormula, positive: bool = True) -> IFormula:
    """Negation normal form over the internal atoms.

    Negations are eliminated entirely: ``not (t < 0)`` becomes ``-t - 1 < 0``,
    ``not (t = 0)`` becomes ``t < 0 or -t < 0``, and only negated
    divisibilities remain as negative literals.
    """
    if isinstance(formula, ITrue):
        return _TRUE if positive else _FALSE
    if isinstance(formula, IFalse):
        return _FALSE if positive else _TRUE
    if isinstance(formula, ILt):
        if positive:
            return formula
        return ILt(formula.term.negate().add(LinTerm.constant_term(-1)))
    if isinstance(formula, IEq):
        if positive:
            return formula
        return _ior([ILt(formula.term), ILt(formula.term.negate())])
    if isinstance(formula, IDvd):
        return formula if positive else INot(formula)
    if isinstance(formula, INot):
        return _nnf(formula.body, not positive)
    if isinstance(formula, IAnd):
        parts = [_nnf(p, positive) for p in formula.parts]
        return _iand(parts) if positive else _ior(parts)
    if isinstance(formula, IOr):
        parts = [_nnf(p, positive) for p in formula.parts]
        return _ior(parts) if positive else _iand(parts)
    if isinstance(formula, IExists):
        raise AssertionError("quantifiers must be eliminated innermost-first")
    raise TypeError(f"not an internal formula: {formula!r}")


def _collect_coefficients(formula: IFormula, var: str) -> List[int]:
    coefficients: List[int] = []
    if isinstance(formula, (ILt, IEq)):
        coeff = formula.term.coeff_of(var)
        if coeff:
            coefficients.append(coeff)
    elif isinstance(formula, IDvd):
        coeff = formula.term.coeff_of(var)
        if coeff:
            coefficients.append(coeff)
    elif isinstance(formula, INot):
        coefficients.extend(_collect_coefficients(formula.body, var))
    elif isinstance(formula, (IAnd, IOr)):
        for part in formula.parts:
            coefficients.extend(_collect_coefficients(part, var))
    return coefficients


def _normalize_coefficients(formula: IFormula, var: str, delta: int) -> IFormula:
    """Scale atoms so the coefficient of ``var`` is exactly ``+1`` or ``-1``.

    Conceptually the variable is replaced by ``delta * var``; the caller adds
    the divisibility constraint ``delta | var`` afterwards.
    """
    if isinstance(formula, ILt):
        coeff = formula.term.coeff_of(var)
        if coeff == 0:
            return formula
        factor = delta // abs(coeff)
        scaled = formula.term.scale(factor)
        # Coefficient of var is now +-delta; rewrite it as +-1.
        rest = scaled.drop(var)
        sign = 1 if coeff > 0 else -1
        return ILt(rest.add(LinTerm.make({var: sign}, 0)))
    if isinstance(formula, IEq):
        coeff = formula.term.coeff_of(var)
        if coeff == 0:
            return formula
        factor = delta // abs(coeff)
        scaled = formula.term.scale(factor)
        rest = scaled.drop(var)
        sign = 1 if coeff > 0 else -1
        return IEq(rest.add(LinTerm.make({var: sign}, 0)))
    if isinstance(formula, IDvd):
        coeff = formula.term.coeff_of(var)
        if coeff == 0:
            return formula
        factor = delta // abs(coeff)
        scaled = formula.term.scale(factor)
        modulus = formula.modulus * factor
        if coeff < 0:
            scaled = scaled.negate()
        rest = scaled.drop(var)
        return IDvd(modulus, rest.add(LinTerm.make({var: 1}, 0)))
    if isinstance(formula, INot):
        return INot(_normalize_coefficients(formula.body, var, delta))
    if isinstance(formula, IAnd):
        return _iand([_normalize_coefficients(p, var, delta) for p in formula.parts])
    if isinstance(formula, IOr):
        return _ior([_normalize_coefficients(p, var, delta) for p in formula.parts])
    if isinstance(formula, (ITrue, IFalse)):
        return formula
    raise TypeError(f"not an internal formula: {formula!r}")


def _substitute_var(formula: IFormula, var: str, replacement: LinTerm) -> IFormula:
    if isinstance(formula, ILt):
        return ILt(formula.term.substitute(var, replacement))
    if isinstance(formula, IEq):
        return IEq(formula.term.substitute(var, replacement))
    if isinstance(formula, IDvd):
        return IDvd(formula.modulus, formula.term.substitute(var, replacement))
    if isinstance(formula, INot):
        return INot(_substitute_var(formula.body, var, replacement))
    if isinstance(formula, IAnd):
        return _iand([_substitute_var(p, var, replacement) for p in formula.parts])
    if isinstance(formula, IOr):
        return _ior([_substitute_var(p, var, replacement) for p in formula.parts])
    if isinstance(formula, (ITrue, IFalse)):
        return formula
    raise TypeError(f"not an internal formula: {formula!r}")


def _minus_infinity(formula: IFormula, var: str) -> IFormula:
    """The ``F_-inf`` transform: the formula for arbitrarily small values of ``var``."""
    if isinstance(formula, ILt):
        coeff = formula.term.coeff_of(var)
        if coeff == 0:
            return formula
        # coefficient is +-1 after normalisation
        return _TRUE if coeff > 0 else _FALSE
    if isinstance(formula, IEq):
        if formula.term.coeff_of(var) == 0:
            return formula
        return _FALSE
    if isinstance(formula, (IDvd, ITrue, IFalse)):
        return formula
    if isinstance(formula, INot):
        return INot(_minus_infinity(formula.body, var))
    if isinstance(formula, IAnd):
        return _iand([_minus_infinity(p, var) for p in formula.parts])
    if isinstance(formula, IOr):
        return _ior([_minus_infinity(p, var) for p in formula.parts])
    raise TypeError(f"not an internal formula: {formula!r}")


def _lower_bound_terms(formula: IFormula, var: str) -> List[LinTerm]:
    """The B-set of Cooper's algorithm: terms ``b`` such that ``b < var`` occurs.

    After normalisation every literal containing ``var`` has coefficient
    ``+1`` or ``-1``.  Lower bounds come from ``-var + r < 0`` (i.e.
    ``r < var``, bound ``r``) and from equalities ``var + r = 0`` (bound
    ``-r - 1``).
    """
    bounds: List[LinTerm] = []
    if isinstance(formula, ILt):
        coeff = formula.term.coeff_of(var)
        if coeff == -1:
            bounds.append(formula.term.drop(var))
    elif isinstance(formula, IEq):
        coeff = formula.term.coeff_of(var)
        if coeff == 1:
            bounds.append(formula.term.drop(var).negate().add(LinTerm.constant_term(-1)))
        elif coeff == -1:
            bounds.append(formula.term.drop(var).add(LinTerm.constant_term(-1)))
    elif isinstance(formula, INot):
        bounds.extend(_lower_bound_terms(formula.body, var))
    elif isinstance(formula, (IAnd, IOr)):
        for part in formula.parts:
            bounds.extend(_lower_bound_terms(part, var))
    return bounds


def _divisibility_lcm(formula: IFormula, var: str) -> int:
    lcm = 1
    if isinstance(formula, IDvd):
        if formula.term.coeff_of(var) != 0:
            lcm = formula.modulus
    elif isinstance(formula, INot):
        lcm = _divisibility_lcm(formula.body, var)
    elif isinstance(formula, (IAnd, IOr)):
        for part in formula.parts:
            part_lcm = _divisibility_lcm(part, var)
            lcm = lcm * part_lcm // math.gcd(lcm, part_lcm)
    return lcm


def _fold_constants(formula: IFormula) -> IFormula:
    """Evaluate variable-free atoms and deduplicate operands (keeps formulas small)."""
    if isinstance(formula, ILt):
        if formula.term.is_constant():
            return _TRUE if formula.term.constant < 0 else _FALSE
        return formula
    if isinstance(formula, IEq):
        if formula.term.is_constant():
            return _TRUE if formula.term.constant == 0 else _FALSE
        return formula
    if isinstance(formula, IDvd):
        if formula.term.is_constant():
            return _TRUE if formula.term.constant % formula.modulus == 0 else _FALSE
        return formula
    if isinstance(formula, INot):
        inner = _fold_constants(formula.body)
        if isinstance(inner, ITrue):
            return _FALSE
        if isinstance(inner, IFalse):
            return _TRUE
        return INot(inner)
    if isinstance(formula, IAnd):
        folded = _iand([_fold_constants(p) for p in formula.parts])
        if isinstance(folded, IAnd):
            unique = tuple(dict.fromkeys(folded.parts))
            return unique[0] if len(unique) == 1 else IAnd(unique)
        return folded
    if isinstance(formula, IOr):
        folded = _ior([_fold_constants(p) for p in formula.parts])
        if isinstance(folded, IOr):
            unique = tuple(dict.fromkeys(folded.parts))
            return unique[0] if len(unique) == 1 else IOr(unique)
        return folded
    return formula


def _pinned_value(formula: IFormula, var: str) -> Optional[LinTerm]:
    """``t`` when ``formula`` is, or has as a conjunct, ``var = t`` (unit
    coefficient), else ``None``."""
    for part in formula.parts if isinstance(formula, IAnd) else (formula,):
        if isinstance(part, IEq):
            coeff = part.term.coeff_of(var)
            if coeff in (1, -1):
                return part.term.drop(var).scale(-coeff)
    return None


def _eliminate_exists(
    var: str, body: IFormula, deadline: Optional["Deadline"] = None
) -> IFormula:
    """Eliminate ``exists var`` from a quantifier-free internal formula.

    Three equivalences keep the result small before Cooper's procedure
    runs: ``exists`` distributes over disjunction, conjuncts without
    ``var`` move out of its scope, and a conjunct ``var = t`` is eliminated
    by substituting ``t`` — as is a disjunction whose every disjunct pins
    ``var`` that way, which is how a stored relation expands.
    """
    body = _nnf(body)
    if not _collect_coefficients(body, var):
        return body
    if isinstance(body, IOr):
        return _fold_constants(
            _ior([_eliminate_exists(var, part, deadline) for part in body.parts])
        )
    if isinstance(body, IAnd):
        mentions = [bool(_collect_coefficients(p, var)) for p in body.parts]
        if not all(mentions):
            inert = [p for p, m in zip(body.parts, mentions) if not m]
            scoped = _iand([p for p, m in zip(body.parts, mentions) if m])
            return _iand([*inert, _eliminate_exists(var, scoped, deadline)])
        pinned = _pinned_value(body, var)
        if pinned is not None:
            return _fold_constants(_substitute_var(body, var, pinned))
        for index, part in enumerate(body.parts):
            disjuncts = part.parts if isinstance(part, IOr) else ()
            if disjuncts and all(_pinned_value(d, var) is not None for d in disjuncts):
                rest = list(body.parts[:index] + body.parts[index + 1:])
                results = []
                for disjunct in disjuncts:
                    if deadline is not None:
                        deadline.check("cooper elimination")
                    results.append(_eliminate_exists(var, _iand([disjunct, *rest]), deadline))
                return _fold_constants(_ior(results))
    return _cooper(var, body, deadline)


def _cooper(var: str, body: IFormula, deadline: Optional["Deadline"]) -> IFormula:
    """Cooper's elimination of ``exists var`` from an NNF formula.

    A ``deadline`` is checked once per (bound, residue) substitution, the
    loop whose size grows with the formula.
    """
    coefficients = _collect_coefficients(body, var)
    delta = 1
    for coeff in coefficients:
        delta = delta * abs(coeff) // math.gcd(delta, abs(coeff))
    normalised = _normalize_coefficients(body, var, delta)
    if delta != 1:
        normalised = _iand([normalised, IDvd(delta, LinTerm.variable(var))])
    modulus = _divisibility_lcm(normalised, var)
    lower_bounds = _lower_bound_terms(normalised, var)

    disjuncts: List[IFormula] = []
    minus_inf = _minus_infinity(normalised, var)
    for j in range(1, modulus + 1):
        disjuncts.append(_fold_constants(_substitute_var(minus_inf, var, LinTerm.constant_term(j))))
    unique_bounds = list(dict.fromkeys(lower_bounds))
    for bound in unique_bounds:
        for j in range(1, modulus + 1):
            if deadline is not None:
                deadline.check("cooper elimination")
            replacement = bound.add(LinTerm.constant_term(j))
            disjuncts.append(_fold_constants(_substitute_var(normalised, var, replacement)))
    return _fold_constants(_ior(disjuncts))


def _eliminate_all(
    formula: IFormula, deadline: Optional["Deadline"] = None
) -> IFormula:
    """Eliminate every quantifier, innermost first; a ``deadline`` is also
    checked after each eliminated quantifier."""
    if isinstance(formula, (ILt, IEq, IDvd, ITrue, IFalse)):
        return formula
    if isinstance(formula, INot):
        return INot(_eliminate_all(formula.body, deadline))
    if isinstance(formula, IAnd):
        return _iand([_eliminate_all(p, deadline) for p in formula.parts])
    if isinstance(formula, IOr):
        return _ior([_eliminate_all(p, deadline) for p in formula.parts])
    if isinstance(formula, IExists):
        body = _eliminate_all(formula.body, deadline)
        eliminated = _eliminate_exists(formula.var, body, deadline)
        if deadline is not None:
            deadline.check("cooper elimination")
        return eliminated
    raise TypeError(f"not an internal formula: {formula!r}")


# ---------------------------------------------------------------------------
# Evaluation and conversion back to the logic AST
# ---------------------------------------------------------------------------


def _evaluate_internal(formula: IFormula, assignment: Dict[str, int]) -> bool:
    if isinstance(formula, ITrue):
        return True
    if isinstance(formula, IFalse):
        return False
    if isinstance(formula, ILt):
        return formula.term.evaluate(assignment) < 0
    if isinstance(formula, IEq):
        return formula.term.evaluate(assignment) == 0
    if isinstance(formula, IDvd):
        return formula.term.evaluate(assignment) % formula.modulus == 0
    if isinstance(formula, INot):
        return not _evaluate_internal(formula.body, assignment)
    if isinstance(formula, IAnd):
        return all(_evaluate_internal(p, assignment) for p in formula.parts)
    if isinstance(formula, IOr):
        return any(_evaluate_internal(p, assignment) for p in formula.parts)
    raise TypeError(f"cannot evaluate {formula!r}")


def _internal_to_formula(formula: IFormula) -> Formula:
    if isinstance(formula, ITrue):
        return TOP
    if isinstance(formula, IFalse):
        return BOTTOM
    if isinstance(formula, ILt):
        return Atom("<", (formula.term.to_logic_term(), Const(0)))
    if isinstance(formula, IEq):
        return Equals(formula.term.to_logic_term(), Const(0))
    if isinstance(formula, IDvd):
        return Atom("divides", (Const(formula.modulus), formula.term.to_logic_term()))
    if isinstance(formula, INot):
        return neg(_internal_to_formula(formula.body))
    if isinstance(formula, IAnd):
        return conj(*(_internal_to_formula(p) for p in formula.parts))
    if isinstance(formula, IOr):
        return disj(*(_internal_to_formula(p) for p in formula.parts))
    raise TypeError(f"cannot convert {formula!r}")


def eliminate_presburger_quantifiers(
    formula: Formula, naturals: bool = True
) -> Formula:
    """Quantifier elimination for linear arithmetic, returning a logic formula.

    With ``naturals=True`` quantifiers are relativised to the non-negative
    integers before elimination, matching the domain ``(N, <, +, -)``.
    """
    internal = _formula_to_internal(formula, relativize_naturals=naturals)
    eliminated = _eliminate_all(internal)
    return _internal_to_formula(eliminated)


# ---------------------------------------------------------------------------
# Quantifier-free forms: eliminate once, then evaluate
# ---------------------------------------------------------------------------


def _unbounded(formula: IFormula, var: str, above: bool) -> bool:
    """Cooper's ``±inf`` test on an NNF formula whose only variable is ``var``.

    Below every boundary point each order atom takes its ``F_-inf`` value,
    and ``F_-inf`` is periodic in ``var`` with period ``D`` (the lcm of the
    divisibility moduli), so the formula holds for arbitrarily small values
    iff ``F_-inf`` holds at one of ``0..D-1``.  ``above`` asks the same of
    large values, by mirroring ``var``.
    """
    if above:
        formula = _substitute_var(formula, var, LinTerm.make({var: -1}, 0))
    limit = _minus_infinity(formula, var)
    period = _divisibility_lcm(limit, var)
    return any(_evaluate_internal(limit, {var: j}) for j in range(period))


def _boundary_points(formula: IFormula, var: str) -> Set[int]:
    """The values of ``var`` next to which an order atom changes truth.

    ``c*var + r < 0`` contributes the last value where it holds and the
    first where it does not (or the reverse for ``c < 0``); ``c*var + r = 0``
    contributes its one solution, if it is an integer.  Strictly between two
    consecutive points every order atom is constant, so there the formula is
    periodic in ``var`` with the divisibility period.
    """
    points: Set[int] = set()
    if isinstance(formula, (ILt, IEq)):
        coeff = formula.term.coeff_of(var)
        rest = formula.term.constant
        if coeff == 0:
            pass
        elif isinstance(formula, IEq):
            if rest % coeff == 0:
                points.add(-rest // coeff)
        elif coeff > 0:  # holds iff var <= last
            last = (-rest - 1) // coeff
            points.update((last, last + 1))
        else:  # holds iff var >= first
            first = rest // -coeff + 1
            points.update((first - 1, first))
    elif isinstance(formula, INot):
        points |= _boundary_points(formula.body, var)
    elif isinstance(formula, (IAnd, IOr)):
        for part in formula.parts:
            points |= _boundary_points(part, var)
    return points


def _read_off(
    formula: IFormula, var: str, deadline: Optional["Deadline"]
) -> Iterator[int]:
    """Every value of ``var`` satisfying a bounded NNF formula, ascending.

    Bounded means no solution below the least boundary point or above the
    greatest one (the ``±inf`` test), so the scan covers the points and the
    segments between them: a segment costs at most one period of
    evaluations plus one step per emitted value.
    """
    period = _divisibility_lcm(formula, var)
    points = sorted(_boundary_points(formula, var))

    def holds(value: int) -> bool:
        return _evaluate_internal(formula, {var: value})

    for index, point in enumerate(points):
        if deadline is not None:
            deadline.check("quantifier-free read-off")
        if holds(point):
            yield point
        if index + 1 == len(points):
            break
        low, high = point + 1, points[index + 1]
        if high - low <= period:
            yield from (value for value in range(low, high) if holds(value))
            continue
        offsets = [offset for offset in range(period) if holds(low + offset)]
        if offsets:
            for base in range(low, high, period):
                yield from (base + o for o in offsets if base + o < high)


def _project(
    formula: IFormula, keep: str, others: Sequence[str],
    deadline: Optional["Deadline"],
) -> IFormula:
    """``exists others. formula`` — the projection onto ``keep`` — in NNF."""
    projection = _nnf(formula)
    for other in others:
        if other != keep:
            projection = _eliminate_exists(other, projection, deadline)
    return projection


def _rows(
    formula: IFormula, variables: Sequence[str], deadline: Optional["Deadline"]
) -> Iterator[Tuple[int, ...]]:
    """The satisfying rows: read the first column off its projection, then
    recurse on the formula with that column fixed."""
    if not variables:
        if _evaluate_internal(formula, {}):
            yield ()
        return
    first, rest = variables[0], variables[1:]
    projection = _project(formula, first, rest, deadline)
    if _unbounded(projection, first, above=True) or _unbounded(projection, first, above=False):
        raise ValueError(f"column {first!r} is unbounded: the rows are infinite")
    for value in _read_off(projection, first, deadline):
        if not rest:
            yield (value,)
            continue
        fixed = _fold_constants(
            _substitute_var(formula, first, LinTerm.constant_term(value))
        )
        for tail in _rows(fixed, rest, deadline):
            yield (value,) + tail


@dataclass(frozen=True)
class QuantifierFreeForm:
    """ψ(x̄): a formula's quantifier-free Cooper form, read without deciding.

    Built once by :meth:`PresburgerDomain.quantifier_free`; afterwards no
    question about the formula needs another quantifier elimination per
    candidate:

    * :meth:`holds` evaluates one row;
    * :meth:`bounded` is Cooper's ``±inf`` test on every projection — a set
      of integer tuples is finite iff every projection is bounded;
    * :meth:`rows` reads a bounded ψ's rows off exactly.

    Over the naturals ``body`` includes ``x >= 0`` for every column.
    ``encode``/``decode`` map carrier elements to and from the integers
    (identity unless a domain reaches Presburger through an isomorphism).

    >>> from repro.experiments.corpora import numeric_state
    >>> from repro.logic.parser import parse_formula
    >>> from repro.relational.translate import expand_database_atoms
    >>> below = parse_formula("exists y. (S(y) & x < y)")
    >>> psi = PresburgerDomain().quantifier_free(
    ...     expand_database_atoms(below, numeric_state([2, 9])))
    >>> psi.bounded()
    True
    >>> [x for (x,) in psi.rows()]
    [0, 1, 2, 3, 4, 5, 6, 7, 8]
    >>> psi.holds((8,)), psi.holds((9,))
    (True, False)
    """

    body: IFormula
    variables: Tuple[str, ...]
    encode: Optional[Callable[[Any], int]] = None
    decode: Optional[Callable[[int], Element]] = None

    def holds(self, row: Sequence[Element]) -> bool:
        """True iff ``row`` (one element per column) satisfies ψ."""
        encode = self.encode or int
        assignment = {v: encode(value) for v, value in zip(self.variables, row)}
        return _evaluate_internal(self.body, assignment)

    def bounded(self, deadline: Optional["Deadline"] = None) -> bool:
        """True iff every projection is bounded above and below — i.e. ψ has
        finitely many rows.  Over the naturals the ``x >= 0`` conjuncts make
        every ``-inf`` test fail."""
        for variable in self.variables:
            projection = _project(self.body, variable, self.variables, deadline)
            if _unbounded(projection, variable, above=True):
                return False
            if _unbounded(projection, variable, above=False):
                return False
        return True

    def rows(self, deadline: Optional["Deadline"] = None) -> Iterator[Tuple[Element, ...]]:
        """Every row of a bounded ψ, exactly (``ValueError`` if unbounded).

        ``deadline`` is checked once per segment between boundary points.
        """
        for row in _rows(self.body, self.variables, deadline):
            yield row if self.decode is None else tuple(map(self.decode, row))


# ---------------------------------------------------------------------------
# The domain object
# ---------------------------------------------------------------------------


class PresburgerDomain(Domain):
    """Linear integer/natural arithmetic: ``<``, ``<=``, ``+``, ``-``, ``succ``, ``divides``.

    The default carrier is the natural numbers (the paper's ``N``); pass
    ``carrier='integers'`` for the integers, in which case subtraction is
    exact rather than truncated.
    """

    signature = Signature(
        predicates={"<": 2, "<=": 2, ">": 2, ">=": 2, "divides": 2},
        functions={"+": 2, "-": 2, "*": 2, "succ": 1},
    )
    has_decidable_theory = True
    supports_compiled_algebra = True

    def __init__(self, carrier: str = "naturals"):
        if carrier not in ("naturals", "integers"):
            raise ValueError("carrier must be 'naturals' or 'integers'")
        self._carrier = carrier
        self.name = "presburger_naturals" if carrier == "naturals" else "presburger_integers"

    @property
    def naturals(self) -> bool:
        """True iff the carrier is the natural numbers."""
        return self._carrier == "naturals"

    # -- carrier -------------------------------------------------------------

    def contains(self, element: Element) -> bool:
        if not isinstance(element, int) or isinstance(element, bool):
            return False
        return element >= 0 if self.naturals else True

    def enumerate_elements(self) -> Iterator[int]:
        if self.naturals:
            value = 0
            while True:
                yield value
                value += 1
        else:
            yield 0
            value = 1
            while True:
                yield value
                yield -value
                value += 1

    # -- evaluation ----------------------------------------------------------

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        values = [int(a) for a in args]
        if name == "+":
            return values[0] + values[1]
        if name == "-":
            # Subtraction is exact (integer) subtraction, matching the
            # interpretation used by the quantifier-elimination procedure.
            return values[0] - values[1]
        if name == "*":
            return values[0] * values[1]
        if name == "succ":
            return values[0] + 1
        raise KeyError(f"unknown arithmetic function {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        values = [int(a) for a in args]
        if name == "<":
            return values[0] < values[1]
        if name == "<=":
            return values[0] <= values[1]
        if name == ">":
            return values[0] > values[1]
        if name == ">=":
            return values[0] >= values[1]
        if name == "divides":
            if values[0] == 0:
                return values[1] == 0
            return values[1] % values[0] == 0
        raise KeyError(f"unknown arithmetic predicate {name!r}")

    # -- decision procedure ---------------------------------------------------

    def eliminate_quantifiers(self, formula: Formula) -> Formula:
        """Cooper quantifier elimination specialised to this domain's carrier."""
        return eliminate_presburger_quantifiers(formula, naturals=self.naturals)

    def quantifier_free(
        self,
        formula: Formula,
        free_order: Optional[Sequence[Var]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> QuantifierFreeForm:
        """ψ: the quantifier-free Cooper form of a pure ``formula``.

        Its columns are ``free_order`` (default: the free variables by
        name); over the naturals every quantifier and every column is
        relativised to ``x >= 0``.  A ``deadline`` is checked after each
        eliminated quantifier and inside Cooper's substitution loop.
        """
        if free_order is None:
            free_order = sorted(free_variables(formula), key=lambda v: v.name)
        variables = tuple(v.name for v in free_order)
        internal = _formula_to_internal(formula, relativize_naturals=self.naturals)
        body = _eliminate_all(internal, deadline)
        if self.naturals:
            non_negative = [ILt(LinTerm.make({v: -1}, -1)) for v in variables]
            body = _iand([body, *non_negative])
        return QuantifierFreeForm(_fold_constants(_nnf(body)), variables)

    def decide(self, sentence: Formula) -> bool:
        """Decide a pure arithmetic sentence via quantifier elimination."""
        self._require_sentence(sentence)
        internal = _formula_to_internal(sentence, relativize_naturals=self.naturals)
        eliminated = _eliminate_all(internal)
        return _evaluate_internal(eliminated, {})
