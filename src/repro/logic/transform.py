"""Formula transformations: simplification, NNF, prenex form, DNF.

Every quantifier-elimination procedure in the library follows the same recipe
used throughout the paper's Appendix: push negations inward, bring the matrix
into disjunctive normal form, distribute the existential quantifier over the
disjunction, and then eliminate it from a conjunction of literals.  The
generic parts of that recipe live here.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from .builders import conj, disj, neg
from .formulas import (
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
    is_quantifier_free,
)
from .substitution import rename_bound_variables
from .terms import Apply, Term, Var

if TYPE_CHECKING:  # repro.engine imports the logic package
    from ..engine.budget import Deadline

__all__ = [
    "simplify",
    "to_nnf",
    "to_prenex",
    "matrix_and_prefix",
    "to_dnf",
    "dnf_clauses",
    "eliminate_quantifiers",
]


def simplify(formula: Formula) -> Formula:
    """Bottom-up boolean simplification (constants, double negation, flattening)."""
    if isinstance(formula, (Atom, Equals, Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return neg(simplify(formula.body))
    if isinstance(formula, And):
        return conj(*(simplify(c) for c in formula.conjuncts))
    if isinstance(formula, Or):
        return disj(*(simplify(d) for d in formula.disjuncts))
    if isinstance(formula, Implies):
        return disj(neg(simplify(formula.antecedent)), simplify(formula.consequent))
    if isinstance(formula, Iff):
        left = simplify(formula.left)
        right = simplify(formula.right)
        if left == right:
            return TOP
        return conj(disj(neg(left), right), disj(neg(right), left))
    if isinstance(formula, Exists):
        body = simplify(formula.body)
        if isinstance(body, (Top, Bottom)):
            return body
        if not _occurs_free(Var(formula.var), body):
            return body
        return Exists(formula.var, body)
    if isinstance(formula, ForAll):
        body = simplify(formula.body)
        if isinstance(body, (Top, Bottom)):
            return body
        if not _occurs_free(Var(formula.var), body):
            return body
        return ForAll(formula.var, body)
    raise TypeError(f"not a formula: {formula!r}")


def _occurs_free(var: Var, formula: Formula) -> bool:
    """Whether ``var`` occurs free in ``formula``.

    Equivalent to ``var in free_variables(formula)``, but it stops at the
    first occurrence and builds no sets: :func:`simplify` asks this of every
    quantifier's body, and on a state-expanded formula those bodies hold
    one equality per stored row.
    """
    if isinstance(formula, Atom):
        return any(_term_mentions(var, arg) for arg in formula.args)
    if isinstance(formula, Equals):
        return _term_mentions(var, formula.left) or _term_mentions(var, formula.right)
    if isinstance(formula, Not):
        return _occurs_free(var, formula.body)
    if isinstance(formula, And):
        return any(_occurs_free(var, c) for c in formula.conjuncts)
    if isinstance(formula, Or):
        return any(_occurs_free(var, d) for d in formula.disjuncts)
    if isinstance(formula, Implies):
        return _occurs_free(var, formula.antecedent) or _occurs_free(var, formula.consequent)
    if isinstance(formula, Iff):
        return _occurs_free(var, formula.left) or _occurs_free(var, formula.right)
    if isinstance(formula, (Exists, ForAll)):
        return formula.var != var.name and _occurs_free(var, formula.body)
    if isinstance(formula, (Top, Bottom)):
        return False
    raise TypeError(f"not a formula: {formula!r}")


def _term_mentions(var: Var, term: Term) -> bool:
    if isinstance(term, Apply):
        return any(_term_mentions(var, arg) for arg in term.args)
    return term == var


def to_nnf(formula: Formula) -> Formula:
    """Negation normal form: negations only on atoms, no ``->``/``<->``."""

    def nnf(f: Formula, positive: bool) -> Formula:
        if isinstance(f, (Atom, Equals)):
            return f if positive else Not(f)
        if isinstance(f, Top):
            return TOP if positive else BOTTOM
        if isinstance(f, Bottom):
            return BOTTOM if positive else TOP
        if isinstance(f, Not):
            return nnf(f.body, not positive)
        if isinstance(f, And):
            parts = tuple(nnf(c, positive) for c in f.conjuncts)
            return conj(*parts) if positive else disj(*parts)
        if isinstance(f, Or):
            parts = tuple(nnf(d, positive) for d in f.disjuncts)
            return disj(*parts) if positive else conj(*parts)
        if isinstance(f, Implies):
            if positive:
                return disj(nnf(f.antecedent, False), nnf(f.consequent, True))
            return conj(nnf(f.antecedent, True), nnf(f.consequent, False))
        if isinstance(f, Iff):
            left_pos = nnf(f.left, True)
            left_neg = nnf(f.left, False)
            right_pos = nnf(f.right, True)
            right_neg = nnf(f.right, False)
            if positive:
                return disj(conj(left_pos, right_pos), conj(left_neg, right_neg))
            return disj(conj(left_pos, right_neg), conj(left_neg, right_pos))
        if isinstance(f, Exists):
            body = nnf(f.body, positive)
            return Exists(f.var, body) if positive else ForAll(f.var, body)
        if isinstance(f, ForAll):
            body = nnf(f.body, positive)
            return ForAll(f.var, body) if positive else Exists(f.var, body)
        raise TypeError(f"not a formula: {f!r}")

    return simplify(nnf(formula, True))


def to_prenex(formula: Formula) -> Formula:
    """Prenex normal form: all quantifiers pulled to the front.

    The formula is first rectified (bound variables renamed apart) and put
    into NNF, after which quantifiers commute freely with the remaining
    connectives.
    """
    rectified = rename_bound_variables(to_nnf(formula))

    def pull(f: Formula) -> Tuple[List[Tuple[type, str]], Formula]:
        if isinstance(f, (Atom, Equals, Not, Top, Bottom)):
            return [], f
        if isinstance(f, Exists):
            prefix, matrix = pull(f.body)
            return [(Exists, f.var)] + prefix, matrix
        if isinstance(f, ForAll):
            prefix, matrix = pull(f.body)
            return [(ForAll, f.var)] + prefix, matrix
        if isinstance(f, And):
            prefixes: List[Tuple[type, str]] = []
            matrices = []
            for c in f.conjuncts:
                p, m = pull(c)
                prefixes.extend(p)
                matrices.append(m)
            return prefixes, conj(*matrices)
        if isinstance(f, Or):
            prefixes = []
            matrices = []
            for d in f.disjuncts:
                p, m = pull(d)
                prefixes.extend(p)
                matrices.append(m)
            return prefixes, disj(*matrices)
        raise TypeError(f"unexpected connective in NNF: {f!r}")

    prefix, matrix = pull(rectified)
    result = matrix
    for cls, name in reversed(prefix):
        result = cls(name, result)
    return result


def matrix_and_prefix(formula: Formula) -> Tuple[List[Tuple[type, str]], Formula]:
    """Split a prenex formula into its quantifier prefix and matrix."""
    prefix: List[Tuple[type, str]] = []
    current = formula
    while isinstance(current, (Exists, ForAll)):
        prefix.append((type(current), current.var))
        current = current.body
    return prefix, current


def to_dnf(formula: Formula) -> Formula:
    """Disjunctive normal form of a quantifier-free formula."""
    if not is_quantifier_free(formula):
        raise ValueError("to_dnf expects a quantifier-free formula")
    nnf = to_nnf(formula)

    def dnf(f: Formula) -> Formula:
        if isinstance(f, Or):
            return disj(*(dnf(d) for d in f.disjuncts))
        if isinstance(f, And):
            parts = [dnf(c) for c in f.conjuncts]
            clauses: List[List[Formula]] = [[]]
            for part in parts:
                options = part.disjuncts if isinstance(part, Or) else (part,)
                clauses = [clause + [opt] for clause in clauses for opt in options]
            return disj(*(conj(*clause) for clause in clauses))
        return f

    return simplify(dnf(nnf))


def dnf_clauses(formula: Formula) -> List[List[Formula]]:
    """The clauses of the DNF of a quantifier-free formula, as lists of literals.

    The result is a list of conjunctive clauses; each clause is a list of
    literals.  ``Top`` yields one empty clause; ``Bottom`` yields no clauses.
    """
    dnf = to_dnf(formula)
    if isinstance(dnf, Bottom):
        return []
    if isinstance(dnf, Top):
        return [[]]
    disjuncts = dnf.disjuncts if isinstance(dnf, Or) else (dnf,)
    clauses = []
    for d in disjuncts:
        literals = list(d.conjuncts) if isinstance(d, And) else [d]
        clauses.append(literals)
    return clauses


def _product_clauses(conjuncts: List[Formula]) -> Iterator[List[Formula]]:
    """Clauses whose disjunction is equivalent to ``conj(*conjuncts)`` —
    and so to that of ``dnf_clauses(conj(*conjuncts))`` — one at a time, for
    conjuncts as ``conj`` leaves them (flattened and distinct).

    Each conjunct is put into DNF on its own and the clauses of the product
    are built as they are consumed, so a caller that checks a deadline per
    clause never waits on the whole product (the clause sets of nested
    quantifiers over stored relations multiply).  The clauses need not be
    those of the whole-formula DNF, which simplification shrinks (it drops
    contradictory and absorbed clauses, and conjuncts that normalise alike
    count once) where the raw product here keeps them all.  A clause may
    repeat; the caller's ``disj`` removes the duplicate results.
    """
    for combination in product(*(dnf_clauses(c) for c in conjuncts)):
        # DNF literals are never constants, so ``conj`` would only drop repeats
        yield list(dict.fromkeys(literal for part in combination for literal in part))


def eliminate_quantifiers(
    formula: Formula,
    eliminate_exists_clause: Callable[[str, List[Formula]], Formula],
    deadline: Optional["Deadline"] = None,
) -> Formula:
    """Generic quantifier elimination driver.

    ``eliminate_exists_clause(var, literals)`` must return a quantifier-free
    formula equivalent to ``exists var . conj(*literals)`` where every literal
    is quantifier-free.  Universal quantifiers are handled by dualisation and
    inner quantifiers are eliminated first.

    ``exists var`` distributes over the disjuncts of its (NNF) body, and in
    each disjunct the conjuncts without ``var`` move out of its scope before
    the rest is put into DNF.  A stored relation expands to a disjunction per
    column, so without this split the clauses of ``∃y∃z (S(y) ∧ S(z) ∧ …)``
    would multiply the two expansions.  A ``deadline`` is checked once per
    eliminated quantifier and once per clause.
    """

    def exists(var: str, body: Formula) -> Formula:
        if isinstance(body, Or):
            return disj(*(exists(var, d) for d in body.disjuncts))
        conjuncts = body.conjuncts if isinstance(body, And) else (body,)
        scoped = [c for c in conjuncts if _occurs_free(Var(var), c)]
        if not scoped:
            return body
        inert = [c for c in conjuncts if not _occurs_free(Var(var), c)]
        eliminated: List[Formula] = []
        for clause in _product_clauses(scoped):
            if deadline is not None:
                deadline.check("quantifier elimination")
            eliminated.append(eliminate_exists_clause(var, clause))
        return conj(*inert, disj(*eliminated))

    def walk(f: Formula) -> Formula:
        if isinstance(f, (Atom, Equals, Top, Bottom)):
            return f
        if isinstance(f, Not):
            return neg(walk(f.body))
        if isinstance(f, And):
            return conj(*(walk(c) for c in f.conjuncts))
        if isinstance(f, Or):
            return disj(*(walk(d) for d in f.disjuncts))
        if isinstance(f, Implies):
            return walk(disj(neg(f.antecedent), f.consequent))
        if isinstance(f, Iff):
            return walk(conj(Implies(f.left, f.right), Implies(f.right, f.left)))
        if isinstance(f, Exists):
            eliminated = simplify(exists(f.var, to_nnf(walk(f.body))))
            if deadline is not None:
                deadline.check("quantifier elimination")
            return eliminated
        if isinstance(f, ForAll):
            return neg(walk(Exists(f.var, neg(f.body))))
        raise TypeError(f"not a formula: {f!r}")

    return simplify(walk(simplify(formula)))
