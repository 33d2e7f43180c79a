"""The Reach Theory of Traces (Appendix of the paper).

The Theory of Traces — the first-order theory of the domain **T** with the
single predicate ``P`` — does not admit quantifier elimination directly.  The
paper therefore extends the signature with recursive, first-order-definable
symbols:

* unary sort predicates ``M``, ``W``, ``T``, ``O`` separating machine words,
  input words, traces, and other words;
* the family ``B_w`` ("the input word starts with ``w``", read over the
  blank-padded word) — represented here as a binary atom ``B(w, x)`` whose
  first argument must be a constant input word;
* the families ``D_i`` ("machine has at least *i* traces on the word") and
  ``E_i`` ("exactly *i* traces") — represented as ternary atoms ``D(i, M, w)``
  and ``E(i, M, w)`` whose first argument must be a positive integer constant;
* the unary functions ``w(·)`` and ``m(·)`` extracting the input word and the
  machine of a trace (the empty word on non-traces).

In this extended signature the theory admits the elimination of quantifiers
(Theorem A.3); since the domain is recursive this yields decidability of both
the Reach Theory and the original Theory of Traces (Corollary A.4).

This module provides:

* :class:`ReachTracesDomain` — recursive evaluation of every symbol,
  enumeration of the carrier, and the decision procedure;
* :func:`lemma_a2_satisfiable` / :func:`lemma_a2_witness` — the combinatorial
  satisfiability criterion of Lemma A.2 for systems of ``D``/``E``
  constraints, and the explicit prefix-tree witness machine;
* :func:`eliminate_reach_quantifiers` — the Theorem A.3 quantifier
  elimination, organised exactly as the paper's case analysis (cases M, W,
  T-1 … T-4, O);
* :func:`expand_trace_predicate` — the definitional translation of ``P`` into
  the extended signature (``P(M, w, p)  ⟺  T(p) ∧ m(p) = M ∧ w(p) = w``).

Calibration note (documented substitution): the paper leaves the trace
encoding free, and our encoding has ``s + 1`` traces for a machine halting
after ``s`` steps.  With that convention, whether a machine has *exactly*
``j`` traces on a word depends only on the blank-padded prefix of length
``j`` of the word, which is precisely the prefix length appearing in
Lemma A.2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

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
from ..logic.substitution import substitute
from ..logic.terms import Apply, Const, Term, Var, term_variables
from ..logic.transform import dnf_clauses, eliminate_quantifiers, simplify
from ..relational.state import Element
from ..turing.builders import ExactHaltSpec, MinRunSpec, prefix_tree_witness
from ..turing.tape import BLANK
from ..turing.traces import (
    classify_word,
    has_at_least_traces,
    has_exactly_traces,
    holds_P,
    input_of_trace,
    machine_of_trace,
)
from ..turing.words import (
    DOMAIN_ALPHABET,
    MARK,
    WordSort,
    is_input_word,
    is_machine_word,
    words_over,
)
from .base import Domain, DomainError
from .signature import Signature

__all__ = [
    "REACH_SIGNATURE",
    "ReachTracesDomain",
    "AtLeastConstraint",
    "ExactlyConstraint",
    "padded_prefix",
    "starts_with_padded",
    "lemma_a2_conflicts",
    "lemma_a2_satisfiable",
    "lemma_a2_witness",
    "expand_trace_predicate",
    "eliminate_reach_quantifiers",
]


REACH_SIGNATURE = Signature(
    predicates={"M": 1, "W": 1, "T": 1, "O": 1, "B": 2, "D": 3, "E": 3, "P": 3},
    functions={"w": 1, "m": 1},
)


# ---------------------------------------------------------------------------
# Blank-padded prefixes and Lemma A.2
# ---------------------------------------------------------------------------


def padded_prefix(word: str, length: int) -> str:
    """The first ``length`` characters of ``word`` read over the blank padding."""
    if length <= 0:
        return ""
    if len(word) >= length:
        return word[:length]
    return word + BLANK * (length - len(word))


def starts_with_padded(word: str, prefix: str) -> bool:
    """True iff ``prefix`` is a prefix of ``word`` padded with blanks (``B_prefix(word)``)."""
    return padded_prefix(word, len(prefix)) == prefix


@dataclass(frozen=True)
class AtLeastConstraint:
    """``D_count``: the machine must have at least ``count`` traces on ``word``."""

    word: str
    count: int


@dataclass(frozen=True)
class ExactlyConstraint:
    """``E_count``: the machine must have exactly ``count`` traces on ``word``."""

    word: str
    count: int


def lemma_a2_conflicts(
    at_least: Sequence[AtLeastConstraint],
    exactly: Sequence[ExactlyConstraint],
) -> List[Tuple[str, object, object]]:
    """The conflicting constraint pairs of Lemma A.2 (empty iff satisfiable).

    A conflict arises when

    1. ``D_i(x, v)`` and ``E_j(x, u)`` with ``i > j`` and the blank-padded
       prefixes of ``v`` and ``u`` of length ``j`` coincide, or
    2. two exact constraints ``E_{j_r}(x, u_r)``, ``E_{j_q}(x, u_q)`` with
       ``j_r > j_q`` and the blank-padded prefixes of length ``j_q`` coincide,

    plus the degenerate case of an exact constraint asking for fewer than one
    trace, which no machine can satisfy (the initial snapshot always exists).
    """
    conflicts: List[Tuple[str, object, object]] = []
    for exact in exactly:
        if exact.count < 1:
            conflicts.append(("impossible-count", exact, exact))
    for lower in at_least:
        for exact in exactly:
            if lower.count > exact.count and padded_prefix(
                lower.word, exact.count
            ) == padded_prefix(exact.word, exact.count):
                conflicts.append(("at-least-vs-exactly", lower, exact))
    for first, second in itertools.permutations(exactly, 2):
        if first.count > second.count and padded_prefix(
            first.word, second.count
        ) == padded_prefix(second.word, second.count):
            conflicts.append(("exactly-vs-exactly", first, second))
    return conflicts


def lemma_a2_satisfiable(
    at_least: Sequence[AtLeastConstraint],
    exactly: Sequence[ExactlyConstraint],
) -> bool:
    """Lemma A.2: is there a machine meeting all the ``D``/``E`` constraints?"""
    return not lemma_a2_conflicts(at_least, exactly)


def lemma_a2_witness(
    at_least: Sequence[AtLeastConstraint],
    exactly: Sequence[ExactlyConstraint],
):
    """An explicit machine witnessing a satisfiable Lemma A.2 constraint system.

    Raises ``ValueError`` if the system is unsatisfiable.  The construction is
    the prefix-tree scanner described in the paper's proof ("this machine ...
    can actually be written as a finite automaton").
    """
    if not lemma_a2_satisfiable(at_least, exactly):
        raise ValueError("the constraint system is unsatisfiable (Lemma A.2)")
    exact_specs = [ExactHaltSpec(c.word, c.count) for c in exactly]
    min_specs = [MinRunSpec(c.word, c.count) for c in at_least]
    return prefix_tree_witness(exact_specs, min_specs)


# ---------------------------------------------------------------------------
# The definitional expansion of P
# ---------------------------------------------------------------------------


def expand_trace_predicate(formula: Formula) -> Formula:
    """Replace every ``P(M, w, p)`` atom by ``T(p) ∧ m(p) = M ∧ w(p) = w``."""
    if isinstance(formula, Atom):
        if formula.predicate == "P":
            if len(formula.args) != 3:
                raise DomainError("P takes exactly three arguments")
            machine_term, word_term, trace_term = formula.args
            return conj(
                Atom("T", (trace_term,)),
                Equals(Apply("m", (trace_term,)), machine_term),
                Equals(Apply("w", (trace_term,)), word_term),
            )
        return formula
    if isinstance(formula, (Equals, Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return Not(expand_trace_predicate(formula.body))
    if isinstance(formula, And):
        return And(tuple(expand_trace_predicate(c) for c in formula.conjuncts))
    if isinstance(formula, Or):
        return Or(tuple(expand_trace_predicate(d) for d in formula.disjuncts))
    if isinstance(formula, Implies):
        return Implies(
            expand_trace_predicate(formula.antecedent),
            expand_trace_predicate(formula.consequent),
        )
    if isinstance(formula, Iff):
        return Iff(expand_trace_predicate(formula.left), expand_trace_predicate(formula.right))
    if isinstance(formula, Exists):
        return Exists(formula.var, expand_trace_predicate(formula.body))
    if isinstance(formula, ForAll):
        return ForAll(formula.var, expand_trace_predicate(formula.body))
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Term utilities
# ---------------------------------------------------------------------------


def _normalize_term(term: Term) -> Term:
    """Collapse nested ``w``/``m`` applications and evaluate them on constants.

    In the Reach theory "any nested term always equals the empty word", so
    ``w(m(x))`` and friends normalise to the empty-word constant; applications
    to constants are evaluated outright.
    """
    if isinstance(term, (Var, Const)):
        return term
    if isinstance(term, Apply):
        if term.function not in ("w", "m") or len(term.args) != 1:
            raise DomainError(f"unknown trace-domain function {term.function!r}")
        inner = _normalize_term(term.args[0])
        if isinstance(inner, Apply):
            return Const("")
        if isinstance(inner, Const):
            value = str(inner.value)
            extracted = input_of_trace(value) if term.function == "w" else machine_of_trace(value)
            return Const(extracted)
        return Apply(term.function, (inner,))
    raise TypeError(f"not a term: {term!r}")


def _normalize_atom_terms(formula: Formula) -> Formula:
    """Normalise the terms inside every atom of a quantifier-free formula."""
    if isinstance(formula, Atom):
        return Atom(formula.predicate, tuple(_normalize_term(a) for a in formula.args))
    if isinstance(formula, Equals):
        return Equals(_normalize_term(formula.left), _normalize_term(formula.right))
    if isinstance(formula, Not):
        return Not(_normalize_atom_terms(formula.body))
    if isinstance(formula, And):
        return And(tuple(_normalize_atom_terms(c) for c in formula.conjuncts))
    if isinstance(formula, Or):
        return Or(tuple(_normalize_atom_terms(d) for d in formula.disjuncts))
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Implies):
        return Implies(_normalize_atom_terms(formula.antecedent), _normalize_atom_terms(formula.consequent))
    if isinstance(formula, Iff):
        return Iff(_normalize_atom_terms(formula.left), _normalize_atom_terms(formula.right))
    raise TypeError(f"unexpected formula in normalisation: {formula!r}")


def _constant_index(term: Term) -> int:
    if not isinstance(term, Const) or not isinstance(term.value, int) or term.value < 0:
        raise DomainError("D/E indices must be non-negative integer constants")
    return term.value


def _constant_word(term: Term) -> str:
    if not isinstance(term, Const) or not isinstance(term.value, str):
        raise DomainError("expected a constant word")
    return term.value


# ---------------------------------------------------------------------------
# Sort specialisation of atoms
# ---------------------------------------------------------------------------


def _specialize_term(term: Term, var: str, sort: WordSort) -> Term:
    """Rewrite terms under the assumption that ``var`` has the given sort."""
    term = _normalize_term(term)
    if isinstance(term, Apply) and term.args[0] == Var(var):
        if sort is WordSort.TRACE:
            return term
        return Const("")  # w(x) = m(x) = empty word for non-traces
    return term


def _sort_atom(predicate: str) -> WordSort:
    return {
        "M": WordSort.MACHINE,
        "W": WordSort.INPUT,
        "T": WordSort.TRACE,
        "O": WordSort.OTHER,
    }[predicate]


def _term_sort_under(term: Term, var: str, sort: WordSort) -> Optional[WordSort]:
    """The sort of a term that is known statically, given the sort of ``var``."""
    if term == Var(var):
        return sort
    if isinstance(term, Const):
        return classify_word(str(term.value)) if isinstance(term.value, str) else None
    if isinstance(term, Apply) and term.args[0] == Var(var) and sort is WordSort.TRACE:
        return WordSort.MACHINE if term.function == "m" else WordSort.INPUT
    return None


def _specialize_atom(formula: Formula, var: str, sort: WordSort) -> Formula:
    """Specialise an atomic formula under the sort assumption on ``var``."""
    if isinstance(formula, Equals):
        left = _specialize_term(formula.left, var, sort)
        right = _specialize_term(formula.right, var, sort)
        if left == right:
            return TOP
        left_sort = _term_sort_under(left, var, sort)
        right_sort = _term_sort_under(right, var, sort)
        if left_sort is not None and right_sort is not None and left_sort != right_sort:
            return BOTTOM
        if isinstance(left, Const) and isinstance(right, Const):
            return TOP if left.value == right.value else BOTTOM
        return Equals(left, right)

    if not isinstance(formula, Atom):
        raise TypeError(f"not atomic: {formula!r}")

    name = formula.predicate
    args = tuple(_specialize_term(a, var, sort) for a in formula.args)

    if name in ("M", "W", "T", "O"):
        (arg,) = args
        arg_sort = _term_sort_under(arg, var, sort)
        if arg_sort is not None:
            return TOP if arg_sort is _sort_atom(name) else BOTTOM
        return Atom(name, args)

    if name == "B":
        prefix_term, word_term = args
        prefix = _constant_word(prefix_term)
        word_sort = _term_sort_under(word_term, var, sort)
        if word_sort is not None and word_sort is not WordSort.INPUT:
            return BOTTOM
        if isinstance(word_term, Const):
            return TOP if starts_with_padded(str(word_term.value), prefix) else BOTTOM
        return Atom(name, args)

    if name in ("D", "E"):
        index_term, machine_term, word_term = args
        index = _constant_index(index_term)
        machine_sort = _term_sort_under(machine_term, var, sort)
        word_sort = _term_sort_under(word_term, var, sort)
        if machine_sort is not None and machine_sort is not WordSort.MACHINE:
            return BOTTOM
        if word_sort is not None and word_sort is not WordSort.INPUT:
            return BOTTOM
        if isinstance(machine_term, Const) and isinstance(word_term, Const):
            machine_word = str(machine_term.value)
            input_word = str(word_term.value)
            if name == "D":
                return TOP if has_at_least_traces(machine_word, input_word, index) else BOTTOM
            return TOP if has_exactly_traces(machine_word, input_word, index) else BOTTOM
        return Atom(name, (Const(index), machine_term, word_term))

    if name == "P":
        raise DomainError("P atoms must be expanded before quantifier elimination")
    raise DomainError(f"unknown trace-domain predicate {name!r}")


def _specialize_formula(formula: Formula, var: str, sort: WordSort) -> Formula:
    """Apply :func:`_specialize_atom` throughout a quantifier-free formula."""
    if isinstance(formula, (Atom, Equals)):
        return _specialize_atom(formula, var, sort)
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return neg(_specialize_formula(formula.body, var, sort))
    if isinstance(formula, And):
        return conj(*(_specialize_formula(c, var, sort) for c in formula.conjuncts))
    if isinstance(formula, Or):
        return disj(*(_specialize_formula(d, var, sort) for d in formula.disjuncts))
    raise TypeError(f"unexpected connective during specialisation: {formula!r}")


# ---------------------------------------------------------------------------
# D/E literal rewriting (second-argument expansion, negation expansion)
# ---------------------------------------------------------------------------


def _input_words_of_length(length: int) -> Iterator[str]:
    if length <= 0:
        yield ""
        return
    for letters in itertools.product((MARK, BLANK), repeat=length):
        yield "".join(letters)


def _expand_de_positive(name: str, index: int, machine_term: Term, word_term: Term) -> Formula:
    """Rewrite a positive ``D``/``E`` atom so its word argument is a constant."""
    if isinstance(word_term, Const):
        return Atom(name, (Const(index), machine_term, word_term))
    options = []
    for candidate in _input_words_of_length(index):
        options.append(
            conj(
                Atom("B", (Const(candidate), word_term)),
                Atom(name, (Const(index), machine_term, Const(candidate))),
            )
        )
    return disj(*options)


def _expand_de_negative(name: str, index: int, machine_term: Term, word_term: Term) -> Formula:
    """Rewrite a negated ``D``/``E`` atom into positive atoms with constant words."""

    def negative_with_constant(word: Term) -> Formula:
        if name == "D":
            # fewer than `index` traces
            if index <= 1:
                return BOTTOM  # there is always at least one trace
            return disj(
                *(Atom("E", (Const(k), machine_term, word)) for k in range(1, index))
            )
        # E: either more than `index` traces or fewer
        fewer = [Atom("E", (Const(k), machine_term, word)) for k in range(1, index)]
        more = Atom("D", (Const(index + 1), machine_term, word))
        return disj(more, *fewer)

    if isinstance(word_term, Const):
        return negative_with_constant(word_term)
    options: List[Formula] = [Not(Atom("W", (word_term,)))]
    for candidate in _input_words_of_length(index):
        options.append(
            conj(
                Atom("B", (Const(candidate), word_term)),
                negative_with_constant(Const(candidate)),
            )
        )
    return disj(*options)


def _rewrite_de_literals(formula: Formula, var: str) -> Formula:
    """Rewrite every ``D``/``E`` literal whose machine argument involves ``var``.

    After the rewrite, every such literal is positive and its word argument is
    a constant.  Literals not involving ``var`` (in the machine position) are
    left untouched.
    """

    def involves_var(term: Term) -> bool:
        return Var(var) in term_variables(term)

    def rewrite(f: Formula, positive: bool) -> Formula:
        if isinstance(f, Atom) and f.predicate in ("D", "E"):
            index = _constant_index(f.args[0])
            machine_term, word_term = f.args[1], f.args[2]
            if involves_var(machine_term):
                if positive:
                    return _expand_de_positive(f.predicate, index, machine_term, word_term)
                return _expand_de_negative(f.predicate, index, machine_term, word_term)
            return f if positive else Not(f)
        if isinstance(f, (Atom, Equals, Top, Bottom)):
            return f if positive else neg(f)
        if isinstance(f, Not):
            return rewrite(f.body, not positive)
        if isinstance(f, And):
            parts = [rewrite(c, positive) for c in f.conjuncts]
            return conj(*parts) if positive else disj(*parts)
        if isinstance(f, Or):
            parts = [rewrite(d, positive) for d in f.disjuncts]
            return disj(*parts) if positive else conj(*parts)
        raise TypeError(f"unexpected connective: {f!r}")

    return rewrite(formula, True)


# ---------------------------------------------------------------------------
# Per-sort existential elimination
# ---------------------------------------------------------------------------


def _mentions(formula_or_term, var: str) -> bool:
    if isinstance(formula_or_term, (Var, Const, Apply)):
        return Var(var) in term_variables(formula_or_term)
    return Var(var) in free_variables(formula_or_term)


def _split_clause(literals: Sequence[Formula], var: str) -> Tuple[List[Formula], List[Formula]]:
    """Split clause literals into those mentioning ``var`` and the rest."""
    with_var: List[Formula] = []
    without_var: List[Formula] = []
    for literal in literals:
        if _mentions(literal, var):
            with_var.append(literal)
        else:
            without_var.append(literal)
    return with_var, without_var


def _collect_de_specs(
    literals: Sequence[Formula], var: str, machine_shape: str
) -> Optional[Tuple[List[AtLeastConstraint], List[ExactlyConstraint], List[Formula]]]:
    """Collect Lemma A.2 constraints from clause literals.

    ``machine_shape`` is ``"var"`` when the machine argument must be the
    variable itself (case M) and ``"m"`` when it must be ``m(var)`` (case T).
    Returns ``None`` if some literal mentioning ``var`` does not fit the
    expected shapes; otherwise returns the constraints and the leftover
    literals mentioning ``var`` that are *not* D/E atoms (for the caller to
    handle).
    """
    at_least: List[AtLeastConstraint] = []
    exactly: List[ExactlyConstraint] = []
    leftovers: List[Formula] = []
    expected_machine = (
        Var(var) if machine_shape == "var" else Apply("m", (Var(var),))
    )
    for literal in literals:
        if isinstance(literal, Atom) and literal.predicate in ("D", "E"):
            index = _constant_index(literal.args[0])
            machine_term, word_term = literal.args[1], literal.args[2]
            if machine_term != expected_machine or not isinstance(word_term, Const):
                leftovers.append(literal)
                continue
            word = str(word_term.value)
            if literal.predicate == "D":
                at_least.append(AtLeastConstraint(word, index))
            else:
                exactly.append(ExactlyConstraint(word, index))
        else:
            leftovers.append(literal)
    return at_least, exactly, leftovers


def _is_var_disequality(literal: Formula, var: str) -> bool:
    """True iff the literal is ``var != t`` with ``t`` free of ``var``."""
    if not (isinstance(literal, Not) and isinstance(literal.body, Equals)):
        return False
    left, right = literal.body.left, literal.body.right
    if left == Var(var) and not _mentions(right, var):
        return True
    if right == Var(var) and not _mentions(left, var):
        return True
    return False


def _eliminate_machine_sort(var: str, literals: Sequence[Formula]) -> Formula:
    """Case M of Theorem A.3: the witness ranges over machine words."""
    specialized = conj(*(_specialize_formula(lit, var, WordSort.MACHINE) for lit in literals))
    if isinstance(specialized, Bottom):
        return BOTTOM
    rewritten = _rewrite_de_literals(specialized, var)
    results: List[Formula] = []
    for clause in dnf_clauses(rewritten):
        with_var, without_var = _split_clause(clause, var)
        collected = _collect_de_specs(with_var, var, machine_shape="var")
        at_least, exactly, leftovers = collected
        unsupported = [lit for lit in leftovers if not _is_var_disequality(lit, var)]
        if unsupported:
            raise DomainError(
                f"case M cannot eliminate literals {unsupported!r}"
            )
        if lemma_a2_satisfiable(at_least, exactly):
            results.append(conj(*without_var))
    return disj(*results)


def _eliminate_other_sort(var: str, literals: Sequence[Formula]) -> Formula:
    """Case O of Theorem A.3: the witness ranges over the 'other' words."""
    specialized = conj(*(_specialize_formula(lit, var, WordSort.OTHER) for lit in literals))
    if isinstance(specialized, Bottom):
        return BOTTOM
    results: List[Formula] = []
    for clause in dnf_clauses(specialized):
        with_var, without_var = _split_clause(clause, var)
        unsupported = [lit for lit in with_var if not _is_var_disequality(lit, var)]
        if unsupported:
            raise DomainError(f"case O cannot eliminate literals {unsupported!r}")
        results.append(conj(*without_var))
    return disj(*results)


def _evaluate_ground_atoms(formula: Formula, domain: "ReachTracesDomain") -> Formula:
    """Replace fully ground atoms by their truth value (keeps free-variable atoms)."""
    if isinstance(formula, (Atom, Equals)):
        if free_variables(formula):
            return formula
        from ..relational.calculus import evaluate_formula

        value = evaluate_formula(formula, universe=(), assignment={}, interpretation=domain)
        return TOP if value else BOTTOM
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return neg(_evaluate_ground_atoms(formula.body, domain))
    if isinstance(formula, And):
        return conj(*(_evaluate_ground_atoms(c, domain) for c in formula.conjuncts))
    if isinstance(formula, Or):
        return disj(*(_evaluate_ground_atoms(d, domain) for d in formula.disjuncts))
    raise TypeError(f"unexpected connective: {formula!r}")


def _eliminate_input_sort(
    var: str, literals: Sequence[Formula], domain: "ReachTracesDomain"
) -> Formula:
    """Case W of Theorem A.3: bounded search over short input words.

    "If such an input word x exists, then there exists also a short x" — the
    constraints mentioning ``x`` only depend on a blank-padded prefix whose
    length is bounded by the ``D``/``E`` indices and the ``B`` prefixes, plus
    there are only finitely many disequalities to avoid.
    """
    specialized = [
        _specialize_formula(lit, var, WordSort.INPUT) for lit in literals
    ]
    combined = conj(*specialized)
    if isinstance(combined, Bottom):
        return BOTTOM

    prefix_bound = 0
    disequalities = 0
    for literal in specialized:
        for sub in _iterate_literal_atoms(literal):
            if not _mentions(sub, var):
                continue
            if isinstance(sub, Atom) and sub.predicate == "B":
                prefix_bound = max(prefix_bound, len(_constant_word(sub.args[0])))
            elif isinstance(sub, Atom) and sub.predicate in ("D", "E"):
                prefix_bound = max(prefix_bound, _constant_index(sub.args[0]))
            elif isinstance(sub, Equals):
                disequalities += 1

    limit = prefix_bound + disequalities
    results: List[Formula] = []
    for candidate in words_over((MARK, BLANK), limit):
        instantiated = substitute(combined, {Var(var): Const(candidate)})
        instantiated = _normalize_atom_terms(instantiated)
        instantiated = _evaluate_ground_atoms(instantiated, domain)
        if not isinstance(instantiated, Bottom):
            results.append(instantiated)
    return disj(*results)


def _iterate_literal_atoms(formula: Formula) -> Iterator[Formula]:
    """Yield the atomic subformulas of a (possibly negated) literal or small formula."""
    if isinstance(formula, (Atom, Equals)):
        yield formula
    elif isinstance(formula, Not):
        yield from _iterate_literal_atoms(formula.body)
    elif isinstance(formula, And):
        for c in formula.conjuncts:
            yield from _iterate_literal_atoms(c)
    elif isinstance(formula, Or):
        for d in formula.disjuncts:
            yield from _iterate_literal_atoms(d)


# -- case T ------------------------------------------------------------------


def _set_partitions(items: Sequence[int]) -> Iterator[List[List[int]]]:
    """All partitions of ``items`` into non-empty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for index in range(len(partition)):
            extended = [list(block) for block in partition]
            extended[index].append(first)
            yield extended
        yield [[first]] + [list(block) for block in partition]


def _trace_avoidance_formula(
    machine_term: Term, word_term: Term, excluded: Sequence[Term], limit: int = 6
) -> Formula:
    """A formula asserting that some trace of the machine on the word avoids ``excluded``.

    This is the paper's case T-4 "disjunction trick": case-split on which of
    the excluded terms actually are traces of the machine on the word and on
    the equalities between them; if ``k`` distinct excluded traces remain, the
    machine must have at least ``k + 1`` traces (``D_{k+1}``).
    """
    if len(excluded) > limit:
        raise DomainError(
            f"too many excluded traces for the T-4 expansion ({len(excluded)} > {limit})"
        )
    if not excluded:
        return TOP

    def is_trace_of(term: Term) -> Formula:
        return conj(
            Atom("T", (term,)),
            Equals(Apply("m", (term,)), machine_term),
            Equals(Apply("w", (term,)), word_term),
        )

    indices = list(range(len(excluded)))
    disjuncts: List[Formula] = []
    for size in range(len(indices) + 1):
        for subset in itertools.combinations(indices, size):
            outside = [i for i in indices if i not in subset]
            outside_part = conj(*(neg(is_trace_of(excluded[i])) for i in outside))
            for partition in _set_partitions(list(subset)):
                pieces: List[Formula] = [outside_part]
                for block in partition:
                    pieces.append(is_trace_of(excluded[block[0]]))
                    for other in block[1:]:
                        pieces.append(Equals(excluded[block[0]], excluded[other]))
                representatives = [block[0] for block in partition]
                for left, right in itertools.combinations(representatives, 2):
                    pieces.append(neg(Equals(excluded[left], excluded[right])))
                pieces.append(
                    Atom("D", (Const(len(partition) + 1), machine_term, word_term))
                )
                disjuncts.append(conj(*pieces))
    return disj(*disjuncts)


def _word_constraints_satisfiable(b_literals: Sequence[Tuple[bool, str]]) -> bool:
    """Is there an input word satisfying the given (polarity, prefix) ``B`` constraints?"""
    if not b_literals:
        return True
    length = max(len(prefix) for _positive, prefix in b_literals)
    for candidate in _input_words_of_length(length):
        ok = True
        for positive, prefix in b_literals:
            holds = starts_with_padded(candidate, prefix)
            if holds != positive:
                ok = False
                break
        if ok:
            return True
    return False


def _eliminate_trace_sort(var: str, literals: Sequence[Formula]) -> Formula:
    """Case T of Theorem A.3 (sub-cases T-1 … T-4)."""
    specialized = conj(*(_specialize_formula(lit, var, WordSort.TRACE) for lit in literals))
    if isinstance(specialized, Bottom):
        return BOTTOM
    rewritten = _rewrite_de_literals(specialized, var)

    m_of_x = Apply("m", (Var(var),))
    w_of_x = Apply("w", (Var(var),))

    results: List[Formula] = []
    for clause in dnf_clauses(rewritten):
        with_var, without_var = _split_clause(clause, var)

        machine_binding: Optional[Term] = None
        word_binding: Optional[Term] = None
        extra_residual: List[Formula] = []
        m_disequalities: List[Term] = []
        w_disequalities: List[Term] = []
        trace_disequalities: List[Term] = []
        b_constraints: List[Tuple[bool, str]] = []
        b_literals_on_wx: List[Tuple[bool, str]] = []
        de_literals: List[Formula] = []
        bad: List[Formula] = []

        for literal in with_var:
            positive = True
            body = literal
            if isinstance(literal, Not):
                positive = False
                body = literal.body

            if isinstance(body, Equals):
                left, right = body.left, body.right
                if right in (m_of_x, w_of_x) and not _mentions(left, var):
                    left, right = right, left
                if left == m_of_x and not _mentions(right, var):
                    if positive:
                        if machine_binding is None:
                            machine_binding = right
                        else:
                            extra_residual.append(Equals(machine_binding, right))
                    else:
                        m_disequalities.append(right)
                    continue
                if left == w_of_x and not _mentions(right, var):
                    if positive:
                        if word_binding is None:
                            word_binding = right
                        else:
                            extra_residual.append(Equals(word_binding, right))
                    else:
                        w_disequalities.append(right)
                    continue
                if not positive and (left == Var(var) or right == Var(var)):
                    other = right if left == Var(var) else left
                    if not _mentions(other, var):
                        trace_disequalities.append(other)
                        continue
                bad.append(literal)
                continue

            if isinstance(body, Atom) and body.predicate == "B":
                prefix = _constant_word(body.args[0])
                target = body.args[1]
                if target == w_of_x:
                    b_literals_on_wx.append((positive, prefix))
                    continue
                bad.append(literal)
                continue

            if isinstance(body, Atom) and body.predicate in ("D", "E") and positive:
                de_literals.append(body)
                continue

            bad.append(literal)

        if bad:
            raise DomainError(f"case T cannot eliminate literals {bad!r}")

        at_least, exactly, leftovers = _collect_de_specs(de_literals, var, machine_shape="m")
        if leftovers:
            raise DomainError(f"case T: unexpected D/E literals {leftovers!r}")

        residual = conj(*without_var, *extra_residual)

        if machine_binding is None and word_binding is None:
            # T-1: both the machine and the input word of the trace are free.
            if lemma_a2_satisfiable(at_least, exactly) and _word_constraints_satisfiable(
                b_literals_on_wx
            ):
                results.append(residual)
            continue

        if machine_binding is not None and word_binding is None:
            # T-2: the machine is pinned; the input word remains free.
            if not _word_constraints_satisfiable(b_literals_on_wx):
                continue
            pieces: List[Formula] = [residual, Atom("M", (machine_binding,))]
            for constraint in at_least:
                pieces.append(
                    Atom("D", (Const(constraint.count), machine_binding, Const(constraint.word)))
                )
            for constraint in exactly:
                pieces.append(
                    Atom("E", (Const(constraint.count), machine_binding, Const(constraint.word)))
                )
            for term in m_disequalities:
                pieces.append(neg(Equals(machine_binding, term)))
            results.append(conj(*pieces))
            continue

        if machine_binding is None and word_binding is not None:
            # T-3: the input word is pinned; the machine remains free.
            if not lemma_a2_satisfiable(at_least, exactly):
                continue
            pieces = [residual, Atom("W", (word_binding,))]
            for positive, prefix in b_literals_on_wx:
                atom = Atom("B", (Const(prefix), word_binding))
                pieces.append(atom if positive else neg(atom))
            for term in w_disequalities:
                pieces.append(neg(Equals(word_binding, term)))
            results.append(conj(*pieces))
            continue

        # T-4: both the machine and the word are pinned.
        pieces = [residual, Atom("M", (machine_binding,)), Atom("W", (word_binding,))]
        for constraint in at_least:
            pieces.append(
                Atom("D", (Const(constraint.count), machine_binding, Const(constraint.word)))
            )
        for constraint in exactly:
            pieces.append(
                Atom("E", (Const(constraint.count), machine_binding, Const(constraint.word)))
            )
        for positive, prefix in b_literals_on_wx:
            atom = Atom("B", (Const(prefix), word_binding))
            pieces.append(atom if positive else neg(atom))
        for term in m_disequalities:
            pieces.append(neg(Equals(machine_binding, term)))
        for term in w_disequalities:
            pieces.append(neg(Equals(word_binding, term)))
        pieces.append(
            _trace_avoidance_formula(machine_binding, word_binding, trace_disequalities)
        )
        results.append(conj(*pieces))

    return disj(*results)


# ---------------------------------------------------------------------------
# The clause eliminator and the public elimination entry point
# ---------------------------------------------------------------------------


def _make_clause_eliminator(domain: "ReachTracesDomain"):
    def eliminate_clause(var: str, literals: Sequence[Formula]) -> Formula:
        cleaned: List[Formula] = []
        for literal in literals:
            if isinstance(literal, Top):
                continue
            if isinstance(literal, Bottom):
                return BOTTOM
            cleaned.append(_normalize_atom_terms(literal))

        # Direct equality x = t with t free of x: substitute and finish.
        for literal in cleaned:
            if isinstance(literal, Equals):
                left, right = literal.left, literal.right
                target: Optional[Term] = None
                if left == Var(var) and not _mentions(right, var):
                    target = right
                elif right == Var(var) and not _mentions(left, var):
                    target = left
                if target is not None:
                    replaced = [
                        _normalize_atom_terms(substitute(lit, {Var(var): target}))
                        for lit in cleaned
                        if lit is not literal
                    ]
                    return _evaluate_ground_atoms(conj(*replaced), domain)

        cases = [
            _eliminate_machine_sort(var, cleaned),
            _eliminate_input_sort(var, cleaned, domain),
            _eliminate_trace_sort(var, cleaned),
            _eliminate_other_sort(var, cleaned),
        ]
        return _evaluate_ground_atoms(simplify(disj(*cases)), domain)

    return eliminate_clause


def eliminate_reach_quantifiers(
    formula: Formula, domain: Optional["ReachTracesDomain"] = None
) -> Formula:
    """Theorem A.3: quantifier elimination for the Reach Theory of Traces.

    ``P`` atoms are expanded definitionally first; the result is a
    quantifier-free formula over the extended signature.
    """
    domain = domain or ReachTracesDomain()
    expanded = expand_trace_predicate(formula)
    return eliminate_quantifiers(expanded, _make_clause_eliminator(domain))


# ---------------------------------------------------------------------------
# The domain object
# ---------------------------------------------------------------------------


class ReachTracesDomain(Domain):
    """The trace domain equipped with the extended (Reach) signature."""

    name = "reach_traces"
    signature = REACH_SIGNATURE
    has_decidable_theory = True

    # -- carrier -------------------------------------------------------------

    def contains(self, element: Element) -> bool:
        return isinstance(element, str) and all(c in DOMAIN_ALPHABET for c in element)

    def enumerate_elements(self) -> Iterator[str]:
        yield ""
        for length in itertools.count(1):
            for letters in itertools.product(DOMAIN_ALPHABET, repeat=length):
                yield "".join(letters)

    # -- evaluation ----------------------------------------------------------

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        value = str(args[0])
        if name == "w":
            return input_of_trace(value)
        if name == "m":
            return machine_of_trace(value)
        raise KeyError(f"unknown reach-theory function {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        if name == "P":
            machine_word, input_word, trace_word = (str(a) for a in args)
            return holds_P(machine_word, input_word, trace_word)
        if name in ("M", "W", "T", "O"):
            sort = classify_word(str(args[0]))
            return sort is {
                "M": WordSort.MACHINE,
                "W": WordSort.INPUT,
                "T": WordSort.TRACE,
                "O": WordSort.OTHER,
            }[name]
        if name == "B":
            prefix, word = str(args[0]), str(args[1])
            if not is_input_word(word) or not is_input_word(prefix):
                return False
            return starts_with_padded(word, prefix)
        if name in ("D", "E"):
            index = int(args[0])
            machine_word, input_word = str(args[1]), str(args[2])
            if not is_machine_word(machine_word) or not is_input_word(input_word):
                return False
            if name == "D":
                return has_at_least_traces(machine_word, input_word, index)
            return has_exactly_traces(machine_word, input_word, index)
        raise KeyError(f"unknown reach-theory predicate {name!r}")

    # -- decision procedure ---------------------------------------------------

    def eliminate_quantifiers(self, formula: Formula) -> Formula:
        """The Theorem A.3 elimination, exposed on the domain object."""
        return eliminate_reach_quantifiers(formula, self)

    def decide(self, sentence: Formula) -> bool:
        """Corollary A.4: decide a sentence of the (Reach) Theory of Traces."""
        self._require_sentence(sentence)
        eliminated = eliminate_reach_quantifiers(sentence, self)
        ground = _evaluate_ground_atoms(_normalize_atom_terms(eliminated), self)
        if isinstance(ground, Top):
            return True
        if isinstance(ground, Bottom):
            return False
        raise DomainError(
            f"quantifier elimination left a non-ground residue: {ground}"
        )
