"""Strings under the shortlex (length-lexicographic) order.

Words over a finite alphabet, compared first by length and then
lexicographically, form a discrete linear order with a least element and no
greatest element — order-isomorphic to ``(N, <)``.  The isomorphism is the
*rank*: the position of a word in the shortlex enumeration
``"", "a", "b", "aa", ...``.  The domain decides its sentences by translating
every string constant to its rank and delegating to the Presburger decision
procedure over the naturals; since rank is an order isomorphism and the
signature is pure order, truth is preserved exactly.

This gives a non-numeric carrier with the *safety profile* of ``(N, <)``
(Section 2.1): "shortlex-below a stored word" is finite (only finitely many
words precede any word), while "shortlex-above" is infinite, and the
``(N, <)`` relative-safety guard applies verbatim through the isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

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
from .presburger import PresburgerDomain, QuantifierFreeForm
from .signature import Signature

if TYPE_CHECKING:  # repro.engine imports the domains at package-init time
    from ..engine.budget import Deadline

__all__ = ["ShortlexStringDomain"]

_COMPARISONS = {"<", "<=", ">", ">="}


class ShortlexStringDomain(Domain):
    """Words over a finite alphabet, ordered by length then lexicographically."""

    name = "shortlex_strings"
    signature = Signature(predicates={"<": 2, "<=": 2, ">": 2, ">=": 2})
    has_decidable_theory = True
    supports_compiled_algebra = True

    def __init__(self, alphabet: str = "ab"):
        if len(alphabet) < 2 or len(set(alphabet)) != len(alphabet):
            raise ValueError("the alphabet must have at least two distinct letters")
        self._alphabet = "".join(sorted(alphabet))
        self._index = {letter: i for i, letter in enumerate(self._alphabet)}
        self._presburger = PresburgerDomain(carrier="naturals")

    @property
    def alphabet(self) -> str:
        return self._alphabet

    # -- carrier -------------------------------------------------------------

    def contains(self, element: Element) -> bool:
        return isinstance(element, str) and all(c in self._index for c in element)

    def enumerate_elements(self) -> Iterator[Element]:
        """All words in shortlex order: ``"", "a", "b", "aa", "ab", ...``."""
        yield ""
        for length in itertools.count(1):
            for letters in itertools.product(self._alphabet, repeat=length):
                yield "".join(letters)

    # -- the order isomorphism with (N, <) ------------------------------------

    def rank(self, word: str) -> int:
        """The position of ``word`` in the shortlex enumeration."""
        if not self.contains(word):
            raise DomainError(f"{word!r} is not a word over {self._alphabet!r}")
        k = len(self._alphabet)
        # Words strictly shorter than len(word): k^0 + k^1 + ... + k^(L-1).
        shorter = (k ** len(word) - 1) // (k - 1)
        index = 0
        for letter in word:
            index = index * k + self._index[letter]
        return shorter + index

    def unrank(self, rank: int) -> str:
        """The word at position ``rank`` (the inverse of :meth:`rank`)."""
        if rank < 0:
            raise DomainError("ranks are natural numbers")
        k = len(self._alphabet)
        length = 0
        while (k ** (length + 1) - 1) // (k - 1) <= rank:
            length += 1
        index = rank - (k ** length - 1) // (k - 1)
        letters = []
        for _ in range(length):
            index, digit = divmod(index, k)
            letters.append(self._alphabet[digit])
        return "".join(reversed(letters))

    # -- evaluation ----------------------------------------------------------

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        raise KeyError(f"the shortlex domain has no function {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        if name not in _COMPARISONS:
            raise KeyError(f"the shortlex domain has no predicate {name!r}")
        left, right = args
        for value in (left, right):
            if not self.contains(value):
                raise DomainError(f"{value!r} is not a word over {self._alphabet!r}")
        lkey = (len(left), [self._index[c] for c in left])
        rkey = (len(right), [self._index[c] for c in right])
        if name == "<":
            return lkey < rkey
        if name == "<=":
            return lkey <= rkey
        if name == ">":
            return lkey > rkey
        return lkey >= rkey

    # -- decision procedure ---------------------------------------------------

    def decide(self, sentence: Formula) -> bool:
        """Decide a pure order sentence through the rank isomorphism.

        Every string constant is replaced by its rank and the resulting
        sentence is handed to Cooper's procedure over ``(N, <)``; the rank
        map is an order isomorphism, so the translation preserves truth.
        """
        self._require_sentence(sentence)
        self._validate(sentence)
        return self._presburger.decide(self._translate(sentence))

    def quantifier_free(
        self,
        formula: Formula,
        free_order: Optional[Sequence[Var]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> QuantifierFreeForm:
        """ψ through the rank isomorphism: constants become ranks, and rows
        unrank back to words (see :meth:`PresburgerDomain.quantifier_free`)."""
        self._validate(formula)
        psi = self._presburger.quantifier_free(
            self._translate(formula), free_order, deadline
        )
        return replace(psi, encode=self.rank, decode=self.unrank)

    def _validate(self, sentence: Formula) -> None:
        for sub in walk_formulas(sentence):
            terms: Sequence[Term] = ()
            if isinstance(sub, Atom):
                if sub.predicate not in _COMPARISONS:
                    raise DomainError(
                        f"predicate {sub.predicate!r} is not in the shortlex signature"
                    )
                terms = sub.args
            elif isinstance(sub, Equals):
                terms = (sub.left, sub.right)
            for term in terms:
                for node in walk_terms(term):
                    if isinstance(node, Apply):
                        raise DomainError("the shortlex signature has no functions")
                    if isinstance(node, Const) and not self.contains(node.value):
                        raise DomainError(
                            f"constant {node.value!r} is not a word over "
                            f"{self._alphabet!r}"
                        )

    def _translate(self, formula: Formula) -> Formula:
        if isinstance(formula, (Top, Bottom)):
            return formula
        if isinstance(formula, Atom):
            return Atom(formula.predicate, tuple(self._translate_term(t) for t in formula.args))
        if isinstance(formula, Equals):
            return Equals(self._translate_term(formula.left), self._translate_term(formula.right))
        if isinstance(formula, Not):
            return Not(self._translate(formula.body))
        if isinstance(formula, And):
            return And(tuple(self._translate(c) for c in formula.conjuncts))
        if isinstance(formula, Or):
            return Or(tuple(self._translate(d) for d in formula.disjuncts))
        if isinstance(formula, Implies):
            return Implies(self._translate(formula.antecedent), self._translate(formula.consequent))
        if isinstance(formula, Iff):
            return Iff(self._translate(formula.left), self._translate(formula.right))
        if isinstance(formula, Exists):
            return Exists(formula.var, self._translate(formula.body))
        if isinstance(formula, ForAll):
            return ForAll(formula.var, self._translate(formula.body))
        raise DomainError(f"cannot translate {formula!r}")

    def _translate_term(self, term: Term) -> Term:
        if isinstance(term, Const):
            return Const(self.rank(term.value))
        if isinstance(term, Var):
            return term
        raise DomainError("the shortlex signature has no functions")
