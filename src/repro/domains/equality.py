"""The pure-equality domain.

"The simplest possible example to start with is an infinite domain with the
only domain relation of equality" (Section 2).  Over this domain the relative
safety problem is decidable, an effective syntax exists (restrict all answers
to the active domain), and every query can be answered exactly: its answer is
the evaluation over the active domain plus rank+1 fresh elements, minus the
rows that mention them (the query is infinite iff such rows exist).  A finite
query need not be domain-independent —
``F(x, y) & exists z. ~(exists w. (F(z, w) | F(w, z)))`` returns every
``F`` row, yet nothing over the active domain alone.

The carrier is the set of natural numbers by default (any countably infinite
set works); the only relation is equality, which the logic provides anyway, so
the signature is empty.

Decision procedure
------------------
The theory of an infinite set with equality admits quantifier elimination in
the expanded language with the counting sentences "there exist at least *k*
elements" — all of which are true here.  Equivalently, a sentence of
quantifier rank *q* is true in one infinite set iff it is true in every set
with at least *q* elements, so the decision procedure evaluates the sentence
over a finite universe of ``q + |constants|`` fresh elements plus the
constants mentioned.  This small-model argument is classical and is also the
engine behind the relative-safety decider for this domain.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from ..logic.analysis import constants_of, quantifier_depth
from ..logic.formulas import Formula
from ..relational.state import Element
from .base import Domain, DomainError
from .signature import Signature

__all__ = ["EqualityDomain"]


class EqualityDomain(Domain):
    """A countably infinite domain whose only relation is equality."""

    name = "equality"
    signature = Signature()
    has_decidable_theory = True
    supports_compiled_algebra = True

    def __init__(self, carrier: str = "naturals"):
        if carrier not in ("naturals", "strings"):
            raise ValueError("carrier must be 'naturals' or 'strings'")
        self._carrier = carrier

    # -- carrier -------------------------------------------------------------

    @property
    def carrier(self) -> str:
        """``"naturals"`` or ``"strings"``."""
        return self._carrier

    def contains(self, element: Element) -> bool:
        if self._carrier == "naturals":
            return isinstance(element, int) and element >= 0
        return isinstance(element, str)

    def enumerate_elements(self) -> Iterator[Element]:
        if self._carrier == "naturals":
            return itertools.count(0)
        return self._enumerate_strings()

    @staticmethod
    def _enumerate_strings() -> Iterator[str]:
        alphabet = "ab"
        yield ""
        for length in itertools.count(1):
            for letters in itertools.product(alphabet, repeat=length):
                yield "".join(letters)

    # -- evaluation ----------------------------------------------------------

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        raise KeyError(f"the equality domain has no function {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        raise KeyError(f"the equality domain has no predicate {name!r}")

    # -- decision procedure ---------------------------------------------------

    def fresh_elements(self, count: int, avoid: Sequence[Element] = ()) -> list:
        """``count`` carrier elements distinct from everything in ``avoid``."""
        avoid_set = set(avoid)
        fresh = []
        for element in self.enumerate_elements():
            if element not in avoid_set:
                fresh.append(element)
                if len(fresh) == count:
                    break
        return fresh

    def decide(self, sentence: Formula) -> bool:
        """Decide a pure-equality sentence via the small-model property."""
        self._require_sentence(sentence)
        constants = [c.value for c in constants_of(sentence)]
        for value in constants:
            if not self.contains(value):
                raise DomainError(f"constant {value!r} is not a domain element")
        rank = quantifier_depth(sentence)
        universe = list(dict.fromkeys(constants))
        universe += self.fresh_elements(rank + 1, avoid=universe)
        return self.check_bounded(sentence, universe=universe)
