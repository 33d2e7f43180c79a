"""The ``Domain`` interface.

A *domain* in the sense of the paper is an infinite carrier together with a
set of domain functions and relations ("When we refer to a domain, we mean the
domain, together with the set of domain functions and relations").  For the
purposes of this library a domain provides:

* a :class:`~repro.domains.signature.Signature`;
* recursive evaluation of its functions and predicates on concrete elements
  (``eval_function`` / ``eval_predicate``) — the *recursiveness* requirement;
* an enumeration of the carrier (``enumerate_elements``) — used by the generic
  query-answering algorithm of Section 1.1 and by bounded model checking;
* optionally, a decision procedure for pure domain sentences (``decide``) —
  the *decidability of the theory* requirement.  Domains without a decision
  procedure raise :class:`TheoryUndecidableError` (e.g. full arithmetic,
  Corollary 2.3).

``Domain`` is also a valid :class:`repro.relational.calculus.Interpretation`,
so the relational-calculus evaluator works over any domain directly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from ..logic.analysis import free_variables
from ..logic.formulas import Formula
from ..relational.calculus import Interpretation, evaluate_formula
from ..relational.state import Element
from .signature import Signature

__all__ = ["Domain", "TheoryUndecidableError", "DomainError"]


class DomainError(ValueError):
    """Raised when a formula or element does not fit the domain."""


class TheoryUndecidableError(NotImplementedError):
    """Raised by :meth:`Domain.decide` when no decision procedure is available."""


class Domain(Interpretation):
    """Base class for concrete domains.

    Subclasses must set :attr:`name` and :attr:`signature` and implement the
    evaluation and enumeration methods; they should implement :meth:`decide`
    whenever the domain theory is decidable.
    """

    name: str = "domain"
    signature: Signature = Signature()

    #: True iff the domain ships a decision procedure for its first-order theory.
    has_decidable_theory: bool = False
    #: True when the domain's predicate atoms evaluate pointwise, so queries
    #: compile to relational algebra (:mod:`repro.relational.compile`) and
    #: active-domain evaluation runs set-at-a-time.  Function-heavy domains
    #: (e.g. ``(N, ')``, whose queries lean on ``succ`` terms) leave this off.
    supports_compiled_algebra: bool = False
    #: True when the carrier is *finite* (e.g. ``Z/n``).  Every query is then
    #: finite, and the planner evaluates over :meth:`carrier_elements`,
    #: which is exact even though finiteness does not imply domain
    #: independence.
    finite_carrier: bool = False

    # -- recursiveness ------------------------------------------------------

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        """Evaluate the domain function ``name`` on concrete elements."""
        raise KeyError(f"domain {self.name!r} has no function {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        """Evaluate the domain predicate ``name`` on concrete elements."""
        raise KeyError(f"domain {self.name!r} has no predicate {name!r}")

    def contains(self, element: Element) -> bool:
        """True iff ``element`` belongs to the carrier."""
        raise NotImplementedError

    # -- enumeration --------------------------------------------------------

    def enumerate_elements(self) -> Iterator[Element]:
        """Enumerate the (countable) carrier without repetition."""
        raise NotImplementedError

    def sample_elements(self, count: int) -> list:
        """The first ``count`` elements of the enumeration, as a list."""
        return list(itertools.islice(self.enumerate_elements(), count))

    def carrier_elements(self) -> Tuple[Element, ...]:
        """The whole carrier, for domains whose carrier is *finite*.

        Infinite domains raise :class:`DomainError`.  Finite-carrier domains
        (``finite_carrier = True``) override this; the planner then
        evaluates queries over the full carrier, which is exact.
        """
        raise DomainError(f"domain {self.name!r} has an infinite carrier")

    # -- decidability -------------------------------------------------------

    def decide(self, sentence: Formula) -> bool:
        """Decide the truth of a pure domain sentence.

        Raises :class:`TheoryUndecidableError` if the domain does not provide
        a decision procedure, and :class:`DomainError` if ``sentence`` has
        free variables or uses symbols outside the domain signature.
        """
        raise TheoryUndecidableError(
            f"the theory of domain {self.name!r} has no decision procedure"
        )

    def _require_sentence(self, sentence: Formula) -> None:
        """Validate that ``sentence`` is a sentence (no free variables)."""
        free = free_variables(sentence)
        if free:
            names = ", ".join(sorted(v.name for v in free))
            raise DomainError(f"not a sentence; free variables: {names}")

    # -- model checking -----------------------------------------------------

    def check_bounded(
        self,
        formula: Formula,
        universe: Optional[Iterable[Element]] = None,
        assignment: Optional[dict] = None,
        sample_size: int = 32,
    ) -> bool:
        """Evaluate ``formula`` with quantifiers restricted to a finite universe.

        This is *not* a decision procedure — it under/over-approximates the
        unrestricted semantics — but it is invaluable for cross-checking
        quantifier-elimination procedures on sampled instances, which is how
        the test-suite validates them.
        """
        if universe is None:
            universe = self.sample_elements(sample_size)
        return evaluate_formula(
            formula, universe, assignment or {}, state=None, interpretation=self
        )

    def __str__(self) -> str:
        return self.name
