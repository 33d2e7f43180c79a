"""The finite cyclic successor structure ``Z/n`` with ``succ`` and ``pred``.

The paper's domains are infinite, and all the subtlety of safety comes from
that infinitude.  The cyclic successor structure is the degenerate contrast
case: the carrier is *finite*, so every query is finite — even ``¬S(x)`` and
``x = x``, the canonical infinite queries over every other domain — and the
"decision procedure" is plain model checking over the carrier.  The class
declares ``finite_carrier = True``, which exercises the planner's
full-carrier evaluation path, and its pack installs the trivial safety guard
(:class:`repro.safety.relative_safety.FiniteCarrierSafety`).

Note that finiteness of every answer does *not* make finite queries
domain-independent: ``¬S(x)`` depends on the carrier, not just on the state.
The planner handles this by evaluating over the whole (finite) carrier,
which :meth:`CyclicSuccessorDomain.carrier_elements` supplies.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from ..logic.formulas import Atom, Equals, Formula, walk_formulas
from ..logic.terms import Apply, Const, walk_terms
from ..relational.state import Element
from .base import Domain, DomainError
from .signature import Signature

__all__ = ["CyclicSuccessorDomain"]


class CyclicSuccessorDomain(Domain):
    """The integers modulo ``n`` with the rotation ``succ`` and its inverse."""

    name = "cyclic_successor"
    signature = Signature(functions={"succ": 1, "pred": 1})
    has_decidable_theory = True
    supports_compiled_algebra = True
    finite_carrier = True

    def __init__(self, modulus: int = 12):
        if modulus < 1:
            raise ValueError("the modulus must be a positive integer")
        self._modulus = modulus

    @property
    def modulus(self) -> int:
        """The size ``n`` of the carrier ``{0, ..., n - 1}``."""
        return self._modulus

    # -- carrier -------------------------------------------------------------

    def contains(self, element: Element) -> bool:
        return (
            isinstance(element, int)
            and not isinstance(element, bool)
            and 0 <= element < self._modulus
        )

    def enumerate_elements(self) -> Iterator[Element]:
        return iter(range(self._modulus))

    def carrier_elements(self) -> Tuple[Element, ...]:
        return tuple(range(self._modulus))

    # -- evaluation ----------------------------------------------------------

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        (value,) = args
        if not self.contains(value):
            raise DomainError(f"{value!r} is not an element of Z/{self._modulus}")
        if name == "succ":
            return (value + 1) % self._modulus
        if name == "pred":
            return (value - 1) % self._modulus
        raise KeyError(f"the cyclic-successor domain has no function {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        raise KeyError(f"the cyclic-successor domain has no predicate {name!r}")

    # -- decision procedure ---------------------------------------------------

    def decide(self, sentence: Formula) -> bool:
        """Decide a pure sentence by model checking the whole finite carrier.

        Unlike :meth:`Domain.check_bounded` over a *sample* of an infinite
        carrier, quantification over all of ``Z/n`` is the exact semantics.
        """
        self._require_sentence(sentence)
        self._validate(sentence)
        return self.check_bounded(sentence, universe=self.carrier_elements())

    def _validate(self, sentence: Formula) -> None:
        for sub in walk_formulas(sentence):
            if isinstance(sub, Atom):
                raise DomainError(
                    f"predicate {sub.predicate!r} is not in the Z/{self._modulus} "
                    "signature (it has only succ, pred and equality)"
                )
            if isinstance(sub, Equals):
                for term in (sub.left, sub.right):
                    for node in walk_terms(term):
                        if isinstance(node, Apply) and node.function not in ("succ", "pred"):
                            raise DomainError(
                                f"function {node.function!r} is not in the "
                                f"Z/{self._modulus} signature"
                            )
                        if isinstance(node, Const) and not self.contains(node.value):
                            raise DomainError(
                                f"constant {node.value!r} is not an element of "
                                f"Z/{self._modulus}"
                            )
