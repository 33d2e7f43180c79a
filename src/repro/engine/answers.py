"""Answer objects returned by the query engine.

The paper's central tension — finite answers are computable over decidable
domains, but finiteness itself may be undecidable — is reflected in the three
possible outcomes: a fully materialised finite answer, a certified-infinite
answer carrying sample witnesses, or an unknown answer when the engine's
budget ran out before the question was settled.

:class:`Answer` is the abstract base of the hierarchy.  Every answer exposes

* ``rows()`` — the materialised rows (the full answer, a sample of an
  infinite one, or the partial rows found before a budget expired);
* ``is_finite`` — three-valued finiteness (``True`` / ``False`` / ``None``);
* ``method`` — the evaluation method that produced it; and
* ``explain()`` — a human-readable account of what the answer means.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..relational.state import Relation, Row

__all__ = ["Answer", "FiniteAnswer", "InfiniteAnswer", "UnknownAnswer"]


class Answer(ABC):
    """Abstract base class of the three query outcomes."""

    @property
    @abstractmethod
    def method(self) -> str:
        """The evaluation method that produced this answer."""

    @property
    @abstractmethod
    def is_finite(self) -> Optional[bool]:
        """``True`` / ``False`` when finiteness is settled, ``None`` otherwise."""

    @abstractmethod
    def rows(self) -> Tuple[Row, ...]:
        """The materialised rows, sorted."""

    @abstractmethod
    def explain(self) -> str:
        """A human-readable account of the answer."""

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    @property
    def row_count(self) -> int:
        """The number of materialised rows."""
        return len(self.rows())


@dataclass(frozen=True)
class FiniteAnswer(Answer):
    """A completely materialised finite answer."""

    relation: Relation
    # The field satisfies the abstract read-only property of the base class.
    method: str = ""  # type: ignore

    @property
    def is_finite(self) -> Optional[bool]:
        return True

    def rows(self) -> Tuple[Row, ...]:
        return tuple(self.relation)

    def explain(self) -> str:
        text = f"finite answer with {len(self.relation)} row(s)"
        if self.method:
            text += f", computed by {self.method}"
        return text

    def __len__(self) -> int:
        return len(self.relation)


@dataclass(frozen=True)
class InfiniteAnswer(Answer):
    """The answer is certified infinite; ``sample`` holds finitely many rows of it.

    ``witnesses`` holds the rows that certified infiniteness, when the
    certificate is a set of rows (the Section 2 fresh-element probe's rows
    mentioning a fresh element); they are evidence, not part of ``rows()``.
    """

    sample: Relation
    reason: str = ""
    method: str = ""  # type: ignore
    witnesses: Tuple[Row, ...] = ()

    @property
    def is_finite(self) -> Optional[bool]:
        return False

    def rows(self) -> Tuple[Row, ...]:
        return tuple(self.sample)

    def explain(self) -> str:
        text = "the answer is infinite"
        if self.sample:
            text += f" ({len(self.sample)} sample row(s) materialised)"
        if self.method:
            text += f"; certified by {self.method}"
        if self.reason:
            text += f": {self.reason}"
        return text


@dataclass(frozen=True)
class UnknownAnswer(Answer):
    """The engine could not settle the answer within its resource budget."""

    partial: Relation
    reason: str = ""
    method: str = ""  # type: ignore

    @property
    def is_finite(self) -> Optional[bool]:
        return None

    def rows(self) -> Tuple[Row, ...]:
        return tuple(self.partial)

    def explain(self) -> str:
        text = (
            f"finiteness undetermined; {len(self.partial)} row(s) found "
            "before the budget ran out"
        )
        if self.method:
            text += f" (method: {self.method})"
        if self.reason:
            text += f": {self.reason}"
        return text
