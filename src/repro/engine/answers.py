"""Answer objects returned by the query engine.

The paper's central tension — finite answers are computable over decidable
domains, but finiteness itself may be undecidable — is reflected in the three
possible outcomes: a fully materialised finite answer, a certified-infinite
answer carrying sample witnesses, or an unknown answer when the engine's
budget ran out before the question was settled.

:class:`Answer` is the abstract base of the hierarchy.  Every answer exposes

* ``rows()`` — the materialised rows (the full answer, a sample of an
  infinite one, or the partial rows found before a budget expired), sorted
  once on the first call and returned as the same tuple on every later one;
* ``row_count`` — how many rows ``rows()`` holds, without sorting them;
* ``is_finite`` — three-valued finiteness (``True`` / ``False`` / ``None``);
* ``method`` — the evaluation method that produced it; and
* ``explain()`` — a human-readable account of what the answer means.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

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
    def _materialised(self) -> Relation:
        """The relation of the materialised rows, in no order."""

    def rows(self) -> Tuple[Row, ...]:
        """The materialised rows, sorted.

        The sort runs on the first call only: the answer keeps the tuple
        (next to its fields, never inside the relation, which may be a
        stored one) and returns the same object on every later call.
        """
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = tuple(sorted(self._materialised().rows))
            object.__setattr__(self, "_rows", rows)
        return rows

    @abstractmethod
    def explain(self) -> str:
        """A human-readable account of the answer."""

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    @property
    def row_count(self) -> int:
        """The number of materialised rows (no sort needed to count them)."""
        return len(self._materialised())


@dataclass(frozen=True)
class FiniteAnswer(Answer):
    """A completely materialised finite answer.

    An answer built by :meth:`of_sorted` holds its sorted rows only: its
    :attr:`relation` is built on first access (by ``==``, ``hash`` or
    ``repr`` too), and :attr:`row_count`, ``len()`` and :meth:`explain`
    count the rows without it.
    """

    relation: Relation
    # The field satisfies the abstract read-only property of the base class.
    method: str = ""  # type: ignore

    @classmethod
    def of_sorted(
        cls, arity: int, rows: Tuple[Row, ...], method: str = ""
    ) -> "FiniteAnswer":
        """The answer over ``rows``, distinct ``arity``-tuples the caller
        already sorted: they are :meth:`rows` as they are, and the relation
        is built from them (:meth:`Relation.unchecked`) when first read.

        >>> answer = FiniteAnswer.of_sorted(1, ((1,), (2,)))
        >>> answer.rows(), answer.row_count, "relation" in vars(answer)
        (((1,), (2,)), 2, False)
        >>> answer.relation == Relation(1, [(2,), (1,)])
        True
        >>> answer == FiniteAnswer(Relation(1, [(1,), (2,)]))
        True
        """
        answer = cls.__new__(cls)
        object.__setattr__(answer, "method", method)
        object.__setattr__(answer, "_arity", arity)
        object.__setattr__(answer, "_rows", rows)
        return answer

    if not TYPE_CHECKING:  # hidden from mypy, which would type every name

        def __getattr__(self, name: str) -> Relation:
            # Reached only while the instance holds no ``relation``: an
            # of_sorted answer whose relation nobody has read yet.
            rows = self.__dict__.get("_rows")
            if name != "relation" or rows is None:
                raise AttributeError(name)
            relation = Relation.unchecked(self.__dict__["_arity"], rows)
            object.__setattr__(self, "relation", relation)
            return relation

    @property
    def is_finite(self) -> Optional[bool]:
        return True

    def _materialised(self) -> Relation:
        return self.relation

    @property
    def row_count(self) -> int:
        rows = self.__dict__.get("_rows")
        return len(self.relation) if rows is None else len(rows)

    def explain(self) -> str:
        text = f"finite answer with {self.row_count} row(s)"
        if self.method:
            text += f", computed by {self.method}"
        return text

    def __len__(self) -> int:
        return self.row_count


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

    def _materialised(self) -> Relation:
        return self.sample

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

    def _materialised(self) -> Relation:
        return self.partial

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
