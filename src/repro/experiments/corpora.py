"""Corpora shared by the experiments: machines, formulas, and database states.

The negative results of the paper are about *all* algorithms, which no finite
experiment can exercise; what the experiments can (and do) check is that the
reductions behave exactly as the theorems state on corpora of machines whose
halting and totality status is known by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..logic.builders import atom, conj, disj, eq, exists, forall, implies, neg, neq, var
from ..logic.formulas import Formula
from ..logic.terms import Const, Var
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.state import DatabaseState
from ..turing.builders import (
    halt_if_marked_else_loop,
    halt_immediately,
    loop_forever,
    move_right_forever,
    prefix_reader,
    seek_blank_then_halt,
    unary_eraser,
    unary_successor,
    unary_writer,
)
from ..turing.encoding import encode_machine
from ..turing.machine import TuringMachine
from ..turing.words import input_words

__all__ = [
    "MachineCase",
    "machine_corpus",
    "halting_corpus",
    "family_schema",
    "family_state",
    "numeric_schema",
    "numeric_state",
    "span_schema",
    "span_state",
    "ordered_query_corpus",
    "span_query_corpus",
    "successor_query_corpus",
    "presburger_sentences",
    "input_word_sample",
]


@dataclass(frozen=True)
class MachineCase:
    """A machine with ground-truth metadata used by the experiments."""

    name: str
    machine: TuringMachine
    total: bool
    #: inputs on which the machine is known to halt / diverge
    halts_on: Tuple[str, ...] = ()
    diverges_on: Tuple[str, ...] = ()

    @property
    def word(self) -> str:
        """The machine's encoding as a machine word."""
        return encode_machine(self.machine)


def machine_corpus() -> List[MachineCase]:
    """Machines with known totality status (ground truth by construction)."""
    return [
        MachineCase("halt_immediately", halt_immediately(), total=True,
                    halts_on=("", "1", "&", "111", "1&1")),
        MachineCase("unary_eraser", unary_eraser(), total=True,
                    halts_on=("", "1", "11", "111", "1&1")),
        MachineCase("seek_blank_then_halt", seek_blank_then_halt(), total=True,
                    halts_on=("", "1", "1111", "1&11")),
        MachineCase("unary_successor", unary_successor(), total=True,
                    halts_on=("", "1", "11", "111")),
        MachineCase("unary_writer_2", unary_writer(2), total=True,
                    halts_on=("", "1", "11&", "&&")),
        MachineCase("loop_forever", loop_forever(), total=False,
                    diverges_on=("", "1", "&", "11", "1&1")),
        MachineCase("move_right_forever", move_right_forever(), total=False,
                    diverges_on=("", "1", "111")),
        MachineCase("halt_if_marked_else_loop", halt_if_marked_else_loop(), total=False,
                    halts_on=("1", "11", "1&"), diverges_on=("", "&", "&1", "&&")),
        MachineCase("prefix_reader_1&", prefix_reader("1&"), total=False,
                    halts_on=("&", "11", "&1"), diverges_on=("1", "1&", "1&1", "1&&")),
        MachineCase("prefix_reader_11", prefix_reader("11"), total=False,
                    halts_on=("1&", "&", "&1"), diverges_on=("11", "111", "11&")),
    ]


def halting_corpus() -> List[Tuple[MachineCase, str, bool]]:
    """(machine, input word, halts?) triples with known ground truth."""
    triples: List[Tuple[MachineCase, str, bool]] = []
    for case in machine_corpus():
        for word in case.halts_on:
            triples.append((case, word, True))
        for word in case.diverges_on:
            triples.append((case, word, False))
    return triples


# ---------------------------------------------------------------------------
# Database schemas and states
# ---------------------------------------------------------------------------


def family_schema() -> DatabaseSchema:
    """The father/son schema of the paper's introduction: one binary relation ``F``."""
    return DatabaseSchema((RelationSchema("F", 2, ("father", "son")),))


def family_state(generations: int = 3, sons_per_father: int = 2, base: int = 0) -> DatabaseState:
    """A synthetic family tree over the natural numbers.

    Person ``p`` in generation ``g`` has ``sons_per_father`` sons in
    generation ``g + 1``; identifiers grow with ``base``.
    """
    rows: List[Tuple[int, int]] = []
    current = [base]
    next_id = base + 1
    for _generation in range(generations):
        offspring = []
        for father in current:
            for _ in range(sons_per_father):
                rows.append((father, next_id))
                offspring.append(next_id)
                next_id += 1
        current = offspring
    return DatabaseState(family_schema(), {"F": rows})


def numeric_schema() -> DatabaseSchema:
    """A schema with one unary relation ``S`` of numbers (used over ``(N, <)`` and ``(N, ')``)."""
    return DatabaseSchema((RelationSchema("S", 1, ("value",)),))


def numeric_state(values: Sequence[int]) -> DatabaseState:
    """A state storing the given numbers in the unary relation ``S``."""
    return DatabaseState(numeric_schema(), {"S": [(int(v),) for v in values]})


def span_schema() -> DatabaseSchema:
    """Numbers ``S/1`` plus spans ``R/2`` — the schema whose queries bound a
    variable on *both* sides from one witness row (``R(y, z) ∧ y < x ∧ x < z``)."""
    return DatabaseSchema((
        RelationSchema("S", 1, ("value",)),
        RelationSchema("R", 2, ("lo", "hi")),
    ))


def span_state(
    values: Sequence[int], spans: Sequence[Tuple[int, int]]
) -> DatabaseState:
    """A state over :func:`span_schema` with the given numbers and spans."""
    return DatabaseState(span_schema(), {
        "S": [(int(v),) for v in values],
        "R": [(int(lo), int(hi)) for lo, hi in spans],
    })


# ---------------------------------------------------------------------------
# Query corpora
# ---------------------------------------------------------------------------


def ordered_query_corpus() -> List[Tuple[str, Formula, bool]]:
    """(name, query, is_finite) triples over the schema ``{S/1}`` and domain ``(N, <)``.

    Ground truth is by construction: the finite queries bound their free
    variable by the stored data or constants; the infinite ones do not.
    """
    x, y = var("x"), var("y")
    queries: List[Tuple[str, Formula, bool]] = [
        ("members", atom("S", x), True),
        ("below-member", conj(exists("y", conj(atom("S", y), atom("<", x, y)))), True),
        ("strictly-between-members",
         exists("y", exists("z", conj(atom("S", y), atom("S", var("z")),
                                       atom("<", y, x), atom("<", x, var("z"))))), True),
        ("equal-to-seven", eq(x, 7), True),
        ("not-a-member", neg(atom("S", x)), False),
        ("above-some-member", exists("y", conj(atom("S", y), atom("<", y, x))), False),
        ("anything", eq(x, x), False),
        ("above-seven", atom("<", 7, x), False),
        ("member-or-above-member",
         disj(atom("S", x), exists("y", conj(atom("S", y), atom("<", y, x)))), False),
    ]
    return queries


def span_query_corpus() -> List[Tuple[str, Formula, bool]]:
    """(name, query, is_finite) triples over :func:`span_schema` and ``(N, <)``.

    The corpus concentrates on *both-sided* witness bounds: one stored row
    bounds the free variable below and above at once, so the answer is a
    union of per-witness intervals that need not be nested.
    """
    x, y, z = var("x"), var("y"), var("z")
    return [
        ("covered-by-span",
         exists("y", exists("z", conj(atom("R", y, z),
                                      atom("<", y, x), atom("<", x, z)))), True),
        ("covered-inclusive",
         exists("y", exists("z", conj(atom("R", y, z),
                                      atom("<=", y, x), atom("<=", x, z)))), True),
        ("pinched-member",
         exists("y", conj(atom("S", y), atom("<=", y, x), atom("<=", x, y))), True),
        ("empty-pinch",
         exists("y", conj(atom("S", y), atom("<", y, x), atom("<", x, y))), True),
        ("span-or-member",
         disj(atom("S", x),
              exists("y", exists("z", conj(atom("R", y, z),
                                           atom("<", y, x), atom("<", x, z))))), True),
        ("uncovered", neg(exists("y", exists("z", conj(atom("R", y, z),
                                                       atom("<", y, x),
                                                       atom("<", x, z))))), False),
    ]


def successor_query_corpus() -> List[Tuple[str, Formula, bool]]:
    """(name, query, is_finite) triples over the schema ``{S/1}`` and domain ``(N, ')``."""
    from ..logic.builders import apply

    x, y = var("x"), var("y")
    return [
        ("members", atom("S", x), True),
        ("successor-of-member", exists("y", conj(atom("S", y), eq(x, apply("succ", y)))), True),
        ("predecessor-of-member", exists("y", conj(atom("S", y), eq(apply("succ", x), y))), True),
        ("two-above-member",
         exists("y", conj(atom("S", y), eq(x, apply("succ", apply("succ", y))))), True),
        ("equal-to-five", eq(x, 5), True),
        ("non-member", neg(atom("S", x)), False),
        ("different-from-five", neq(x, 5), False),
        ("anything", eq(x, x), False),
        ("not-successor-of-member",
         exists("y", conj(atom("S", y), neq(x, apply("succ", y)))), False),
    ]


def presburger_sentences() -> List[Tuple[str, Formula, bool]]:
    """(name, sentence, truth) triples for exercising the Cooper decision procedure."""
    from ..logic.parser import parse_formula

    cases = [
        ("order-unbounded", "forall x. exists y. x < y", True),
        ("no-maximum", "exists y. forall x. x < y", False),
        ("even-six", "exists x. x + x = 6", True),
        ("even-seven", "exists x. x + x = 7", False),
        ("zero-least", "forall x. (0 <= x)", True),
        ("sum-monotone", "forall x. forall y. (x < x + y + 1)", True),
        ("difference", "forall x. forall y. (x < y -> exists z. x + z = y)", True),
        ("strict-between", "forall x. forall y. (x + 1 < y -> exists z. (x < z & z < y))", True),
        ("no-between-successor", "exists x. exists z. (x < z & z < x + 1)", False),
        ("divisibility", "forall x. exists y. (x = y + y | x = y + y + 1)", True),
    ]
    return [(name, parse_formula(text), truth) for name, text, truth in cases]


def input_word_sample(max_length: int = 3) -> List[str]:
    """All input words up to the given length (used by totality spot-checks)."""
    return list(input_words(max_length))
