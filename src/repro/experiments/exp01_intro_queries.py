"""E1 — the introduction's father/son queries over the equality domain.

The paper opens with the database scheme ``{F/2}`` (father/son) and the two
queries

* ``M(x) := ∃y∃z (y ≠ z ∧ F(x, y) ∧ F(x, z))`` — fathers of more than one son
  (finite, domain-independent);
* ``G(x, z) := ∃y (F(x, y) ∧ F(y, z))`` — grandfather/grandson pairs (finite);

and the unsafe examples ``¬F(x, y)`` and ``M(x) ∨ G(x, z)`` (the latter is
infinite whenever somebody has two sons, because ``z`` is unbounded).  The
experiment evaluates all four on growing family databases and records answer
sizes and the relative-safety verdicts of the equality-domain decider.
"""

from __future__ import annotations

from typing import Sequence

from ..api.session import Session
from ..domains.equality import EqualityDomain
from ..logic.builders import atom, conj, disj, exists, neg, neq, var
from ..safety.relative_safety import EqualityRelativeSafety
from .corpora import family_schema, family_state
from .report import ExperimentResult

__all__ = ["more_than_one_son_query", "grandfather_query", "run"]


def more_than_one_son_query():
    """The paper's ``M(x)``: persons with more than one son."""
    x, y, z = var("x"), var("y"), var("z")
    return exists("y", exists("z", conj(neq(y, z), atom("F", x, y), atom("F", x, z))))


def grandfather_query():
    """The paper's ``G(x, z)``: grandfather/grandson pairs."""
    x, y, z = var("x"), var("y"), var("z")
    return exists("y", conj(atom("F", x, y), atom("F", y, z)))


def unsafe_negation_query():
    """The paper's first unsafe example: ``¬F(x, y)``."""
    return neg(atom("F", var("x"), var("y")))


def unsafe_disjunction_query():
    """The paper's second unsafe example: ``M(x) ∨ G(x, z)`` (``z`` unbounded)."""
    return disj(more_than_one_son_query(), grandfather_query())


def run(generations: Sequence[int] = (1, 2, 3)) -> ExperimentResult:
    """Evaluate the four introduction queries on growing family databases."""
    result = ExperimentResult(
        experiment_id="E1 (Section 1 examples)",
        claim="M(x) and G(x, z) are finite; ~F(x, y) and M(x) | G(x, z) are unsafe "
        "(infinite whenever somebody has two sons)",
        headers=(
            "generations", "rows", "query", "answer size (active domain)",
            "relative-safety verdict", "matches claim",
        ),
    )
    domain = EqualityDomain()
    session = Session(domain, family_schema(), guard=False)
    decider = EqualityRelativeSafety(domain)
    queries = [
        ("M(x)", more_than_one_son_query(), True),
        ("G(x,z)", grandfather_query(), True),
        ("~F(x,y)", unsafe_negation_query(), False),
        ("M(x)|G(x,z)", unsafe_disjunction_query(), False),
    ]
    for generation_count in generations:
        state = family_state(generations=generation_count, sons_per_father=2)
        for name, query, expected_finite in queries:
            answer = session.query(query, state, strategy="active-domain")
            verdict = decider.decide(query, state)
            matches = verdict.is_finite == expected_finite
            result.add_row(
                generation_count,
                state.total_rows(),
                name,
                len(answer.relation),
                verdict.status.value,
                matches,
            )
    result.conclusion = (
        "every query's relative-safety verdict matches the paper's classification"
        if result.all_rows_consistent
        else "MISMATCH: some verdict disagrees with the paper"
    )
    return result
