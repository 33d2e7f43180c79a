"""E2 — the Section 1.1 query-answering algorithm over decidable domains.

"For a particular domain with decidable theory ... finite answers are
computable."  The experiment runs the enumeration algorithm (translate the
state into the query, alternate existence checks with tuple search) on finite
queries over ``(N, <)`` and compares the result against active-domain
evaluation where the latter is sound, recording the number of rows and the
agreement.
"""

from __future__ import annotations

from typing import Sequence

from ..api.session import Session
from ..domains.nat_order import NaturalOrderDomain
from ..engine.answers import FiniteAnswer
from ..engine.budget import Budget
from ..logic.builders import atom, conj, eq, exists, var
from .corpora import numeric_schema, numeric_state
from .report import ExperimentResult

__all__ = ["run"]


def run(state_sizes: Sequence[int] = (2, 4, 6)) -> ExperimentResult:
    """Run the enumeration algorithm on finite (N, <) queries of growing states."""
    result = ExperimentResult(
        experiment_id="E2 (Section 1.1 algorithm)",
        claim="finite answers are computable over a decidable domain by the "
        "enumeration algorithm, and agree with direct evaluation",
        headers=("state size", "query", "rows (enumeration)", "terminated", "consistent"),
    )
    domain = NaturalOrderDomain()
    session = Session(domain, numeric_schema(), guard=False)
    budget = Budget(max_rows=200, max_candidates=500)
    x, y, z = var("x"), var("y"), var("z")
    queries = [
        ("members", atom("S", x)),
        ("strict-lower-bounds", exists("y", conj(atom("S", y), atom("<", x, y)))),
        ("between-members",
         exists("y", exists("z", conj(atom("S", y), atom("S", z),
                                       atom("<", y, x), atom("<", x, z))))),
    ]
    for size in state_sizes:
        values = [3 * (i + 1) for i in range(size)]
        state = numeric_state(values)
        for name, query in queries:
            answer = session.query(query, state, strategy="enumeration", budget=budget)
            terminated = isinstance(answer, FiniteAnswer)
            # Cross-check: every stored member is <= max value, so the expected
            # answers are directly computable.
            maximum = max(values)
            if name == "members":
                expected = {(v,) for v in values}
            elif name == "strict-lower-bounds":
                expected = {(n,) for n in range(maximum)}
            else:
                minimum = min(values)
                expected = {(n,) for n in range(minimum + 1, maximum) }
            rows = set(answer.relation.rows if terminated else answer.partial.rows)
            consistent = terminated and rows == expected
            result.add_row(size, name, len(rows), terminated, consistent)
    result.conclusion = (
        "the enumeration algorithm terminates on every finite query and returns "
        "exactly the expected answer"
        if result.all_rows_consistent
        else "MISMATCH: enumeration disagreed with the expected answers"
    )
    return result
