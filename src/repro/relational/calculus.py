"""Relational calculus evaluation over a finite universe.

This module evaluates first-order queries against a database state when the
quantifiers are restricted to an explicitly given finite universe of domain
elements.  Two uses:

* **active-domain semantics** — the universe is the active domain of the
  query and the state.  For domain-independent queries this agrees with the
  natural (unrestricted) semantics;
* **bounded model checking** — the universe is a finite sample of the domain
  carrier, used by tests to validate quantifier-elimination procedures.

Domain predicates and functions are supplied by any object with
``eval_predicate(name, args)`` and ``eval_function(name, args)`` methods
(every :class:`repro.domains.base.Domain` qualifies); database relation atoms
are looked up in the state.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine.budget import Deadline

from ..logic.analysis import free_variables
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
)
from ..logic.terms import Apply, Const, Term, Var
from .active_domain import active_domain
from .state import DatabaseState, Element, Relation

__all__ = [
    "Interpretation",
    "evaluate_term",
    "evaluate_formula",
    "evaluate_query",
    "evaluate_query_active_domain",
]


class Interpretation:
    """Minimal structure interface used by the evaluator.

    Subclasses (or duck-typed equivalents such as
    :class:`repro.domains.base.Domain`) provide the meaning of domain function
    and predicate symbols.  The base implementation knows no symbols at all,
    which is exactly the pure-equality domain of Section 2.
    """

    def eval_function(self, name: str, args: Sequence[Element]) -> Element:
        raise KeyError(f"unknown function symbol {name!r}")

    def eval_predicate(self, name: str, args: Sequence[Element]) -> bool:
        raise KeyError(f"unknown predicate symbol {name!r}")


def evaluate_term(
    term: Term,
    assignment: Mapping[Var, Element],
    interpretation: Optional[Interpretation] = None,
) -> Element:
    """Evaluate a term under a variable assignment."""
    if isinstance(term, Var):
        if term not in assignment:
            raise KeyError(f"unassigned variable {term.name!r}")
        return assignment[term]
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Apply):
        if interpretation is None:
            raise KeyError(
                f"function symbol {term.function!r} used without an interpretation"
            )
        args = [evaluate_term(a, assignment, interpretation) for a in term.args]
        return interpretation.eval_function(term.function, args)
    raise TypeError(f"not a term: {term!r}")


def evaluate_formula(
    formula: Formula,
    universe: Iterable[Element],
    assignment: Mapping[Var, Element],
    state: Optional[DatabaseState] = None,
    interpretation: Optional[Interpretation] = None,
    deadline: "Optional[Deadline]" = None,
) -> bool:
    """Evaluate ``formula`` with quantifiers ranging over ``universe``.

    Atoms whose predicate belongs to the state's schema are looked up in the
    state; all other atoms are delegated to ``interpretation``.  With a
    ``deadline``, the quantifier loops run a strided cooperative checkpoint
    per candidate, so an oversized evaluation aborts with
    ``DeadlineExceeded``/``Cancelled`` instead of walking the full grid.
    """
    universe = tuple(universe)
    tick = deadline.tick if deadline is not None else None

    def ev(f: Formula, env: Dict[Var, Element]) -> bool:
        if isinstance(f, Top):
            return True
        if isinstance(f, Bottom):
            return False
        if isinstance(f, Equals):
            return evaluate_term(f.left, env, interpretation) == evaluate_term(
                f.right, env, interpretation
            )
        if isinstance(f, Atom):
            values = [evaluate_term(a, env, interpretation) for a in f.args]
            if state is not None and f.predicate in state.schema:
                return tuple(values) in state[f.predicate]
            if interpretation is None:
                raise KeyError(
                    f"predicate {f.predicate!r} is neither a database relation "
                    "nor interpreted by the domain"
                )
            return interpretation.eval_predicate(f.predicate, values)
        if isinstance(f, Not):
            return not ev(f.body, env)
        if isinstance(f, And):
            return all(ev(c, env) for c in f.conjuncts)
        if isinstance(f, Or):
            return any(ev(d, env) for d in f.disjuncts)
        if isinstance(f, Implies):
            return (not ev(f.antecedent, env)) or ev(f.consequent, env)
        if isinstance(f, Iff):
            return ev(f.left, env) == ev(f.right, env)
        if isinstance(f, Exists):
            v = Var(f.var)
            for value in universe:
                if tick is not None:
                    tick("Exists(candidate)")
                child = dict(env)
                child[v] = value
                if ev(f.body, child):
                    return True
            return False
        if isinstance(f, ForAll):
            v = Var(f.var)
            for value in universe:
                if tick is not None:
                    tick("ForAll(candidate)")
                child = dict(env)
                child[v] = value
                if not ev(f.body, child):
                    return False
            return True
        raise TypeError(f"not a formula: {f!r}")

    return ev(formula, dict(assignment))


def evaluate_query(
    query: Formula,
    universe: Iterable[Element],
    state: Optional[DatabaseState] = None,
    interpretation: Optional[Interpretation] = None,
    free_order: Optional[Sequence[Var]] = None,
    deadline: "Optional[Deadline]" = None,
) -> Relation:
    """Answer ``query`` with both quantifiers and answers restricted to ``universe``.

    Returns the relation of all tuples over ``universe`` (one column per free
    variable, in ``free_order`` or sorted-name order) that satisfy the query.
    With a ``deadline``, the candidate grid runs a strided cooperative
    checkpoint per tuple (and passes the deadline down to the quantifier
    loops).
    """
    universe = tuple(universe)
    if free_order is None:
        free_order = sorted(free_variables(query), key=lambda v: v.name)
    else:
        free_order = list(free_order)
    arity = len(free_order)
    tick = deadline.tick if deadline is not None else None
    rows = set()
    for values in itertools.product(universe, repeat=arity):
        if tick is not None:
            tick("answer grid")
        assignment = dict(zip(free_order, values))
        if evaluate_formula(
            query, universe, assignment, state, interpretation, deadline
        ):
            rows.add(tuple(values))
    return Relation(arity, rows)


def evaluate_query_active_domain(
    query: Formula,
    state: DatabaseState,
    interpretation: Optional[Interpretation] = None,
    extra_elements: Iterable[Element] = (),
    *,
    deadline: "Optional[Deadline]" = None,
) -> Relation:
    """Answer ``query`` under active-domain semantics.

    The universe is the active domain of the query and the state, optionally
    enlarged with ``extra_elements`` (used e.g. for the extended active domain
    of Section 2.2).
    """
    universe = set(active_domain(state, query)) | set(extra_elements)
    return evaluate_query(
        query, sorted(universe, key=repr), state, interpretation,
        deadline=deadline,
    )
