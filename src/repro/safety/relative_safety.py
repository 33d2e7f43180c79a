"""Relative safety: is a query finite in a *given* database state?

The paper's results, in implementation form:

* pure-equality domain (Section 2): decidable — fix one fresh element outside
  the active domain and check whether any tuple involving it satisfies the
  query (:class:`EqualityRelativeSafety`);
* decidable extensions of ``(N, <)`` (Theorem 2.5): decidable — in a fixed
  state the query is finite iff it is equivalent to its finitization, and the
  equivalence is a pure domain sentence that the domain's decision procedure
  settles (:class:`OrderedRelativeSafety`);
* ``(N, ')`` (Theorem 2.6): decidable — eliminate quantifiers, then analyse
  the resulting quantifier-free formula clause by clause: a clause with a
  satisfiable constraint system whose variables are not all anchored to
  constants has infinitely many solutions (:class:`SuccessorRelativeSafety`);
* the trace domain **T** (Theorem 3.3): *undecidable* — the query
  ``P(M, c, x)`` is finite in state ``c := w`` iff machine ``M`` halts on
  ``w``.  :class:`TraceRelativeSafety` therefore only offers a fuel-bounded
  semi-decision procedure and an oracle-parameterised decision procedure; the
  reduction itself lives in :mod:`repro.safety.reductions`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, List, Optional, Set, Tuple

from ..domains.base import Domain
from ..domains.presburger import PresburgerDomain
from ..domains.successor import SuccessorDomain, extended_active_domain_elements
from ..logic.analysis import all_variables, free_variables, quantifier_depth
from ..logic.builders import conj, disj, exists_many, forall_many, iff
from ..logic.formulas import Atom, Equals, Exists, ForAll, Formula, Implies
from ..logic.substitution import fresh_variables
from ..logic.terms import Const, Var
from ..relational.active_domain import active_domain, active_domain_of_query
from ..relational.state import DatabaseState, Element, Relation, Row
from ..relational.translate import expand_database_atoms
from ..turing.machine import run_machine
from ..turing.encoding import decode_machine
from .classes import SafetyVerdict
from .finitization import finitize

if TYPE_CHECKING:  # repro.engine imports this module at package-init time
    from ..engine.answers import Answer
    from ..engine.budget import Budget, Deadline

__all__ = [
    "RelativeSafetyDecider",
    "QuantifierFreeSafety",
    "EqualityRelativeSafety",
    "FreshElementProbe",
    "OrderedRelativeSafety",
    "DenseOrderRelativeSafety",
    "FiniteCarrierSafety",
    "SuccessorRelativeSafety",
    "TraceRelativeSafety",
    "RelativeSafetyUndecidable",
]

#: (ψ, verdict) entries memoised per :class:`QuantifierFreeSafety` decider
MEMO_SIZE = 64


class RelativeSafetyUndecidable(RuntimeError):
    """Raised when a decider is asked to solve an instance it provably cannot."""


class RelativeSafetyDecider(ABC):
    """Decide (or semi-decide) finiteness of a query in a given state."""

    name: str = "relative-safety"

    @abstractmethod
    def decide(self, query: Formula, state: DatabaseState) -> SafetyVerdict:
        """Return a verdict on the finiteness of ``query`` in ``state``."""


@dataclass(frozen=True)
class FreshElementProbe:
    """The fresh elements of one Section 2 evaluation, and how to read it.

    ``fresh`` holds rank+1 carrier elements outside the active domain, the
    query constants and the caller's extra elements; the first of them is
    the *probe element*.  Every permutation of the elements outside the
    active domain, the constants and the extras is an automorphism of the
    state, so one evaluation over the universe enlarged by ``fresh`` settles
    both questions at once:

    * some row mentions the probe element ⇒ infinitely many rows exist (move
      the probe element anywhere outside the active domain) — those rows
      are the witnesses;
    * otherwise no row mentions any fresh element, and the rows are the
      exact answer: rank+1 fresh elements are enough for every quantifier to
      meet an element outside the active domain when it needs one.
    """

    fresh: Tuple[Element, ...]

    method: ClassVar[str] = "equality-fresh-element"
    INFINITE_DETAILS: ClassVar[str] = (
        "a tuple containing a fresh element satisfies the query; "
        "by symmetry infinitely many do"
    )
    FINITE_DETAILS: ClassVar[str] = (
        "no tuple containing a fresh element satisfies the query"
    )

    def split(self, rows: Iterable[Row]) -> Tuple[Set[Row], Set[Row]]:
        """``(witnesses, answer)``: the rows mentioning the probe element,
        and — when there are none — the rows mentioning no fresh element.

        >>> FreshElementProbe((7, 8)).split([(1, 7), (2, 3)])
        ({(1, 7)}, set())
        >>> FreshElementProbe((7, 8)).split([(2, 3)])
        (set(), {(2, 3)})
        """
        rows = list(rows)
        probe = self.fresh[0]
        witnesses = {row for row in rows if probe in row}
        if witnesses:
            return witnesses, set()
        fresh = set(self.fresh)
        return set(), {row for row in rows if fresh.isdisjoint(row)}

    def verdict(self, witnesses: Iterable[Row]) -> SafetyVerdict:
        """The verdict a probed evaluation with these witness rows certifies."""
        witnesses = tuple(sorted(witnesses))
        if witnesses:
            return SafetyVerdict.infinite(
                method=self.method, details=self.INFINITE_DETAILS,
                witnesses=witnesses,
            )
        return SafetyVerdict.finite(method=self.method, details=self.FINITE_DETAILS)


class EqualityRelativeSafety(RelativeSafetyDecider):
    """Relative safety over the pure-equality domain (Section 2).

    A query is finite in a state iff no tuple containing an element outside
    the active domain satisfies it; by the symmetry of the domain it suffices
    to test tuples built from the active domain plus fresh elements (see
    :class:`FreshElementProbe`).  The guarded default path does not call
    :meth:`decide`: it runs the answering plan itself over the enlarged
    universe and splits the rows (:class:`~repro.engine.plans.GuardedPlan`).
    """

    name = FreshElementProbe.method

    def __init__(self, domain):
        self._domain = domain

    def probe(
        self,
        query: Formula,
        state: DatabaseState,
        extra_elements: Iterable[Element] = (),
    ) -> FreshElementProbe:
        """rank+1 carrier elements outside the active domain, the query
        constants and ``extra_elements``: the first ones of the carrier.

        The carrier's first elements outside the stored ones are derived
        once per state (:meth:`~repro.relational.state.DatabaseState.first_outside`),
        so a request only skips its constants and extras among them, at
        O(rank + |constants| + |extras|) cost.
        """
        avoid = active_domain_of_query(query) | frozenset(extra_elements)
        count = quantifier_depth(query) + 1
        outside = state.first_outside(
            (self._domain.name, self._domain.carrier),
            self._domain.enumerate_elements,
            count + len(avoid),
        )
        fresh = tuple(e for e in outside if e not in avoid)[:count]
        if not fresh:
            raise RuntimeError("the carrier is too small to supply fresh elements")
        return FreshElementProbe(fresh)

    def decide(self, query: Formula, state: DatabaseState) -> SafetyVerdict:
        # Imported lazily — repro.engine imports this module at package-init
        # time.  The plan compiles to the set executor (the tree walker when
        # compilation bails) and splits its rows with the probe.
        from ..engine.plans import CompiledAlgebraPlan

        probe = self.probe(query, state)
        answer = CompiledAlgebraPlan(domain=self._domain).execute(
            query, state, probe=probe
        )
        return probe.verdict(getattr(answer, "witnesses", ()))


class QuantifierFreeSafety(RelativeSafetyDecider):
    """A decider that eliminates quantifiers once per (query, state) and
    reads both the verdict and the answer off the result.

    ψ, the quantifier-free form of the state-expanded query
    ``expand_database_atoms(query, state)``, is built once; (ψ, verdict) is
    memoised per (query, state) and :meth:`answer` reads the rows off the
    same ψ, so the Section 1.1 enumeration never runs a decision procedure
    per candidate.  A subclass supplies ψ and its verdict
    (:meth:`_psi_and_verdict`; ψ needs a ``rows(deadline)`` method) and the
    sentence that decides the same question (:meth:`decide_by_sentence`).
    """

    def __init__(self, domain: Domain):
        self._domain = domain
        # (ψ, verdict) memoised per (formula, state): expanding the database
        # atoms builds a disjunction per stored row and the elimination then
        # works through it, so a guarded serving workload re-deciding the
        # same query on an unchanged state would pay the full cost every
        # time.  Both keys are immutable value objects (states carry a
        # cached fingerprint hash), so entries can never go stale.  Imported
        # lazily — repro.engine imports this module at package-init time.
        from ..engine.plan_cache import PlanCache

        self._verdicts = PlanCache(maxsize=MEMO_SIZE)

    @property
    def eliminates_once(self) -> bool:
        """True iff verdict and answer both come from one elimination."""
        return True

    def memo_info(self):
        """Hit/miss/eviction counters of the per-(formula, state) memo."""
        return self._verdicts.info()

    def decide(
        self,
        query: Formula,
        state: DatabaseState,
        deadline: Optional["Deadline"] = None,
    ) -> SafetyVerdict:
        """The verdict; a ``deadline`` interrupts the elimination."""
        return self._entry(query, state, deadline)[1]

    def answer(
        self,
        query: Formula,
        state: DatabaseState,
        budget: Optional["Budget"] = None,
        deadline: Optional["Deadline"] = None,
    ) -> "Answer":
        """The answer, read off the memoised ψ (Section 1.1, with the
        elimination hoisted out of the candidate loop).

        The contract is :func:`~repro.engine.enumeration.answer_by_enumeration`'s
        on finite queries: a :class:`~repro.engine.answers.FiniteAnswer`
        (method ``"enumeration"``), or an
        :class:`~repro.engine.answers.UnknownAnswer` with the rows found so
        far once more than ``budget.max_rows`` rows exist or the time limit
        expires; only cancellation raises.  Call it after :meth:`decide`
        certified the query finite: an infinite answer raises
        ``ValueError``, and a decider without a quantifier-free form
        (:attr:`eliminates_once`) raises ``TypeError``.
        """
        from ..engine.answers import FiniteAnswer, UnknownAnswer
        from ..engine.budget import Budget, DeadlineExceeded

        budget = budget if budget is not None else Budget()
        clock = deadline if deadline is not None else budget.start_deadline()
        arity = len(free_variables(query))
        found: List[Row] = []
        try:
            psi, _ = self._entry(query, state, clock)
            if psi is None:
                raise TypeError(
                    f"domain {self._domain.name!r} has no quantifier-free form; "
                    "answer by enumeration instead"
                )
            for row in psi.rows(clock):
                if len(found) == budget.max_rows:
                    return UnknownAnswer(
                        Relation(arity, found),
                        reason=f"row budget of {budget.max_rows} exhausted",
                        method="enumeration",
                    )
                found.append(row)
        except DeadlineExceeded:
            return UnknownAnswer(
                Relation(arity, found),
                reason=f"time budget of {budget.time_limit}s exhausted",
                method="enumeration",
            )
        return FiniteAnswer(Relation(arity, found), method="enumeration")

    def _entry(
        self,
        query: Formula,
        state: DatabaseState,
        deadline: Optional["Deadline"],
    ) -> Tuple[Any, SafetyVerdict]:
        """The memoised (ψ, verdict) of ``query`` in ``state``."""
        key = (query, state)
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        pure = expand_database_atoms(query, state)
        entry = self._psi_and_verdict(pure, _answer_columns(query), deadline)
        self._verdicts.put(key, entry)
        return entry

    @abstractmethod
    def decide_by_sentence(self, query: Formula, state: DatabaseState) -> SafetyVerdict:
        """The verdict of a pure sentence the domain decides, not memoised —
        the reference the quantifier-free path is checked against."""

    @abstractmethod
    def _psi_and_verdict(
        self, pure: Formula, variables: List[Var], deadline: Optional["Deadline"]
    ) -> Tuple[Any, SafetyVerdict]:
        """ψ of the pure formula with ``variables`` as its columns (``None``
        when there is none), and the verdict it gives."""


class OrderedRelativeSafety(QuantifierFreeSafety):
    """Theorem 2.5: relative safety for decidable extensions of ``(N, <)``.

    In a fixed state the query is translated into a pure domain formula
    ``φ'``; it yields a finite answer iff ``φ'`` is equivalent to its
    finitization, a sentence the domain's decision procedure settles.

    Domains with a ``quantifier_free`` method (the Presburger family and
    shortlex strings) settle it without that sentence: ``φ' ≡ φ'^F`` iff
    every projection of ψ, the quantifier-free Cooper form of ``φ'``, is
    bounded (Cooper's ``±inf`` test), and the same ψ yields the answer rows.
    """

    name = "finitization-equivalence"

    def __init__(self, domain: Optional[Domain] = None):
        super().__init__(domain or PresburgerDomain())
        if not self._domain.has_decidable_theory:
            raise ValueError("Theorem 2.5 requires a decidable extension of (N, <)")
        # Over carriers unbounded in both directions (the integers) the
        # finitization must bound answers from below as well as above —
        # ``x < 0`` is finite over N but infinite over Z.  Carriers that
        # declare ``naturals = False`` are the integers.
        self._integers = getattr(self._domain, "naturals", True) is False
        self._quantifier_free = getattr(self._domain, "quantifier_free", None)

    @property
    def eliminates_once(self) -> bool:
        """True iff the domain has a quantifier-free form; otherwise the
        verdict comes from the finitization sentence."""
        return self._quantifier_free is not None

    def _psi_and_verdict(self, pure, variables, deadline):
        if self._quantifier_free is None:
            return None, self._verdict(self._sentence_holds(pure, variables))
        psi = self._quantifier_free(pure, variables, deadline)
        return psi, self._verdict(psi.bounded(deadline=deadline))

    def decide_by_sentence(self, query: Formula, state: DatabaseState) -> SafetyVerdict:
        """The verdict of the literal Theorem 2.5 sentence
        ``∀x̄ (φ' ↔ φ'^F)``, decided by the domain and not memoised — the
        reference the quantifier-free path is checked against."""
        pure = expand_database_atoms(query, state)
        return self._verdict(self._sentence_holds(pure, _answer_columns(query)))

    def _sentence_holds(self, pure: Formula, variables: List[Var]) -> bool:
        equivalence = forall_many(
            [v.name for v in variables],
            iff(pure, finitize(pure, free_order=variables, integers=self._integers)),
        )
        return self._domain.decide(equivalence)

    def _verdict(self, finite: bool) -> SafetyVerdict:
        if finite:
            return SafetyVerdict.finite(
                method=self.name,
                details="the query is equivalent to its finitization in this state",
            )
        return SafetyVerdict.infinite(
            method=self.name,
            details="the query differs from its finitization in this state, "
            "so its answer is unbounded",
        )


def _answer_columns(query: Formula) -> List[Var]:
    """The answer columns: the free variables of the *query*, by name.

    Expanding the database atoms may make some of them vanish syntactically
    (e.g. when a stored relation is empty), but they still index the answer.
    """
    return sorted(free_variables(query), key=lambda v: v.name)


class DenseOrderRelativeSafety(QuantifierFreeSafety):
    """Relative safety over dense linear orders such as ``(Q, <)``.

    Density breaks the finitization argument of Theorem 2.5: a bounded
    definable set can still be infinite (any open interval is).  The decider
    uses the structure of definable sets instead.  A set of tuples is finite
    iff each of its one-dimensional projections is, and by quantifier
    elimination a ``(Q, <)``-definable subset of the line is a finite union
    of points and intervals — finite iff it is **bounded** and contains **no
    nonempty open interval**.

    The default path reads both conditions off ψ, the quantifier-free form
    of the state-expanded query
    (:class:`~repro.domains.dense_order.DenseQuantifierFreeForm`): a
    projection is unbounded iff it holds beyond the constants, and contains
    an open interval iff it holds at a midpoint between two of them.
    :meth:`decide_by_sentence` decides the same two conditions as pure
    domain sentences instead.
    """

    name = "projection-finiteness"

    def __init__(self, domain: Optional[Domain] = None):
        if domain is None:
            from ..domains.dense_order import DenseOrderDomain

            domain = DenseOrderDomain()
        if not domain.has_decidable_theory:
            raise ValueError("projection finiteness needs a decidable dense order")
        super().__init__(domain)

    def _psi_and_verdict(self, pure, variables, deadline):
        psi = self._domain.quantifier_free(pure, variables, deadline)
        if not variables:
            return psi, self._sentence_verdict()
        column = psi.infinite_column(deadline)
        if column is None:
            return psi, self._finite_verdict()
        return psi, self._infinite_verdict(*column)

    def decide_by_sentence(self, query: Formula, state: DatabaseState) -> SafetyVerdict:
        """The verdict of the boundedness and open-interval sentences,
        decided by the domain per projection and not memoised — the
        reference the quantifier-free path is checked against."""
        pure = expand_database_atoms(query, state)
        variables = _answer_columns(query)
        if not variables:
            return self._sentence_verdict()
        used = set(all_variables(pure)) | set(variables)
        for variable in variables:
            others = [v.name for v in variables if v != variable]
            projection = exists_many(others, pure)
            if not self._domain.decide(self._bounded(projection, variable, used)):
                return self._infinite_verdict(variable.name, True)
            if self._domain.decide(self._has_interval(projection, variable, used)):
                return self._infinite_verdict(variable.name, False)
        return self._finite_verdict()

    def _sentence_verdict(self) -> SafetyVerdict:
        return SafetyVerdict.finite(
            method=self.name, details="a sentence has at most one answer row"
        )

    def _finite_verdict(self) -> SafetyVerdict:
        return SafetyVerdict.finite(
            method=self.name,
            details="every one-dimensional projection is bounded and contains "
            "no open interval",
        )

    def _infinite_verdict(self, variable: str, unbounded: bool) -> SafetyVerdict:
        if unbounded:
            return SafetyVerdict.infinite(
                method=self.name,
                details=f"the projection onto {variable!r} is unbounded",
            )
        return SafetyVerdict.infinite(
            method=self.name,
            details=f"the projection onto {variable!r} contains an "
            "open interval, which is infinite by density",
        )

    @staticmethod
    def _bounded(projection: Formula, variable: Var, used) -> Formula:
        """``∃l ∃u ∀x (proj(x) → l < x ∧ x < u)``."""
        low, high = fresh_variables(2, used, stem="b")
        body = Implies(
            projection, conj(Atom("<", (low, variable)), Atom("<", (variable, high)))
        )
        return Exists(low.name, Exists(high.name, ForAll(variable.name, body)))

    @staticmethod
    def _has_interval(projection: Formula, variable: Var, used) -> Formula:
        """``∃a ∃b (a < b ∧ ∀x (a < x ∧ x < b → proj(x)))``."""
        left, right = fresh_variables(2, used, stem="i")
        inside = conj(Atom("<", (left, variable)), Atom("<", (variable, right)))
        body = conj(
            Atom("<", (left, right)),
            ForAll(variable.name, Implies(inside, projection)),
        )
        return Exists(left.name, Exists(right.name, body))


class FiniteCarrierSafety(RelativeSafetyDecider):
    """The trivial safety decider for domains whose carrier is finite.

    Over a finite carrier every query answer is a subset of a finite product,
    hence finite — including ``¬S(x)`` and ``x = x``, the canonical infinite
    queries everywhere else.
    """

    name = "finite-carrier"

    def __init__(self, domain: Domain):
        self._domain = domain

    def decide(self, query: Formula, state: DatabaseState) -> SafetyVerdict:
        size = len(self._domain.carrier_elements())
        return SafetyVerdict.finite(
            method=self.name,
            details=f"the carrier of {self._domain.name!r} has only {size} "
            "elements, so every answer is finite",
        )


class SuccessorRelativeSafety(QuantifierFreeSafety):
    """Theorem 2.6: relative safety for ``(N, ')``.

    The query (with the state folded in) is reduced to a quantifier-free
    formula by the Section 2.2 elimination; a clause of its DNF contributes an
    infinite set of solutions iff its positive equalities are consistent, its
    negative literals are satisfiable, and some free variable is not anchored
    (through positive equalities) to a concrete natural number.  Otherwise
    every satisfiable clause contributes its one anchored tuple, and those
    tuples are the answer
    (:class:`~repro.domains.successor.SuccessorQuantifierFreeForm`).
    """

    name = "successor-clause-analysis"

    def __init__(self, domain: Optional[SuccessorDomain] = None):
        super().__init__(domain or SuccessorDomain())

    def _psi_and_verdict(self, pure, variables, deadline):
        psi = self._domain.quantifier_free(pure, variables, deadline)
        return psi, self._verdict(psi.finite())

    def decide_by_sentence(self, query: Formula, state: DatabaseState) -> SafetyVerdict:
        """The verdict of Theorem 2.7's sentence — every answer row lies in
        the extended active domain of radius ``2^q`` — decided by the domain
        and not memoised: the reference the clause analysis is checked
        against."""
        pure = expand_database_atoms(query, state)
        variables = _answer_columns(query)
        nearby = sorted(extended_active_domain_elements(
            [int(e) for e in active_domain(state, query)], quantifier_depth(query)
        ))
        inside = conj(*(
            disj(*(Equals(v, Const(e)) for e in nearby)) for v in variables
        ))
        sentence = forall_many([v.name for v in variables], Implies(pure, inside))
        return self._verdict(self._domain.decide(sentence))

    def _verdict(self, finite: bool) -> SafetyVerdict:
        if finite:
            return SafetyVerdict.finite(
                method=self.name,
                details="every satisfiable clause anchors all free variables to constants",
            )
        return SafetyVerdict.infinite(
            method=self.name,
            details="a satisfiable clause leaves a free variable unanchored, "
            "so it has infinitely many solutions",
        )


class TraceRelativeSafety(RelativeSafetyDecider):
    """Theorem 3.3: relative safety over the trace domain is undecidable.

    :meth:`decide` raises :class:`RelativeSafetyUndecidable` for queries built
    by the halting reduction (there is provably no algorithm); use
    :meth:`semi_decide` for a fuel-bounded attempt or :meth:`decide_with_oracle`
    to see how a halting oracle would settle every instance.
    """

    name = "trace-relative-safety"

    def decide(self, query: Formula, state: DatabaseState) -> SafetyVerdict:
        raise RelativeSafetyUndecidable(
            "relative safety over the trace domain reduces from the halting "
            "problem (Theorem 3.3); use semi_decide(fuel=...) or "
            "decide_with_oracle(...)"
        )

    @staticmethod
    def _reduction_instance(query: Formula, state: DatabaseState) -> Tuple[str, str]:
        """Extract (machine word, input word) from a halting-reduction instance."""
        from .reductions import extract_halting_instance

        return extract_halting_instance(query, state)

    def semi_decide(
        self, query: Formula, state: DatabaseState, fuel: int = 10_000
    ) -> SafetyVerdict:
        """Bounded simulation: FINITE if the machine halts within ``fuel`` steps."""
        machine_word, input_word = self._reduction_instance(query, state)
        result = run_machine(decode_machine(machine_word), input_word, fuel)
        if result.halted:
            return SafetyVerdict.finite(
                method="bounded-simulation",
                details=f"the machine halts after {result.steps} steps, so the "
                "set of traces (the query answer) is finite",
            )
        return SafetyVerdict.unknown(
            method="bounded-simulation",
            details=f"the machine did not halt within {fuel} steps; finiteness "
            "remains undetermined (and is undecidable in general)",
        )

    def decide_with_oracle(
        self, query: Formula, state: DatabaseState, halting_oracle
    ) -> SafetyVerdict:
        """Decide relative safety given an oracle for the halting problem."""
        machine_word, input_word = self._reduction_instance(query, state)
        if halting_oracle(machine_word, input_word):
            return SafetyVerdict.finite(
                method="halting-oracle",
                details="the oracle asserts the machine halts, so the answer is finite",
            )
        return SafetyVerdict.infinite(
            method="halting-oracle",
            details="the oracle asserts the machine diverges, so there are "
            "infinitely many traces",
        )
