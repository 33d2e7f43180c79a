"""Declarative domain packs: a domain plus everything needed to validate it.

A :class:`DomainPack` bundles what :class:`~repro.domains.registry.DomainEntry`
already declares (factory, aliases, guard factories, capability flags) with
*evidence*: ground-truth sentences for the decision procedure, example
schemas/states/query corpora with known finiteness status, and random state
generators.  The conformance harness (:mod:`repro.conformance`) consumes the
evidence to run the whole validation suite — cross-substrate equivalence,
guard soundness, edge corpora, bench smoke — against any pack, so a
third-party domain gets the same scrutiny as the built-ins by declaring one
pack object.

All built-in domains are themselves declared here as packs;
``registry._register_builtins()`` delegates to :func:`register_builtin_packs`.
Corpora are built lazily (each pack holds factories, not data), so importing
the registry stays cheap and free of import cycles.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..logic.formulas import Formula
from .base import Domain

# NOTE: ``registry`` is imported lazily inside functions.  The two modules
# are mutually dependent — registry's ``_register_builtins()`` delegates to
# :func:`register_builtin_packs` here — and a module-level import in either
# direction would deadlock the other's initialisation.

__all__ = [
    "PackQuery",
    "PackSentence",
    "PackCorpus",
    "DomainPack",
    "register_pack",
    "unregister_pack",
    "temporary_pack",
    "get_pack",
    "available_packs",
    "register_builtin_packs",
]


# ---------------------------------------------------------------------------
# The declarative spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackQuery:
    """A query with ground-truth finiteness on the corpus's canonical state.

    ``finite`` is ``True``/``False`` when the pack author asserts the answer
    is finite/infinite *in the canonical state* (the guard-soundness check
    verifies the safety decider agrees), or ``None`` when finiteness is not
    asserted (e.g. domains without a safety guard).
    """

    name: str
    query: Formula
    finite: Optional[bool] = None


@dataclass(frozen=True)
class PackSentence:
    """A pure domain sentence with known truth value."""

    name: str
    sentence: Formula
    truth: bool


@dataclass(frozen=True)
class PackCorpus:
    """A schema, a canonical state, queries, and a random-state generator.

    ``state_factory(rng, size)`` must build a schema-conformant state with
    roughly ``size`` stored rows (0 and 1 included — the harness uses those
    for the empty/one-element edge cases), deterministically from ``rng``.
    """

    name: str
    schema: object  # DatabaseSchema; typed loosely to keep imports lazy
    canonical_state: object  # DatabaseState
    queries: Tuple[PackQuery, ...]
    state_factory: Optional[Callable[[random.Random, int], object]] = None


@dataclass(frozen=True)
class DomainPack:
    """A domain declaration: registry entry fields plus validation evidence."""

    name: str
    factory: Callable[[], Domain]
    aliases: Tuple[str, ...] = ()
    summary: str = ""
    safety_factory: Optional[Callable[[Domain], object]] = None
    syntax_factory: Optional[Callable[[object], object]] = None
    finite_implies_domain_independent: bool = False
    supports_compiled_algebra: bool = False
    supports_vectorized: bool = False
    ordered_carrier: bool = False
    finite_carrier: bool = False
    #: pytest marker slug: tests for this pack carry ``pack_<marker>``
    marker: str = ""
    #: builds the example corpora (lazily, so registration stays cheap)
    corpora_factory: Optional[Callable[[], Tuple[PackCorpus, ...]]] = None
    #: builds the ground-truth sentences for the decision procedure
    sentences_factory: Optional[Callable[[], Tuple[PackSentence, ...]]] = None
    #: rows in the bench-smoke state
    bench_size: int = 48
    #: wall-clock ceiling for the bench smoke, seconds
    bench_seconds: float = 20.0
    #: peak intermediate row ceiling for compiled plans in the bench smoke
    bench_row_limit: int = 250_000

    def to_entry(self):
        """The registry entry this pack declares."""
        from .registry import DomainEntry

        return DomainEntry(
            name=self.name,
            factory=self.factory,
            aliases=self.aliases,
            summary=self.summary,
            safety_factory=self.safety_factory,
            syntax_factory=self.syntax_factory,
            finite_implies_domain_independent=self.finite_implies_domain_independent,
            supports_compiled_algebra=self.supports_compiled_algebra,
            supports_vectorized=self.supports_vectorized,
            ordered_carrier=self.ordered_carrier,
            finite_carrier=self.finite_carrier,
        )

    def corpora(self) -> Tuple[PackCorpus, ...]:
        """The example corpora (built on demand)."""
        return self.corpora_factory() if self.corpora_factory is not None else ()

    def sentences(self) -> Tuple[PackSentence, ...]:
        """The ground-truth sentences (built on demand)."""
        return self.sentences_factory() if self.sentences_factory is not None else ()


# ---------------------------------------------------------------------------
# The pack registry (kept in lock-step with the domain registry)
# ---------------------------------------------------------------------------


_PACKS: Dict[str, DomainPack] = {}


def register_pack(pack: DomainPack) -> DomainPack:
    """Register a pack and its domain entry (atomically — see registry)."""
    from .registry import _normalise, register_domain

    canonical = _normalise(pack.name)
    if canonical in _PACKS:
        raise ValueError(f"pack {pack.name!r} is already registered")
    register_domain(pack.to_entry())  # validates names/aliases before writing
    _PACKS[canonical] = pack
    return pack


def unregister_pack(name: str) -> DomainPack:
    """Remove a pack (by name or alias) together with its domain entry."""
    from .registry import resolve_domain_name, unregister_domain

    canonical = resolve_domain_name(name)
    unregister_domain(canonical)
    return _PACKS.pop(canonical)


@contextlib.contextmanager
def temporary_pack(pack: DomainPack) -> Iterator[DomainPack]:
    """Register ``pack`` for the duration of a ``with`` block."""
    from .registry import _normalise

    register_pack(pack)
    try:
        yield pack
    finally:
        if _PACKS.get(_normalise(pack.name)) is pack:
            unregister_pack(pack.name)


def get_pack(name: str) -> DomainPack:
    """The pack registered under ``name`` (canonical name or alias)."""
    from .registry import UnknownDomainError, resolve_domain_name

    canonical = resolve_domain_name(name)
    try:
        return _PACKS[canonical]
    except KeyError:
        raise UnknownDomainError(
            f"domain {name!r} is registered without a pack declaration"
        ) from None


def available_packs() -> Tuple[str, ...]:
    """The canonical names of all registered packs, sorted."""
    return tuple(sorted(_PACKS))


# ---------------------------------------------------------------------------
# Lazy guard factories for the new packs
# ---------------------------------------------------------------------------


def _dense_order_safety(domain: Domain):
    from ..safety.relative_safety import DenseOrderRelativeSafety

    return DenseOrderRelativeSafety(domain)


def _finite_carrier_safety(domain: Domain):
    from ..safety.relative_safety import FiniteCarrierSafety

    return FiniteCarrierSafety(domain)


# ---------------------------------------------------------------------------
# Corpus builders for the built-in packs
# ---------------------------------------------------------------------------


def _unary_schema(relation: str):
    from ..relational.schema import DatabaseSchema, RelationSchema

    return DatabaseSchema((RelationSchema(relation, 1, ("value",)),))


def _unary_state(relation: str, values):
    from ..relational.state import DatabaseState

    return DatabaseState(_unary_schema(relation), {relation: [(v,) for v in values]})


def _family_corpus() -> Tuple[PackCorpus, ...]:
    from ..experiments.corpora import family_schema, family_state
    from ..logic.builders import atom, conj, eq, exists, neg, neq, var
    from ..relational.state import DatabaseState

    x, y, z = var("x"), var("y"), var("z")
    queries = (
        PackQuery("fathers-and-sons", atom("F", x, y), True),
        PackQuery(
            "grandfathers",
            exists("z", conj(atom("F", x, z), atom("F", z, y))),
            True,
        ),
        PackQuery(
            "more-than-one-son",
            exists("y", exists("z", conj(atom("F", x, y), atom("F", x, z), neq(y, z)))),
            True,
        ),
        PackQuery("not-a-father", neg(exists("y", atom("F", x, y))), False),
        PackQuery("anyone", eq(x, x), False),
    )

    def states(rng: random.Random, size: int):
        span = 3 * size + 2
        rows = [(rng.randrange(span), rng.randrange(span)) for _ in range(size)]
        return DatabaseState(family_schema(), {"F": rows})

    return (
        PackCorpus(
            name="family",
            schema=family_schema(),
            canonical_state=family_state(generations=2, sons_per_father=2),
            queries=queries,
            state_factory=states,
        ),
    )


def _numeric_states(lo: int = 0):
    from ..experiments.corpora import numeric_state

    def states(rng: random.Random, size: int):
        span = 4 * size + 4
        return numeric_state([rng.randrange(lo, span) for _ in range(size)])

    return states


def _ordered_corpus() -> Tuple[PackCorpus, ...]:
    from ..experiments.corpora import (
        numeric_schema,
        numeric_state,
        ordered_query_corpus,
        span_query_corpus,
        span_schema,
        span_state,
    )
    from ..relational.state import DatabaseState

    ordered_queries = tuple(
        PackQuery(name, query, finite) for name, query, finite in ordered_query_corpus()
    )
    span_queries = tuple(
        PackQuery(name, query, finite) for name, query, finite in span_query_corpus()
    )

    def span_states(rng: random.Random, size: int):
        span = 4 * size + 4
        n_spans = size // 3
        values = [rng.randrange(span) for _ in range(size - n_spans)]
        spans = [
            tuple(sorted((rng.randrange(span), rng.randrange(span))))
            for _ in range(n_spans)
        ]
        return DatabaseState(span_schema(), {
            "S": [(v,) for v in values],
            "R": spans,
        })

    return (
        PackCorpus(
            name="ordered-members",
            schema=numeric_schema(),
            canonical_state=numeric_state([2, 5, 9]),
            queries=ordered_queries,
            state_factory=_numeric_states(),
        ),
        PackCorpus(
            name="spans",
            schema=span_schema(),
            canonical_state=span_state([2, 4, 9], [(1, 5), (8, 12)]),
            queries=span_queries,
            state_factory=span_states,
        ),
    )


def _presburger_naturals_corpus() -> Tuple[PackCorpus, ...]:
    from ..experiments.corpora import numeric_schema, numeric_state, ordered_query_corpus

    queries = tuple(
        PackQuery(name, query, finite) for name, query, finite in ordered_query_corpus()
    )
    return (
        PackCorpus(
            name="ordered-members",
            schema=numeric_schema(),
            canonical_state=numeric_state([2, 5, 9]),
            queries=queries,
            state_factory=_numeric_states(),
        ),
    )


def _presburger_sentence_pack() -> Tuple[PackSentence, ...]:
    from ..experiments.corpora import presburger_sentences

    return tuple(
        PackSentence(name, sentence, truth)
        for name, sentence, truth in presburger_sentences()
    )


def _integers_corpus() -> Tuple[PackCorpus, ...]:
    from ..experiments.corpora import numeric_schema, numeric_state
    from ..logic.builders import atom, conj, eq, exists, neg, var

    x, y, z = var("x"), var("y"), var("z")
    queries = (
        PackQuery("members", atom("S", x), True),
        # Finite over N (Section 2.1), infinite over Z: no lower bound.
        PackQuery(
            "below-member", exists("y", conj(atom("S", y), atom("<", x, y))), False
        ),
        PackQuery(
            "between-members",
            exists("y", exists("z", conj(atom("S", y), atom("S", z),
                                         atom("<", y, x), atom("<", x, z)))),
            True,
        ),
        PackQuery(
            "pinched-member",
            exists("y", conj(atom("S", y), atom("<=", y, x), atom("<=", x, y))),
            True,
        ),
        PackQuery("equal-to-minus-three", eq(x, -3), True),
        PackQuery("not-a-member", neg(atom("S", x)), False),
    )

    def states(rng: random.Random, size: int):
        span = 2 * size + 2
        return numeric_state([rng.randrange(-span, span) for _ in range(size)])

    return (
        PackCorpus(
            name="integer-members",
            schema=numeric_schema(),
            canonical_state=numeric_state([-4, 0, 5]),
            queries=queries,
            state_factory=states,
        ),
    )


def _integers_sentences() -> Tuple[PackSentence, ...]:
    from ..logic.parser import parse_formula

    cases = (
        ("negatives-exist", "exists x. x < 0", True),
        ("zero-not-least", "forall x. (0 <= x)", False),
        ("unbounded-below", "forall x. exists y. y < x", True),
        ("even-seven", "exists x. x + x = 7", False),
    )
    return tuple(
        PackSentence(name, parse_formula(text), truth) for name, text, truth in cases
    )


def _successor_corpus() -> Tuple[PackCorpus, ...]:
    from ..experiments.corpora import numeric_schema, numeric_state, successor_query_corpus

    queries = tuple(
        PackQuery(name, query, finite)
        for name, query, finite in successor_query_corpus()
    )
    return (
        PackCorpus(
            name="successor-members",
            schema=numeric_schema(),
            canonical_state=numeric_state([3, 5, 9]),
            queries=queries,
            state_factory=_numeric_states(),
        ),
    )


def _successor_sentences() -> Tuple[PackSentence, ...]:
    from ..logic.builders import apply, eq, exists, forall, neg, var

    x, y = var("x"), var("y")
    return (
        PackSentence("every-number-has-a-successor",
                     forall("x", exists("y", eq(y, apply("succ", x)))), True),
        PackSentence("no-fixpoint", exists("x", eq(apply("succ", x), x)), False),
        PackSentence("zero-is-no-successor", exists("x", eq(apply("succ", x), 0)), False),
    )


def _trace_corpus() -> Tuple[PackCorpus, ...]:
    from ..logic.builders import atom, neg, var
    from ..relational.state import DatabaseState

    x = var("x")
    schema = _unary_schema("W")
    queries = (
        # No safety guard exists over T (Theorem 3.3), so finiteness is not
        # asserted; the corpus still drives the substrate-equivalence and
        # edge checks through the tree walker.
        PackQuery("stored-words", atom("W", x), None),
        PackQuery("not-stored", neg(atom("W", x)), None),
    )

    def states(rng: random.Random, size: int):
        words = ["1" * rng.randrange(1, 4) for _ in range(size)]
        return DatabaseState(schema, {"W": [(w,) for w in words]})

    return (
        PackCorpus(
            name="stored-trace-words",
            schema=schema,
            canonical_state=_unary_state("W", ["1", "11"]),
            queries=queries,
            state_factory=states,
        ),
    )


# ---------------------------------------------------------------------------
# Corpus builders for the four new packs
# ---------------------------------------------------------------------------


def _dense_order_corpus() -> Tuple[PackCorpus, ...]:
    from ..experiments.corpora import numeric_schema
    from ..logic.builders import atom, conj, eq, exists, forall, implies, neg, var
    from ..logic.terms import Const
    from ..relational.state import DatabaseState

    x, y, z = var("x"), var("y"), var("z")
    queries = (
        PackQuery("members", atom("S", x), True),
        # Finite over (N, <); infinite over (Q, <) by density — the key
        # contrast this pack exists to exercise.
        PackQuery(
            "strictly-between-members",
            exists("y", exists("z", conj(atom("S", y), atom("S", z),
                                         atom("<", y, x), atom("<", x, z)))),
            False,
        ),
        PackQuery(
            "pinched-member",
            exists("y", conj(atom("S", y), atom("<=", y, x), atom("<=", x, y))),
            True,
        ),
        PackQuery("equal-to-one-half", eq(x, Const(Fraction(1, 2))), True),
        PackQuery("not-a-member", neg(atom("S", x)), False),
        PackQuery(
            "below-member", exists("y", conj(atom("S", y), atom("<", x, y))), False
        ),
        PackQuery(
            "least-member",
            conj(atom("S", x), forall("y", implies(atom("S", y), atom("<=", x, y)))),
            True,
        ),
    )

    def states(rng: random.Random, size: int):
        values = []
        for _ in range(size):
            numerator = rng.randrange(-2 * size - 2, 2 * size + 2)
            denominator = rng.choice((1, 1, 2, 3))
            value = Fraction(numerator, denominator)
            values.append(int(value) if value.denominator == 1 else value)
        return DatabaseState(numeric_schema(), {"S": [(v,) for v in values]})

    return (
        PackCorpus(
            name="rational-members",
            schema=numeric_schema(),
            canonical_state=DatabaseState(
                numeric_schema(), {"S": [(0,), (1,), (Fraction(7, 2),)]}
            ),
            queries=queries,
            state_factory=states,
        ),
    )


def _dense_order_sentences() -> Tuple[PackSentence, ...]:
    from ..logic.builders import atom, conj, exists, forall, implies, neg, var

    x, y, z = var("x"), var("y"), var("z")
    between = exists("z", conj(atom("<", x, z), atom("<", z, y)))
    return (
        PackSentence(
            "dense", forall("x", forall("y", implies(atom("<", x, y), between))), True
        ),
        PackSentence("no-least-element", forall("x", exists("y", atom("<", y, x))), True),
        PackSentence(
            "discrete-somewhere",
            exists("x", exists("y", conj(atom("<", x, y), neg(between)))),
            False,
        ),
    )


def _difference_corpus() -> Tuple[PackCorpus, ...]:
    from ..experiments.corpora import numeric_schema, numeric_state
    from ..logic.builders import apply, atom, conj, eq, exists, neg, var

    x, y, z = var("x"), var("y"), var("z")
    queries = (
        PackQuery("members", atom("S", x), True),
        PackQuery(
            "within-two-of-member",
            exists("y", conj(atom("S", y),
                             atom("<=", apply("-", x, y), 2),
                             atom("<=", apply("-", y, x), 2))),
            True,
        ),
        PackQuery(
            "below-member", exists("y", conj(atom("S", y), atom("<", x, y))), False
        ),
        PackQuery(
            "above-member", exists("y", conj(atom("S", y), atom("<", y, x))), False
        ),
        PackQuery(
            "between-members",
            exists("y", exists("z", conj(atom("S", y), atom("S", z),
                                         atom("<", y, x), atom("<", x, z)))),
            True,
        ),
        PackQuery("equal-to-minus-three", eq(x, -3), True),
        PackQuery("not-a-member", neg(atom("S", x)), False),
    )

    def states(rng: random.Random, size: int):
        span = 2 * size + 2
        return numeric_state([rng.randrange(-span, span) for _ in range(size)])

    return (
        PackCorpus(
            name="difference-members",
            schema=numeric_schema(),
            canonical_state=numeric_state([-4, 0, 5]),
            queries=queries,
            state_factory=states,
        ),
    )


def _difference_sentences() -> Tuple[PackSentence, ...]:
    from ..logic.builders import apply, atom, conj, disj, eq, exists, forall, var

    x, y = var("x"), var("y")
    x_minus_y = apply("-", x, y)
    y_minus_x = apply("-", y, x)
    return (
        # Bellman–Ford fast path: satisfiable difference system (x = y + 1).
        PackSentence(
            "consistent-chain",
            exists("x", exists("y", conj(atom("<=", x_minus_y, 1),
                                         atom("<=", y_minus_x, -1)))),
            True,
        ),
        # Fast path: x - y <= 1 and y - x <= -2 sum to a -1 cycle.
        PackSentence(
            "negative-cycle",
            exists("x", exists("y", conj(atom("<=", x_minus_y, 1),
                                         atom("<=", y_minus_x, -2)))),
            False,
        ),
        # Fast path, single-variable constraints through the virtual zero node.
        PackSentence("negatives-exist", exists("x", atom("<", x, 0)), True),
        # Outside the fragment (disjunction): exercises the Cooper fallback.
        PackSentence(
            "integer-parity",
            forall("x", exists("y", disj(eq(x, apply("+", y, y)),
                                         eq(x, apply("+", apply("+", y, y), 1))))),
            True,
        ),
    )


def _cyclic_corpus() -> Tuple[PackCorpus, ...]:
    from ..experiments.corpora import numeric_schema, numeric_state
    from ..logic.builders import apply, atom, conj, eq, exists, neg, var

    x, y = var("x"), var("y")
    queries = (
        PackQuery("members", atom("S", x), True),
        # Finite *because the carrier is* — the canonical infinite queries
        # everywhere else are finite over Z/n.
        PackQuery("non-members", neg(atom("S", x)), True),
        PackQuery("everything", eq(x, x), True),
        PackQuery(
            "successor-of-member",
            exists("y", conj(atom("S", y), eq(x, apply("succ", y)))),
            True,
        ),
        PackQuery(
            "predecessor-of-member",
            exists("y", conj(atom("S", y), eq(apply("succ", x), y))),
            True,
        ),
    )

    def states(rng: random.Random, size: int):
        return numeric_state([rng.randrange(12) for _ in range(size)])

    return (
        PackCorpus(
            name="cyclic-members",
            schema=numeric_schema(),
            canonical_state=numeric_state([0, 3, 7]),
            queries=queries,
            state_factory=states,
        ),
    )


def _cyclic_sentences() -> Tuple[PackSentence, ...]:
    from ..logic.builders import apply, eq, exists, forall, neg, var

    x = var("x")
    twelve_around = x
    for _ in range(12):
        twelve_around = apply("succ", twelve_around)
    return (
        PackSentence("no-fixpoint", exists("x", eq(apply("succ", x), x)), False),
        PackSentence(
            "rotation-moves-everything", forall("x", neg(eq(apply("succ", x), x))), True
        ),
        PackSentence("order-twelve", forall("x", eq(twelve_around, x)), True),
        PackSentence(
            "pred-inverts-succ",
            forall("x", eq(apply("pred", apply("succ", x)), x)),
            True,
        ),
    )


def _shortlex_corpus() -> Tuple[PackCorpus, ...]:
    from ..logic.builders import atom, conj, eq, exists, forall, implies, neg, var
    from ..logic.terms import Const

    x, y = var("x"), var("y")
    schema = _unary_schema("W")
    queries = (
        PackQuery("members", atom("W", x), True),
        # Only finitely many words precede any word in shortlex order — the
        # (N, <) safety profile on a non-numeric carrier.
        PackQuery(
            "below-member", exists("y", conj(atom("W", y), atom("<", x, y))), True
        ),
        PackQuery(
            "above-member", exists("y", conj(atom("W", y), atom("<", y, x))), False
        ),
        PackQuery("not-a-member", neg(atom("W", x)), False),
        PackQuery("equal-to-ab", eq(x, Const("ab")), True),
        PackQuery(
            "least-member",
            conj(atom("W", x), forall("y", implies(atom("W", y), atom("<=", x, y)))),
            True,
        ),
    )

    def states(rng: random.Random, size: int):
        words = [
            "".join(rng.choice("ab") for _ in range(rng.randrange(5)))
            for _ in range(size)
        ]
        return _unary_state("W", words)

    return (
        PackCorpus(
            name="shortlex-words",
            schema=schema,
            canonical_state=_unary_state("W", ["", "ab", "ba"]),
            queries=queries,
            state_factory=states,
        ),
    )


def _shortlex_sentences() -> Tuple[PackSentence, ...]:
    from ..logic.builders import atom, conj, exists, forall, implies, var

    x, y, z = var("x"), var("y"), var("z")
    between = exists("z", conj(atom("<", x, z), atom("<", z, y)))
    return (
        PackSentence("no-greatest-word", forall("x", exists("y", atom("<", x, y))), True),
        PackSentence("has-least-word", exists("x", forall("y", atom("<=", x, y))), True),
        PackSentence(
            "dense-order",
            forall("x", forall("y", implies(atom("<", x, y), between))),
            False,
        ),
    )


# ---------------------------------------------------------------------------
# The built-in packs
# ---------------------------------------------------------------------------


def _builtin_packs() -> Tuple[DomainPack, ...]:
    from .registry import (
        _active_domain_syntax,
        _equality_safety,
        _extended_active_domain_syntax,
        _finitization_syntax,
        _finitization_syntax_integers,
        _ordered_safety,
        _successor_safety,
    )
    from .cyclic import CyclicSuccessorDomain
    from .dense_order import DenseOrderDomain
    from .difference import IntegerDifferenceDomain
    from .equality import EqualityDomain
    from .lex_strings import ShortlexStringDomain
    from .nat_order import NaturalOrderDomain
    from .presburger import PresburgerDomain
    from .reach_traces import ReachTracesDomain
    from .successor import SuccessorDomain
    from .traces_domain import TraceDomain

    return (
        DomainPack(
            name="equality",
            factory=EqualityDomain,
            aliases=("eq", "pure-equality"),
            summary="a countably infinite set with equality only (Section 2)",
            safety_factory=_equality_safety,
            syntax_factory=_active_domain_syntax,
            finite_implies_domain_independent=True,
            supports_compiled_algebra=True,
            supports_vectorized=True,
            marker="equality",
            corpora_factory=_family_corpus,
        ),
        DomainPack(
            name="naturals_with_order",
            factory=NaturalOrderDomain,
            aliases=("nat<", "nat_order", "order"),
            summary="the ordered natural numbers (N, <) (Section 2.1)",
            safety_factory=_ordered_safety,
            syntax_factory=_finitization_syntax,
            supports_compiled_algebra=True,
            supports_vectorized=True,
            ordered_carrier=True,
            marker="nat_order",
            corpora_factory=_ordered_corpus,
            sentences_factory=_presburger_sentence_pack,
        ),
        DomainPack(
            name="presburger_naturals",
            factory=PresburgerDomain,
            aliases=("presburger", "presburger_arithmetic"),
            summary="Presburger arithmetic over N (a decidable extension of (N, <))",
            safety_factory=_ordered_safety,
            syntax_factory=_finitization_syntax,
            supports_compiled_algebra=True,
            supports_vectorized=True,
            ordered_carrier=True,
            marker="presburger",
            corpora_factory=_presburger_naturals_corpus,
            sentences_factory=_presburger_sentence_pack,
        ),
        DomainPack(
            name="presburger_integers",
            factory=lambda: PresburgerDomain(carrier="integers"),
            aliases=("integers",),
            summary="Presburger arithmetic over Z",
            safety_factory=_ordered_safety,
            syntax_factory=_finitization_syntax_integers,
            supports_compiled_algebra=True,
            supports_vectorized=True,
            ordered_carrier=True,
            marker="integers",
            corpora_factory=_integers_corpus,
            sentences_factory=_integers_sentences,
        ),
        DomainPack(
            name="naturals_with_successor",
            factory=SuccessorDomain,
            aliases=("succ", "successor", "nat'"),
            summary="the natural numbers with successor (N, ') (Section 2.2)",
            safety_factory=_successor_safety,
            syntax_factory=_extended_active_domain_syntax,
            supports_vectorized=True,
            marker="successor",
            corpora_factory=_successor_corpus,
            sentences_factory=_successor_sentences,
        ),
        DomainPack(
            name="traces",
            factory=TraceDomain,
            aliases=("trace", "t"),
            summary="the trace domain T (Section 3): decidable theory, but no "
            "effective syntax (Thm 3.1) and undecidable relative safety (Thm 3.3)",
            marker="traces",
            corpora_factory=_trace_corpus,
        ),
        DomainPack(
            name="reach_traces",
            factory=ReachTracesDomain,
            aliases=("reach",),
            summary="the trace domain with the extended Reach signature (Appendix A)",
            marker="reach",
            corpora_factory=_trace_corpus,
        ),
        # -- the four new packs ------------------------------------------------
        DomainPack(
            name="rationals_with_order",
            factory=DenseOrderDomain,
            aliases=("qlinear", "dlo", "q<", "dense_order"),
            summary="the dense linear order (Q, <): bounded no longer implies "
            "finite, so safety needs the projection-finiteness decider",
            safety_factory=_dense_order_safety,
            syntax_factory=_active_domain_syntax,
            supports_compiled_algebra=True,
            marker="qlinear",
            corpora_factory=_dense_order_corpus,
            sentences_factory=_dense_order_sentences,
        ),
        DomainPack(
            name="integer_differences",
            factory=IntegerDifferenceDomain,
            aliases=("difference", "zdiff", "difference_constraints"),
            summary="integer difference constraints: (Z, <, -) with a "
            "Bellman-Ford fast path under the Cooper decision procedure",
            safety_factory=_ordered_safety,
            syntax_factory=_finitization_syntax_integers,
            supports_compiled_algebra=True,
            supports_vectorized=True,
            ordered_carrier=True,
            marker="zdiff",
            corpora_factory=_difference_corpus,
            sentences_factory=_difference_sentences,
        ),
        DomainPack(
            name="cyclic_successor",
            factory=CyclicSuccessorDomain,
            aliases=("cyclic", "zmod", "z12"),
            summary="the finite cyclic successor structure Z/12: every query "
            "is finite because the carrier is",
            safety_factory=_finite_carrier_safety,
            supports_compiled_algebra=True,
            supports_vectorized=True,
            finite_carrier=True,
            marker="cyclic",
            corpora_factory=_cyclic_corpus,
            sentences_factory=_cyclic_sentences,
        ),
        DomainPack(
            name="shortlex_strings",
            factory=ShortlexStringDomain,
            aliases=("shortlex", "lex", "words"),
            summary="words under the shortlex order — order-isomorphic to "
            "(N, <), giving its safety profile on a string carrier",
            safety_factory=_ordered_safety,
            syntax_factory=_finitization_syntax,
            supports_compiled_algebra=True,
            supports_vectorized=True,
            marker="shortlex",
            corpora_factory=_shortlex_corpus,
            sentences_factory=_shortlex_sentences,
        ),
    )


def register_builtin_packs() -> None:
    """Register every built-in pack (idempotent per interpreter)."""
    from .registry import _normalise

    for pack in _builtin_packs():
        if _normalise(pack.name) not in _PACKS:
            register_pack(pack)
