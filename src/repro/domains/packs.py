"""The domain registry: one declarative :class:`DomainPack` per domain.

Every domain studied in the paper is declared here once, under a canonical
name plus convenient aliases, together with factories for the default
guards the paper proves correct for it — the relative-safety decider (when
relative safety is decidable) and the effective syntax (when one exists).
The trace domain **T** is declared with *neither*: Theorem 3.1 shows finite
queries over **T** have no effective syntax, and Theorem 3.3 shows relative
safety over **T** is undecidable.

A pack also carries *evidence*: ground-truth sentences for the decision
procedure, example schemas/states/query corpora with known finiteness
status, and random state generators.  The conformance harness
(:mod:`repro.conformance`) consumes the evidence to run the whole validation
suite — cross-substrate equivalence, guard soundness, edge corpora, bench
smoke — against any pack, so a third-party domain gets the same scrutiny as
the built-ins by declaring one pack object.  What a domain's carrier *is*
(finite, compilable to relational algebra) is not part of the
pack: it is a class attribute of the :class:`~repro.domains.base.Domain`
itself, so it holds for every instance, registered or not.

``repro.connect(domain="presburger")`` resolves names through this
registry, and a third-party domain joins the same namespace by declaring a
pack:

>>> import repro
>>> from repro.domains import DomainPack, EqualityDomain, temporary_pack
>>> class Gossip(EqualityDomain):
...     name = "gossip"
>>> with temporary_pack(DomainPack(name="gossip", factory=Gossip, aliases=("rumour",))):
...     session = repro.connect("rumour")
...     session.domain.name, session.query("x = 7").rows()
('gossip', ((7,),))
>>> "gossip" in repro.available_domains()
False

Corpora are built lazily (each pack holds factories, not data), so
importing the registry stays cheap and free of import cycles.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..logic.formulas import Formula
from .base import Domain

__all__ = [
    "PackQuery",
    "PackSentence",
    "PackCorpus",
    "DomainPack",
    "UnknownDomainError",
    "register_pack",
    "unregister_pack",
    "temporary_pack",
    "get_pack",
    "get_domain",
    "resolve_domain_name",
    "available_domains",
    "domain_aliases",
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
    """A domain declaration: factory, aliases, default guards, evidence."""

    name: str
    factory: Callable[[], Domain]
    aliases: Tuple[str, ...] = ()
    summary: str = ""
    #: builds the relative-safety decider proved correct for this domain,
    #: or ``None`` when relative safety is undecidable (Theorem 3.3)
    safety_factory: Optional[Callable[[Domain], object]] = None
    #: builds the effective syntax for the domain's finite queries (takes the
    #: database schema), or ``None`` when no effective syntax exists
    #: (Theorem 3.1)
    syntax_factory: Optional[Callable[[object], object]] = None
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

    def corpora(self) -> Tuple[PackCorpus, ...]:
        """The example corpora (built on demand)."""
        return self.corpora_factory() if self.corpora_factory is not None else ()

    def sentences(self) -> Tuple[PackSentence, ...]:
        """The ground-truth sentences (built on demand)."""
        return self.sentences_factory() if self.sentences_factory is not None else ()


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class UnknownDomainError(LookupError):
    """Raised when a domain name is not in the registry."""


#: canonical name → pack; aliases are derived from the packs themselves
_PACKS: Dict[str, DomainPack] = {}


def _normalise(name: str) -> str:
    return name.strip().lower()


def domain_aliases() -> Dict[str, str]:
    """The alias table: every name and alias → its canonical name."""
    return {
        _normalise(alias): canonical
        for canonical, pack in _PACKS.items()
        for alias in (canonical,) + pack.aliases
    }


def register_pack(pack: DomainPack) -> DomainPack:
    """Register a pack under its canonical name and aliases.

    Every name is validated before the one write, so a collision raised
    here leaves the registry exactly as it was.
    """
    canonical = _normalise(pack.name)
    if canonical in _PACKS:
        raise ValueError(f"domain {pack.name!r} is already registered")
    taken = domain_aliases()
    for alias in (canonical,) + tuple(_normalise(a) for a in pack.aliases):
        if alias in taken:
            raise ValueError(
                f"alias {alias!r} already points at domain {taken[alias]!r}"
            )
    _PACKS[canonical] = pack
    return pack


def unregister_pack(name: str) -> DomainPack:
    """Remove a pack (by canonical name or alias) and all its aliases."""
    return _PACKS.pop(resolve_domain_name(name))


@contextlib.contextmanager
def temporary_pack(pack: DomainPack) -> Iterator[DomainPack]:
    """Register ``pack`` for the duration of a ``with`` block.

    The conformance harness and the test-suite use this to exercise packs
    without leaking global registry state; the pack is unregistered on exit
    even when the block raises.
    """
    register_pack(pack)
    try:
        yield pack
    finally:
        canonical = _normalise(pack.name)
        if _PACKS.get(canonical) is pack:
            del _PACKS[canonical]


def resolve_domain_name(name: str) -> str:
    """The canonical name behind ``name`` (which may be an alias)."""
    canonical = domain_aliases().get(_normalise(name))
    if canonical is None:
        known = ", ".join(
            f"{pack.name!r} (aliases: {', '.join(repr(a) for a in pack.aliases) or 'none'})"
            for pack in sorted(_PACKS.values(), key=lambda p: p.name)
        )
        raise UnknownDomainError(
            f"unknown domain {name!r}; registered domains are: {known}"
        )
    return canonical


def get_pack(name: str) -> DomainPack:
    """The pack registered under ``name`` (canonical name or alias)."""
    return _PACKS[resolve_domain_name(name)]


def get_domain(name: str) -> Domain:
    """A fresh instance of the domain registered under ``name``."""
    return get_pack(name).factory()


def available_domains() -> Tuple[str, ...]:
    """The canonical names of all registered domains, sorted."""
    return tuple(sorted(_PACKS))


# ---------------------------------------------------------------------------
# Guard factories for the built-in packs.  They import lazily so that
# importing the registry (from repro.domains.__init__) never races the
# initialisation of the repro.safety package.
# ---------------------------------------------------------------------------


def _equality_safety(domain: Domain):
    from ..safety.relative_safety import EqualityRelativeSafety

    return EqualityRelativeSafety(domain)


def _ordered_safety(domain: Domain):
    from ..safety.relative_safety import OrderedRelativeSafety

    return OrderedRelativeSafety(domain)


def _successor_safety(domain: Domain):
    from ..safety.relative_safety import SuccessorRelativeSafety

    return SuccessorRelativeSafety(domain)


def _dense_order_safety(domain: Domain):
    from ..safety.relative_safety import DenseOrderRelativeSafety

    return DenseOrderRelativeSafety(domain)


def _finite_carrier_safety(domain: Domain):
    from ..safety.relative_safety import FiniteCarrierSafety

    return FiniteCarrierSafety(domain)


def _active_domain_syntax(schema):
    from ..safety.effective_syntax import ActiveDomainSyntax

    return ActiveDomainSyntax(schema)


def _finitization_syntax(schema):
    from ..safety.effective_syntax import FinitizationSyntax

    return FinitizationSyntax()


def _finitization_syntax_integers(schema):
    from ..safety.effective_syntax import FinitizationSyntax

    return FinitizationSyntax(integers=True)


def _extended_active_domain_syntax(schema):
    from ..safety.effective_syntax import ExtendedActiveDomainSyntax

    return ExtendedActiveDomainSyntax(schema)


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
# The built-in packs, registered when the module is imported
# ---------------------------------------------------------------------------


def _builtin_packs() -> Tuple[DomainPack, ...]:
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
        DomainPack(
            name="rationals_with_order",
            factory=DenseOrderDomain,
            aliases=("qlinear", "dlo", "q<", "dense_order"),
            summary="the dense linear order (Q, <): bounded no longer implies "
            "finite, so safety needs the projection-finiteness decider",
            safety_factory=_dense_order_safety,
            syntax_factory=_active_domain_syntax,
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
            marker="shortlex",
            corpora_factory=_shortlex_corpus,
            sentences_factory=_shortlex_sentences,
        ),
    )


for _pack in _builtin_packs():
    register_pack(_pack)
