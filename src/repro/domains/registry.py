"""The domain registry: domains addressable by name.

Every domain studied in the paper is registered here under a canonical name
plus convenient aliases, together with factories for the default guards that
the paper proves correct for it — the relative-safety decider (when relative
safety is decidable) and the effective syntax (when one exists).  The trace
domain **T** is registered with *neither*: Theorem 3.1 shows finite queries
over **T** have no effective syntax, and Theorem 3.3 shows relative safety
over **T** is undecidable.

``repro.connect(domain="presburger")`` resolves names through this registry;
third-party domains can join the same namespace via :func:`register_domain`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from .base import Domain

__all__ = [
    "DomainEntry",
    "UnknownDomainError",
    "register_domain",
    "unregister_domain",
    "temporary_domain",
    "get_domain",
    "get_entry",
    "resolve_domain_name",
    "available_domains",
    "domain_aliases",
]


class UnknownDomainError(LookupError):
    """Raised when a domain name is not in the registry."""


@dataclass(frozen=True)
class DomainEntry:
    """A registered domain: factory, aliases, and default-guard factories."""

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
    #: True for the pure-equality domain of Section 2, where one evaluation
    #: over the active domain plus rank+1 fresh elements decides finiteness
    #: *and* yields the exact answer (the rows mentioning no fresh element).
    #: The planner then answers guarded queries on the algebra ladder, which
    #: is far cheaper than enumeration.  (The name predates the finding that
    #: finite equality queries need not be domain-independent.)
    finite_implies_domain_independent: bool = False
    #: True when the domain's predicate atoms can be evaluated pointwise, so
    #: queries compile to relational algebra
    #: (:mod:`repro.relational.compile`) and active-domain evaluation runs
    #: set-at-a-time.  Function-heavy domains (e.g. ``(N, ')``, whose queries
    #: lean on ``succ`` terms) leave this off and keep the tree walker.
    supports_compiled_algebra: bool = False
    #: True when the domain's carriers encode to ``int64`` columns (machine
    #: integers directly, strings via dictionary encoding), so compiled
    #: algebra plans can be lowered to the vectorized NumPy executor
    #: (:mod:`repro.relational.columnar`).  The planner then prefers strategy
    #: ``"vectorized"`` over ``"compiled"``; execution still falls back to
    #: the set executor transparently when a specific plan or carrier resists
    #: vectorization, with the reason recorded in ``explain()``.
    supports_vectorized: bool = False
    #: True when the carrier is totally ordered by the standard integer
    #: comparison *and* the domain's ``<``/``<=``/``>``/``>=`` predicates
    #: have exactly that semantics.  The plan optimizer
    #: (:mod:`repro.relational.optimize`) then replaces adom pads filtered by
    #: those predicates with interval joins / range scans over the sorted
    #: active domain, which is what keeps "strictly between two members"-like
    #: queries linear instead of exponential in arity.
    ordered_carrier: bool = False
    #: True when the carrier is *finite* (e.g. the cyclic successor structure
    #: Z/n).  Every query over a finite carrier is trivially finite and can be
    #: answered exactly by evaluating over the whole carrier, so the planner
    #: extends the active domain with :meth:`Domain.carrier_elements` and uses
    #: the guarded active-domain ladder even though finiteness of the *answer*
    #: does not imply domain independence.
    finite_carrier: bool = False


_REGISTRY: Dict[str, DomainEntry] = {}
_ALIASES: Dict[str, str] = {}


def _normalise(name: str) -> str:
    return name.strip().lower()


def register_domain(entry: DomainEntry) -> DomainEntry:
    """Register a domain under its canonical name and aliases.

    Registration is atomic: every alias is validated *before* anything is
    written, so a collision raised here leaves the registry exactly as it
    was (no dangling ``_ALIASES`` entries pointing at an unregistered name).
    """
    canonical = _normalise(entry.name)
    if canonical in _REGISTRY:
        raise ValueError(f"domain {entry.name!r} is already registered")
    aliases = (canonical,) + tuple(_normalise(a) for a in entry.aliases)
    for alias in aliases:
        if alias in _ALIASES and _ALIASES[alias] != canonical:
            raise ValueError(
                f"alias {alias!r} already points at domain {_ALIASES[alias]!r}"
            )
    for alias in aliases:
        _ALIASES[alias] = canonical
    _REGISTRY[canonical] = entry
    return entry


def unregister_domain(name: str) -> DomainEntry:
    """Remove a domain (by canonical name or alias) and all its aliases."""
    canonical = resolve_domain_name(name)
    entry = _REGISTRY.pop(canonical)
    for alias, target in list(_ALIASES.items()):
        if target == canonical:
            del _ALIASES[alias]
    return entry


@contextlib.contextmanager
def temporary_domain(entry: DomainEntry) -> Iterator[DomainEntry]:
    """Register ``entry`` for the duration of a ``with`` block.

    The conformance harness and the test-suite use this to exercise packs
    without leaking global registry state; the domain is unregistered on
    exit even when the block raises.
    """
    register_domain(entry)
    try:
        yield entry
    finally:
        canonical = _normalise(entry.name)
        if _REGISTRY.get(canonical) is entry:
            unregister_domain(canonical)


def resolve_domain_name(name: str) -> str:
    """The canonical name behind ``name`` (which may be an alias)."""
    canonical = _ALIASES.get(_normalise(name))
    if canonical is None:
        known = ", ".join(
            f"{entry.name!r} (aliases: {', '.join(repr(a) for a in entry.aliases) or 'none'})"
            for entry in sorted(_REGISTRY.values(), key=lambda e: e.name)
        )
        raise UnknownDomainError(
            f"unknown domain {name!r}; registered domains are: {known}"
        )
    return canonical


def get_entry(name: str) -> DomainEntry:
    """The registry entry for ``name`` (canonical name or alias)."""
    return _REGISTRY[resolve_domain_name(name)]


def get_domain(name: str) -> Domain:
    """A fresh instance of the domain registered under ``name``."""
    return get_entry(name).factory()


def available_domains() -> Tuple[str, ...]:
    """The canonical names of all registered domains, sorted."""
    return tuple(sorted(_REGISTRY))


def domain_aliases() -> Dict[str, str]:
    """A copy of the alias table (alias → canonical name)."""
    return dict(_ALIASES)


# ---------------------------------------------------------------------------
# Built-in domains.  The guard factories import lazily so that importing the
# registry (from repro.domains.__init__) never races the initialisation of
# the repro.safety package.
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


def _register_builtins() -> None:
    # The built-in domains are declared as DomainPacks (repro.domains.packs)
    # and registered from their declarations, so every built-in automatically
    # carries the example corpora the conformance harness runs.
    from .packs import register_builtin_packs

    register_builtin_packs()


_register_builtins()
