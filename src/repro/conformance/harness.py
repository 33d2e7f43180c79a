"""The conformance harness: auto-generated validation for any domain pack.

Given a :class:`~repro.domains.packs.DomainPack`, the harness derives and
runs seven families of checks — no per-domain test code required:

1. **decision-procedure** — every declared ground-truth sentence decides to
   its declared truth value.
2. **substrate-equivalence** — on the canonical state and on randomized
   states (including the empty and one-row edge states), both algebra
   substrates (compiled set algebra, vectorized columnar) return exactly the
   tree walker's active-domain answer on every pack, and where the domain
   declares ``supports_compiled_algebra`` each actually engages (produces
   its own method string, not just a fallback's) at least once.
3. **guard-soundness** — for packs that declare a relative-safety guard, the
   guarded session's verdict on the canonical state matches each query's
   declared finiteness; guard-rejected queries never come back as silent
   finite answers; and under the Section 2 fresh-element decider
   (:class:`~repro.safety.relative_safety.EqualityRelativeSafety`), finite
   answers do not change under fresh extra elements.
4. **quantifier-free** ("fast path ≡ enumeration") — for packs whose
   Theorem 2.5 decider reads verdicts and answers off one quantifier-free
   form (:class:`~repro.domains.presburger.QuantifierFreeForm`), on the
   canonical and randomized states every verdict equals the literal
   finitization sentence's, and every finite answer equals the Section 1.1
   enumeration's.
5. **edge-corpora** — queries run without error on empty and one-row states,
   duplicated rows do not change any answer, and the corpus exercises
   negation or a universal quantifier somewhere.
6. **delta-equivalence** — for packs with a compiled substrate, a sequence
   of randomized interleaved insert/delete deltas applied through
   :meth:`~repro.api.session.Session.apply_delta` (which grows the state's
   encoded columns or leaves them behind) leaves every answer equal to
   the one on a freshly built state: the vectorized rung's rows equal the
   set executor's, and ``auto``'s verdict and rows equal the same guard
   over the set executor (or, where ``auto`` reads its answer off a
   quantifier-free form, a fresh session's ``auto``).  After an insert-only
   delta the state's encoded columns must be grown at least once.
7. **bench-smoke** — all queries on a ``bench_size``-row random state finish
   inside the pack's wall-clock budget, with compiled executions staying
   under the pack's peak-intermediate-rows ceiling (the blowup guard).

The vectorized substrate is checked only when NumPy is available; its
*claims* check is skipped (not failed) without it.

``run_pack_conformance(..., checks=("bench-smoke",))`` (CLI: ``--checks``)
restricts a run to named check families.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..domains.base import Domain
from ..domains.packs import DomainPack, available_domains, get_pack
from ..engine.budget import Budget
from ..engine.plans import (
    CompiledAlgebraPlan,
    EnumerationPlan,
    GuardedPlan,
    VectorizedAlgebraPlan,
)
from ..logic.formulas import ForAll, Not, walk_formulas
from ..relational.calculus import evaluate_query_active_domain
from ..relational.columnar import HAVE_NUMPY
from ..relational.compile import CompilationError, compile_query
from ..relational.exec import ExecutionStats, run_plan
from ..relational.state import DatabaseState, Element, Relation
from ..engine.enumeration import answer_by_enumeration
from ..safety.relative_safety import EqualityRelativeSafety

__all__ = [
    "CheckResult",
    "PackReport",
    "ConformanceReport",
    "CHECK_NAMES",
    "run_pack_conformance",
    "run_conformance",
]

#: randomized-state sizes always exercised per seed (0 and 1 are the
#: mandatory edge states; the rest probe ordinary small states)
STATE_SIZES = (0, 1, 3, 6)


@dataclass(frozen=True)
class CheckResult:
    """The outcome of one conformance check for one pack."""

    check: str
    ok: bool
    details: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        text = f"{self.check}: {status}"
        if self.details:
            text += f" — {self.details}"
        return text


@dataclass(frozen=True)
class PackReport:
    """All check results for one pack."""

    pack: str
    checks: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.ok)

    def describe(self) -> str:
        lines = [f"[{'ok' if self.ok else 'FAIL'}] {self.pack}"]
        lines += [f"  {check.describe()}" for check in self.checks]
        return "\n".join(lines)


@dataclass(frozen=True)
class ConformanceReport:
    """Reports for every pack a run covered."""

    reports: Tuple[PackReport, ...]

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    def describe(self) -> str:
        failed = sum(1 for report in self.reports if not report.ok)
        lines = [report.describe() for report in self.reports]
        lines.append(
            f"{len(self.reports)} pack(s): "
            + ("all conformant" if not failed else f"{failed} FAILED")
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _carrier_extras(domain: Domain) -> Tuple[Element, ...]:
    """The extra elements evaluation ranges over (the carrier, if finite)."""
    return tuple(domain.carrier_elements()) if domain.finite_carrier else ()


def _reference_rows(
    query, state: DatabaseState, domain: Domain, extras: Sequence[Element]
) -> frozenset:
    """The tree walker's active-domain answer — the equivalence oracle."""
    relation = evaluate_query_active_domain(
        query, state, interpretation=domain, extra_elements=extras
    )
    return frozenset(relation.rows)


def _substrate_plans(domain: Domain, extras):
    """The (name, plan) pairs for both algebra substrates (vectorized only
    with NumPy); every pack runs them, since each steps down on obstacles."""
    classes = [("compiled-algebra", CompiledAlgebraPlan)]
    if HAVE_NUMPY:
        classes.append(("vectorized", VectorizedAlgebraPlan))
    return [
        (name, cls(domain=domain, budget=Budget(), extra_elements=extras))
        for name, cls in classes
    ]


def _conformance_states(
    corpus, seeds: Sequence[str]
) -> List[Tuple[str, DatabaseState]]:
    """The canonical state plus deterministic randomized states per seed."""
    states: List[Tuple[str, DatabaseState]] = [("canonical", corpus.canonical_state)]
    if corpus.state_factory is None:
        return states
    for seed in seeds:
        for size in STATE_SIZES:
            rng = random.Random(f"conformance/{corpus.name}/{seed}/{size}")
            states.append((f"seed={seed}/rows={size}", corpus.state_factory(rng, size)))
    return states


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def _check_decision_procedure(pack: DomainPack, domain: Domain) -> CheckResult:
    sentences = pack.sentences()
    if not sentences:
        return CheckResult(
            "decision-procedure", True, "skipped: no ground-truth sentences declared"
        )
    problems = []
    for ps in sentences:
        try:
            got = domain.decide(ps.sentence)
        except Exception as error:  # a crash is a conformance failure, not ours
            problems.append(f"{ps.name}: raised {type(error).__name__}: {error}")
            continue
        if got != ps.truth:
            problems.append(f"{ps.name}: decided {got}, declared {ps.truth}")
    if problems:
        return CheckResult("decision-procedure", False, "; ".join(problems))
    return CheckResult(
        "decision-procedure", True, f"{len(sentences)} sentence(s) decided correctly"
    )


def _check_substrate_equivalence(
    pack: DomainPack, domain: Domain, seeds: Sequence[str]
) -> CheckResult:
    extras = _carrier_extras(domain)
    plans = _substrate_plans(domain, extras)
    problems: List[str] = []
    engaged = {name: False for name, _ in plans}
    executions = 0
    for corpus in pack.corpora():
        for state_name, state in _conformance_states(corpus, seeds):
            for pq in corpus.queries:
                expected = _reference_rows(pq.query, state, domain, extras)
                for substrate, plan in plans:
                    answer = plan.execute(pq.query, state)
                    executions += 1
                    if answer.method == substrate:
                        engaged[substrate] = True
                    got = frozenset(answer.relation.rows)
                    if got != expected:
                        problems.append(
                            f"{corpus.name}/{pq.name} on {state_name} via "
                            f"{substrate}: {len(got)} row(s) != tree walker's "
                            f"{len(expected)}"
                        )
    # Where the domain claims the compiled backend, every substrate must have
    # actually run its own executor at least once — a claim that only ever
    # falls back is false.
    for substrate, hit in engaged.items():
        if domain.supports_compiled_algebra and not hit:
            problems.append(
                f"claimed substrate {substrate!r} never engaged "
                "(every execution fell back down the ladder)"
            )
    if problems:
        return CheckResult("substrate-equivalence", False, "; ".join(problems[:8]))
    names = ", ".join(name for name, _ in plans)
    return CheckResult(
        "substrate-equivalence",
        True,
        f"{executions} execution(s) across {names} matched the tree walker",
    )


def _check_guard_soundness(
    pack: DomainPack, domain: Domain
) -> CheckResult:
    if pack.safety_factory is None:
        return CheckResult(
            "guard-soundness",
            True,
            "skipped: no relative-safety guard declared "
            "(cf. Theorem 3.3 — one need not exist)",
        )
    from ..api.session import Session

    problems: List[str] = []
    asserted = 0
    for corpus in pack.corpora():
        session = Session(pack.name, corpus.schema)
        for pq in corpus.queries:
            if pq.finite is None:
                continue
            asserted += 1
            answer = session.query(pq.query, state=corpus.canonical_state)
            if answer.is_finite != pq.finite:
                problems.append(
                    f"{corpus.name}/{pq.name}: guard says finite={answer.is_finite}, "
                    f"pack declares {pq.finite}"
                )
                continue
            if not pq.finite:
                # A rejected query must be visibly rejected, never a silent
                # finite row set.
                if answer.rows() and answer.is_finite is not False:
                    problems.append(
                        f"{corpus.name}/{pq.name}: infinite query answered silently"
                    )
                if not answer.explain():
                    problems.append(
                        f"{corpus.name}/{pq.name}: rejection carries no explanation"
                    )
            elif isinstance(session.safety, EqualityRelativeSafety):
                # The fresh-element decider certifies the answer over the
                # active domain plus fresh elements, so enlarging the
                # evaluation universe must not change it.
                fresh = _fresh_elements(domain, corpus.canonical_state, count=3)
                enlarged = session.query(
                    pq.query, state=corpus.canonical_state, extra_elements=fresh
                )
                if frozenset(enlarged.rows()) != frozenset(answer.rows()):
                    problems.append(
                        f"{corpus.name}/{pq.name}: answer changed under fresh "
                        "extra elements despite the domain-independence claim"
                    )
    if problems:
        return CheckResult("guard-soundness", False, "; ".join(problems[:8]))
    return CheckResult(
        "guard-soundness", True, f"{asserted} declared verdict(s) confirmed"
    )


def _check_quantifier_free(
    pack: DomainPack, domain: Domain, seeds: Sequence[str]
) -> CheckResult:
    """Fast path ≡ decision procedure ≡ enumeration: where the decider reads
    verdicts and answers off one quantifier-free form, the verdict must
    match the decider's reference sentence (and, on the canonical state,
    the pack's declared finiteness) and every finite answer must match the
    Section 1.1 enumeration.  The family covers exactly the deciders a
    guarded enumeration plan fuses
    (:attr:`~repro.engine.plans.GuardedPlan.fused_ordered_guard`)."""
    decider = pack.safety_factory(domain) if pack.safety_factory is not None else None
    safety = GuardedPlan(inner=EnumerationPlan(domain), safety=decider).fused_ordered_guard
    if safety is None:
        return CheckResult(
            "quantifier-free", True,
            "skipped: the pack's decider has no quantifier-free form",
        )
    problems: List[str] = []
    checked = 0
    for corpus in pack.corpora():
        for state_name, state in _conformance_states(corpus, seeds):
            for pq in corpus.queries:
                where = f"{corpus.name}/{pq.name} on {state_name}"
                checked += 1
                verdict = safety.decide(pq.query, state)
                reference = safety.decide_by_sentence(pq.query, state)
                if verdict.status is not reference.status:
                    problems.append(
                        f"{where}: quantifier-free verdict {verdict.status.value}, "
                        f"reference sentence {reference.status.value}"
                    )
                    continue
                if (
                    state_name == "canonical"
                    and pq.finite is not None
                    and verdict.is_finite != pq.finite
                ):
                    problems.append(
                        f"{where}: quantifier-free verdict finite="
                        f"{verdict.is_finite}, pack declares {pq.finite}"
                    )
                    continue
                if not verdict.is_finite:
                    continue
                got = safety.answer(pq.query, state)
                expected = answer_by_enumeration(pq.query, state, domain)
                if not (got.is_finite and expected.is_finite) or (
                    frozenset(got.rows()) != frozenset(expected.rows())
                ):
                    problems.append(
                        f"{where}: read {len(got.rows())} row(s) "
                        f"(finite={got.is_finite}), enumeration "
                        f"{len(expected.rows())} (finite={expected.is_finite})"
                    )
    if problems:
        return CheckResult("quantifier-free", False, "; ".join(problems[:8]))
    return CheckResult(
        "quantifier-free", True,
        f"{checked} verdict(s) matched the reference sentence, finite "
        "answers matched enumeration",
    )


def _fresh_elements(
    domain: Domain, state: DatabaseState, count: int
) -> Tuple[Element, ...]:
    """``count`` carrier elements not stored in ``state``."""
    stored = state.elements()
    fresh: List[Element] = []
    for element in domain.enumerate_elements():
        if element not in stored:
            fresh.append(element)
            if len(fresh) == count:
                break
    return tuple(fresh)


def _check_edge_corpora(
    pack: DomainPack, domain: Domain, seeds: Sequence[str]
) -> CheckResult:
    extras = _carrier_extras(domain)
    problems: List[str] = []
    saw_factory = False
    saw_shape = False
    for corpus in pack.corpora():
        for pq in corpus.queries:
            for sub in walk_formulas(pq.query):
                if isinstance(sub, (Not, ForAll)):
                    saw_shape = True
        # Duplicated stored rows must be invisible under set semantics.
        doubled = DatabaseState(
            corpus.schema,
            {
                name: Relation(rel.arity, tuple(rel.rows) + tuple(rel.rows))
                for name, rel in corpus.canonical_state.relations.items()
            },
        )
        for pq in corpus.queries:
            base = _reference_rows(pq.query, corpus.canonical_state, domain, extras)
            dup = _reference_rows(pq.query, doubled, domain, extras)
            if base != dup:
                problems.append(
                    f"{corpus.name}/{pq.name}: duplicated rows changed the answer"
                )
        if corpus.state_factory is None:
            continue
        saw_factory = True
        for size in (0, 1):
            rng = random.Random(f"edge/{corpus.name}/{seeds[0]}/{size}")
            state = corpus.state_factory(rng, size)
            if state.total_rows() > size:
                problems.append(
                    f"{corpus.name}: state_factory(rng, {size}) stored "
                    f"{state.total_rows()} row(s)"
                )
            for pq in corpus.queries:
                try:
                    _reference_rows(pq.query, state, domain, extras)
                except Exception as error:
                    problems.append(
                        f"{corpus.name}/{pq.name} on {size}-row state: raised "
                        f"{type(error).__name__}: {error}"
                    )
    if not saw_shape:
        problems.append("no corpus query exercises negation or a universal")
    if not pack.corpora():
        problems.append("pack declares no corpora")
    if problems:
        return CheckResult("edge-corpora", False, "; ".join(problems[:8]))
    detail = "empty/one-row/duplicate states covered, negation/∀ shapes present"
    if not saw_factory:
        detail += " (no state factory: randomized edge states skipped)"
    return CheckResult("edge-corpora", True, detail)


def _random_delta(
    rng: random.Random,
    state: DatabaseState,
    pool: DatabaseState,
    *,
    insert_only: bool,
) -> "Delta":
    """A small random mutation: inserts drawn from ``pool``, deletes from
    ``state`` (unless ``insert_only``)."""
    from ..relational.state import Delta

    inserts = {}
    deletes = {}
    for name, relation in pool.relations.items():
        candidates = sorted(relation.rows, key=repr)
        if candidates and rng.random() < 0.8:
            inserts[name] = rng.sample(candidates, min(2, len(candidates)))
    if not insert_only:
        for name, relation in state.relations.items():
            stored = sorted(relation.rows, key=repr)
            if stored and rng.random() < 0.5:
                deletes[name] = [rng.choice(stored)]
    return Delta(inserts=inserts, deletes=deletes)


def _check_delta_equivalence(
    pack: DomainPack, domain: Domain, seeds: Sequence[str]
) -> CheckResult:
    """Interleaved insert/delete deltas applied through
    :meth:`Session.apply_delta` must leave every answer equal to the set
    executor's on a freshly built state."""
    if not domain.supports_compiled_algebra:
        return CheckResult(
            "delta-equivalence",
            True,
            "skipped: no compiled substrate to compare against",
        )
    corpora = [c for c in pack.corpora() if c.state_factory is not None]
    if not corpora:
        return CheckResult(
            "delta-equivalence", True, "skipped: no state factory declared"
        )
    from ..api.session import Session
    from ..relational.columnar import encode_cache_info

    extras = _carrier_extras(domain)
    problems: List[str] = []
    executions = 0
    vectorized = 0
    insert_only_steps = 0
    grown_before = encode_cache_info().grown_columns
    for corpus in corpora:
        for seed in seeds:
            rng = random.Random(f"delta/{pack.name}/{corpus.name}/{seed}")
            state = corpus.state_factory(rng, 3)
            pool = corpus.state_factory(rng, 8)
            session = Session(pack.name, corpus.schema)
            auto = session.plan()
            # The reference answers ``auto`` would give on a freshly built
            # state: the same guard over the set executor when auto guards
            # an algebra plan, and otherwise a fresh session's auto.
            reference: Optional[GuardedPlan] = None
            if isinstance(auto, GuardedPlan) and isinstance(
                auto.inner, CompiledAlgebraPlan
            ):
                reference = replace(auto, inner=CompiledAlgebraPlan(
                    domain=domain, extra_elements=auto.inner.extra_elements,
                ))
            for step in range(5):
                if step:
                    delta = _random_delta(
                        rng, state, pool, insert_only=step == 1
                    )
                    mutated = session.apply_delta(state, delta)
                    if mutated is state:
                        continue
                    if step == 1:
                        insert_only_steps += 1
                    state = mutated
                rebuilt = DatabaseState(state.schema, {
                    name: list(relation.rows)
                    for name, relation in state.relations.items()
                })
                fresh = Session(pack.name, corpus.schema)
                for pq in corpus.queries:
                    where = f"{corpus.name}/{pq.name} seed={seed} step={step}"
                    expected = frozenset(CompiledAlgebraPlan(
                        domain=domain, extra_elements=extras,
                    ).execute(pq.query, rebuilt).relation.rows)
                    answer = session.run(
                        pq.query, state, strategy="vectorized",
                        extra_elements=extras,
                    ).answer
                    executions += 1
                    vectorized += answer.method == "vectorized"
                    got = frozenset(answer.relation.rows)
                    if got != expected:
                        problems.append(
                            f"{where}: vectorized answer {len(got)} row(s) "
                            f"!= the set executor's {len(expected)} on the "
                            "rebuilt state"
                        )
                    mine = _verdict_and_rows(session.run(pq.query, state))
                    theirs = _verdict_and_rows(
                        fresh.run(pq.query, rebuilt) if reference is None
                        else reference.run(pq.query, rebuilt)
                    )
                    executions += 1
                    if mine != theirs:
                        problems.append(
                            f"{where}: auto answered {mine[:2]} with "
                            f"{len(mine[2])} row(s), the reference "
                            f"{theirs[:2]} with {len(theirs[2])}"
                        )
    grown = encode_cache_info().grown_columns - grown_before
    # The columns' grow path must genuinely engage: after an effective
    # insert-only delta, columns the vectorized rung encoded must be grown,
    # not re-encoded.
    if insert_only_steps and vectorized and not grown:
        problems.append(
            "no encoded column was ever grown by an insert-only delta"
        )
    if problems:
        return CheckResult("delta-equivalence", False, "; ".join(problems[:8]))
    return CheckResult(
        "delta-equivalence",
        True,
        f"{executions} execution(s) across deltas matched rebuilt states "
        f"({vectorized} vectorized, {grown} encoded column(s) grown)",
    )


def _verdict_and_rows(result) -> Tuple[Optional[str], Optional[bool], frozenset]:
    """A session result's guard verdict, finiteness, and rows."""
    verdict = result.verdict.status.value if result.verdict is not None else None
    return verdict, result.answer.is_finite, frozenset(result.answer.rows())


def _check_bench_smoke(pack: DomainPack, domain: Domain) -> CheckResult:
    corpora = [c for c in pack.corpora() if c.state_factory is not None]
    if not corpora:
        return CheckResult("bench-smoke", True, "skipped: no state factory declared")
    extras = _carrier_extras(domain)
    problems: List[str] = []
    peak = 0
    started = time.perf_counter()
    for corpus in corpora:
        rng = random.Random(f"bench/{pack.name}/{corpus.name}")
        state = corpus.state_factory(rng, pack.bench_size)
        for pq in corpus.queries:
            if domain.supports_compiled_algebra:
                try:
                    compiled = compile_query(pq.query, state.schema, domain)
                except CompilationError:
                    compiled = None
                if compiled is not None:
                    stats = ExecutionStats()
                    run_plan(
                        compiled.plan,
                        state,
                        compiled.universe(state, extras),
                        domain,
                        stats,
                    )
                    peak = max(peak, stats.peak_rows)
                    if stats.peak_rows > pack.bench_row_limit:
                        problems.append(
                            f"{corpus.name}/{pq.name}: peak intermediate "
                            f"{stats.peak_rows} row(s) exceeds the "
                            f"{pack.bench_row_limit}-row blowup guard"
                        )
                    continue
            _reference_rows(pq.query, state, domain, extras)
    elapsed = time.perf_counter() - started
    if elapsed > pack.bench_seconds:
        problems.append(
            f"bench corpus took {elapsed:.1f}s, over the "
            f"{pack.bench_seconds:.0f}s budget"
        )
    if problems:
        return CheckResult("bench-smoke", False, "; ".join(problems))
    return CheckResult(
        "bench-smoke",
        True,
        f"{pack.bench_size}-row state answered in {elapsed:.2f}s "
        f"(peak intermediate {peak} row(s))",
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


#: every check family, in the order reports print them
CHECK_NAMES = (
    "decision-procedure",
    "substrate-equivalence",
    "guard-soundness",
    "quantifier-free",
    "edge-corpora",
    "delta-equivalence",
    "bench-smoke",
)


def run_pack_conformance(
    pack: Union[str, DomainPack],
    *,
    seeds: Sequence[str] = ("0", "1"),
    checks: Optional[Sequence[str]] = None,
) -> PackReport:
    """Run the conformance suite against one pack.

    ``checks`` selects a subset of :data:`CHECK_NAMES` (default: all).
    """
    if isinstance(pack, str):
        pack = get_pack(pack)
    domain = pack.factory()
    selected = CHECK_NAMES if checks is None else tuple(checks)
    unknown = set(selected) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(
            f"unknown check(s) {sorted(unknown)}; expected from {CHECK_NAMES}"
        )
    runners = {
        "decision-procedure": lambda: _check_decision_procedure(pack, domain),
        "substrate-equivalence": lambda: _check_substrate_equivalence(
            pack, domain, seeds
        ),
        "guard-soundness": lambda: _check_guard_soundness(pack, domain),
        "quantifier-free": lambda: _check_quantifier_free(pack, domain, seeds),
        "edge-corpora": lambda: _check_edge_corpora(pack, domain, seeds),
        "delta-equivalence": lambda: _check_delta_equivalence(pack, domain, seeds),
        "bench-smoke": lambda: _check_bench_smoke(pack, domain),
    }
    results = tuple(runners[name]() for name in CHECK_NAMES if name in selected)
    return PackReport(pack=pack.name, checks=results)


def run_conformance(
    names: Optional[Iterable[str]] = None,
    *,
    seeds: Sequence[str] = ("0", "1"),
    checks: Optional[Sequence[str]] = None,
) -> ConformanceReport:
    """Run the conformance suite against ``names`` (default: every pack)."""
    targets = tuple(names) if names is not None else available_domains()
    reports = tuple(
        run_pack_conformance(name, seeds=seeds, checks=checks) for name in targets
    )
    return ConformanceReport(reports=reports)
