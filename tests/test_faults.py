"""A faulting rung degrades only the execution that hit it.

Every rung of the algebra ladder computes the tree walker's active-domain
answer, so a rung that raises steps down for that one execution (the reason
lands in ``fallback_reason``) and is tried again on the next.  Faults are
injected by wrapping the two hot-path entry points with ``monkeypatch``:

* ``_ColumnarExecutor.run`` — the vectorized executor, before each
  operator's kernel dispatch;
* ``CodedRows.rows`` — the vectorized rung's decode of its code table,
  after the kernels have run.

A fault either raises or sleeps 20 ms, once, at a fixed hit of its entry
point.  Whatever it does, every execution must return exactly the tree
walker's rows, and never hang: a watchdog bounds each case.
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

from repro import Budget
from repro.conformance.harness import _carrier_extras, _random_delta, _reference_rows
from repro.domains import available_domains, get_pack
from repro.engine.plan_cache import PlanCache
from repro.engine.plans import CompiledAlgebraPlan, VectorizedAlgebraPlan
from repro.logic.parser import parse_formula
from repro.relational.columnar import HAVE_NUMPY, CodedRows, _ColumnarExecutor
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState

#: the wrapped entry points, by the name test ids carry
POINTS = {
    "kernel-entry": (_ColumnarExecutor, "run"),
    "decode-entry": (CodedRows, "rows"),
}

#: seconds one injected-fault case may run before it counts as hung
WATCHDOG_SECONDS = 60.0


class RungFault(RuntimeError):
    """Deliberately not an engine error: the ladder must treat it like any
    unexpected substrate failure."""


def inject(monkeypatch, point, kind, after):
    """Wrap ``point`` so hit ``after`` raises or sleeps; returns the list of
    hits that fired (empty when the path never reached that hit)."""
    cls, name = POINTS[point]
    original = getattr(cls, name)
    hits = [0]
    fired = []

    def faulty(self, *args, **kwargs):
        hit = hits[0]
        hits[0] += 1
        if hit == after:
            fired.append(hit)
            if kind == "raise":
                raise RungFault(f"injected at {point!r} (hit #{hit})")
            time.sleep(0.02)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, faulty)
    return fired


def _scenarios(pack, domain, extras):
    """Per corpus: canonical → one seeded insert, each state paired with
    the tree walker's rows for every query (computed before injecting)."""
    scenarios = []
    for corpus in pack.corpora():
        states = [corpus.canonical_state]
        if corpus.state_factory is not None:
            rng = random.Random(f"faults/{pack.name}/{corpus.name}/0")
            pool = corpus.state_factory(rng, 6)
            delta = _random_delta(rng, states[0], pool, insert_only=True)
            mutated = states[0].apply(delta)
            if mutated is not states[0]:
                states.append(mutated)
        steps = [
            (state, {
                pq.name: _reference_rows(pq.query, state, domain, extras)
                for pq in corpus.queries
            })
            for state in states
        ]
        scenarios.append((corpus, steps))
    return scenarios


def _run_ladders(domain, extras, scenarios):
    """Compiled and vectorized plans through every scenario; the executions
    whose rows differ from the tree walker's."""
    problems = []
    cache = PlanCache(maxsize=64)
    for corpus, steps in scenarios:
        plans = [CompiledAlgebraPlan]
        if HAVE_NUMPY:
            plans.append(VectorizedAlgebraPlan)
        for cls in plans:
            plan = cls(domain=domain, extra_elements=extras, cache=cache)
            for step, (state, expected) in enumerate(steps):
                for pq in corpus.queries:
                    got = frozenset(plan.execute(pq.query, state).relation.rows)
                    if got != expected[pq.name]:
                        problems.append(
                            f"{corpus.name}/{pq.name} step={step} via "
                            f"{plan.strategy}: {len(got)} row(s) != the tree "
                            f"walker's {len(expected[pq.name])}"
                        )
    return problems


def _run_faulted(monkeypatch, pack_name, point, kind, after):
    """Run every ladder of one pack under one fault; (problems, fired)."""
    pack = get_pack(pack_name)
    domain = pack.factory()
    extras = _carrier_extras(domain)
    scenarios = _scenarios(pack, domain, extras)
    fired = inject(monkeypatch, point, kind, after)
    watchdog = ThreadPoolExecutor(max_workers=1)
    try:
        future = watchdog.submit(_run_ladders, domain, extras, scenarios)
        try:
            problems = future.result(timeout=WATCHDOG_SECONDS)
        except FutureTimeout:
            pytest.fail(f"{kind}@{point}#{after} hung past the "
                        f"{WATCHDOG_SECONDS:.0f}s watchdog")
    finally:
        watchdog.shutdown(wait=False)
    return problems, fired


@pytest.mark.parametrize("after", [0, 2])
@pytest.mark.parametrize("kind", ["raise", "delay"])
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("pack_name", available_domains())
def test_every_ladder_answers_the_walkers_rows_under_a_fault(
    monkeypatch, pack_name, point, kind, after
):
    problems, _ = _run_faulted(monkeypatch, pack_name, point, kind, after)
    assert problems == []


@pytest.mark.parametrize("point", sorted(POINTS))
def test_each_injection_point_fires_on_some_pack(monkeypatch, point):
    # Guards the test above against vacuity: the wrapped method must really
    # be on the path the ladders take.
    if not HAVE_NUMPY:
        pytest.skip(f"{point} lives in the columnar executor")
    for pack_name in available_domains():
        with monkeypatch.context() as patch:
            _, fired = _run_faulted(patch, pack_name, point, "raise", 0)
        if fired:
            return
    pytest.fail(f"no pack reached {point!r}")


# ---------------------------------------------------------------------------
# One query steps down; the next tries the rung again
# ---------------------------------------------------------------------------


FAMILY = frozenset({(1, 2), (2, 3), (3, 4)})


def nat_fixture():
    from repro.domains import get_domain

    schema = DatabaseSchema((RelationSchema("F", 2),))
    state = DatabaseState(schema, {"F": sorted(FAMILY)})
    return get_domain("nat<"), state


@pytest.mark.skipif(not HAVE_NUMPY, reason="kernel-entry lives in the columnar executor")
def test_injected_kernel_fault_falls_back_to_the_set_executor(monkeypatch):
    domain, state = nat_fixture()
    plan = VectorizedAlgebraPlan(domain=domain, budget=Budget())
    inject(monkeypatch, "kernel-entry", "raise", 0)
    answer = plan.execute(parse_formula("F(x, y)"), state)
    assert frozenset(answer.relation.rows) == FAMILY
    assert answer.method == "compiled-algebra"  # the rung below caught it
    assert plan.fallback_reason.startswith(
        "the vectorized substrate faulted (RungFault: injected at"
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="decode-entry lives in the columnar executor")
def test_injected_decode_fault_falls_back_to_the_set_executor(monkeypatch):
    # The decode belongs to the rung: a fault after the kernels ran still
    # steps down for this execution only.
    domain, state = nat_fixture()
    plan = VectorizedAlgebraPlan(domain=domain, budget=Budget())
    inject(monkeypatch, "decode-entry", "raise", 0)
    answer = plan.execute(parse_formula("F(x, y)"), state)
    assert frozenset(answer.relation.rows) == FAMILY
    assert answer.method == "compiled-algebra"
    assert plan.fallback_reason.startswith(
        "the vectorized substrate faulted (RungFault: injected at 'decode-entry'"
    )
    assert plan.execute(parse_formula("F(x, y)"), state).method == "vectorized"


@pytest.mark.skipif(not HAVE_NUMPY, reason="kernel-entry lives in the columnar executor")
def test_faults_never_demote_the_rung_for_later_executions(monkeypatch):
    domain, state = nat_fixture()
    query = parse_formula("F(x, y)")
    plan = VectorizedAlgebraPlan(domain=domain, budget=Budget())

    def broken(self, node):
        raise RungFault("kernel exploded")

    with monkeypatch.context() as patch:
        patch.setattr(_ColumnarExecutor, "run", broken)
        for _ in range(5):
            answer = plan.execute(query, state)
            assert answer.method == "compiled-algebra"
            assert frozenset(answer.relation.rows) == FAMILY
    # the kernels work again: the very next execution uses them, in the
    # plan that saw the faults and in a fresh one
    fresh = VectorizedAlgebraPlan(domain=domain, budget=Budget())
    for each in (plan, fresh):
        answer = each.execute(query, state)
        assert answer.method == "vectorized"
        assert each.fallback_reason is None
        assert "faulted" not in each.explain()
        assert frozenset(answer.relation.rows) == FAMILY
