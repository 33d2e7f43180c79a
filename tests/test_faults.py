"""The deterministic fault-injection harness and the substrate breaker."""

import pytest

from repro import Budget
from repro.engine.breaker import SubstrateBreaker, default_breaker
from repro.engine.plans import VectorizedAlgebraPlan
from repro.relational.columnar import HAVE_NUMPY
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState
from repro.testing import faults
from repro.testing.faults import FaultPlan, FaultSpec, InjectedFault, fire, inject


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan mechanics
# ---------------------------------------------------------------------------


def test_spec_rejects_unknown_point_and_kind():
    with pytest.raises(ValueError):
        FaultSpec("no-such-point", "exception")
    with pytest.raises(ValueError):
        FaultSpec("kernel-entry", "no-such-kind")


def test_fire_is_a_noop_without_an_active_plan():
    fire("kernel-entry")  # must not raise


def test_spec_triggers_at_its_offset_then_stops():
    plan = FaultPlan([FaultSpec("kernel-entry", "exception", after=2, count=1)])
    with inject(plan):
        fire("kernel-entry")  # hit 0
        fire("kernel-entry")  # hit 1
        with pytest.raises(InjectedFault) as excinfo:
            fire("kernel-entry")  # hit 2: trips
        fire("kernel-entry")  # hit 3: past the count window
    assert excinfo.value.point == "kernel-entry"
    assert excinfo.value.hit == 2
    assert plan.hits() == {"kernel-entry": 4}
    assert plan.fired() == {"kernel-entry": 1}


def test_injection_does_not_nest():
    plan = FaultPlan([FaultSpec("kernel-entry", "exception")])
    with inject(plan):
        with pytest.raises(RuntimeError, match="does not nest"):
            with inject(plan):
                pass
    # and the outer exit restored the inactive state
    assert faults.active() is None


def test_seeded_plans_and_the_matrix_are_deterministic():
    assert repr(FaultPlan.seeded(7)) == repr(FaultPlan.seeded(7))
    first = [(p.label, p.specs) for p in FaultPlan.matrix("ci")]
    second = [(p.label, p.specs) for p in FaultPlan.matrix("ci")]
    assert first == second
    # one plan per (point, kind) pair: exception and delay at each point
    assert len(first) == 2 * len(faults.INJECTION_POINTS)
    points = {spec.point for _, specs in first for spec in specs}
    assert points == set(faults.INJECTION_POINTS)


def test_matrix_pairs_every_point_with_every_kind():
    import itertools

    plans = FaultPlan.matrix(3, max_after=2)
    pairs = [(spec.point, spec.kind) for plan in plans for spec in plan.specs]
    assert pairs == list(
        itertools.product(faults.INJECTION_POINTS, faults.FAULT_KINDS)
    )
    assert all(len(plan.specs) == 1 for plan in plans)
    assert all(0 <= plan.specs[0].after <= 2 for plan in plans)
    assert FaultPlan.seeded(3).specs[0].kind in faults.FAULT_KINDS


def test_delay_fault_sleeps_instead_of_raising():
    import time

    plan = FaultPlan([FaultSpec("maintenance-rule", "delay", delay=0.02)])
    with inject(plan):
        started = time.perf_counter()
        fire("maintenance-rule")      # hit 0: sleeps, does not raise
        assert time.perf_counter() - started >= 0.02
        fire("maintenance-rule")      # hit 1: past the count window
    assert plan.fired() == {"maintenance-rule": 1}
    assert plan.hits() == {"maintenance-rule": 2}


def test_unbounded_count_fires_on_every_hit_from_its_offset():
    plan = FaultPlan([FaultSpec("kernel-entry", "exception", after=1, count=None)])
    with inject(plan):
        fire("kernel-entry")          # hit 0: below the offset
        for _ in range(3):
            with pytest.raises(InjectedFault):
                fire("kernel-entry")
        fire("maintenance-rule")      # other points are untouched
    assert plan.fired() == {"kernel-entry": 3}
    assert plan.hits() == {"kernel-entry": 4, "maintenance-rule": 1}


# ---------------------------------------------------------------------------
# The breaker state machine
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_opens_after_threshold_and_recovers_via_probe():
    clock = FakeClock()
    breaker = SubstrateBreaker(threshold=3, cooldown=10.0, clock=clock)
    assert breaker.allow("vectorized")
    for _ in range(2):
        breaker.record_fault("vectorized", RuntimeError("boom"))
        assert breaker.state("vectorized") == "closed"
    breaker.record_fault("vectorized", RuntimeError("boom"))
    assert breaker.state("vectorized") == "open"
    assert not breaker.allow("vectorized")
    # cooldown elapses: one probe is admitted (half-open)
    clock.now = 10.0
    assert breaker.allow("vectorized")
    assert breaker.state("vectorized") == "half-open"
    # the probe succeeds: closed again
    breaker.record_success("vectorized")
    assert breaker.state("vectorized") == "closed"


def test_half_open_probe_failure_reopens_immediately():
    clock = FakeClock()
    breaker = SubstrateBreaker(threshold=1, cooldown=5.0, clock=clock)
    breaker.record_fault("vectorized")
    assert breaker.state("vectorized") == "open"
    clock.now = 5.0
    assert breaker.allow("vectorized")  # the probe
    breaker.record_fault("vectorized")  # probe fails: open again, fresh cooldown
    assert breaker.state("vectorized") == "open"
    clock.now = 9.0
    assert not breaker.allow("vectorized")


def test_success_resets_the_consecutive_fault_count():
    breaker = SubstrateBreaker(threshold=2, cooldown=30.0)
    breaker.record_fault("vectorized")
    breaker.record_success("vectorized")
    breaker.record_fault("vectorized")
    assert breaker.state("vectorized") == "closed"  # never 2 in a row


def test_snapshot_is_json_ready():
    breaker = SubstrateBreaker(threshold=1, cooldown=30.0)
    breaker.record_fault("vectorized", RuntimeError("kernel exploded"))
    snapshot = breaker.snapshot()
    assert snapshot["threshold"] == 1
    entry = snapshot["substrates"]["vectorized"]
    assert entry["state"] == "open"
    assert entry["total_faults"] == 1
    assert "kernel exploded" in entry["last_fault"]
    assert default_breaker() is default_breaker()  # process-wide singleton


# ---------------------------------------------------------------------------
# Faults flow into the fallback ladder
# ---------------------------------------------------------------------------


def nat_fixture():
    from repro.domains import get_domain

    schema = DatabaseSchema((RelationSchema("F", 2),))
    state = DatabaseState(schema, {"F": [(1, 2), (2, 3), (3, 4)]})
    return get_domain("nat<"), state


@pytest.mark.skipif(not HAVE_NUMPY, reason="kernel-entry lives in the columnar executor")
def test_injected_kernel_fault_falls_back_to_the_set_executor():
    from repro.logic.parser import parse_formula

    domain, state = nat_fixture()
    breaker = SubstrateBreaker(threshold=3, cooldown=30.0)
    plan = VectorizedAlgebraPlan(domain=domain, budget=Budget(), breaker=breaker)
    query = parse_formula("F(x, y)")
    with inject(FaultPlan([FaultSpec("kernel-entry", "exception")])):
        answer = plan.execute(query, state)
    assert frozenset(answer.relation.rows) == frozenset({(1, 2), (2, 3), (3, 4)})
    assert answer.method == "compiled-algebra"  # the rung below caught it
    assert "faulted" in (plan.fallback_reason or "")
    assert breaker.snapshot()["substrates"]["vectorized"]["total_faults"] == 1


@pytest.mark.skipif(not HAVE_NUMPY, reason="kernel-entry lives in the columnar executor")
def test_repeated_faults_demote_the_substrate_until_cooldown():
    from repro.logic.parser import parse_formula

    domain, state = nat_fixture()
    clock = FakeClock()
    breaker = SubstrateBreaker(threshold=2, cooldown=60.0, clock=clock)
    plan = VectorizedAlgebraPlan(domain=domain, budget=Budget(), breaker=breaker)
    query = parse_formula("F(x, y)")
    expected = frozenset({(1, 2), (2, 3), (3, 4)})
    spec = FaultSpec("kernel-entry", "exception", count=None)
    with inject(FaultPlan([spec])) as fault_plan:
        for _ in range(2):  # two faults: the breaker trips
            answer = plan.execute(query, state)
            assert frozenset(answer.relation.rows) == expected
        assert breaker.state("vectorized") == "open"
        fired = fault_plan.fired()["kernel-entry"]
        # demoted: the kernels are skipped up front, and explain says so
        answer = plan.execute(query, state)
        assert frozenset(answer.relation.rows) == expected
        assert fault_plan.fired()["kernel-entry"] == fired
        assert "breaker" in (plan.fallback_reason or "")
        assert "vectorized breaker" in plan.explain()
    clock.now = 60.0  # the cooldown elapsed: the recovery probe succeeds
    assert plan.execute(query, state).method == "vectorized"
    assert breaker.state("vectorized") == "closed"


def test_answer_cache_faults_step_down_like_any_rung(monkeypatch):
    from repro.engine.answer_cache import AnswerCache
    from repro.engine.plans import IncrementalAlgebraPlan
    from repro.logic.parser import parse_formula

    def broken(*args, **kwargs):
        raise RuntimeError("cache exploded")

    domain, state = nat_fixture()
    breaker = SubstrateBreaker(threshold=1, cooldown=60.0)
    plan = IncrementalAlgebraPlan(domain=domain, breaker=breaker)
    monkeypatch.setattr(AnswerCache, "answer", broken)
    answer = plan.execute(parse_formula("F(x, y)"), state)
    assert frozenset(answer.relation.rows) == frozenset({(1, 2), (2, 3), (3, 4)})
    assert answer.method == "compiled-algebra"
    assert breaker.state("answer-cache") == "open"
    assert plan.last_decision.startswith("recomputed in full: the answer-cache")
    assert "answer-cache breaker" in plan.explain()

