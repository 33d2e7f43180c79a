"""Tests for rate limiting, load shedding, and budget clamping."""

import pytest

from repro.engine.budget import Budget
from repro.serve.admission import AdmissionController, AdmissionError, TokenBucket
from repro.serve.policy import ServerPolicy


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------


def test_bucket_burst_then_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
    clock.advance(0.5)  # refills one token at 2/s
    assert bucket.try_acquire() and not bucket.try_acquire()


def test_bucket_never_exceeds_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
    clock.advance(60.0)
    assert bucket.tokens == pytest.approx(2.0)


def test_bucket_retry_after_names_the_deficit():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
    assert bucket.try_acquire()
    assert bucket.retry_after() == pytest.approx(0.5)  # 1 token at 2/s
    clock.advance(0.5)
    assert bucket.retry_after() == pytest.approx(0.0)


def test_bucket_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=1, clock=FakeClock())
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0, clock=FakeClock())


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------


def test_rate_limited_session_gets_429_with_retry_hint():
    clock = FakeClock()
    policy = ServerPolicy(rate=1.0, burst=2)
    controller = AdmissionController(policy, clock=clock)
    controller.admit("s1").release()
    controller.admit("s1").release()
    with pytest.raises(AdmissionError) as excinfo:
        controller.admit("s1")
    assert excinfo.value.status == 429
    # the hint is the exact refill time plus up to policy.retry_jitter
    # relative jitter (stampede de-synchronization) — never less
    base, ceiling = 1.0, 1.0 * (1 + policy.retry_jitter)
    assert base <= excinfo.value.retry_after <= ceiling
    stats = controller.stats()
    assert stats["admitted"] == 2 and stats["rejected_rate_limited"] == 1


def test_rate_limits_are_per_session():
    clock = FakeClock()
    policy = ServerPolicy(rate=1.0, burst=1)
    controller = AdmissionController(policy, clock=clock)
    controller.admit("noisy").release()
    with pytest.raises(AdmissionError):
        controller.admit("noisy")
    # an unrelated session is unaffected by the noisy neighbour
    controller.admit("quiet").release()


def test_over_capacity_sheds_load_with_503():
    clock = FakeClock()
    policy = ServerPolicy(rate=100.0, burst=100, max_inflight=2)
    controller = AdmissionController(policy, clock=clock)
    first = controller.admit("s1")
    second = controller.admit("s2")
    with pytest.raises(AdmissionError) as excinfo:
        controller.admit("s3")
    assert excinfo.value.status == 503
    first.release()
    # a slot freed up: admission resumes without waiting for the bucket
    third = controller.admit("s3")
    third.release()
    second.release()
    assert controller.stats()["inflight"] == 0
    assert controller.stats()["rejected_over_capacity"] == 1


def test_ticket_is_a_context_manager_and_release_is_idempotent():
    controller = AdmissionController(ServerPolicy(), clock=FakeClock())
    with controller.admit("s1") as ticket:
        assert controller.stats()["inflight"] == 1
    assert controller.stats()["inflight"] == 0
    ticket.release()  # double release must not go negative
    assert controller.stats()["inflight"] == 0


def test_forget_drops_a_sessions_bucket():
    clock = FakeClock()
    controller = AdmissionController(ServerPolicy(rate=1.0, burst=1), clock=clock)
    controller.admit("s1").release()
    with pytest.raises(AdmissionError):
        controller.admit("s1")
    controller.forget("s1")  # fresh bucket: full burst again
    controller.admit("s1").release()


def test_each_admitted_session_gets_exactly_one_bucket():
    controller = AdmissionController(ServerPolicy(), clock=FakeClock())
    for session_id in ("s1", "s1", "s2", "s1"):
        controller.admit(session_id).release()
    stats = controller.stats()
    assert stats["tracked_sessions"] == 2 and stats["admitted"] == 4


def test_retain_drops_unlisted_buckets_and_keeps_listed_ones():
    controller = AdmissionController(
        ServerPolicy(rate=1.0, burst=1), clock=FakeClock()
    )
    controller.admit("s1").release()
    controller.admit("s2").release()
    controller.retain(["s1", "never-admitted"])
    assert controller.stats()["tracked_sessions"] == 1
    with pytest.raises(AdmissionError):
        controller.admit("s1")       # the kept bucket is still empty
    controller.admit("s2").release()  # the dropped one starts full again


def test_retain_with_no_live_sessions_drops_every_bucket():
    controller = AdmissionController(ServerPolicy(), clock=FakeClock())
    for session_id in ("a", "b", "c"):
        controller.admit(session_id).release()
    controller.retain([])
    assert controller.stats()["tracked_sessions"] == 0
    assert controller.stats()["admitted"] == 3


# ---------------------------------------------------------------------------
# The command line builds the policy
# ---------------------------------------------------------------------------


def test_cli_defaults_build_the_default_policy():
    from repro.serve.__main__ import build_parser, policy_from_args

    assert policy_from_args(build_parser().parse_args([])) == ServerPolicy()


def test_cli_flags_reach_the_policy():
    from repro.serve.__main__ import build_parser, policy_from_args

    args = build_parser().parse_args([
        "--max-sessions", "3", "--session-ttl", "7.5", "--rate", "2",
        "--burst", "4", "--max-inflight", "5", "--workers", "2",
        "--plan-cache-size", "9", "--shutdown-grace", "0.5",
        "--retry-jitter", "0",
    ])
    assert policy_from_args(args) == ServerPolicy(
        max_sessions=3, session_ttl=7.5, rate=2.0, burst=4, max_inflight=5,
        workers=2, plan_cache_size=9, shutdown_grace=0.5,
        retry_jitter=0.0,
    )
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--no-such-flag", "x"])


# ---------------------------------------------------------------------------
# Budget clamping (ServerPolicy.clamp)
# ---------------------------------------------------------------------------


def test_clamp_defaults_to_the_caps():
    policy = ServerPolicy(
        max_rows_cap=100, max_candidates_cap=200, fuel_cap=300, time_limit_cap=4.0
    )
    clamped = policy.clamp(None)
    assert (clamped.max_rows, clamped.max_candidates, clamped.fuel) == (100, 200, 300)
    assert clamped.time_limit == 4.0


def test_clamp_caps_but_never_raises_a_request():
    policy = ServerPolicy(
        max_rows_cap=100, max_candidates_cap=200, fuel_cap=300, time_limit_cap=4.0
    )
    greedy = Budget(max_rows=10**9, max_candidates=10**9, fuel=10**9, time_limit=600.0)
    clamped = policy.clamp(greedy)
    assert (clamped.max_rows, clamped.max_candidates, clamped.fuel) == (100, 200, 300)
    assert clamped.time_limit == 4.0

    modest = Budget(max_rows=5, max_candidates=7, fuel=9, time_limit=0.5)
    kept = policy.clamp(modest)
    assert (kept.max_rows, kept.max_candidates, kept.fuel) == (5, 7, 9)
    assert kept.time_limit == 0.5


def test_clamp_fills_in_a_missing_time_limit():
    policy = ServerPolicy(time_limit_cap=2.5)
    assert policy.clamp(Budget(time_limit=None)).time_limit == 2.5


def test_policy_validates_its_fields():
    with pytest.raises(ValueError):
        ServerPolicy(max_sessions=0)
    with pytest.raises(ValueError):
        ServerPolicy(rate=-1.0)
    with pytest.raises(ValueError):
        ServerPolicy(session_ttl=0.0)


@pytest.mark.parametrize(
    "field", ["session_ttl", "rate", "time_limit_cap", "shutdown_grace", "retry_jitter"]
)
def test_policy_rejects_nan_bounds(field):
    # NaN fails no ``<``/``<=`` check, and a NaN cap would never bind:
    # ``min(nan, cap)`` is nan and ``monotonic() >= nan`` is never true.
    with pytest.raises(ValueError, match=field):
        ServerPolicy(**{field: float("nan")})


def test_budget_rejects_a_nan_time_limit():
    with pytest.raises(ValueError, match="time_limit"):
        Budget(time_limit=float("nan"))


def test_cli_rejects_a_nan_rate():
    from repro.serve.__main__ import build_parser, policy_from_args

    with pytest.raises(ValueError, match="rate"):
        policy_from_args(build_parser().parse_args(["--rate", "nan"]))


def test_policy_describe_is_json_ready():
    import json

    payload = ServerPolicy().describe()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["max_sessions"] == 64
