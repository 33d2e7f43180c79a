"""Tests for the unified Session API: connect → compile → plan → execute."""

import random

import pytest

import repro
from repro import Budget, connect
from repro.api import (
    ActiveDomainPlan,
    EnumerationPlan,
    GuardedPlan,
    PlanError,
    Planner,
    Session,
    SessionError,
)
from repro.domains import (
    EqualityDomain,
    PresburgerDomain,
    UnknownDomainError,
    available_domains,
    domain_aliases,
    get_domain,
    get_pack,
    resolve_domain_name,
)
from repro.engine.answers import Answer, FiniteAnswer, InfiniteAnswer, UnknownAnswer
from repro.engine.plans import STRATEGIES
from repro.experiments.corpora import family_schema, family_state, numeric_schema
from repro.logic.builders import atom, var
from repro.relational.schema import DatabaseSchema, RelationSchema


# ---------------------------------------------------------------------------
# Domain registry
# ---------------------------------------------------------------------------


def test_registry_lists_all_paper_domains():
    names = available_domains()
    for expected in (
        "equality",
        "naturals_with_order",
        "presburger_naturals",
        "naturals_with_successor",
        "traces",
        "reach_traces",
    ):
        assert expected in names


@pytest.mark.parametrize(
    "alias, canonical",
    [
        ("eq", "equality"),
        ("nat<", "naturals_with_order"),
        ("presburger", "presburger_naturals"),
        ("succ", "naturals_with_successor"),
        ("traces", "traces"),
        ("reach", "reach_traces"),
        ("EQ", "equality"),  # aliases are case-insensitive
    ],
)
def test_registry_aliases(alias, canonical):
    assert resolve_domain_name(alias) == canonical
    assert get_domain(alias).name == canonical or canonical in get_domain(alias).name


def test_registry_miss_lists_known_domains():
    with pytest.raises(UnknownDomainError) as excinfo:
        get_domain("zfc")
    message = str(excinfo.value)
    assert "zfc" in message
    assert "presburger_naturals" in message and "equality" in message


def test_registry_alias_table_is_consistent():
    aliases = domain_aliases()
    for alias, canonical in aliases.items():
        assert resolve_domain_name(alias) == canonical
        assert canonical in available_domains()


def test_registry_packs_carry_paper_guard_metadata():
    assert get_pack("eq").safety_factory is not None
    assert get_pack("succ").syntax_factory is not None
    # Theorems 3.1 / 3.3: the trace domain has neither guard.
    assert get_pack("traces").safety_factory is None
    assert get_pack("traces").syntax_factory is None


# ---------------------------------------------------------------------------
# The Answer hierarchy
# ---------------------------------------------------------------------------


def test_answer_is_a_real_abc():
    with pytest.raises(TypeError):
        Answer()  # abstract
    for cls in (FiniteAnswer, InfiniteAnswer, UnknownAnswer):
        assert issubclass(cls, Answer)


def test_answers_share_the_uniform_protocol():
    from repro.relational.state import Relation

    finite = FiniteAnswer(Relation(1, [(1,), (2,)]), method="enumeration")
    infinite = InfiniteAnswer(Relation(1, [(0,)]), reason="guard", method="m")
    unknown = UnknownAnswer(Relation(1, []), reason="budget", method="m")
    assert finite.is_finite is True and finite.rows() == ((1,), (2,))
    assert infinite.is_finite is False and infinite.rows() == ((0,),)
    assert unknown.is_finite is None and unknown.rows() == ()
    for answer in (finite, infinite, unknown):
        assert isinstance(answer, Answer)
        assert answer.explain()
        assert list(answer) == list(answer.rows())
        assert answer.row_count == len(answer.rows())


# ---------------------------------------------------------------------------
# connect → query → answer across every registered domain
# ---------------------------------------------------------------------------

_UNARY_S = DatabaseSchema((RelationSchema("S", 1),))

# domain name -> (query text, schema, state rows, expected rows)
DOMAIN_CASES = {
    "equality": ("S(x)", _UNARY_S, {"S": [(1,), (2,)]}, ((1,), (2,))),
    "naturals_with_order": ("x < 3", None, None, ((0,), (1,), (2,))),
    "presburger_naturals": ("x < 3", None, None, ((0,), (1,), (2,))),
    "presburger_integers": ("0 <= x & x < 2", None, None, ((0,), (1,))),
    "naturals_with_successor": ("x = succ(0)", None, None, ((1,),)),
    "traces": ("x = '1'", None, None, (("1",),)),
    "reach_traces": ("x = '1'", None, None, (("1",),)),
    "rationals_with_order": ("S(x)", _UNARY_S, {"S": [(1,), (2,)]}, ((1,), (2,))),
    "integer_differences": ("0 <= x & x < 2", None, None, ((0,), (1,))),
    "cyclic_successor": ("x = succ(0)", None, None, ((1,),)),
    "shortlex_strings": ("x < 'a'", None, None, (("",),)),
}


def test_every_registered_domain_has_an_end_to_end_case():
    assert set(DOMAIN_CASES) == set(available_domains())


@pytest.mark.parametrize("name", sorted(DOMAIN_CASES))
def test_connect_query_answer_end_to_end(name):
    text, schema, rows, expected = DOMAIN_CASES[name]
    session = connect(name, schema)
    state = session.state(rows) if rows else None
    result = session.run(text, state, budget=Budget(max_rows=10, max_candidates=200))
    assert isinstance(result.answer, Answer)
    assert isinstance(result.answer, FiniteAnswer)
    assert result.answer.rows() == expected
    assert result.answer.explain()
    assert result.plan.explain()
    assert result.elapsed >= 0.0


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def test_compile_accepts_text_and_formulas():
    session = connect("eq", _UNARY_S)
    from_text = session.compile("S(x)")
    from_formula = session.compile(atom("S", var("x")))
    assert from_text == from_formula


def test_compile_rejects_unknown_predicates_helpfully():
    session = connect("eq", _UNARY_S)
    with pytest.raises(SessionError) as excinfo:
        session.compile("Q(x)")
    assert "Q" in str(excinfo.value) and "S" in str(excinfo.value)


def test_compile_rejects_unknown_functions_and_bad_text():
    session = connect("eq", _UNARY_S)
    with pytest.raises(SessionError):
        session.compile("S(succ(x))")  # equality domain has no functions
    with pytest.raises(SessionError):
        session.compile("S(x) &&& S(y)")
    with pytest.raises(SessionError):
        session.compile(42)


def test_compile_parses_each_text_once_and_validates_per_session():
    from repro.api.session import _parse

    def parses(run):
        before = _parse.cache_info().misses
        run()
        return _parse.cache_info().misses - before

    unary, binary = connect("eq", _UNARY_S), connect("eq", family_schema())
    text = "S(x) & ~S(y) & ~(x = y)"
    compiled = []
    assert parses(lambda: compiled.extend(unary.compile(text) for _ in range(3))) <= 1
    assert compiled[0] is compiled[1] is compiled[2]
    # The shared parse is still validated against each session's schema.
    with pytest.raises(SessionError) as excinfo:
        binary.compile(text)
    assert "unknown predicate(s) 'S'" in str(excinfo.value)
    # A text that does not parse is not cached: it fails alike every time.
    messages = []

    def fail_twice():
        for _ in range(2):
            with pytest.raises(SessionError) as excinfo:
                unary.compile("S(x) &&& S(y)")
            messages.append(str(excinfo.value))

    assert parses(fail_twice) == 2
    assert messages[0] == messages[1] and "cannot parse" in messages[0]


def test_compile_rejects_arity_mismatches():
    session = connect("eq", _UNARY_S)
    with pytest.raises(SessionError) as excinfo:
        session.compile("S(x, y)")
    assert "expects 1 argument" in str(excinfo.value)
    numbers = connect("presburger")
    with pytest.raises(SessionError):
        numbers.compile(atom("<", var("x")))  # the order predicate is binary


def test_analyze_reports_safety_verdict_and_decidability():
    session = connect("presburger", _UNARY_S)
    state = session.state(S=[(3,)])
    finite = session.analyze("S(x)", state)
    assert finite.theory_decidable
    assert finite.free_variables == ("x",)
    assert finite.database_predicates == ("S",)
    assert finite.verdict is not None and finite.verdict.is_finite is True
    infinite = session.analyze("~S(x)", state)
    assert infinite.verdict is not None and infinite.verdict.is_finite is False
    assert "x" in finite.explain()


def test_plan_objects_replace_strategy_strings():
    session = connect("presburger")
    auto = session.plan()
    assert isinstance(auto, GuardedPlan)
    assert isinstance(auto.inner, EnumerationPlan)
    forced = session.plan("active-domain")
    assert isinstance(forced, ActiveDomainPlan)
    assert "active-domain" in forced.explain()
    with pytest.raises(PlanError):
        session.plan("mystery")


def test_removed_parallel_strategy_lists_the_remaining_ones():
    with pytest.raises(PlanError) as excinfo:
        connect("eq").plan("parallel")
    for strategy in STRATEGIES:
        assert repr(strategy) in str(excinfo.value)
    assert "parallel" not in STRATEGIES


def test_planner_guarded_strategy_requires_a_guard():
    planner = Planner(get_domain("traces"))
    with pytest.raises(PlanError):
        planner.plan("guarded")
    # The trace domain session still answers via bare strategies.
    assert isinstance(connect("traces").plan(), EnumerationPlan)


def test_execute_runs_a_prebuilt_plan():
    session = connect("presburger")
    plan = session.plan("enumeration", budget=Budget(max_rows=5, max_candidates=50))
    answer = session.execute(plan, "x < 2")
    assert answer.rows() == ((0,), (1,))


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


def test_budget_exhaustion_returns_unknown_answer():
    session = connect("presburger")
    answer = session.query(
        "3 < x", strategy="enumeration", budget=Budget(max_rows=4, max_candidates=50)
    )
    assert isinstance(answer, UnknownAnswer)
    assert answer.is_finite is None
    assert answer.rows() == ((4,), (5,), (6,), (7,))
    assert "budget" in answer.explain()


def test_time_budget_exhaustion_returns_unknown_answer():
    session = connect("presburger")
    answer = session.query(
        "x >= 0", strategy="enumeration", budget=Budget(time_limit=0.0)
    )
    assert isinstance(answer, UnknownAnswer)
    assert "time budget" in answer.reason


def test_budget_validation_and_describe():
    with pytest.raises(ValueError):
        Budget(max_rows=-1)
    with pytest.raises(ValueError):
        Budget(time_limit=-0.5)
    budget = Budget(max_rows=7, time_limit=1.5)
    assert "max_rows=7" in budget.describe() and "1.5" in budget.describe()
    assert budget.replace(max_rows=9).max_rows == 9


# ---------------------------------------------------------------------------
# Guarded rejection of unsafe queries
# ---------------------------------------------------------------------------


def test_unsafe_query_is_rejected_by_default_guard():
    session = connect("eq", family_schema())
    state = family_state(generations=2)
    result = session.run("~F(x, y)", state)
    assert isinstance(result.answer, InfiniteAnswer)
    assert result.verdict is not None and result.verdict.is_finite is False
    assert "rejected" in result.answer.reason
    assert "safety verdict" in result.explain()


def test_guard_can_be_disabled():
    session = connect("presburger", guard=False)
    assert session.safety is None
    answer = session.query("3 < x", budget=Budget(max_rows=3, max_candidates=50))
    assert isinstance(answer, UnknownAnswer)  # no guard: enumeration runs out


def test_guard_false_conflicts_with_explicit_guard_arguments():
    with pytest.raises(SessionError):
        connect("eq", family_schema(), guard=False, restrict=True)
    from repro.safety.relative_safety import EqualityRelativeSafety

    with pytest.raises(SessionError):
        connect("eq", guard=False, safety=EqualityRelativeSafety(EqualityDomain()))


def test_undecidable_safety_decider_degrades_instead_of_raising():
    from repro.safety.relative_safety import TraceRelativeSafety

    # An arbitrary trace query is outside the halting-reduction shape, so the
    # decider can neither decide nor semi-decide; the guard must degrade to an
    # UNKNOWN verdict and evaluate anyway rather than raise.
    session = connect("traces", safety=TraceRelativeSafety())
    result = session.run("x = '1'", budget=Budget(max_rows=5, max_candidates=50))
    assert isinstance(result.answer, FiniteAnswer)
    assert result.verdict is not None and result.verdict.is_finite is None


def test_budget_fuel_bounds_trace_safety_semi_decision():
    from repro.safety.reductions import halting_reduction
    from repro.safety.relative_safety import TraceRelativeSafety
    from repro.turing.builders import unary_eraser

    query, state = halting_reduction(unary_eraser(), "11")
    session = connect("traces", state.schema, safety=TraceRelativeSafety())
    # With generous fuel the bounded simulation observes the halt: FINITE.
    generous = session.analyze(query, state)
    assert generous.verdict is not None and generous.verdict.is_finite is True
    # With fuel=0 the simulation cannot finish: the verdict stays UNKNOWN.
    starved = connect(
        "traces", state.schema, safety=TraceRelativeSafety(), budget=Budget(fuel=0)
    ).analyze(query, state)
    assert starved.verdict is not None and starved.verdict.is_finite is None


def test_restrict_installs_the_effective_syntax():
    session = connect("eq", family_schema(), restrict=True)
    state = family_state(generations=2)
    result = session.run("~F(x, y)", state, strategy="auto")
    assert result.rewritten
    assert isinstance(result.answer, FiniteAnswer)
    with pytest.raises(SessionError):
        connect("traces", restrict=True)  # Theorem 3.1: no effective syntax


# ---------------------------------------------------------------------------
# Sessions over explicit Domain instances, and the legacy shims
# ---------------------------------------------------------------------------


def test_connect_accepts_domain_instances():
    session = connect(PresburgerDomain(), _UNARY_S)
    assert session.safety is not None  # defaults found via the registry name
    state = session.state(S=[(1,)])
    assert session.query("S(x)", state).rows() == ((1,),)


def test_session_repr_and_explain():
    session = connect("eq", _UNARY_S)
    assert "equality" in repr(session)
    text = session.explain("S(x)")
    assert "strategy" in text and "free variables" in text


def test_domain_instance_session_installs_its_pack_guards():
    session = Session(PresburgerDomain(), numeric_schema())
    assert session.safety is not None
    plan = session.plan()
    assert isinstance(plan, GuardedPlan)
    assert isinstance(plan.inner, EnumerationPlan) and plan.explain()
    from repro.experiments.corpora import numeric_state

    state = numeric_state([2, 4])
    answer = session.query(
        "S(x)", state, strategy="enumeration",
        budget=Budget(max_rows=10, max_candidates=50),
    )
    assert answer.rows() == ((2,), (4,))


def test_explicit_enumeration_bypasses_the_guard_under_its_budget():
    from repro.experiments.corpora import numeric_state

    session = Session(PresburgerDomain(), numeric_schema())
    result = session.run(
        "x < 2",
        numeric_state([1]),
        strategy="enumeration",
        budget=Budget(max_rows=1, max_candidates=50),
    )
    assert result.verdict is None
    assert isinstance(result.answer, UnknownAnswer)
    assert len(result.answer.rows()) == 1


def test_planner_rejects_unknown_strategy_names():
    with pytest.raises(PlanError):
        Planner(EqualityDomain()).plan("mystery")


# ---------------------------------------------------------------------------
# Plan choice per pack
# ---------------------------------------------------------------------------


#: pack → the shape of its auto plan (the plan and its inner plan)
_AUTO_PLANS = {
    "equality": "GuardedPlan[VectorizedAlgebraPlan]",
    "cyclic_successor": "GuardedPlan[VectorizedAlgebraPlan]",
    **{
        name: "GuardedPlan[EnumerationPlan]"
        for name in (
            "naturals_with_order", "presburger_naturals", "presburger_integers",
            "integer_differences", "naturals_with_successor",
            "rationals_with_order", "shortlex_strings",
        )
    },
    "traces": "EnumerationPlan",
    "reach_traces": "EnumerationPlan",
}


def _plan_shape(plan):
    inner = getattr(plan, "inner", None)
    if inner is None:
        return type(plan).__name__
    return f"{type(plan).__name__}[{type(inner).__name__}]"


def test_plan_choice_table_covers_every_pack():
    assert set(_AUTO_PLANS) == set(available_domains())


@pytest.mark.parametrize("name", sorted(_AUTO_PLANS))
def test_auto_plan_choice_per_pack(name):
    plan = connect(name).plan()
    assert _plan_shape(plan) == _AUTO_PLANS[name]


#: the packs whose auto plan reads the verdict and the rows off one
#: quantifier-free form (ARCHITECTURE.md "QE once")
_READ_OFF_PACKS = sorted(
    name
    for name, shape in _AUTO_PLANS.items()
    if shape == "GuardedPlan[EnumerationPlan]"
)


@pytest.mark.parametrize("name", _READ_OFF_PACKS)
def test_auto_never_walks_or_enumerates_on_read_off_packs(name, monkeypatch):
    # The default path answers from the guard's quantifier-free form: the
    # tree walker and the Section 1.1 enumeration must never run under auto.
    import repro.engine.enumeration as enumeration
    import repro.engine.plans as plans
    import repro.relational.calculus as calculus

    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args[:1])
        raise AssertionError("auto left the quantifier-free read-off path")

    monkeypatch.setattr(plans, "evaluate_query_active_domain", forbidden)
    monkeypatch.setattr(calculus, "evaluate_query_active_domain", forbidden)
    monkeypatch.setattr(enumeration, "answer_by_enumeration", forbidden)
    runs = 0
    for corpus in get_pack(name).corpora():
        states = [corpus.canonical_state]
        if corpus.state_factory is not None:
            states += [
                corpus.state_factory(
                    random.Random(f"default-path/{corpus.name}/{size}"), size
                )
                for size in (0, 1, 3, 6)
            ]
        session = connect(name, corpus.schema)
        for state in states:
            for pack_query in corpus.queries:
                session.run(pack_query.query, state)
                runs += 1
    assert runs > 0 and calls == []
