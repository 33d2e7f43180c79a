"""A cached query's static work runs once, and warm answers equal cold ones.

* **Warm path, differentially:** every corpus query of the decidable-theory
  packs, on seeded 3-6-row states, runs twice on one session (cold, then
  warm from the plan cache, the validation memo and the verdict memo); each
  verdict is the pack's declared one and each finite answer is the tree
  walker's over an extended universe.
* **Validation once per (session, formula):** a valid formula is checked
  once, an invalid one raises on every call, and the memo stays within the
  plan cache's size.
* **Plan facts once per compiled plan:** repeated runs of one query read the
  vectorization obstacle, the plan's constants and its operator census off
  the cached :class:`~repro.relational.compile.CompiledQuery`.
* **The answer's relation on demand:** an ``of_sorted`` answer builds its
  frozenset only when something asks for set semantics.
* **Plan selection:** ``build_plan`` reads each class's init fields once and
  still returns a new plan per call.
"""

import itertools
import random

import pytest

import repro.api.session as session_module
import repro.engine.plans as plans_module
import repro.relational.columnar as columnar
import repro.relational.compile as compile_module
from repro import connect
from repro.api import SessionError
from repro.domains import get_pack
from repro.engine.answers import FiniteAnswer
from repro.engine.plans import build_plan
from repro.experiments.corpora import family_schema, family_state
from repro.logic.parser import parse_formula
from repro.relational.active_domain import active_domain
from repro.relational.state import Relation

#: the decidable-theory packs with a relative-safety guard
THEORY_PACKS = (
    "naturals_with_order",
    "presburger_naturals",
    "presburger_integers",
    "integer_differences",
    "shortlex_strings",
    "rationals_with_order",
    "naturals_with_successor",
)


def _extended_universe(domain, state, query, cap=64, margin=8):
    """The carrier's enumeration up to the last stored or constant element it
    meets (at most ``cap`` elements), plus ``margin`` more: over it the tree
    walker finds every row of a finite answer."""
    needed = set(active_domain(state, query))
    elements = domain.enumerate_elements()
    prefix = []
    for element in elements:
        prefix.append(element)
        needed.discard(element)
        if not needed or len(prefix) >= cap:
            break
    return tuple(prefix) + tuple(itertools.islice(elements, margin))


# ---------------------------------------------------------------------------
# Warm path, differentially
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pack_name", THEORY_PACKS)
def test_warm_runs_answer_like_cold_runs_and_the_tree_walker(pack_name):
    pack = get_pack(pack_name)
    for corpus in pack.corpora():
        states = [
            corpus.state_factory(random.Random(seed), size)
            for seed in (1, 2, 3)
            for size in (3, 4, 5, 6)
        ]
        session = connect(pack_name, corpus.schema)
        walker = connect(pack_name, corpus.schema, guard=False)
        for state, query in itertools.product(states, corpus.queries):
            expected = None
            if query.finite:
                extras = _extended_universe(walker.domain, state, query.query)
                expected = set(walker.run(
                    query.query, state, strategy="active-domain", extra_elements=extras,
                ).answer.rows())
            for run in ("cold", "warm"):
                answer = session.run(query.query, state).answer
                where = (pack_name, corpus.name, query.name, run, dict(state.relations))
                assert answer.is_finite is query.finite, where
                if expected is not None:
                    assert set(answer.rows()) == expected, where
                    assert answer.row_count == len(expected), where


# ---------------------------------------------------------------------------
# Validation once per (session, formula)
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_valid_formula_is_validated_once_per_session(monkeypatch):
    walks = _count_calls(monkeypatch, session_module, "predicates_of")
    session = connect("equality", family_schema())
    text = "exists y. (F(x, y) & F(y, z))"
    assert session.compile(text) == session.compile(text)
    assert session.compile(parse_formula(text)) is not None
    assert len(walks) == 1
    # Another session has its own memo over its own schema.
    connect("equality", family_schema()).compile(text)
    assert len(walks) == 2


@pytest.mark.parametrize("query", [
    "G(x)",                         # unknown predicate
    "F(x)",                         # wrong arity
    "F(x, succ(x))",                # unknown function
    parse_formula("G(x) & F(x, y)"),
])
def test_an_invalid_formula_raises_on_every_call(query):
    session = connect("equality", family_schema())
    for _ in range(2):
        with pytest.raises(SessionError):
            session.compile(query)
        with pytest.raises(SessionError):
            session.run(query, family_state(generations=2))
    assert session._validate.cache_info().currsize == 0


def test_the_validation_memo_is_bounded_by_the_plan_cache():
    session = connect("equality", family_schema(), plan_cache_size=4)
    for person in range(10):
        session.compile(f"F(x, {person})")
    info = session._validate.cache_info()
    assert info.maxsize == session.plan_cache.maxsize == 4
    assert info.currsize <= 4
    # A formula pushed out of the memo is simply validated again.
    assert session.compile("F(x, 0)") == parse_formula("F(x, 0)")


# ---------------------------------------------------------------------------
# Plan facts once per compiled plan
# ---------------------------------------------------------------------------


def test_two_runs_of_one_query_derive_the_plan_facts_once(monkeypatch):
    obstacles = _count_calls(monkeypatch, columnar, "vectorization_obstacle")
    constants = _count_calls(monkeypatch, columnar, "_plan_constants")
    summaries = _count_calls(monkeypatch, compile_module, "plan_summary")
    session = connect("equality", family_schema())
    small, large = family_state(generations=3), family_state(generations=4)
    text = "exists y. (F(x, y) & F(y, z))"
    results = [session.run(text, state) for state in (small, large, small)]
    assert all(r.answer.method == "vectorized" for r in results)
    assert (len(obstacles), len(constants), len(summaries)) == (1, 1, 1)
    # explain() reads the census the run recorded: still one walk.
    assert "last plan: 2 scans" in results[-1].plan.explain()
    assert len(summaries) == 1


def test_a_bare_plan_node_still_runs_vectorized():
    session = connect("equality", family_schema())
    compiled = compile_module.compile_query(
        parse_formula("F(x, y) & ~F(y, x)"), family_schema(), session.domain
    )
    state = family_state(generations=3)
    by_node = columnar.execute_vectorized(compiled.plan, state, compiled.constants)
    by_query = columnar.execute_vectorized(compiled, state, compiled.constants)
    assert by_node.decode() == by_query.decode() == set(state["F"].rows)
    assert columnar.run_plan_vectorized(
        compiled.plan, state, compiled.universe(state)
    ) == by_node.decode()


# ---------------------------------------------------------------------------
# The answer's relation on demand
# ---------------------------------------------------------------------------


def test_an_of_sorted_answer_builds_its_relation_on_demand(monkeypatch):
    built = _count_calls(monkeypatch, Relation, "unchecked")
    rows = ((1, 2), (2, 3), (3, 4))
    lazy = FiniteAnswer.of_sorted(2, rows, method="vectorized")
    assert lazy.rows() is rows
    assert (lazy.row_count, len(lazy), lazy.is_finite) == (3, 3, True)
    assert lazy.explain() == "finite answer with 3 row(s), computed by vectorized"
    assert list(lazy) == list(rows)
    assert built == [] and "relation" not in vars(lazy)

    eager = FiniteAnswer(Relation(2, [(3, 4), (1, 2), (2, 3)]), method="vectorized")
    assert lazy == eager and eager == lazy
    assert len(built) == 1
    assert lazy.relation is lazy.relation
    assert len(built) == 1
    assert hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
    assert lazy.rows() == eager.rows()


def test_each_way_of_asking_for_set_semantics_builds_the_relation():
    for ask in (
        lambda answer: answer.relation,
        lambda answer: answer == FiniteAnswer(Relation(1, [(1,)])),
        hash,
        repr,
    ):
        answer = FiniteAnswer.of_sorted(1, ((1,),))
        ask(answer)
        assert vars(answer)["relation"] == Relation(1, [(1,)])
    with pytest.raises(AttributeError):
        FiniteAnswer.of_sorted(1, ((1,),)).no_such_field


def test_a_served_finite_answer_holds_no_relation_until_asked():
    session = connect("equality", family_schema())
    state = family_state(generations=3)
    answer = session.run("F(x, y)", state).answer
    assert answer.row_count == len(state["F"])
    assert "relation" not in vars(answer)
    assert answer.relation == state["F"]


# ---------------------------------------------------------------------------
# Plan selection
# ---------------------------------------------------------------------------


def test_build_plan_reads_the_init_fields_once_and_builds_fresh_plans(monkeypatch):
    plans_module._init_fields.cache_clear()
    reads = _count_calls(monkeypatch, plans_module, "fields")
    session = connect("equality", family_schema())
    built = [
        build_plan("vectorized", "test", domain=session.domain, budget=None)
        for _ in range(3)
    ]
    assert len(reads) == 1
    assert len({id(plan) for plan in built}) == 3
    assert all(plan.budget == built[0].budget for plan in built)
