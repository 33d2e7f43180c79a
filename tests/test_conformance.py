"""Tests for the domain-pack plugin API and the conformance harness.

Three layers:

* registry lifecycle: atomic (all-or-nothing) alias registration,
  ``unregister_pack`` and the ``temporary_pack`` context manager;
* the conformance harness run against every built-in pack (the
  registry-parametrized positive suite);
* negative controls: a deliberately broken pack — mutated decision
  procedure, false substrate claim, wrong declared finiteness — must make
  the harness fail loudly on exactly the right check.
"""

import pytest

from repro.conformance import (
    CHECK_NAMES,
    ConformanceReport,
    run_conformance,
    run_pack_conformance,
)
from repro.domains import (
    DomainPack,
    PackCorpus,
    PackQuery,
    PackSentence,
    UnknownDomainError,
    available_domains,
    domain_aliases,
    get_pack,
    register_pack,
    resolve_domain_name,
    temporary_pack,
    unregister_pack,
)
from repro.domains.cyclic import CyclicSuccessorDomain
from repro.domains.equality import EqualityDomain
from repro.logic.builders import eq, exists, var


# ---------------------------------------------------------------------------
# Registry lifecycle
# ---------------------------------------------------------------------------


def _probe_pack(name="probe_domain", aliases=("probe",)):
    return DomainPack(name=name, factory=EqualityDomain, aliases=aliases)


def test_register_pack_is_atomic_on_alias_collision():
    # "eq" already aliases the equality domain: registration must fail
    # without writing *anything* — neither the canonical name nor the first,
    # non-colliding alias may leak into the registry.
    pack = _probe_pack(aliases=("fresh_alias", "eq"))
    before_domains = available_domains()
    before_aliases = domain_aliases()
    with pytest.raises(ValueError, match="eq"):
        register_pack(pack)
    assert available_domains() == before_domains
    assert domain_aliases() == before_aliases
    with pytest.raises(UnknownDomainError):
        resolve_domain_name("fresh_alias")
    with pytest.raises(UnknownDomainError):
        resolve_domain_name("probe_domain")


def test_register_pack_rejects_a_taken_canonical_name():
    with pytest.raises(ValueError, match="already registered"):
        register_pack(_probe_pack(name="Equality", aliases=()))


def test_unregister_pack_removes_it_and_every_alias():
    pack = register_pack(_probe_pack())
    assert resolve_domain_name("probe") == "probe_domain"
    removed = unregister_pack("probe")  # by alias
    assert removed is pack
    assert "probe_domain" not in available_domains()
    with pytest.raises(UnknownDomainError):
        resolve_domain_name("probe")


def test_unregister_unknown_pack_raises():
    with pytest.raises(UnknownDomainError):
        unregister_pack("never_registered")


def test_temporary_pack_cleans_up_even_on_error():
    pack = _probe_pack()
    with pytest.raises(RuntimeError):
        with temporary_pack(pack):
            assert get_pack("probe") is pack
            raise RuntimeError("boom")
    assert "probe_domain" not in available_domains()


def test_alias_table_covers_every_pack_name_and_alias():
    aliases = domain_aliases()
    for name in available_domains():
        pack = get_pack(name)
        assert aliases[name] == name
        assert all(aliases[alias] == name for alias in pack.aliases)


def test_get_pack_resolves_aliases():
    assert get_pack("qlinear").name == "rationals_with_order"
    assert get_pack("zdiff").name == "integer_differences"
    assert get_pack("zmod").name == "cyclic_successor"
    assert get_pack("shortlex").name == "shortlex_strings"


def test_temporary_pack_registers_domain_and_cleans_up():
    pack = DomainPack(name="probe_pack", factory=EqualityDomain, aliases=("pp",))
    with temporary_pack(pack):
        assert "probe_pack" in available_domains()
        assert get_pack("pp") is pack
    assert "probe_pack" not in available_domains()


# ---------------------------------------------------------------------------
# The conformance suite, positive: every built-in pack passes every check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pack_name", available_domains())
def test_builtin_pack_conformance(pack_name):
    report = run_pack_conformance(pack_name, seeds=("0",))
    assert report.ok, report.describe()
    assert {check.check for check in report.checks} == set(CHECK_NAMES)


def test_run_conformance_over_named_subset():
    report = run_conformance(["qlinear", "cyclic"], seeds=("0",))
    assert isinstance(report, ConformanceReport)
    assert report.ok
    assert [r.pack for r in report.reports] == [
        "rationals_with_order", "cyclic_successor",
    ]
    assert "all conformant" in report.describe()


def test_new_packs_declare_the_required_evidence():
    for name in ("rationals_with_order", "integer_differences",
                 "cyclic_successor", "shortlex_strings"):
        pack = get_pack(name)
        assert pack.sentences(), name
        assert pack.corpora(), name
        assert all(c.state_factory is not None for c in pack.corpora()), name
        assert pack.safety_factory is not None, name


# ---------------------------------------------------------------------------
# Negative controls: the harness must fail loudly on a broken pack
# ---------------------------------------------------------------------------


class _LyingCyclicDomain(CyclicSuccessorDomain):
    """A cyclic domain whose decision procedure answers backwards."""

    name = "broken_cyclic"

    def decide(self, sentence):
        return not super().decide(sentence)


def _broken_sentences():
    x = var("x")
    from repro.logic.builders import apply

    return (
        # Declared truth is the *real* truth; the lying domain gets it wrong.
        PackSentence("no-fixpoint", exists("x", eq(apply("succ", x), x)), False),
    )


def test_harness_fails_on_mutated_decision_procedure():
    base = get_pack("cyclic_successor")
    broken = DomainPack(
        name="broken_cyclic",
        factory=_LyingCyclicDomain,
        sentences_factory=_broken_sentences,
        corpora_factory=base.corpora_factory,
    )
    with temporary_pack(broken):
        report = run_pack_conformance("broken_cyclic", seeds=("0",))
    assert not report.ok
    failed = {check.check for check in report.failures}
    assert "decision-procedure" in failed
    assert "no-fixpoint" in report.describe()


def test_harness_fails_on_false_substrate_claim():
    # Claims the compiled-algebra substrate for the successor domain, whose
    # function-heavy queries never compile: the claims check must notice
    # that the substrate never engaged.
    from repro.domains.successor import SuccessorDomain
    from repro.relational.schema import DatabaseSchema, RelationSchema
    from repro.relational.state import DatabaseState

    x = var("x")
    schema = DatabaseSchema((RelationSchema("S", 1, ("value",)),))

    def corpora():
        from repro.logic.builders import apply

        state = DatabaseState(schema, {"S": [(2,), (5,)]})
        return (
            PackCorpus(
                name="succ-only",
                schema=schema,
                canonical_state=state,
                queries=(
                    PackQuery("succ-of-member",
                              exists("y", eq(x, apply("succ", var("y")))), None),
                ),
            ),
        )

    class BraggartSuccessor(SuccessorDomain):
        name = "braggart_successor"
        supports_compiled_algebra = True  # false: succ terms never compile

    braggart = DomainPack(
        name="braggart_successor",
        factory=BraggartSuccessor,
        corpora_factory=corpora,
    )
    with temporary_pack(braggart):
        report = run_pack_conformance("braggart_successor", seeds=("0",))
    assert not report.ok
    assert any(
        check.check == "substrate-equivalence" and "never engaged" in check.details
        for check in report.failures
    )


def test_harness_fails_on_wrong_declared_finiteness():
    # Declares the provably infinite complement query finite: the
    # guard-soundness check must flag the disagreement with the guard.
    base = get_pack("equality")

    def corpora():
        for corpus in base.corpora():
            wrong = tuple(
                PackQuery(pq.name, pq.query, True) if pq.name == "not-a-father"
                else pq
                for pq in corpus.queries
            )
            return (
                PackCorpus(
                    name=corpus.name,
                    schema=corpus.schema,
                    canonical_state=corpus.canonical_state,
                    queries=wrong,
                    state_factory=corpus.state_factory,
                ),
            )

    wrong_pack = DomainPack(
        name="wrong_equality",
        factory=base.factory,
        safety_factory=base.safety_factory,
        corpora_factory=corpora,
    )
    with temporary_pack(wrong_pack):
        report = run_pack_conformance("wrong_equality", seeds=("0",))
    assert not report.ok
    assert any(check.check == "guard-soundness" for check in report.failures)


def test_cli_entry_point_exit_codes(capsys):
    from repro.conformance.__main__ import main

    assert main(["cyclic", "--seeds", "0"]) == 0
    broken = DomainPack(
        name="broken_cyclic",
        factory=_LyingCyclicDomain,
        sentences_factory=_broken_sentences,
    )
    with temporary_pack(broken):
        assert main(["broken_cyclic", "--seeds", "0"]) == 1
    # Unknown names are usage errors: exit 2 and one error line naming the
    # culprit (after argparse's usage text), never a traceback.
    for argv, named in [
        (["cyclic", "--checks", "faults"], "unknown check(s) faults"),
        (["no-such-pack"], "unknown domain 'no-such-pack'"),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (error_line,) = [line for line in err.splitlines() if ": error: " in line]
        assert named in error_line


# ---------------------------------------------------------------------------
# Harness internals worth pinning down
# ---------------------------------------------------------------------------


def test_edge_check_requires_negation_or_universal_shape():
    x = var("x")
    base = get_pack("equality")

    def tame_corpora():
        corpus = base.corpora()[0]
        only_positive = tuple(
            pq for pq in corpus.queries
            if pq.name in ("fathers-and-sons", "grandfathers")
        )
        return (
            PackCorpus(
                name=corpus.name,
                schema=corpus.schema,
                canonical_state=corpus.canonical_state,
                queries=only_positive,
                state_factory=corpus.state_factory,
            ),
        )

    tame = DomainPack(
        name="tame_equality",
        factory=base.factory,
        corpora_factory=tame_corpora,
    )
    with temporary_pack(tame):
        report = run_pack_conformance("tame_equality", seeds=("0",))
    assert any(
        check.check == "edge-corpora" and "negation" in check.details
        for check in report.failures
    )


def test_report_describe_mentions_every_pack():
    report = run_conformance(["eq", "shortlex"], seeds=("0",))
    text = report.describe()
    assert "equality" in text and "shortlex_strings" in text
    assert "2 pack(s)" in text
