"""Benchmark smoke for the domain-pack conformance harness.

Two purposes:

* wall-clock guard: the full conformance suite over every registered pack
  must stay fast enough to run on every CI push (the ``conformance`` job
  runs it twice — once via pytest, once via ``python -m repro.conformance``);
* per-pack decision-procedure timing: the four new packs' deciders (dense
  linear order via Ferrante–Rackoff test points, integer differences via
  Bellman–Ford, cyclic successor via exhaustive carrier checking, shortlex
  strings via the rank translation to Cooper) each timed on their declared
  ground-truth sentences.

Bench names are new, so the CI baseline gate records them without failing
(unmatched benchmarks never fail the comparison).
"""

import pytest

from repro.conformance import run_conformance, run_pack_conformance
from repro.domains import available_domains, get_pack

NEW_PACKS = (
    "rationals_with_order",
    "integer_differences",
    "cyclic_successor",
    "shortlex_strings",
)


def test_bench_conformance_all_packs(benchmark):
    """The whole conformance suite, one seed, every registered pack."""
    report = benchmark.pedantic(
        lambda: run_conformance(seeds=("bench",)), iterations=1, rounds=1
    )
    assert report.ok, report.describe()
    assert len(report.reports) == len(available_domains())


@pytest.mark.parametrize("pack_name", NEW_PACKS)
def test_bench_new_pack_conformance(benchmark, pack_name):
    """Per-pack conformance timing for the four pack-seeded domains."""
    report = benchmark.pedantic(
        lambda: run_pack_conformance(pack_name, seeds=("bench",)),
        iterations=1,
        rounds=1,
    )
    assert report.ok, report.describe()


@pytest.mark.parametrize("pack_name", NEW_PACKS)
def test_bench_new_pack_decision_procedures(benchmark, pack_name):
    """Each new decider on its declared ground-truth sentence corpus."""
    pack = get_pack(pack_name)
    sentences = pack.sentences()
    assert sentences

    def decide_all():
        domain = pack.factory()  # fresh: no memoisation across rounds
        return [domain.decide(ps.sentence) for ps in sentences]

    got = benchmark(decide_all)
    assert got == [ps.truth for ps in sentences]
