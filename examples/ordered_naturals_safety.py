#!/usr/bin/env python3
"""Safety over the ordered naturals ``(N, <)``: Fact 2.1, finitization, Theorem 2.5.

This example works over the domain of Section 2.1:

* it evaluates the Fact 2.1 query (finite, but not domain-independent);
* it finitizes a few queries and shows that finitization preserves finite
  queries and tames infinite ones (Theorem 2.2);
* it runs the Theorem 2.5 relative-safety decider, then answers the finite
  queries with the Section 1.1 enumeration algorithm backed by Cooper's
  decision procedure for Presburger arithmetic.

Run with:  python examples/ordered_naturals_safety.py
"""

from repro import Budget, Session
from repro.domains import NaturalOrderDomain, PresburgerDomain
from repro.engine import FiniteAnswer
from repro.experiments.corpora import numeric_schema, numeric_state, ordered_query_corpus
from repro.logic import print_formula
from repro.safety import OrderedRelativeSafety, fact_2_1_query, finitize
from repro.safety.domain_independence import answer_over_universe, check_domain_independence


def main() -> None:
    schema = numeric_schema()
    state = numeric_state([2, 5, 9])
    domain = NaturalOrderDomain()
    session = Session(domain, schema, guard=False)
    decider = OrderedRelativeSafety(PresburgerDomain())

    # --- Fact 2.1 -----------------------------------------------------------
    query = fact_2_1_query(schema)
    print("Fact 2.1 query (least element above the whole active domain):")
    print("   ", print_formula(query)[:100], "...")
    answer = answer_over_universe(query, state, domain, universe=range(0, 14))
    print("    answer over S = {2, 5, 9}:", sorted(answer.rows))
    verdict = check_domain_independence(query, state, domain, extra_elements=range(0, 14))
    print("    domain-independence check:", verdict.status.value, "—", verdict.details, "\n")

    # --- Theorem 2.2 / 2.5 ---------------------------------------------------
    print("Relative safety (Theorem 2.5) and enumeration answering (Section 1.1):")
    for name, corpus_query, expected in ordered_query_corpus()[:6]:
        verdict = decider.decide(corpus_query, state)
        line = f"    {name:28s} ground-truth finite={expected!s:5s} decided={verdict.status.value}"
        if verdict.is_finite:
            result = session.query(
                corpus_query, state, strategy="enumeration",
                budget=Budget(max_rows=50, max_candidates=200),
            )
            if isinstance(result, FiniteAnswer):
                line += f"  -> {len(result.relation)} rows via enumeration"
        print(line)
    print()

    print("Finitization (Theorem 2.2) of the unsafe query 'above-some-member':")
    unsafe = dict((n, q) for n, q, _f in ordered_query_corpus())["above-some-member"]
    finitized = finitize(unsafe)
    print("    phi   :", print_formula(unsafe))
    print("    phi^F :", print_formula(finitized)[:120], "...")
    print("    phi^F is finite in every state; phi is not — the set of all")
    print("    finitizations is the recursive syntax for finite queries of (N, <).")


if __name__ == "__main__":
    main()
