"""repro — a reproduction of Stolboushkin & Taitslin,
"Finite Queries Do Not Have Effective Syntax" (PODS 1995 / Inf. & Comp. 1999).

The package is organised by subsystem:

* :mod:`repro.logic` — first-order logic (the relational calculus);
* :mod:`repro.relational` — schemas, states, relational algebra, active
  domains, the translation of database queries into pure domain formulas,
  and the calculus→algebra compiler with its two executors (set-at-a-time
  and vectorized NumPy columnar);
* :mod:`repro.turing` — Turing machines, their string encodings, and
  computation traces;
* :mod:`repro.domains` — the domains studied in the paper, each with a
  recursive evaluator and (when the paper proves one exists) a decision
  procedure: pure equality, ``(N, <)``, Presburger arithmetic, ``(N, ')``, and
  the trace domain **T** with its Reach Theory;
* :mod:`repro.safety` — finiteness, domain independence, finitization,
  effective syntaxes, relative safety, and the Theorem 3.1 / 3.3 reductions;
* :mod:`repro.engine` — query answering (Section 1.1 enumeration,
  active-domain evaluation, safety guards);
* :mod:`repro.experiments` — the experiment harness behind ``benchmarks/``
  and ``EXPERIMENTS.md``;
* :mod:`repro.api` — the public front door: :func:`repro.connect` opens a
  :class:`~repro.api.Session` owning the compile → analyze → plan → execute
  pipeline (see ``API.md``).
"""

from . import domains, engine, logic, relational, safety, turing
from . import api
from . import serve
from .api import Answer, Budget, Session, connect
from .domains.packs import available_domains, get_domain
from .relational.state import Delta

__version__ = "1.3.0"

__all__ = [
    "logic", "relational", "turing", "domains", "safety", "engine", "api",
    "serve", "connect", "Session", "Budget", "Answer", "Delta", "get_domain",
    "available_domains", "__version__",
]
