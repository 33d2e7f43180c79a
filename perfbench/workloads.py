"""The three workloads, all on the default path (``strategy="auto"``).

* ``family-read`` — the equality pack's five corpus queries through one
  non-incremental :class:`repro.api.Session` with the default budget, over
  complete binary family trees of 1022 and 4094 rows and one seeded random
  father/son graph of 4096 rows (the pack's ``state_factory``).
* ``theory-read`` — the decidable-theory packs, one session per (pack,
  corpus) and a pool of 16 seeded states of 3-6 rows per corpus.
* ``family-serve-write`` — the family queries over HTTP against an
  incremental server (:func:`repro.serve.serve_in_thread`): two client
  threads, each with its own session on a 1022-row tree; 80% ``/query``,
  20% ``/mutate`` (3 inserts for every delete).

Every workload is a closed loop: a client sends its next request only after
the previous answer arrived.  The request sequence is made from the seed
before anything is timed; the library receives only the generated states and
query texts.  Requests come in seeded rounds that visit every (corpus, query)
pair in shuffled order, each with a state drawn from a shuffled bag -- or,
for the serving workload, in shuffled blocks of 100 requests with a fixed
mix -- so every pair is equally likely and a short run still sees the whole
mix.

Correctness: each verdict must equal the pack's declared ``PackQuery.finite``
and each finite answer must equal a reference computed by another substrate
(the set executor for equality, the tree walker over an extended active
domain for the theory packs).  A mismatch raises :class:`WrongAnswer`.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import Session
from repro.domains.packs import get_pack
from repro.engine.budget import EvaluationInterrupted
from repro.experiments.corpora import family_state
from repro.logic.printer import print_formula
from repro.relational.active_domain import active_domain
from repro.relational.columnar import encode_cache_info
from repro.relational.state import Delta
from repro.serve import ServerPolicy, SessionManager, serve_in_thread

from spans import Context, Tracer, instrument_session

__all__ = ["WORKLOADS", "WrongAnswer", "Recorder", "Workload"]


class WrongAnswer(AssertionError):
    """The program under test returned an answer that is not the reference."""


def rows_digest(rows: Sequence[Sequence[Any]]) -> str:
    """A process-independent digest of an answer's rows (order-insensitive)."""
    text = repr(sorted((tuple(row) for row in rows), key=repr))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def sequence_digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


@dataclass
class Recorder:
    """What one measured phase did, request by request."""

    query_latencies: List[float] = field(default_factory=list)
    mutate_latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: length of the measured loop, seconds (less untimed answer checks)
    wall_s: float = 0.0
    verdicts: Counter = field(default_factory=Counter)
    methods: Counter = field(default_factory=Counter)
    fallbacks: int = 0
    rows_out: int = 0
    #: per request, in plan order: a digest of the answer (count mode only)
    answers: List[str] = field(default_factory=list)
    #: HTTP only: (client latency s, server-reported elapsed s, body bytes)
    served: List[Tuple[float, float, int]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def merge(self, other: "Recorder") -> None:
        self.query_latencies += other.query_latencies
        self.mutate_latencies += other.mutate_latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.verdicts.update(other.verdicts)
        self.methods.update(other.methods)
        self.fallbacks += other.fallbacks
        self.rows_out += other.rows_out
        self.answers += other.answers
        self.served += other.served


def _span(tracer: Optional[Tracer], name: str, **attrs: Any) -> Any:
    """``tracer.span(...)``, or a no-op context in an untraced run."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


class _Stop:
    """Closed-loop stopping rule: a request count, or a wall-clock deadline."""

    def __init__(self, seconds: float, count: Optional[int], started: float):
        self.count = count
        self.deadline = started + seconds

    def done(self, index: int) -> bool:
        if self.count is not None and index >= self.count:
            return True
        return time.perf_counter() >= self.deadline


class Workload:
    """Set-up phases, a measured closed loop, and the counters it moved."""

    name = ""
    #: requests per client in a fixed-count (traced) run
    trace_requests = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.info: Dict[str, Any] = {}

    # set-up, in the order the runner times them
    def generate(self) -> None:
        raise NotImplementedError

    def connect(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        """Compute the reference answers (untimed)."""

    def instrument(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def measure(
        self, seconds: float, count: Optional[int], tracer: Optional[Tracer]
    ) -> Recorder:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        raise NotImplementedError

    def request_digest(self) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`connect` opened."""


def _session_counters(sessions: Sequence[Session]) -> Dict[str, float]:
    totals: Counter = Counter()
    for session in sessions:
        plan = session.plan_cache_info()
        totals["plan_hits"] += plan.hits
        totals["plan_misses"] += plan.misses
        memo_info = getattr(session.safety, "memo_info", None)
        if memo_info is not None:
            memo = memo_info()
            totals["memo_hits"] += memo.hits
            totals["memo_misses"] += memo.misses
        if session.incremental:
            answers = session.answer_cache_info()
            totals["answer_hits"] += answers.hits
            totals["answer_maintained"] += answers.maintained
            totals["answer_recomputed"] += answers.misses + answers.rematerialized
    encode = encode_cache_info()
    totals["encode_hits"] += encode.hits
    totals["encode_misses"] += encode.misses
    totals["encode_grown"] += encode.grown
    totals["encode_invalidated"] += encode.invalidated
    return dict(totals)


# ---------------------------------------------------------------------------
# Library callers: one Session per corpus
# ---------------------------------------------------------------------------


class _SessionWorkload(Workload):
    """Queries through ``Session.run(..., strategy="auto")``, one client.

    Subclasses fill ``sessions`` (one per corpus), ``corpora`` (their
    queries as ``(text or Formula, declared finite)``), ``states`` (per
    corpus) and ``plan`` (``(corpus, state, query)`` index triples).
    """

    #: rounds in the generated plan; a run that exhausts it starts over
    rounds = 400

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sessions: List[Session] = []
        self.corpora: List[List[Tuple[Any, Optional[bool]]]] = []
        self.states: List[List[Any]] = []
        self.plan: List[Tuple[int, int, int]] = []
        self.expected: Dict[Tuple[int, int, int], Any] = {}

    def _make_plan(self, rng: random.Random, pool: int) -> None:
        """Rounds over every (corpus, query) pair in shuffled order.

        Each pair draws its state from its own shuffled bag holding each of
        the corpus's ``pool`` states twice, refilled when empty: every state
        is equally likely, a state can recur soon (so memos see repeats), and
        every ``2 * pool`` rounds each pair meets each state exactly twice.
        """
        pairs = [
            (corpus, query)
            for corpus, queries in enumerate(self.corpora)
            for query in range(len(queries))
        ]
        bags: Dict[Tuple[int, int], List[int]] = {pair: [] for pair in pairs}
        self.plan = []
        for _ in range(self.rounds):
            rng.shuffle(pairs)
            for corpus, query in pairs:
                bag = bags[corpus, query]
                if not bag:
                    bag.extend(2 * list(range(pool)))
                    rng.shuffle(bag)
                self.plan.append((corpus, bag.pop(), query))

    def request_digest(self) -> str:
        return sequence_digest((
            [[rows_digest(r for rows in s.relations.values() for r in rows)
              for s in states] for states in self.states],
            self.corpora,
            self.plan,
        ))

    def warmup(self) -> None:
        for corpus, session in enumerate(self.sessions):
            for state in range(self._warm_states()):
                for text, _ in self.corpora[corpus]:
                    session.run(text, self.states[corpus][state]).answer.rows()

    def _warm_states(self) -> int:
        return 1

    def instrument(self, tracer: Tracer) -> None:
        for session in self.sessions:
            instrument_session(tracer, session, Context())

    def counters(self) -> Dict[str, float]:
        return _session_counters(self.sessions)

    def _check(self, key: Tuple[int, int, int], answer: Any, rows: tuple) -> None:
        corpus, state, query = key
        text, declared = self.corpora[corpus][query]
        if answer.is_finite is not declared:
            raise WrongAnswer(
                f"{self.name}: {text} on state {corpus}/{state}: verdict "
                f"{answer.is_finite} but the pack declares finite={declared}"
            )
        if declared and set(rows) != self.expected[key]:
            raise WrongAnswer(
                f"{self.name}: {text} on state {corpus}/{state}: {len(rows)} "
                f"rows differ from the {len(self.expected[key])}-row reference"
            )

    def measure(
        self, seconds: float, count: Optional[int], tracer: Optional[Tracer]
    ) -> Recorder:
        record = Recorder()
        checking = 0.0
        started = time.perf_counter()
        stop = _Stop(seconds, count, started)
        index = 0
        while not stop.done(index):
            key = self.plan[index % len(self.plan)]
            corpus, state, query = key
            session = self.sessions[corpus]
            text, _ = self.corpora[corpus][query]
            record.attempted += 1
            begin = time.perf_counter()
            try:
                with _span(tracer, "request", request=index):
                    result = session.run(text, self.states[corpus][state])
                    with _span(tracer, "engine.decode"):
                        rows = result.answer.rows()
            except EvaluationInterrupted:
                record.failed += 1
                index += 1
                continue
            end = time.perf_counter()
            record.query_latencies.append(end - begin)
            answer = result.answer
            if answer.is_finite is None:  # UnknownAnswer: the budget ran out
                record.failed += 1
            else:
                self._check(key, answer, rows)
                record.methods[answer.method] += 1
                record.rows_out += len(rows)
            if result.verdict is not None:
                record.verdicts[result.verdict.status.value] += 1
            inner = getattr(result.plan, "inner", result.plan)
            if getattr(inner, "fallback_reason", None):
                record.fallbacks += 1
            if count is not None:
                record.answers.append(f"{answer.is_finite}:{rows_digest(rows)}")
            checking += time.perf_counter() - end
            index += 1
        record.wall_s = time.perf_counter() - started - checking
        return record


class FamilyRead(_SessionWorkload):
    name = "family-read"
    trace_requests = 300  # 20 rounds of the 15 (state, query) pairs

    def generate(self) -> None:
        rng = random.Random(self.seed)
        corpus = get_pack("equality").corpora()[0]
        self.schema = corpus.schema
        self.corpora = [[(print_formula(q.query), q.finite) for q in corpus.queries]]
        self.states = [[
            family_state(generations=9),   # 1022 rows: the vectorized rung
            family_state(generations=11),  # 4094 rows: the parallel rung
            corpus.state_factory(rng, 4096),
        ]]
        self._make_plan(rng, len(self.states[0]))

    def connect(self) -> None:
        self.sessions = [Session("equality", self.schema)]

    def _warm_states(self) -> int:
        return len(self.states[0])

    def references(self) -> None:
        reference = Session("equality", self.schema)
        for state_index, state in enumerate(self.states[0]):
            for query, (text, finite) in enumerate(self.corpora[0]):
                if finite:
                    answer = reference.run(text, state, strategy="compiled").answer
                    self.expected[(0, state_index, query)] = set(answer.rows())


#: the decidable-theory packs.  ``traces`` and ``reach_traces`` have no guard
#: (Theorem 3.3) and ``cyclic_successor`` takes the algebra path that
#: family-read already covers.
THEORY_PACKS = (
    "naturals_with_order",
    "presburger_naturals",
    "presburger_integers",
    "integer_differences",
    "shortlex_strings",
    "rationals_with_order",
    "naturals_with_successor",
)


def reference_universe(domain: Any, state: Any, formula: Any,
                       cap: int = 64, margin: int = 8) -> List[Any]:
    """The ``enumerate_elements()`` prefix that spans the stored and constant
    values, plus ``margin`` further elements.

    The prefix stops after ``cap`` elements.  Only (Q, <) reaches the cap (its
    enumeration meets the integers late); there the answer of a finite query
    lies inside the stored and constant values, which the tree walker ranges
    over anyway.
    """
    needed = set(active_domain(state, formula))
    elements = domain.enumerate_elements()
    prefix: List[Any] = []
    for element in elements:
        prefix.append(element)
        needed.discard(element)
        if not needed or len(prefix) >= cap:
            break
    prefix.extend(itertools.islice(elements, margin))
    return prefix


class TheoryRead(_SessionWorkload):
    name = "theory-read"
    trace_requests = 236  # 4 rounds of the 59 (corpus, query) pairs
    #: seeded states per corpus: 16 states x ~8 queries exceeds the
    #: 64-entry per-(formula, state) verdict memo of each session
    pool = 16

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.packs: List[Tuple[str, Any]] = [
            (name, corpus)
            for name in THEORY_PACKS
            for corpus in get_pack(name).corpora()
        ]
        # The pack's Formula objects, not text: the printer does not
        # round-trip negative or rational constants.
        self.corpora = [
            [(q.query, q.finite) for q in corpus.queries] for _, corpus in self.packs
        ]
        # Four states of each size 3-6 per corpus: the decision procedures'
        # cost grows steeply with the state, so fixing the size mix keeps one
        # seed's pool about as costly as another's.
        self.states = [
            [corpus.state_factory(rng, 3 + number % 4) for number in range(self.pool)]
            for _, corpus in self.packs
        ]
        self._make_plan(rng, self.pool)

    def connect(self) -> None:
        self.sessions = [Session(name, corpus.schema) for name, corpus in self.packs]

    def references(self) -> None:
        for corpus, (name, pack_corpus) in enumerate(self.packs):
            walker = Session(name, pack_corpus.schema, guard=False)
            for state_index, state in enumerate(self.states[corpus]):
                for query, pack_query in enumerate(pack_corpus.queries):
                    if not pack_query.finite:
                        continue
                    extra = reference_universe(walker.domain, state, pack_query.query)
                    answer = walker.run(
                        pack_query.query, state, strategy="active-domain",
                        extra_elements=extra,
                    ).answer
                    self.expected[(corpus, state_index, query)] = set(answer.rows())


# ---------------------------------------------------------------------------
# HTTP clients against an incremental server
# ---------------------------------------------------------------------------


def _post(port: int, path: str, payload: Dict[str, Any]) -> Tuple[int, bytes]:
    """One request on its own connection; (status, body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _get(port: int, path: str) -> Dict[str, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


class FamilyServeWrite(Workload):
    name = "family-serve-write"
    clients = 2
    trace_requests = 400  # per client: 4 blocks
    #: blocks of 100 requests: 80 queries (16 of each), 15 inserts, 5 deletes
    blocks = 300
    #: admission never refuses a closed-loop client at these rates
    policy = ServerPolicy(rate=100_000.0, burst=100_000)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.handle: Any = None
        self.session_ids: List[str] = []
        self.contexts: List[Context] = []
        self.info["policy"] = self.policy.describe()

    def generate(self) -> None:
        corpus = get_pack("equality").corpora()[0]
        self.schema = corpus.schema
        self.queries = [(print_formula(q.query), q.finite) for q in corpus.queries]
        self.base = family_state(generations=9)
        self.plans = [self._client_plan(client) for client in range(self.clients)]

    def _client_plan(self, client: int) -> List[Tuple[Any, ...]]:
        """Queries and single-row mutations, simulated on a replica so every
        insert names an existing father and every delete a row this client
        inserted and has not deleted yet."""
        rng = random.Random(self.seed * 1000 + client)
        mentions: Counter = Counter()
        people: List[int] = []
        position: Dict[int, int] = {}

        def mention(person: int, change: int) -> None:
            mentions[person] += change
            if change > 0 and mentions[person] == 1:
                position[person] = len(people)
                people.append(person)
            elif mentions[person] == 0:
                index = position.pop(person)
                last = people.pop()
                if last != person:
                    people[index] = last
                    position[last] = index

        for father, son in self.base.relations["F"]:
            mention(father, 1)
            mention(son, 1)
        live: List[Tuple[int, int]] = []
        next_person = 1_000_000 * (client + 1)
        owed_deletes = 0
        plan: List[Tuple[Any, ...]] = []
        for _ in range(self.blocks):
            kinds = ["query"] * 80 + ["insert"] * 15 + ["delete"] * 5
            rng.shuffle(kinds)
            queries = [q for q in range(len(self.queries)) for _ in range(16)]
            rng.shuffle(queries)
            for kind in kinds:
                if kind == "query":
                    plan.append(("query", queries.pop()))
                    continue
                if kind == "delete" and not live:
                    kind, owed_deletes = "insert", owed_deletes + 1
                elif kind == "insert" and owed_deletes and live:
                    kind, owed_deletes = "delete", owed_deletes - 1
                if kind == "insert":
                    row = (people[rng.randrange(len(people))], next_person)
                    next_person += 1
                    live.append(row)
                    mention(row[0], 1)
                    mention(row[1], 1)
                else:
                    row = live.pop(rng.randrange(len(live)))
                    mention(row[0], -1)
                    mention(row[1], -1)
                plan.append((kind, row))
        return plan

    def request_digest(self) -> str:
        return sequence_digest((
            rows_digest(self.base.relations["F"]), self.queries, self.plans,
        ))

    def connect(self) -> None:
        self.manager = SessionManager(self.policy)
        self.handle = serve_in_thread(self.manager).start()
        rows = [list(row) for row in self.base.relations["F"]]
        self.session_ids = []
        for _ in range(self.clients):
            status, body = _post(self.handle.port, "/connect", {
                "domain": "equality",
                "schema": {"F": {"arity": 2, "attributes": ["father", "son"]}},
                "state": {"F": rows},
            })
            if status != 200:
                raise RuntimeError(f"/connect answered {status}: {body!r}")
            self.session_ids.append(json.loads(body)["session"])
        self.contexts = [Context() for _ in self.session_ids]

    def warmup(self) -> None:
        for session_id in self.session_ids:
            for text, _ in self.queries:
                status, body = _post(
                    self.handle.port, "/query", {"session": session_id, "query": text}
                )
                if status != 200:
                    raise RuntimeError(f"warm-up /query answered {status}: {body!r}")

    def _sessions(self) -> List[Session]:
        return [self.manager.get(sid).session for sid in self.session_ids]

    def instrument(self, tracer: Tracer) -> None:
        for session, context in zip(self._sessions(), self.contexts):
            instrument_session(tracer, session, context)

    def counters(self) -> Dict[str, float]:
        totals = _session_counters(self._sessions())
        admission = _get(self.handle.port, "/stats")["admission"]
        totals["admission_rejected"] = (
            admission["rejected_rate_limited"] + admission["rejected_over_capacity"]
        )
        return totals

    def _client(
        self, client: int, stop: _Stop, tracer: Optional[Tracer],
        record: Recorder, log: List[Tuple[Any, ...]],
    ) -> None:
        session_id = self.session_ids[client]
        context = self.contexts[client]
        port = self.handle.port
        for index, step in enumerate(self.plans[client]):
            if stop.done(index):
                break
            kind, argument = step
            if kind == "query":
                path = "/query"
                payload: Dict[str, Any] = {
                    "session": session_id, "query": self.queries[argument][0],
                }
            else:
                path = "/mutate"
                payload = {"session": session_id, kind: {"F": [list(argument)]}}
            record.attempted += 1
            request = client * 10_000_000 + index
            begin = time.perf_counter()
            with _span(tracer, "client", request=request) as span:
                if span is not None:  # server-side spans hang off this one
                    context.parent, context.request = span.span_id, request
                status, body = _post(port, path, payload)
            latency = time.perf_counter() - begin
            if status != 200:
                record.failed += 1
                log.append((index, None))
                continue
            if kind != "query":
                record.mutate_latencies.append(latency)
                log.append((index, "mutated"))
                continue
            reply = json.loads(body)
            record.query_latencies.append(latency)
            record.served.append((latency, reply["elapsed_ms"] / 1000.0, len(body)))
            if reply["verdict"] is not None:
                record.verdicts[reply["verdict"]] += 1
            if "fell back" in reply["plan"]:
                record.fallbacks += 1
            if reply["is_finite"] is None:  # UnknownAnswer: the budget ran out
                record.failed += 1
                log.append((index, None))
                continue
            record.methods[reply["method"]] += 1
            record.rows_out += reply["row_count"]
            log.append((index, f"{reply['is_finite']}:{rows_digest(reply['rows'])}"))

    def measure(
        self, seconds: float, count: Optional[int], tracer: Optional[Tracer]
    ) -> Recorder:
        records = [Recorder() for _ in range(self.clients)]
        logs: List[List[Tuple[Any, ...]]] = [[] for _ in range(self.clients)]
        errors: List[BaseException] = []
        start = threading.Barrier(self.clients + 1)
        stop: List[_Stop] = []

        def client(number: int) -> None:
            start.wait()
            try:
                self._client(number, stop[0], tracer, records[number], logs[number])
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(n,), name=f"client-{n}")
            for n in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        stop.append(_Stop(seconds, count, started))
        start.wait()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if errors:
            raise errors[0]
        self._verify(logs)
        merged = Recorder()
        for record in records:
            merged.merge(record)
        merged.wall_s = wall
        if count is not None:
            merged.answers = [answer for log in logs for _, answer in log]
        return merged

    def _verify(self, logs: List[List[Tuple[Any, ...]]]) -> None:
        """Replay each client's requests on a replica state (untimed) and
        compare every verdict and finite answer with the set executor's."""
        reference = Session("equality", self.schema)
        for client, log in enumerate(logs):
            replica = self.base
            cache: Dict[int, str] = {}
            plan = self.plans[client]
            for index, answer in log:
                kind, argument = plan[index]
                if answer is None:  # refused, or no answer within the budget
                    continue
                if kind != "query":
                    delta = (
                        Delta(inserts={"F": [argument]}) if kind == "insert"
                        else Delta(deletes={"F": [argument]})
                    )
                    replica = replica.apply(delta)
                    cache.clear()
                    continue
                text, declared = self.queries[argument]
                finite, _, digest = answer.partition(":")
                if finite != str(declared):
                    raise WrongAnswer(
                        f"{self.name}: client {client} request {index} {text!r}: "
                        f"is_finite={finite} but the pack declares {declared}"
                    )
                if not declared:
                    continue
                if argument not in cache:
                    rows = reference.run(text, replica, strategy="compiled").answer.rows()
                    cache[argument] = rows_digest(rows)
                if digest != cache[argument]:
                    raise WrongAnswer(
                        f"{self.name}: client {client} request {index} {text!r}: "
                        "rows differ from the set executor on the replica state"
                    )

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None


WORKLOADS = {w.name: w for w in (FamilyRead, TheoryRead, FamilyServeWrite)}
