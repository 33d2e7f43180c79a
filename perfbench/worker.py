"""Run one workload in this (fresh) process; print the result as one JSON line.

The encode cache, the substrate breaker, the morsel pool and the peak RSS
are process-wide, so ``run.py`` starts one process per workload and run::

    python3 perfbench/worker.py --workload theory-read --seed 3 --seconds 30

Set-up (generate states and requests, connect, warm up) runs ``--setups``
times and the median is reported, then the reference answers are computed
(untimed), then the closed loop runs for ``--seconds`` or, with ``--fixed``,
for the workload's fixed number of requests per client.  ``--trace 1``
records spans around every layer call and writes them to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import percentile  # noqa: E402
from workloads import WORKLOADS, Recorder, Workload, WrongAnswer  # noqa: E402

#: Answer.method values reported one by one; anything else counts as "other"
METHODS = (
    "vectorized", "parallel", "compiled-algebra", "active-domain", "incremental",
    "enumeration", "equality-fresh-element", "finitization-equivalence",
    "projection-finiteness", "successor-clause-analysis",
)


def setup(workload: Workload, times: int) -> List[Dict[str, float]]:
    """Run the set-up phases ``times`` times; seconds per phase, per attempt."""
    attempts = []
    for _ in range(times):
        workload.close()
        phases = {}
        for phase in ("generate", "connect", "warmup"):
            started = time.perf_counter()
            getattr(workload, phase)()
            phases[phase] = time.perf_counter() - started
        attempts.append(phases)
    return attempts


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def end_to_end(record: Recorder, setups: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        "throughput_qps": record.completed / record.wall_s,
        "latency_p50_ms": 1000 * percentile(record.query_latencies, 0.50),
        "latency_p95_ms": 1000 * percentile(record.query_latencies, 0.95),
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # zero on some workloads, so per-layer metrics; shown with these
        "serve.mutate_p50_ms": (
            1000 * percentile(record.mutate_latencies, 0.5)
            if record.mutate_latencies else 0.0
        ),
        "failed_fraction": record.failed / max(record.attempted, 1),
    }


def per_layer(
    record: Recorder,
    tracer: Tracer,
    moved: Counter,
    setups: List[Dict[str, float]],
) -> Dict[str, float]:
    queries = max(len(record.query_latencies), 1)
    busy = sum(record.query_latencies) or 1.0

    def mean_ms(name: str) -> float:
        return 1000 * tracer.total(name) / queries

    def share(name: str) -> float:
        return tracer.total(name) / busy

    served = record.served
    overheads = [latency - elapsed for latency, elapsed, _ in served]
    metrics = {
        "api.compile_ms": mean_ms("api.compile"),
        "api.plan_ms": mean_ms("api.plan"),
        "engine.plan_cache.hit_rate": _ratio(moved["plan_hits"], moved["plan_misses"]),
        "safety.guard_ms": mean_ms("safety.guard"),
        "safety.guard_share": share("safety.guard"),
        "safety.verdict.finite": record.verdicts["finite"],
        "safety.verdict.infinite": record.verdicts["infinite"],
        "safety.verdict.unknown": record.verdicts["unknown"],
        "safety.memo.hit_rate": _ratio(moved["memo_hits"], moved["memo_misses"]),
        "domains.decide_calls": tracer.count("domains.decide"),
        "domains.decide_ms": mean_ms("domains.decide"),
        "domains.decide_share": share("domains.decide"),
        "engine.execute_ms": mean_ms("engine.execute"),
        "engine.execute_share": share("engine.execute"),
        "engine.fallback_count": record.fallbacks,
        "engine.decode_ms": mean_ms("engine.decode"),
        "engine.rows_out": record.rows_out,
        "engine.answer_cache.hits": moved["answer_hits"],
        "engine.answer_cache.maintained": moved["answer_maintained"],
        "engine.answer_cache.recomputed": moved["answer_recomputed"],
        "relational.encode_cache.hit_rate": _ratio(
            moved["encode_hits"], moved["encode_misses"]
        ),
        "relational.encode_cache.grown": moved["encode_grown"],
        "relational.encode_cache.invalidated": moved["encode_invalidated"],
        "serve.overhead_ms": 1000 * percentile(overheads, 0.5) if served else 0.0,
        "serve.overhead_share": (
            sum(overheads) / sum(latency for latency, _, _ in served) if served else 0.0
        ),
        "serve.response_bytes": (
            statistics.fmean(size for _, _, size in served) if served else 0.0
        ),
        "serve.admission.rejected": moved["admission_rejected"],
    }
    for method in METHODS:
        metrics[f"engine.method.{method}"] = record.methods[method]
    metrics["engine.method.other"] = sum(
        n for method, n in record.methods.items() if method not in METHODS
    )
    for phase, name in (("generate", "states"), ("connect", "connect"),
                        ("warmup", "warmup")):
        metrics[f"setup.{name}_s"] = statistics.median(s[phase] for s in setups)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--fixed", action="store_true",
                        help="run the workload's fixed request count per client "
                        "(stopping early after --seconds) instead of a timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=5)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if Path(repro.__file__).resolve().parent != source:
        print(f"imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    try:
        setups = setup(workload, args.setups)
        workload.references()
        if tracer is not None:
            workload.instrument(tracer)
        before = workload.counters()
        count = workload.trace_requests if args.fixed else None
        record = workload.measure(args.seconds, count, tracer)
        after = workload.counters()
    except WrongAnswer as error:
        print(f"wrong answer: {error}", file=sys.stderr)
        return 3
    finally:
        workload.close()

    moved = Counter(after)  # a counter the workload lacks reads as 0
    moved.subtract(before)
    metrics = end_to_end(record, setups)
    if tracer is not None:
        metrics.update(per_layer(record, tracer, moved, setups))
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        tracer.write(str(out / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    answers = (
        hashlib.sha256("\n".join(record.answers).encode()).hexdigest()[:16]
        if args.fixed else None  # a timed run's length, hence answers, vary
    )
    print(json.dumps({
        "correct": True,
        "attempted": record.attempted,
        "failed": record.failed,
        "elapsed_s": record.wall_s,
        "request_digest": workload.request_digest(),
        "answers_digest": answers,
        "metrics": metrics,
        "info": dict(workload.info, setups=setups),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
