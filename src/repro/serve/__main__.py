"""``python -m repro.serve`` — run the query server from the command line.

Example::

    PYTHONPATH=src python -m repro.serve --port 8765

then::

    curl -s localhost:8765/connect -d '{"domain": "nat<", "schema": {"S": 1}, \
        "state": {"S": [[3], [5], [9]]}}'
    curl -s localhost:8765/query -d '{"session": "<id>", "query": \
        "exists y. exists z. (S(y) & S(z) & y < x & x < z)"}'
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional, Sequence

from .policy import ServerPolicy
from .server import QueryServer
from .sessions import SessionManager


def build_parser() -> argparse.ArgumentParser:
    defaults = ServerPolicy()
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the query engine over HTTP/SSE (stdlib only).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--max-sessions", type=int, default=defaults.max_sessions)
    parser.add_argument(
        "--session-ttl", type=float, default=defaults.session_ttl,
        help="idle seconds before a session expires",
    )
    parser.add_argument(
        "--rate", type=float, default=defaults.rate,
        help="requests/second allowed per session (token-bucket refill)",
    )
    parser.add_argument(
        "--burst", type=int, default=defaults.burst,
        help="token-bucket capacity per session",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=defaults.max_inflight,
        help="concurrent requests before fast 503 rejection",
    )
    parser.add_argument("--workers", type=int, default=defaults.workers)
    parser.add_argument(
        "--plan-cache-size", type=int, default=defaults.plan_cache_size
    )
    parser.add_argument(
        "--shutdown-grace", type=float, default=defaults.shutdown_grace,
        help="seconds to let in-flight queries drain before cancelling them",
    )
    parser.add_argument(
        "--retry-jitter", type=float, default=defaults.retry_jitter,
        help="max random fraction added to Retry-After hints (0 disables)",
    )
    return parser


def policy_from_args(args: argparse.Namespace) -> ServerPolicy:
    return ServerPolicy(
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        rate=args.rate,
        burst=args.burst,
        max_inflight=args.max_inflight,
        workers=args.workers,
        plan_cache_size=args.plan_cache_size,
        shutdown_grace=args.shutdown_grace,
        retry_jitter=args.retry_jitter,
    )


async def _serve(server: QueryServer, host: str) -> None:
    await server.start()
    print(f"repro.serve listening on http://{host}:{server.port}")
    print("endpoints: POST /connect /query /explain /cancel /disconnect, "
          "GET /stats")
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    manager = SessionManager(policy_from_args(args))
    server = QueryServer(manager, host=args.host, port=args.port)
    try:
        asyncio.run(_serve(server, args.host))
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
