"""Command-line conformance runner: ``python -m repro.conformance [pack ...]``.

With no arguments, every registered pack is checked; otherwise only the named
packs (canonical names or aliases).  Exits non-zero when any check fails, so
CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..domains.packs import UnknownDomainError, available_domains, get_pack
from .harness import CHECK_NAMES, run_conformance


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="Run the domain-pack conformance suite.",
    )
    parser.add_argument(
        "packs",
        nargs="*",
        help="packs to check (canonical names or aliases); default: all "
        f"({', '.join(available_domains())})",
    )
    parser.add_argument(
        "--seeds",
        default="0,1",
        help="comma-separated seeds for the randomized state generators",
    )
    parser.add_argument(
        "--checks",
        default="",
        help="comma-separated check families to run; default: all "
        f"({', '.join(CHECK_NAMES)})",
    )
    options = parser.parse_args(argv)
    seeds = tuple(s for s in options.seeds.split(",") if s)
    checks = tuple(c for c in options.checks.split(",") if c) or None
    # Unknown names are usage errors (exit 2, one line), not tracebacks.
    unknown = sorted(set(checks or ()) - set(CHECK_NAMES))
    if unknown:
        parser.error(
            f"unknown check(s) {', '.join(unknown)}; "
            f"expected from {', '.join(CHECK_NAMES)}"
        )
    for name in options.packs:
        try:
            get_pack(name)
        except UnknownDomainError as error:
            parser.error(str(error))
    report = run_conformance(options.packs or None, seeds=seeds, checks=checks)
    print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
