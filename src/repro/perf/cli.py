"""CLI for the schedule-equivalence gates.

``python -m repro.perf golden [--check | --write] [--path PATH]``
    Verify (default) or regenerate the golden schedule fingerprints.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.perf.golden import GOLDEN_PATH, check_golden, write_golden


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Golden schedule-fingerprint checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gold = sub.add_parser("golden", help="check or refresh golden fingerprints")
    mode = gold.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="recompute and diff against the stored golden file (default)",
    )
    mode.add_argument(
        "--write",
        action="store_true",
        help="regenerate the golden file (only for intentional changes)",
    )
    gold.add_argument(
        "--path", type=Path, default=GOLDEN_PATH, help="golden file location"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.write:
        path = write_golden(args.path)
        print(f"golden fingerprints written to {path}")
        return 0
    problems = check_golden(args.path)
    if problems:
        for p in problems:
            print(f"GOLDEN DRIFT: {p}", file=sys.stderr)
        return 1
    print(f"golden check OK ({args.path})")
    return 0
