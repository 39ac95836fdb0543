#!/usr/bin/env python3
"""Run every verification suite over a battery of dilators and print reports.

Exits nonzero when any check fails, and 2 on a usage error, such as a
``--budget`` above the CLI's ``MAX_BUDGET``.  The default battery covers
the four builtins plus one sum and one product composite.
"""

import argparse
import sys
import time

from bhfix.cli import MAX_BUDGET, bounded, natural, parse_selector
from bhfix.errors import SelectorError
from bhfix.verify import SUITES, run_suite

DEFAULT_SELECTORS = [
    "successor",
    "identity",
    "constant:3",
    "omega",
    "sum(successor,omega)",
    "product(successor,constant:2)",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=natural, default=40)
    parser.add_argument("--suite", choices=SUITES, default="all")
    parser.add_argument("selectors", nargs="*", default=DEFAULT_SELECTORS)
    args = parser.parse_args()
    try:
        bounded(args.budget, MAX_BUDGET, "--budget")
        dilators = [parse_selector(selector) for selector in args.selectors]
    except SelectorError as err:
        parser.error(str(err))

    failed = 0
    for dilator in dilators:
        start = time.perf_counter()
        reports = run_suite(dilator, args.suite, args.budget)
        elapsed = time.perf_counter() - start
        print(f"== {dilator.name} ({elapsed:.2f}s)")
        for report in reports:
            print(report.format())
        failed += sum(not r.passed for r in reports)
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
