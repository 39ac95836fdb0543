#!/usr/bin/env python3
"""Mutation gate: does tier-1 catch each of a fixed list of one-line faults?

Each mutant replaces one exact piece of text, found exactly once, in one
source file, and states its expected verdict: ``killed``, or ``equivalent``
with a one-line reason why no test can tell it from the program.  The
script copies the checkout to a temporary directory, checks that tier-1
passes there unmutated, then applies one mutant at a time and runs tier-1
with ``-x``.  A mutant is killed when pytest fails.  It prints one row per
mutant and exits 1 when a verdict differs from the expected one (a
``killed`` mutant survives or an ``equivalent`` one is killed) or a mutant
no longer applies, 2 when tier-1 fails without a mutant.  A mutant that
makes tier-1 run past its timeout counts as killed.  Standard library only.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 900

# (name, file, old text, new text, expected verdict: "killed", or
# "equivalent: <reason>")
MUTANTS = [
    (
        "least-coded-exhaustive-off-by-one",
        "src/bhfix/dilator.py",
        "exhaustive and count <= k)",
        "exhaustive and count <= k + 1)",
        "killed",
    ),
    (
        "settled-bisects-at-first-support",
        "src/bhfix/limits.py",
        "bisect_right(ps, pt[-1]) if pt else 0",
        "bisect_right(ps, pt[0]) if pt else 0",
        "killed",
    ),
    (
        "token-table-never-hit",
        "src/bhfix/verify.py",
        "images = table.get(f)",
        "images = table.get(f.images)",
        "killed",
    ),
    (
        "tally-without-overflow",
        "src/bhfix/verify.py",
        "self.overflow += 1",
        "pass",
        "killed",
    ),
    (
        "sample-cache-as-plain-dict",
        "src/bhfix/verify.py",
        "= WeakKeyDictionary()",
        "= {}",
        "killed",
    ),
    (
        "stage-merges-in-limit",
        "src/bhfix/systems.py",
        "self.carrier_compare = base.compare if base is not None",
        "self.carrier_compare = tower.compare if base is not None",
        "killed",
    ),
    (
        "clause-loop-never-flips",
        "src/bhfix/systems.py",
        "                    verdict = -verdict\n",
        "                    verdict = verdict\n",
        "killed",
    ),
    (
        "clause-loop-checks-no-support",
        "src/bhfix/systems.py",
        "for x in low.body.support[settled:]:",
        "for x in ():",
        "killed",
    ),
    (
        "birth-guard-off-by-one",
        "src/bhfix/systems.py",
        "x.length > self.n + 1",
        "x.length > self.n + 2",
        "killed",
    ),
    (
        "minimality-fresh-map-per-element",
        "src/bhfix/verify.py",
        "images = [h(e) for e in elements]",
        "images = [interpretation(witness)(e) for e in elements]",
        "killed",
    ),
    (
        "omega-successor-any-arity-one",
        "src/bhfix/interpret.py",
        "coded.token == 0 and len(coded.support) == 1",
        "len(coded.support) == 1",
        "killed",
    ),
    (
        "verify-imported-eagerly",
        "src/bhfix/__init__.py",
        "from .syntax import format_bh, parse_bh\n",
        "from .syntax import format_bh, parse_bh\nfrom .verify import run_suite\n",
        "killed",
    ),
    (
        "tower-collapse-unchecked",
        "src/bhfix/limits.py",
        "if not is_strictly_sorted(coded.support, self.compare):",
        "if False:",
        "killed",
    ),
    (
        "parser-drops-strict-increase",
        "src/bhfix/syntax.py",
        "if tower.compare(a, b) >= 0:",
        "if False:",
        "killed",
    ),
    (
        "parser-trailing-input-before-build",
        "src/bhfix/syntax.py",
        '    events, stage0, end = _scan(text, _expect(text, pos, ":"), n)\n',
        '    events, stage0, end = _scan(text, _expect(text, pos, ":"), n)\n'
        "    if end < len(text):\n"
        '        raise TermSyntaxError(f"trailing input at position {end}")\n',
        "killed",
    ),
    (
        "limit-settles-every-support",
        "src/bhfix/limits.py",
        "return bisect_right(ps, pt[-1]) if pt else 0",
        "return len(ps)",
        "killed",
    ),
    (
        "token-table-as-plain-dict",
        "src/bhfix/dilator.py",
        "= WeakKeyDictionary()",
        "= {}",
        "killed",
    ),
    (
        "collapse-ii-allows-equal",
        "src/bhfix/verify.py",
        "if compare(x, value) >= 0",
        "if compare(x, value) > 0",
        "killed",
    ),
    (
        "collapse-i-premise-any",
        "src/bhfix/verify.py",
        "if all(compare(x, values[j]) < 0 for x in xs)",
        "if any(compare(x, values[j]) < 0 for x in xs)",
        "killed",
    ),
    (
        "terms-cap-raised",
        "src/bhfix/verify.py",
        "TERMS_CAP = 40 ",
        "TERMS_CAP = 41 ",
        "killed",
    ),
    (
        "sample-cap-lowered",
        "src/bhfix/verify.py",
        "SAMPLE_CAP = 30 ",
        "SAMPLE_CAP = 29 ",
        "killed",
    ),
    (
        "base-sample-cap-lowered",
        "src/bhfix/limits.py",
        "BASE_SAMPLE_CAP = 12",
        "BASE_SAMPLE_CAP = 11",
        "killed",
    ),
    (
        "max-order-lowered",
        "src/bhfix/verify.py",
        "MAX_ORDER = 4 ",
        "MAX_ORDER = 3 ",
        "killed",
    ),
    (
        "embedding-constructor-unvalidated",
        "src/bhfix/finite_orders.py",
        "        cls.__post_init__(f)\n",
        "",
        "killed",
    ),
    (
        "minimality-drops-xs1-flag",
        "src/bhfix/verify.py",
        "            report.exhaustive &= xs1.exhaustive\n",
        "",
        "equivalent: tower.enumerate(3, b) folds listing(3, b) unless the capped "
        "listings repeat, and then listing(3, b) equals a listing already folded",
    ),
]


def _ignore(directory: str, names: list[str]) -> set[str]:
    skipped = {"__pycache__", ".pytest_cache", ".hypothesis"}
    if Path(directory) == ROOT:
        skipped.add(".git")
    if Path(directory) == ROOT / "perfbench":
        skipped.add("out")
    return skipped & set(names)


def run_tier1(root: Path) -> tuple[bool, float, str]:
    """Tier-1 with -x in ``root``: (passed, seconds, first failing line).
    A run past ``TIMEOUT_S`` fails with the line ``timeout``."""
    # no bytecode is written, so a mutant and its restored original can
    # never share a stale .pyc
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, "timeout"
    elapsed = time.perf_counter() - start
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, elapsed, failed[0] if failed else ""


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bhfix-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        passed, elapsed, first = run_tier1(copy)
        print(f"unmutated tier-1: {'pass' if passed else 'FAIL'} in {elapsed:.1f}s", flush=True)
        if not passed:
            print(f"  {first}")
            return 2
        bad = 0
        print(f"{'mutant':36} {'expected':10} {'verdict':10} {'seconds':>7}  first failure or reason")
        for name, file, old, new, expected in MUTANTS:
            expect, _, reason = expected.partition(": ")
            path = copy / file
            original = path.read_text()
            if original.count(old) != 1:
                verdict, elapsed, first = "stale", 0.0, f"{old!r} is not in {file} exactly once"
            else:
                path.write_text(original.replace(old, new))
                try:
                    survived, elapsed, first = run_tier1(copy)
                finally:
                    path.write_text(original)
                verdict = "survived" if survived else "killed"
            wanted = "survived" if expect == "equivalent" else "killed"
            if verdict != wanted:
                bad += 1
                verdict = verdict.upper()
            row = f"{name:36} {expect:10} {verdict:10} {elapsed:7.1f}  {first or reason}"
            print(row, flush=True)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants as expected")
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
