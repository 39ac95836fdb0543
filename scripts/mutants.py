#!/usr/bin/env python3
"""Mutation gate: does tier-1 catch each of a fixed list of one-line faults?

Each mutant replaces one exact piece of text, found exactly once, in one
source file, names the test file that kills it, and states its expected
verdict: ``killed``, or ``equivalent`` with a one-line reason why no test
can tell it from the program.  The script copies the checkout to a
temporary directory, checks that tier-1 passes there unmutated, then
applies one mutant at a time and runs its killing file with ``-x``, and
the whole of tier-1 with ``-x`` only when that file passes.  A mutant is
killed when pytest fails.  It prints one row per mutant and exits 1 when
a verdict differs from the expected one (a ``killed`` mutant survives or
an ``equivalent`` one is killed) or a mutant no longer applies, 2 when
tier-1 fails without a mutant.  A mutant that makes tier-1 run past its
timeout counts as killed.  Standard library only.

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

# (name, file, killing test file, old text, new text, expected verdict:
# "killed", or "equivalent: <reason>")
#
# Retired: "sample-cache-as-plain-dict" and "token-table-as-plain-dict"
# held the coded samples and the token tables in plain dicts instead of
# weakly keyed ones.  Both now live on the tower, and die with it, so no
# module-level cache is left to mutate.
MUTANTS = [
    (
        "merge-tie-strict",
        "src/bhfix/dilator.py",
        "tests/test_dilator.py",
        "            if c <= 0:\n",
        "            if c < 0:\n",
        "killed",
    ),
    (
        "single-merge-positions-swapped",
        "src/bhfix/dilator.py",
        "tests/test_dilator.py",
        "p1, p2, n = (1,), (0,), 2",
        "p1, p2, n = (0,), (1,), 2",
        "killed",
    ),
    (
        "body-verdict-flipped-at-arity-2",
        "src/bhfix/dilator.py",
        "tests/test_differential.py",
        "    verdict = dilator.compare_at(n, t1, t2)\n",
        "    verdict = dilator.compare_at(n, t1, t2) * (-1 if n == 2 else 1)\n",
        "killed",
    ),
    (
        "skipped-table-flag-never-read",
        "src/bhfix/dilator.py",
        "tests/test_systems.py",
        "                listed_all = dilator.sample_at(a, budget).exhaustive\n",
        "                listed_all = False\n",
        "killed",
    ),
    (
        "least-coded-exhaustive-off-by-one",
        "src/bhfix/dilator.py",
        "tests/test_dilator.py",
        "exhaustive and count <= k)",
        "exhaustive and count <= k + 1)",
        "killed",
    ),
    (
        "selector-prunes-without-gate",
        "src/bhfix/dilator.py",
        "tests/test_systems.py",
        "if monotone and tok is t0:",
        "if tok is t0:",
        "killed",
    ),
    (
        "selector-ends-arity-at-first-miss",
        "src/bhfix/dilator.py",
        "tests/test_verify.py",
        "                if not p:\n",
        "                if True:\n",
        "killed",
    ),
    (
        "selector-appends-without-compare",
        "src/bhfix/dilator.py",
        "tests/test_dilator.py",
        "                if kept and order(v, kept[-1]) < 0:\n",
        "                if False:\n",
        "killed",
    ),
    (
        "selector-bisects-every-value",
        "src/bhfix/dilator.py",
        "tests/test_dilator.py",
        "                if kept and order(v, kept[-1]) < 0:\n",
        "                if len(kept) < k or order(v, kept[-1]) < 0:\n",
        "killed",
    ),
    (
        "enumerate-builds-last-capped-listing",
        "src/bhfix/limits.py",
        "tests/test_limits.py",
        "if n < stage_bound and self.listing(n, cap)",
        "if self.listing(n, cap)",
        "killed",
    ),
    (
        "settled-bisects-at-first-support",
        "src/bhfix/limits.py",
        "tests/test_limits.py",
        "bisect_right(ps, pt[-1]) if pt else 0",
        "bisect_right(ps, pt[0]) if pt else 0",
        "killed",
    ),
    (
        "token-table-never-hit",
        "src/bhfix/verify.py",
        "tests/test_verify.py",
        "images = table.get(f)",
        "images = table.get(f.images)",
        "killed",
    ),
    (
        "tally-without-overflow",
        "src/bhfix/verify.py",
        "tests/test_golden.py",
        "self.overflow += 1",
        "pass",
        "killed",
    ),
    (
        "stage-merges-in-limit",
        "src/bhfix/systems.py",
        "tests/test_limits.py",
        "        self.carrier_compare = self.compare\n",
        "        self.carrier_compare = tower.compare\n",
        "killed",
    ),
    (
        "full-order-shares-limit-memo",
        "src/bhfix/limits.py",
        "tests/test_limits.py",
        "        self.full_order = System(self)\n",
        "        self.full_order = System(self)\n        self.full_order._memo = self._memo\n",
        "killed",
    ),
    (
        "clause-loop-never-flips",
        "src/bhfix/systems.py",
        "tests/test_acceptance.py",
        "                    verdict = -verdict\n",
        "                    verdict = verdict\n",
        "killed",
    ),
    (
        "clause-loop-checks-no-support",
        "src/bhfix/systems.py",
        "tests/test_acceptance.py",
        "for x in low.body.support[settled:]:",
        "for x in ():",
        "killed",
    ),
    (
        "structural-length-off-by-one",
        "src/bhfix/systems.py",
        "tests/test_systems.py",
        "1 + max(",
        "2 + max(",
        "killed",
    ),
    (
        "birth-guard-off-by-one",
        "src/bhfix/systems.py",
        "tests/test_limits.py",
        "x.length > self.n + 1",
        "x.length > self.n + 2",
        "killed",
    ),
    (
        "minimality-fresh-map-per-element",
        "src/bhfix/verify.py",
        "tests/test_verify.py",
        "images = [h(e) for e in elements]",
        "images = [interpretation(witness)(e) for e in elements]",
        "killed",
    ),
    (
        "omega-successor-any-arity-one",
        "src/bhfix/interpret.py",
        "tests/test_interpret.py",
        "coded.token == 0 and len(coded.support) == 1",
        "len(coded.support) == 1",
        "killed",
    ),
    (
        "interpretation-supports-unreversed",
        "src/bhfix/interpret.py",
        "tests/test_interpret.py",
        "for x in reversed(support))",
        "for x in support)",
        "killed",
    ),
    (
        "bh-self-identity-for-every-witness",
        "src/bhfix/cli.py",
        "tests/test_cli.py",
        "image = element if witness is tower else",
        "image = element if True else",
        "killed",
    ),
    (
        "verify-imported-eagerly",
        "src/bhfix/__init__.py",
        "tests/test_cli.py",
        "from .syntax import format_bh, parse_bh\n",
        "from .syntax import format_bh, parse_bh\nfrom .verify import run_suite\n",
        "killed",
    ),
    (
        "select-cap-one-past",
        "src/bhfix/limits.py",
        "tests/test_limits.py",
        "if len(carrier) > cap:",
        "if len(carrier) > cap + 1:",
        "killed",
    ),
    (
        "select-skips-unsorted-diagnosis",
        "src/bhfix/limits.py",
        "tests/test_verify.py",
        "if not is_strictly_sorted(carrier.items, cmp):",
        "if False:",
        "killed",
    ),
    (
        "dilator-laws-skip-support-bound",
        "src/bhfix/verify.py",
        "tests/test_verify.py",
        "len(supp) <= bound,",
        "True,",
        "killed",
    ),
    (
        "tower-collapse-unchecked",
        "src/bhfix/limits.py",
        "tests/test_limits.py",
        "if not is_strictly_sorted(coded.support, self.compare):",
        "if False:",
        "killed",
    ),
    (
        "tower-collapse-skips-full-support",
        "src/bhfix/limits.py",
        "tests/test_limits.py",
        "if supp != tuple(range(k)):",
        "if False:",
        "killed",
    ),
    (
        "tower-sample-two-stages",
        "src/bhfix/limits.py",
        "tests/test_interpret.py",
        "least(self.enumerate(LIMIT_STAGES, budget), budget, self.compare)",
        "least(self.enumerate(LIMIT_STAGES - 1, budget), budget, self.compare)",
        "killed",
    ),
    (
        "tower-format-drops-stage",
        "src/bhfix/limits.py",
        "tests/test_cli.py",
        "return format_bh(self.dilator, e)\n",
        'return format_bh(self.dilator, e).partition(":")[2]\n',
        "killed",
    ),
    (
        "order-reversed-above-omega",
        "src/bhfix/systems.py",
        "tests/test_differential.py",
        "        return verdict\n",
        "        return -verdict if s.length > 2 and t.length > 2 else verdict\n",
        "killed",
    ),
    (
        "parser-drops-strict-increase",
        "src/bhfix/syntax.py",
        "tests/test_syntax.py",
        "if tower.compare(a, b) >= 0:",
        "if False:",
        "killed",
    ),
    (
        "parser-trailing-input-before-build",
        "src/bhfix/syntax.py",
        "tests/test_syntax.py",
        '    events, stage0, end = _scan(text, _expect(text, pos, ":"), n)\n',
        '    events, stage0, end = _scan(text, _expect(text, pos, ":"), n)\n'
        "    if end < len(text):\n"
        '        raise TermSyntaxError(f"trailing input at position {end}")\n',
        "killed",
    ),
    (
        "level-pattern-reads-whitespace",
        "src/bhfix/syntax.py",
        "tests/test_syntax.py",
        '_LEVEL = re.compile(r"th\\(([^;()\\[\\]\\s]+)',
        '_LEVEL = re.compile(r"th\\(([^;()\\[\\]]+)',
        "killed",
    ),
    (
        "closer-run-swallows-trailing-input",
        "src/bhfix/syntax.py",
        "tests/test_syntax.py",
        "_skip_ws(text, pos - closers + run)",
        "_skip_ws(text, pos)",
        "killed",
    ),
    (
        "unary-run-stage-off-by-one",
        "src/bhfix/syntax.py",
        "tests/test_syntax.py",
        "depth <= n < depth + opened",
        "depth < n < depth + opened",
        "killed",
    ),
    (
        "omega-entries-allow-leading-zero",
        "src/bhfix/standard_dilators.py",
        "tests/test_syntax.py",
        "(?:(?:0|[1-9][0-9]{{0,{MAX_DIGITS - 1}}}),)+",
        "(?:[0-9]{{1,{MAX_DIGITS}}},)+",
        "killed",
    ),
    (
        "limit-settles-every-support",
        "src/bhfix/limits.py",
        "tests/test_acceptance.py",
        "return bisect_right(ps, pt[-1]) if pt else 0",
        "return len(ps)",
        "killed",
    ),
    (
        "omega-block-unreversed",
        "src/bhfix/standard_dilators.py",
        "tests/test_standard_dilators.py",
        "            block.reverse()\n",
        "",
        "killed",
    ),
    (
        "product-diagonal-i-descending",
        "src/bhfix/standard_dilators.py",
        "tests/test_standard_dilators.py",
        "for i in range(max(0, d - len(rs) + 1), min(d + 1, len(ls)))",
        "for i in reversed(range(max(0, d - len(rs) + 1), min(d + 1, len(ls))))",
        "killed",
    ),
    (
        "omega-support-bound-one-short",
        "src/bhfix/standard_dilators.py",
        "tests/test_standard_dilators.py",
        "return min(n, length)",
        "return min(n, length - 1)",
        "killed",
    ),
    (
        "product-support-bound-takes-max",
        "src/bhfix/standard_dilators.py",
        "tests/test_standard_dilators.py",
        "return min(n, self.left.support_bound(n, budget) + self.right.support_bound(n, budget))",
        "return min(n, max(self.left.support_bound(n, budget), self.right.support_bound(n, budget)))",
        "killed",
    ),
    (
        "sum-interleave-starts-right",
        "src/bhfix/standard_dilators.py",
        "tests/test_standard_dilators.py",
        "for pair in zip(left, right)",
        "for pair in zip(right, left)",
        "killed",
    ),
    (
        "collapse-ii-allows-equal",
        "src/bhfix/verify.py",
        "tests/test_interpret.py",
        "if compare(x, value) >= 0",
        "if compare(x, value) > 0",
        "killed",
    ),
    (
        "collapse-i-premise-any",
        "src/bhfix/verify.py",
        "tests/test_verify.py",
        "if all(compare(x, values[j]) < 0 for x in xs)",
        "if any(compare(x, values[j]) < 0 for x in xs)",
        "killed",
    ),
    (
        "terms-cap-raised",
        "src/bhfix/limits.py",
        "tests/test_verify.py",
        "TERMS_CAP = 40 ",
        "TERMS_CAP = 41 ",
        "killed",
    ),
    (
        "sample-cap-lowered",
        "src/bhfix/limits.py",
        "tests/test_cli.py",
        "SAMPLE_CAP = 30 ",
        "SAMPLE_CAP = 29 ",
        "killed",
    ),
    (
        "base-sample-cap-lowered",
        "src/bhfix/limits.py",
        "tests/test_dilator.py",
        "BASE_SAMPLE_CAP = 12",
        "BASE_SAMPLE_CAP = 11",
        "killed",
    ),
    (
        "max-order-lowered",
        "src/bhfix/verify.py",
        "tests/test_cli.py",
        "MAX_ORDER = 4 ",
        "MAX_ORDER = 3 ",
        "killed",
    ),
    (
        "embedding-constructor-unvalidated",
        "src/bhfix/finite_orders.py",
        "tests/test_dilator.py",
        "        cls.__post_init__(f)\n",
        "",
        "killed",
    ),
    (
        "plain-reader-skips-choices",
        "src/bhfix/cli.py",
        "tests/test_cli.py",
        "if choices is not None and value not in choices:",
        "if False:",
        "killed",
    ),
    (
        "plain-reader-takes-dash-value",
        "src/bhfix/cli.py",
        "tests/test_cli.py",
        'if i == n or argv[i][:1] == "-":',
        "if i == n:",
        "killed",
    ),
    (
        "parser-builder-drops-choices",
        "src/bhfix/cli.py",
        "tests/test_cli.py",
        '{"type": kind, "choices": choices}',
        '{"type": kind}',
        "killed",
    ),
    (
        "minimality-drops-xs1-flag",
        "src/bhfix/verify.py",
        "tests/test_verify.py",
        "                report.exhaustive &= xs1.exhaustive\n",
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


def run_tier1(root: Path, *tests: str) -> tuple[bool, float, str]:
    """Tier-1 with -x in ``root``, or only its ``tests`` files: (passed,
    seconds, first failing line).  A run past ``TIMEOUT_S`` fails with the
    line ``timeout``."""
    # no bytecode is written, so a mutant and its restored original can
    # never share a stale .pyc
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *TIER1, *tests], cwd=root, env=env, capture_output=True,
            text=True, timeout=TIMEOUT_S,
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
        for name, file, killer, old, new, expected in MUTANTS:
            expect, _, reason = expected.partition(": ")
            path = copy / file
            original = path.read_text()
            if original.count(old) != 1:
                verdict, elapsed, first = "stale", 0.0, f"{old!r} is not in {file} exactly once"
            elif not (copy / killer).is_file():
                verdict, elapsed, first = "stale", 0.0, f"{killer} does not exist"
            else:
                path.write_text(original.replace(old, new))
                try:
                    survived, elapsed, first = run_tier1(copy, killer)
                    if survived:
                        survived, rest, first = run_tier1(copy)
                        elapsed += rest
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
