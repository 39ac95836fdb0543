#!/usr/bin/env python3
"""Print one JSON line (argv, exit code, stdout, stderr) per CLI request.

    python3 scripts/cli_snapshot.py [CHECKOUT] > snapshot.jsonl

Runs ``bhfix.cli.main`` in-process on a fixed list of 1447 requests: every
request of the three perfbench workloads at seeds 401 and 7, ``enumerate``
on 9 selectors x stages 0-6 x 9 budgets, ``verify --suite all`` on 7
selectors x budgets 0-7, with and without ``--break-naturality``, a
``compare`` and an ``interpret`` of each malformed term of the grammar's
error corpus (``ERROR_CORPUS`` in tests/test_syntax.py), and each
``compare`` and ``interpret`` of the ``cli-deep`` workload at seed 401
with whitespace spread through its terms.  The
program is imported from ``CHECKOUT/src`` (default: this checkout), so two
checkouts can be compared with ``diff`` on their snapshots.  A CHECKOUT
without ``src/bhfix`` is an error (exit 2), never a silent fallback to
whatever ``bhfix`` is importable.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKOUT = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT
if not (CHECKOUT / "src" / "bhfix").is_dir():
    print(f"error: {CHECKOUT} has no src/bhfix to import the program from", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
import workloads  # noqa: E402
from bhfix.cli import main  # noqa: E402
from test_syntax import ERROR_CORPUS, SPACES, spread_whitespace  # noqa: E402

ENUMERATE = ["successor", "identity", "constant:0", "constant:2", "constant:3", "omega",
             "sum(successor,omega)", "product(successor,constant:2)", "product(omega,successor)"]
VERIFY = workloads.BATTERY + ["constant:0"]


def requests():
    for seed in (401, 7):
        for name in workloads.WORKLOADS:
            yield from (r.argv for r in workloads.build(name, seed))
    for sel in ENUMERATE:
        for n in range(7):
            for b in (0, 1, 3, 5, 12, 13, 20, 40, 60):
                yield ["enumerate", "--dilator", sel, "--stages", str(n), "--budget", str(b)]
    for sel in VERIFY:
        for b in range(8):
            argv = ["verify", "--dilator", sel, "--suite", "all", "--budget", str(b)]
            yield from (argv, argv + ["--break-naturality"])
    for sel, text, _, _ in ERROR_CORPUS:
        yield ["compare", "--dilator", sel, text, text]
        yield ["interpret", "--dilator", sel, "--witness", "bh-self", text]
    for i, request in enumerate(workloads.build("cli-deep", 401)):
        ws = SPACES[i % len(SPACES)]
        yield [spread_whitespace(a, ws) if a.startswith("@") else a for a in request.argv]


for argv in requests():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue(),
                      "stderr": err.getvalue()}))
