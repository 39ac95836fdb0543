#!/usr/bin/env python3
"""Print one JSON line (argv, exit code, stdout, stderr) per CLI request.

    python3 scripts/cli_snapshot.py [CHECKOUT] > snapshot.jsonl

Runs ``bhfix.cli.main`` in-process on a fixed list of 1503 requests: every
request of the three perfbench workloads at seeds 401 and 7, ``enumerate``
on 9 selectors x stages 0-6 x 9 budgets, ``verify --suite all`` on 7
selectors x budgets 0-7, with and without ``--break-naturality``, a
``compare`` and an ``interpret`` of each malformed term of the grammar's
error corpus (``ERROR_CORPUS`` in tests/test_syntax.py), each ``compare``
and ``interpret`` of the ``cli-deep`` workload at seed 401 with whitespace
spread through its terms, a ``compare`` of every pair (equal ones too) and
an ``interpret --witness bh-self`` of each of six elements of each of two
product selectors (``PRODUCT_ELEMENTS``), and one ``enumerate`` and one
``verify`` without ``--budget``, which read the default budget of 50
(``BH_BUDGET_DEFAULT`` is cleared).  The program is imported from
``CHECKOUT/src`` (default: this checkout), so two checkouts can be compared
with ``diff`` on their snapshots.  A CHECKOUT
without ``src/bhfix`` is an error (exit 2), never a silent fallback to
whatever ``bhfix`` is importable.
"""

import contextlib
import io
import json
import os
import sys
from itertools import combinations_with_replacement
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
# valid product tokens, some with a comma inside brackets (w[0,0])
PRODUCT_ELEMENTS = {
    "product(successor,constant:2)": [
        "@0:th(P(top,c0))",
        "@0:th(P(top,c1))",
        "@1:th(P(v0,c1);th(P(top,c0)))",
        "@1:th(P(v0,c0);th(P(top,c1)))",
        "@2:th(P(v0,c0);th(P(v0,c1);th(P(top,c0))))",
        "@2:th(P(v0,c1);th(P(v0,c1);th(P(top,c0))))",
    ],
    "product(omega,successor)": [
        "@0:th(P(w[],top))",
        "@1:th(P(w[0],v0);th(P(w[],top)))",
        "@1:th(P(w[0,0],v0);th(P(w[],top)))",
        "@1:th(P(w[0,0,0],top);th(P(w[],top)))",
        "@2:th(P(w[],v0);th(P(w[0],v0);th(P(w[],top))))",
        "@2:th(P(w[0],v1);th(P(w[],top)),th(P(w[0],v0);th(P(w[],top))))",
    ],
}


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
    for sel, elements in PRODUCT_ELEMENTS.items():
        for a, b in combinations_with_replacement(elements, 2):
            yield ["compare", "--dilator", sel, a, b]
        for a in elements:
            yield ["interpret", "--dilator", sel, "--witness", "bh-self", a]
    yield ["enumerate", "--dilator", "product(omega,successor)", "--stages", "3"]
    yield ["verify", "--dilator", "product(omega,successor)"]


os.environ.pop("BH_BUDGET_DEFAULT", None)
for argv in requests():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue(),
                      "stderr": err.getvalue()}))
