#!/usr/bin/env python3
"""Print one JSON line (argv, exit code, stdout, stderr) per CLI request.

    python3 scripts/cli_snapshot.py [CHECKOUT] > snapshot.jsonl

Runs ``bhfix.cli.main`` in-process on a fixed list of 1547 requests: every
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
(``BH_BUDGET_DEFAULT`` is cleared), and last the 30 argv of ``ODD_ARGV``:
help requests, usage errors and other forms that argparse reads, so that
every help and usage message is compared too (``COLUMNS`` is set to 80, so
argparse wraps help the same in any terminal).  The program is imported from
``CHECKOUT/src`` (default: this checkout), so two checkouts can be compared
with ``diff`` on their snapshots.  A CHECKOUT
without ``src/bhfix`` is an error (exit 2), never a silent fallback to
whatever ``bhfix`` is importable.  Imported as a module it runs no request;
``requests()`` yields the argv of each request.
"""

import contextlib
import io
import json
import os
import sys
from itertools import combinations_with_replacement
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
import workloads  # noqa: E402

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

# argv of odd shapes: help requests, forms other than the plain one, which
# bhfix.cli._read_plain leaves to argparse, and plain argv close to them.
# Their lines pin argparse's help and usage messages byte for byte.
ODD_ARGV = {
    "option-between-positionals":
        ["compare", "@0:th(top)", "--dilator", "successor", "@1:th(v0;th(top))"],
    "options-after-positionals":
        ["interpret", "@1:th(v0;th(top))", "--witness", "omega-successor", "--dilator", "successor"],
    "flag-between-options":
        ["verify", "--suite", "laws", "--break-naturality", "--dilator", "successor", "--budget", "5"],
    "abbreviation": ["enumerate", "--dil", "successor", "--stages", "2"],
    "equals-form": ["enumerate", "--dilator=omega", "--stages", "2", "--budget", "3"],
    "repeated-budget":
        ["enumerate", "--dilator", "omega", "--stages", "2", "--budget", "3", "--budget", "4"],
    "repeated-flag":
        ["verify", "--dilator", "constant:3", "--break-naturality", "--budget", "4",
         "--break-naturality"],
    "double-dash": ["compare", "--dilator", "successor", "--", "@0:th(top)", "@0:th(top)"],
    "help-alone": ["-h"],
    "help-first": ["--help", "compare"],
    "help-after-command": ["compare", "-h"],
    "help-last": ["verify", "--dilator", "omega", "--help"],
    "help-as-value": ["enumerate", "--dilator", "-h", "--stages", "1"],
    "dash-value": ["compare", "--dilator", "-x", "@0:th(top)", "@0:th(top)"],
    "negative-budget": ["verify", "--dilator", "successor", "--budget", "-1"],
    "negative-positional": ["compare", "--dilator", "successor", "-1", "@0:th(top)"],
    "arabic-indic-budget": ["verify", "--dilator", "successor", "--budget", "٣"],
    "bad-suite": ["verify", "--dilator", "successor", "--suite", "bogus"],
    "bad-witness": ["interpret", "--dilator", "successor", "--witness", "nope", "@0:th(top)"],
    "missing-value": ["enumerate", "--dilator", "successor", "--stages"],
    "missing-option": ["enumerate", "--dilator", "successor"],
    "missing-positional": ["compare", "--dilator", "successor", "@0:th(top)"],
    "extra-positional":
        ["compare", "--dilator", "successor", "@0:th(top)", "@0:th(top)", "@0:th(top)"],
    "extra-positional-verify": ["verify", "--dilator", "successor", "laws"],
    "empty-term": ["interpret", "--dilator", "successor", ""],
    "empty-selector": ["compare", "--dilator", "", "@0:th(top)", "@0:th(top)"],
    "empty-command": [""],
    "unknown-command": ["frob", "--dilator", "successor"],
    "term-with-spaces": ["compare", "--dilator", "successor", "@1:th( v0 ; th(top) )", "@0:th(top)"],
    "empty-argv": [],
}


def requests():
    # imported here, so that run as a script the program is imported from
    # CHECKOUT first
    from test_syntax import ERROR_CORPUS, SPACES, spread_whitespace

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
    yield from ODD_ARGV.values()


if __name__ == "__main__":
    CHECKOUT = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT
    if not (CHECKOUT / "src" / "bhfix").is_dir():
        print(f"error: {CHECKOUT} has no src/bhfix to import the program from", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(CHECKOUT / "src"))
    from bhfix.cli import main

    os.environ.pop("BH_BUDGET_DEFAULT", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    for argv in requests():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        print(json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue(),
                          "stderr": err.getvalue()}))
