"""Command-line front end.

Subcommands: ``enumerate`` lists canonical limit elements, ``compare``
orders two serialized elements, ``verify`` runs a check suite, and
``interpret`` evaluates an element in a collapse witness.  Output is
line-oriented UTF-8, one record per line; the environment variable
``BH_BUDGET_DEFAULT`` sets the default budget.

Exit codes: 0 success or all checks pass, 1 verification failure,
2 usage or parse error, 3 semantic mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dilator import Dilator, parse_nat
from .errors import (
    DilatorLawError,
    SelectorError,
    SystemDefectError,
    TermSyntaxError,
    TermTypeError,
    WitnessLawError,
)
from .interpret import OmegaSuccessorWitness, SelfWitness, embed_bh
from .limits import Tower
from .standard_dilators import (
    ConstantDilator,
    IdentityDilator,
    LexProductDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
    _split_args,
)
from .syntax import MAX_STAGE, format_bh, parse_bh
from .verify import SUITES, erase_supports, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SEMANTIC = 3

_VERDICT_NAMES = {-1: "LT", 0: "EQ", 1: "GT"}


def parse_selector(text: str) -> Dilator:
    """Selector grammar: name | name ":" nat | name "(" S "," S ")"."""
    text = text.strip()
    if "(" in text:
        name, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise SelectorError(f"unbalanced parentheses in selector {text!r}")
        try:
            parts = _split_args(rest[:-1])
        except TermSyntaxError as err:
            raise SelectorError(str(err)) from None
        if len(parts) != 2:
            raise SelectorError(f"selector {text!r} needs exactly two components")
        left, right = map(parse_selector, parts)
        if name.strip() == "sum":
            return SumDilator(left, right)
        if name.strip() == "product":
            return LexProductDilator(left, right)
        raise SelectorError(f"unknown combinator {name.strip()!r}")
    if ":" in text:
        name, _, arg = text.partition(":")
        if name.strip() != "constant":
            raise SelectorError(f"unknown parameterized dilator {name.strip()!r}")
        return ConstantDilator(natural(arg.strip(), "constant:<k>"))
    simple = {
        "successor": SuccessorDilator,
        "identity": IdentityDilator,
        "omega": OmegaPowerDilator,
    }
    if text in simple:
        return simple[text]()
    raise SelectorError(f"unknown dilator selector {text!r}")


def natural(text: str, what: str = "a count") -> int:
    """A natural number written in ASCII digits; anything else is a usage error."""
    return parse_nat(text, what, SelectorError)


def _default_budget() -> int:
    raw = os.environ.get("BH_BUDGET_DEFAULT")
    return 50 if raw is None else natural(raw, "BH_BUDGET_DEFAULT")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhfix",
        description="Enumerate, compare, verify and interpret minimal "
        "Bachmann-Howard fixed points of coded prae-dilators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list canonical limit elements")
    p_enum.add_argument("--dilator", required=True)
    p_enum.add_argument("--stages", type=natural, required=True)
    p_enum.add_argument("--budget", type=natural, default=None)
    p_enum.add_argument("--format", choices=("text", "lines"), default="text")

    p_cmp = sub.add_parser("compare", help="order two serialized elements")
    p_cmp.add_argument("--dilator", required=True)
    p_cmp.add_argument("term_a")
    p_cmp.add_argument("term_b")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--dilator", required=True)
    p_ver.add_argument("--suite", choices=SUITES, default="all")
    p_ver.add_argument("--budget", type=natural, default=None)
    p_ver.add_argument(
        "--break-naturality",
        action="store_true",
        help="test hook: erase all supports before checking; this fails unless "
        "the supports are already empty, as for constant dilators",
    )

    p_int = sub.add_parser("interpret", help="evaluate an element in a witness")
    p_int.add_argument("--dilator", required=True)
    p_int.add_argument("--witness", choices=("omega-successor", "bh-self"),
                       default="omega-successor")
    p_int.add_argument("term")
    return parser


def _cmd_enumerate(args) -> int:
    dilator = parse_selector(args.dilator)
    if args.stages > MAX_STAGE:
        raise SelectorError(f"--stages {args.stages} exceeds the supported bound {MAX_STAGE}")
    budget = args.budget if args.budget is not None else _default_budget()
    tower = Tower(dilator)
    listed = tower.enumerate(args.stages, budget)
    for e in listed:
        print(format_bh(dilator, e))
    if args.format == "text":
        flag = "true" if listed.exhaustive else "false"
        print(f"exhaustive={flag} count={len(listed)}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    dilator = parse_selector(args.dilator)
    tower = Tower(dilator)
    a = parse_bh(tower, args.term_a)
    b = parse_bh(tower, args.term_b)
    print(_VERDICT_NAMES[tower.compare(a, b)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    dilator = parse_selector(args.dilator)
    if args.break_naturality:
        dilator = erase_supports(dilator)
    budget = args.budget if args.budget is not None else _default_budget()
    try:
        reports = run_suite(dilator, args.suite, budget)
    except (DilatorLawError, SystemDefectError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    for report in reports:
        print(report.format())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _cmd_interpret(args) -> int:
    dilator = parse_selector(args.dilator)
    tower = Tower(dilator)
    if args.witness == "omega-successor":
        if dilator.name != "successor":
            raise TermTypeError(
                "the omega-successor witness only collapses the successor dilator"
            )
        witness = OmegaSuccessorWitness()
    else:
        witness = SelfWitness(tower)
    element = parse_bh(tower, args.term)
    print(witness.format(embed_bh(witness, element)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "enumerate": _cmd_enumerate,
        "compare": _cmd_compare,
        "verify": _cmd_verify,
        "interpret": _cmd_interpret,
    }
    try:
        return handlers[args.command](args)
    except (SelectorError, TermSyntaxError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except (TermTypeError, WitnessLawError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
