"""Command-line front end.

Subcommands: ``enumerate`` lists canonical limit elements, ``compare``
orders two serialized elements, ``verify`` runs a check suite, and
``interpret`` evaluates an element in a collapse witness.  Output is
line-oriented UTF-8, one record per line; the environment variable
``BH_BUDGET_DEFAULT`` sets the default budget.  A budget above
``MAX_BUDGET`` or a ``--stages`` above ``MAX_STAGE`` is a usage error.
``_COMMANDS`` is the one declaration of the command line.  A plain argv
is read from it by ``_read_plain`` without importing argparse; for every
other form ``_build_parser`` builds argparse's parser from the same table,
and argparse reads the argv and writes every help and usage message.

Exit codes: 0 success or all checks pass, 1 verification failure,
2 usage or parse error, 3 semantic mismatch.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from . import SUITES
from .dilator import Dilator, parse_nat
from .errors import (
    DilatorLawError,
    SelectorError,
    SystemDefectError,
    TermSyntaxError,
    TermTypeError,
    WitnessLawError,
)
from .interpret import OmegaSuccessorWitness, embed_bh
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

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SEMANTIC = 3

_VERDICT_NAMES = {-1: "LT", 0: "EQ", 1: "GT"}

# The largest budget the CLI and scripts/run_checks.py accept.  The omega
# token sample grows with the square of the budget: at 500, ``verify --suite
# all`` takes up to 5 s and 80 MB on the battery selectors (2-vCPU VM).
MAX_BUDGET = 500


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


def bounded(value: int, bound: int, what: str) -> int:
    """``value``, or a usage error naming ``what`` when it exceeds ``bound``."""
    if value > bound:
        raise SelectorError(f"{what} {value} exceeds the supported bound {bound}")
    return value


def _budget(args) -> int:
    """The request's budget: ``--budget``, else ``BH_BUDGET_DEFAULT``, else 50."""
    if args.budget is not None:
        return bounded(args.budget, MAX_BUDGET, "--budget")
    budget = natural(os.environ.get("BH_BUDGET_DEFAULT", "50"), "BH_BUDGET_DEFAULT")
    return bounded(budget, MAX_BUDGET, "BH_BUDGET_DEFAULT")


# The command line, declared once: subcommand -> (help line, options,
# positionals).  Each option maps its flag to (dest, type, choices, default,
# required, help); a flag whose type is ``bool`` takes no value and stores
# True.  ``_read_plain`` reads a plain argv from this table and
# ``_build_parser`` builds argparse's parser from it for every other argv.
_COMMANDS = {
    "enumerate": ("list canonical limit elements", {
        "--dilator": ("dilator", str, None, None, True, None),
        "--stages": ("stages", natural, None, None, True, None),
        "--budget": ("budget", natural, None, None, False, None),
        "--format": ("format", str, ("text", "lines"), "text", False, None),
    }, ()),
    "compare": ("order two serialized elements", {
        "--dilator": ("dilator", str, None, None, True, None),
    }, ("term_a", "term_b")),
    "verify": ("run a verification suite", {
        "--dilator": ("dilator", str, None, None, True, None),
        "--suite": ("suite", str, SUITES, "all", False, None),
        "--budget": ("budget", natural, None, None, False, None),
        "--break-naturality": (
            "break_naturality", bool, None, False, False,
            "test hook: erase all supports before checking; this fails unless "
            "the supports are already empty, as for constant dilators",
        ),
    }, ()),
    "interpret": ("evaluate an element in a witness", {
        "--dilator": ("dilator", str, None, None, True, None),
        "--witness": ("witness", str, ("omega-successor", "bh-self"), "omega-successor",
                      False, None),
    }, ("term",)),
}


@functools.cache
def _build_parser():
    # argparse's parser for the argv ``_read_plain`` refuses, built from
    # ``_COMMANDS`` on the first such call and reused by later in-process
    # calls; ``parse_args`` leaves the parser unchanged.
    import argparse

    parser = argparse.ArgumentParser(
        prog="bhfix",
        description="Enumerate, compare, verify and interpret minimal "
        "Bachmann-Howard fixed points of coded prae-dilators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options, positionals) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, (dest, kind, choices, default, required, help_) in options.items():
            action = ({"action": "store_true"} if kind is bool
                      else {"type": kind, "choices": choices})
            command.add_argument(flag, dest=dest, default=default, required=required,
                                 help=help_, **action)
        for dest in positionals:
            command.add_argument(dest)
    return parser


def _read_plain(argv):
    """The namespace argparse gives for a plain argv, else None.

    Plain: a subcommand, then each of its options at most once as ``--opt
    value`` or a flag and exactly its positionals, in any order, with no
    value or positional that starts with ``-`` and each value passing its
    option's type and choices.  Read from ``_COMMANDS`` without argparse;
    ``None`` sends every other argv to argparse, which then writes each
    help and usage message itself.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, options, positionals = command
    values, given = {"command": argv[0]}, []
    i, n = 1, len(argv)
    while i < n:
        arg = argv[i]
        i += 1
        if arg[:1] != "-":
            given.append(arg)
            continue
        option = options.get(arg)
        if option is None or option[0] in values:
            return None
        dest, kind, choices, _, _, _ = option
        if kind is bool:
            values[dest] = True
            continue
        if i == n or argv[i][:1] == "-":
            return None
        try:
            value = kind(argv[i])
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 1
    if len(given) != len(positionals):
        return None
    for dest, _, _, default, required, _ in options.values():
        if dest not in values:
            if required:
                return None
            values[dest] = default
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _cmd_enumerate(args) -> int:
    dilator = parse_selector(args.dilator)
    bounded(args.stages, MAX_STAGE, "--stages")
    budget = _budget(args)
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
    # Imported here, not at module level, so that the other commands never
    # load the checks.
    from .verify import erase_supports, run_suite

    dilator = parse_selector(args.dilator)
    if args.break_naturality:
        dilator = erase_supports(dilator)
    budget = _budget(args)
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
    # bh-self is the limit itself
    tower = witness = Tower(dilator)
    if args.witness == "omega-successor":
        if dilator.name != "successor":
            raise TermTypeError(
                "the omega-successor witness only collapses the successor dilator"
            )
        witness = OmegaSuccessorWitness()
    element = parse_bh(tower, args.term)
    print(witness.format(embed_bh(witness, element)))
    return EXIT_OK


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
    "interpret": _cmd_interpret,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
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
