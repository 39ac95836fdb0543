"""Command-line front end.

Subcommands: ``enumerate`` lists canonical limit elements, ``compare``
orders two serialized elements, ``verify`` runs a check suite, and
``interpret`` evaluates an element in a collapse witness.  Output is
line-oriented UTF-8, one record per line; the environment variable
``BH_BUDGET_DEFAULT`` sets the default budget.  A budget above
``MAX_BUDGET`` or a ``--stages`` above ``MAX_STAGE`` is a usage error.
A plain argv (``_read_plain``) is read directly from a table of the
parser's actions; argparse reads every other form and writes every help
and usage message.

Exit codes: 0 success or all checks pass, 1 verification failure,
2 usage or parse error, 3 semantic mismatch.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first ``main`` call and reused by later in-process calls;
    # ``parse_args`` leaves the parser unchanged.
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


@functools.cache
def _plain_table() -> dict:
    # subcommand -> (its options by option string, its positionals, the
    # defaults of its options, the dests of its required options), read from
    # the actions of ``_build_parser`` on the first ``main`` call.  A
    # subcommand with an action of another kind is left out, so argparse
    # reads all of its argv.
    (sub,) = (a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        if all(type(a) is argparse._StoreAction and a.nargs is None
               or isinstance(a, argparse._StoreConstAction) for a in actions):
            options = {s: a for a in actions for s in a.option_strings}
            table[name] = (
                options,
                [a for a in actions if not a.option_strings],
                {a.dest: a.default for a in options.values()},
                {a.dest for a in options.values() if a.required},
            )
    return table


def _plain_value(action, text: str):
    # ``text`` through the action's ``type``, then its ``choices``; either
    # refusal raises one of the errors argparse turns into a usage message
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _read_plain(argv):
    """The namespace ``parse_args(argv)`` gives for a plain argv, else None.

    Plain: a subcommand, then each of its options at most once as ``--opt
    value`` or a flag and exactly its positionals, in any order, with no
    value or positional that starts with ``-`` and each value passing its
    option's ``type`` and ``choices``.  ``None`` sends every other argv to
    argparse, which then writes each help and usage message itself.
    """
    spec = _plain_table().get(argv[0]) if argv else None
    if spec is None:
        return None
    options, positionals, defaults, required = spec
    values, given = {}, []
    i, n = 1, len(argv)
    try:
        while i < n:
            arg = argv[i]
            i += 1
            if arg[:1] != "-":
                given.append(arg)
                continue
            action = options.get(arg)
            if action is None or action.dest in values:
                return None
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            if i == n or argv[i][:1] == "-":
                return None
            values[action.dest] = _plain_value(action, argv[i])
            i += 1
        if len(given) != len(positionals) or not required <= values.keys():
            return None
        for action, text in zip(positionals, given):
            values[action.dest] = _plain_value(action, text)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(command=argv[0], **{**defaults, **values})


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
            args = _build_parser().parse_args(argv)
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
