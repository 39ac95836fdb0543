"""Command-line contract: outputs, exit codes, environment knobs."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bhfix import cli
from bhfix.cli import MAX_BUDGET, main, parse_selector
from bhfix.errors import SelectorError

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_successor_exact_output(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dilator", "successor", "--stages", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == [
        "@0:th(top)",
        "@1:th(v0;th(top))",
        "@2:th(v0;th(v0;th(top)))",
    ]
    assert lines[3] == "exhaustive=true count=3"


def test_enumerate_zero_stages_trailer_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dilator", "successor", "--stages", "0")
    assert code == 0
    assert out.splitlines() == ["exhaustive=true count=0"]


def test_enumerate_omega_budgeted(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--dilator", "omega", "--stages", "2", "--budget", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "@0:th(w[])"
    assert len([l for l in lines if l.startswith("@1:")]) == 2
    assert lines[-1].startswith("exhaustive=false")


def test_enumerate_lines_format_has_no_trailer(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--dilator", "successor", "--stages", "2",
        "--format", "lines",
    )
    assert code == 0
    assert out.splitlines() == ["@0:th(top)", "@1:th(v0;th(top))"]


def test_compare_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--dilator", "successor",
        "@0:th(top)", "@1:th(v0;th(top))",
    )
    assert (code, out.strip()) == (0, "LT")
    code, out, _ = run_cli(
        capsys, "compare", "--dilator", "successor", "@0:th(top)", "@0:th(top)"
    )
    assert (code, out.strip()) == (0, "EQ")
    code, out, _ = run_cli(
        capsys, "compare", "--dilator", "omega",
        "@1:th(w[0];th(w[]))", "@1:th(w[0,0];th(w[]))",
    )
    assert (code, out.strip()) == (0, "LT")


def test_compare_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "compare", "--dilator", "successor", "@0:th(top)", "junk")
    assert code == 2
    assert "error" in err


def test_compare_type_error_exit_3(capsys):
    code, _, _ = run_cli(
        capsys, "compare", "--dilator", "successor",
        "@0:th(v0;th(top))", "@0:th(top)",
    )
    assert code == 3
    code, _, err = run_cli(
        capsys, "compare", "--dilator", "omega", "@0:th(w[0])", "@0:th(w[])"
    )
    assert code == 3 and "w[0] has an entry not below 0" in err


def test_bad_selector_exit_2(capsys):
    for selector in ["frob", "sum(successor,omega,identity)"]:
        code, _, err = run_cli(capsys, "enumerate", "--dilator", selector, "--stages", "1")
        assert code == 2 and "selector" in err


def test_selector_grammar():
    assert parse_selector("constant:4").name == "constant:4"
    nested = parse_selector("sum(product(successor,constant:2),omega)")
    assert nested.name == "sum(product(successor,constant:2),omega)"
    for bad in ["", "constant:x", "sum(successor)", "mix(a,b)", "constant",
                "sum(successor,omega,identity)", "sum(successor),omega)"]:
        with pytest.raises(SelectorError):
            parse_selector(bad)


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--dilator", "successor", "--suite", "laws"
    )
    assert code == 0
    assert "CHECK dilator-laws pass" in out
    code, out, _ = run_cli(
        capsys, "verify", "--dilator", "successor", "--suite", "laws",
        "--break-naturality",
    )
    assert code == 1
    assert "fail" in out


@pytest.mark.parametrize("selector, code", [("constant:3", 0), ("identity", 1)])
def test_break_naturality_fails_unless_supports_are_empty(capsys, selector, code):
    # constant dilators have empty supports, so erasing them changes nothing
    argv = ["verify", "--dilator", selector, "--suite", "all", "--budget", "6"]
    assert run_cli(capsys, *argv, "--break-naturality")[0] == code


def test_verify_bad_suite_exit_2(capsys):
    code = main(["verify", "--dilator", "successor", "--suite", "nonsense"])
    capsys.readouterr()
    assert code == 2


def test_interpret_values(capsys):
    for term, expected in [
        ("@0:th(top)", "0"),
        ("@1:th(v0;th(top))", "1"),
        ("@2:th(v0;th(v0;th(top)))", "2"),
    ]:
        code, out, _ = run_cli(
            capsys, "interpret", "--dilator", "successor",
            "--witness", "omega-successor", term,
        )
        assert (code, out.strip()) == (0, expected)


def test_interpret_witness_mismatch_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "interpret", "--dilator", "omega",
        "--witness", "omega-successor", "@0:th(w[])",
    )
    assert code == 3 and "witness" in err


def test_interpret_self_witness(capsys):
    code, out, _ = run_cli(
        capsys, "interpret", "--dilator", "omega", "--witness", "bh-self",
        "@1:th(w[0];th(w[]))",
    )
    assert (code, out.strip()) == (0, "@1:th(w[0];th(w[]))")


def test_budget_env_default(capsys, monkeypatch):
    monkeypatch.setenv("BH_BUDGET_DEFAULT", "3")
    code, out, _ = run_cli(capsys, "enumerate", "--dilator", "omega", "--stages", "2")
    assert code == 0
    assert out.splitlines()[-1] == "exhaustive=false count=3"
    monkeypatch.setenv("BH_BUDGET_DEFAULT", "nope")
    code, _, err = run_cli(capsys, "enumerate", "--dilator", "omega", "--stages", "2")
    assert code == 2 and "BH_BUDGET_DEFAULT" in err


@pytest.mark.parametrize(
    "digits", ["²", "٣", "+3", pytest.param("1" * 5000, id="5000-digits")]
)
def test_non_ascii_digits_are_usage_errors(capsys, monkeypatch, digits):
    # str.isdigit accepts "²" and int() accepts "٣"; neither is a count here,
    # and int() refuses a numeral of more than 4300 digits
    code, out, err = run_cli(
        capsys, "enumerate", "--dilator", f"constant:{digits}", "--stages", "1"
    )
    assert (code, out) == (2, "") and err.startswith("error:")
    monkeypatch.setenv("BH_BUDGET_DEFAULT", digits)
    code, out, err = run_cli(capsys, "enumerate", "--dilator", "omega", "--stages", "2")
    assert (code, out) == (2, "") and "BH_BUDGET_DEFAULT" in err
    monkeypatch.delenv("BH_BUDGET_DEFAULT")
    code, out, err = run_cli(
        capsys, "verify", "--dilator", "successor", "--budget", digits
    )
    assert (code, out) == (2, "") and "--budget" in err
    # the stage of a term and the index inside a token
    for dilator, term in [
        ("successor", f"@{digits}:th(top)"),
        ("successor", f"@1:th(v{digits};th(top))"),
        ("constant:3", f"@0:th(c{digits})"),
        ("omega", f"@1:th(w[{digits}];th(w[]))"),
    ]:
        code, out, err = run_cli(capsys, "compare", "--dilator", dilator, term, term)
        assert (code, out) == (2, "") and err.startswith("error:"), term[:30]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--dilator", "successor", "--stages", "-2"],
        ["enumerate", "--dilator", "omega", "--stages", "3", "--budget", "-3"],
        ["verify", "--dilator", "omega", "--budget", "-1"],
    ],
    ids=["enumerate-stages", "enumerate-budget", "verify-budget"],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "invalid natural value" in err


def test_enumerate_stages_above_the_bound_is_a_usage_error(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "enumerate", "--dilator", "constant:2", "--stages", "10001", "--budget", "3"
    )
    assert (code, out) == (2, "")
    assert "10000" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, env",
    [
        (
            ["enumerate", "--dilator", "omega", "--stages", "2", "--budget", str(MAX_BUDGET + 1)],
            None,
        ),
        (["verify", "--dilator", "omega", "--budget", str(MAX_BUDGET + 1)], None),
        (["verify", "--dilator", "omega"], str(MAX_BUDGET + 1)),
    ],
    ids=["enumerate", "verify", "env-default"],
)
def test_budget_above_the_bound_is_a_usage_error(capsys, monkeypatch, argv, env):
    # checked before any term is built, like --stages against MAX_STAGE
    if env is not None:
        monkeypatch.setenv("BH_BUDGET_DEFAULT", env)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{MAX_BUDGET + 1} exceeds the supported bound {MAX_BUDGET}" in err
    assert ("BH_BUDGET_DEFAULT" if env else "--budget") in err
    assert time.perf_counter() - start < 1.0


def test_enumerate_accepts_the_budget_bound(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--dilator", "omega", "--stages", "2", "--budget", str(MAX_BUDGET)
    )
    assert code == 0
    assert out.splitlines()[-1] == f"exhaustive=false count={MAX_BUDGET}"


@pytest.mark.parametrize(
    "script, argv",
    [("run_checks.py", ["--budget", "-1"])],
    ids=["run-checks-budget"],
)
def test_scripts_reject_negative_counts(script, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "invalid natural value" in proc.stderr


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("run_checks.py", ["--suite", "bogus", "omega"], "argument --suite: invalid choice"),
        ("run_checks.py", ["bogus"], "unknown dilator selector 'bogus'"),
        ("run_checks.py", ["successor", "sum(omega)"], "needs exactly two components"),
        (
            "run_checks.py", ["--budget", str(MAX_BUDGET + 1), "omega"],
            f"--budget {MAX_BUDGET + 1} exceeds the supported bound {MAX_BUDGET}",
        ),
    ],
    ids=[
        "run-checks-suite", "run-checks-selector", "run-checks-later-selector",
        "run-checks-budget-bound",
    ],
)
def test_scripts_report_usage_errors(script, argv, message):
    # exit 2 is a usage error; run_checks.py keeps exit 1 for a failed check
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_snapshot_refuses_a_checkout_without_the_program(tmp_path):
    # with bhfix importable from PYTHONPATH, a mistyped checkout must not
    # silently snapshot this checkout instead
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_snapshot.py"), str(tmp_path / "no-such-dir")],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")
    assert "src/bhfix" in proc.stderr


def test_run_checks_script_matches_verify_golden():
    # the script and `verify --budget 40` derive the same caps from one budget
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_checks.py"), "--budget", "40", "omega"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    checks = [line for line in proc.stdout.splitlines() if line.startswith("CHECK ")]
    golden = (ROOT / "tests" / "golden" / "verify_omega_all_40.txt").read_text()
    assert checks == golden.splitlines()


def test_enumeration_is_consistent_with_compare(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--dilator", "omega", "--stages", "3",
        "--budget", "6", "--format", "lines",
    )
    assert code == 0
    lines = out.splitlines()
    for a, b in zip(lines, lines[1:]):
        code, verdict, _ = run_cli(capsys, "compare", "--dilator", "omega", a, b)
        assert (code, verdict.strip()) == (0, "LT")


def test_absurd_stage_rejected_quickly(capsys):
    code, _, err = run_cli(
        capsys, "compare", "--dilator", "successor",
        "@999999999:th(top)", "@0:th(top)",
    )
    assert code == 3 and "stage" in err


def test_compare_successor_heights_150_and_160(capsys):
    def element(height):
        return f"@{height - 1}:" + "th(v0;" * (height - 1) + "th(top)" + ")" * (height - 1)

    code, out, _ = run_cli(
        capsys, "compare", "--dilator", "successor", element(150), element(160)
    )
    assert (code, out) == (0, "LT\n")


@pytest.mark.parametrize(
    "a, b, verdict",
    [(220, 219, "GT"), (219, 220, "LT"), (220, 1, "GT"), (1, 220, "LT"), (220, 220, "EQ")],
)
def test_compare_successor_in_the_former_ceiling_band(capsys, a, b, verdict):
    # heights 200-220 exited 2 ("nested too deeply") while each level of
    # the limit comparison's merge recursion took five call frames
    def element(height):
        return f"@{height - 1}:" + "th(v0;" * (height - 1) + "th(top)" + ")" * (height - 1)

    code, out, _ = run_cli(capsys, "compare", "--dilator", "successor", element(a), element(b))
    assert (code, out) == (0, verdict + "\n")


def _successor_element(height):
    return f"@{height - 1}:" + "th(v0;" * (height - 1) + "th(top)" + ")" * (height - 1)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["compare", "--dilator", "successor",
          _successor_element(400), _successor_element(399)], "GT"),
        (["compare", "--dilator", "successor",
          _successor_element(800), _successor_element(1)], "GT"),
        (["interpret", "--dilator", "successor", "--witness", "omega-successor",
          _successor_element(800)], "799"),
        (["interpret", "--dilator", "successor", "--witness", "bh-self",
          _successor_element(800)], _successor_element(800)),
    ]
    + [
        (["interpret", "--dilator", "successor", "--witness", "omega-successor",
          _successor_element(height)], str(height - 1))
        for height in (1000, 5000)
    ]
    + [
        (["interpret", "--dilator", "successor", "--witness", "bh-self",
          _successor_element(height)], _successor_element(height))
        for height in (1000, 5000)
    ],
    ids=["compare-400-399", "compare-800-1", "interpret-omega-successor-800",
         "interpret-bh-self-800", "interpret-omega-successor-1000",
         "interpret-omega-successor-5000", "interpret-bh-self-1000", "interpret-bh-self-5000"],
)
def test_deep_requests_answer_at_the_default_recursion_limit(capsys, argv, expected):
    # each term level of a comparison takes two Python frames; at four
    # frames a level, every compare here exited 2 ("nested too deeply").
    # Reading, interpreting and printing take none, so an interpretation
    # answers at any height the grammar accepts
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out, err) == (0, expected + "\n", "")


def test_deep_compare_past_the_recursion_limit_fails_cleanly(capsys):
    # the comparison still recurses, two frames a level (ROADMAP item 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run_cli(
            capsys, "compare", "--dilator", "successor",
            _successor_element(1000), _successor_element(999),
        )
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out, err) == (2, "", "error: input is nested too deeply\n")


def test_deeply_nested_input_fails_cleanly(capsys):
    depth = 5000
    term = "th(v0;" * depth + "th(top)" + ")" * depth
    code, _, err = run_cli(
        capsys, "compare", "--dilator", "successor", f"@{depth}:{term}", "@0:th(top)"
    )
    assert code in (2, 3)
    assert err.startswith("error:")


_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import bhfix.cli
added = sorted(set(sys.modules) - before)
code = bhfix.cli.main(sys.argv[1:])
ran = sorted(set(sys.modules) - before)
import bhfix
listed = [name for name in bhfix.__all__ if name in dir(bhfix)]
namespace = {}
exec("from bhfix import *", namespace)
bound = [name for name in bhfix.__all__ if name in namespace]
print(json.dumps({"added": added, "code": code, "ran": ran, "listed": listed, "bound": bound}))
"""


def _import_probe(*argv):
    # the probe's JSON line, and the lines ``main(argv)`` printed before it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, probe = proc.stdout.splitlines()
    return json.loads(probe), printed


def test_cli_import_leaves_out_the_checks_and_dataclasses():
    # only `verify` needs bhfix.verify, and dataclasses pulls in inspect,
    # ast, dis and tokenize; a plain argv is read without argparse (and the
    # gettext it imports), and only a cut listing needs heapq.  Modules the
    # interpreter loaded before the import (e.g. through site) do not count.
    probe, printed = _import_probe(
        "compare", "--dilator", "omega", "@1:th(w[0];th(w[]))", "@0:th(w[])"
    )
    assert (probe["code"], printed) == (0, ["GT"])
    assert "bhfix.cli" in probe["added"]
    assert not {"bhfix.verify", "dataclasses", "inspect"} & set(probe["added"])
    assert not {"argparse", "gettext", "heapq"} & set(probe["ran"])
    import bhfix

    assert probe["listed"] == probe["bound"] == bhfix.__all__
    # any other argv goes to argparse, which writes the help
    probe, printed = _import_probe("compare", "-h")
    assert probe["code"] == 0 and "argparse" in probe["ran"]
    assert printed[0].startswith("usage: bhfix compare")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bhfix", "verify", "--dilator", "successor", "--budget", "8"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bhfix", "enumerate", "--dilator", "successor",
         "--stages", "1", "--format", "lines"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "@0:th(top)"


sys.path.insert(0, str(ROOT / "scripts"))
try:
    import cli_snapshot  # the snapshot's requests, ending with its ODD_ARGV
finally:
    sys.path.remove(str(ROOT / "scripts"))
ODD_ARGV = cli_snapshot.ODD_ARGV


def test_plain_reader_agrees_with_argparse():
    # every request of the CLI snapshot before its odd shapes is plain, so
    # the reader reads it, into the namespace argparse builds; for each odd
    # shape the reader either leaves the argv to argparse or builds the same
    # namespace.  Run on each Python version CI tests, this also catches a
    # change in argparse.
    parser = cli._build_parser()

    def parse_args(argv):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None

    requests = list(cli_snapshot.requests())
    odd = list(ODD_ARGV.values())
    assert requests[-len(odd):] == odd
    for argv in requests[:-len(odd)]:
        args = cli._read_plain(argv)
        assert args is not None and vars(args) == parse_args(argv), argv
    for argv in odd:
        args = cli._read_plain(argv)
        assert args is None or vars(args) == parse_args(argv), argv


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_help_names_every_option_of_the_table(capsys, name):
    # argparse's parser is built from _COMMANDS; compared with whitespace
    # removed, since argparse wraps help to the terminal width
    _, options, positionals = cli._COMMANDS[name]
    code, out, err = run_cli(capsys, name, "-h")
    assert (code, err) == (0, "") and out.startswith(f"usage: bhfix {name}")
    text = "".join(out.split())
    for flag, (_, _, choices, _, _, help_) in options.items():
        assert flag in text
        if choices is not None:
            assert "{" + ",".join(choices) + "}" in text
        if help_ is not None:
            assert "".join(help_.split()) in text
    for dest in positionals:
        assert dest in text


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, err = run_cli(capsys, "-h")
    assert (code, err) == (0, "") and out.startswith("usage: bhfix")
    text = " ".join(out.split())
    for name, (help_line, _, _) in cli._COMMANDS.items():
        assert f" {name} {help_line}" in text


@pytest.mark.parametrize("argv", ODD_ARGV.values(), ids=ODD_ARGV.keys())
def test_odd_argv_answer_as_argparse_alone_does(capsys, monkeypatch, argv):
    # exit code, stdout and stderr (usage and help text included) are those
    # of a run in which argparse reads the argv
    read = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_read_plain", lambda argv: None)
    assert read == run_cli(capsys, *argv)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script and ``python -m bhfix`` call main() with no argv
    seen = []
    reader = cli._read_plain
    monkeypatch.setattr(cli, "_read_plain", lambda argv: seen.append(argv) or reader(argv))
    argv = ["compare", "--dilator", "successor", "@1:th(v0;th(top))", "@0:th(top)"]
    monkeypatch.setattr(sys, "argv", ["bhfix", *argv])
    assert main() == 0
    assert capsys.readouterr() == ("GT\n", "")
    assert seen == [argv]
    monkeypatch.setattr(sys, "argv", ["bhfix", "compare", "--dilator=successor", "@0:th(top)"])
    assert main() == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: bhfix compare")
