"""Byte-for-byte CLI output pinned against recorded goldens.

Each golden file holds the full standard output of one command, and each
case names the exit code it must end with.  The check names, instance
counts, exhaustive flags and counterexample messages in a verify report are
part of the contract, so any change to them shows up here.
"""

from pathlib import Path

import pytest

from bhfix.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, recorded, exit_code",
    [
        (
            ["verify", "--dilator", "successor", "--suite", "all", "--budget", "20"],
            "verify_successor_all_20.txt",
            0,
        ),
        (
            ["enumerate", "--dilator", "omega", "--stages", "3", "--budget", "12"],
            "enumerate_omega_3_12.txt",
            0,
        ),
        (
            ["verify", "--dilator", "omega", "--suite", "all", "--budget", "40"],
            "verify_omega_all_40.txt",
            0,
        ),
        (
            ["verify", "--dilator", "sum(successor,omega)", "--suite", "all", "--budget", "40"],
            "verify_sum_successor_omega_all_40.txt",
            0,
        ),
        (
            ["enumerate", "--dilator", "omega", "--stages", "4", "--budget", "60"],
            "enumerate_omega_4_60.txt",
            0,
        ),
        (
            ["verify", "--dilator", "omega", "--suite", "all", "--budget", "40",
             "--break-naturality"],
            "verify_omega_all_40_broken.txt",
            1,
        ),
        (
            ["verify", "--dilator", "sum(successor,omega)", "--suite", "all",
             "--budget", "40", "--break-naturality"],
            "verify_sum_successor_omega_all_40_broken.txt",
            1,
        ),
    ],
    ids=[
        "verify-successor-all-20",
        "enumerate-omega-3-12",
        "verify-omega-all-40",
        "verify-sum-successor-omega-all-40",
        "enumerate-omega-4-60",
        "verify-omega-all-40-broken",
        "verify-sum-successor-omega-all-40-broken",
    ],
)
def test_cli_output_matches_golden(capsys, argv, recorded, exit_code):
    code = main(argv)
    assert code == exit_code
    assert capsys.readouterr().out == (GOLDEN / recorded).read_text()
