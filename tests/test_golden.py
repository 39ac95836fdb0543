"""Byte-for-byte CLI output pinned against recorded goldens.

Each golden file holds the full standard output of one command.  The check
names, instance counts and exhaustive flags in a verify report are part of
the contract, so any change to them shows up here.
"""

from pathlib import Path

import pytest

from bhfix.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (
            ["verify", "--dilator", "successor", "--suite", "all", "--budget", "20"],
            "verify_successor_all_20.txt",
        ),
        (
            ["enumerate", "--dilator", "omega", "--stages", "3", "--budget", "12"],
            "enumerate_omega_3_12.txt",
        ),
        (
            ["verify", "--dilator", "omega", "--suite", "all", "--budget", "40"],
            "verify_omega_all_40.txt",
        ),
        (
            ["verify", "--dilator", "sum(successor,omega)", "--suite", "all", "--budget", "40"],
            "verify_sum_successor_omega_all_40.txt",
        ),
        (
            ["enumerate", "--dilator", "omega", "--stages", "4", "--budget", "60"],
            "enumerate_omega_4_60.txt",
        ),
    ],
    ids=[
        "verify-successor-all-20",
        "enumerate-omega-3-12",
        "verify-omega-all-40",
        "verify-sum-successor-omega-all-40",
        "enumerate-omega-4-60",
    ],
)
def test_cli_output_matches_golden(capsys, argv, recorded):
    code = main(argv)
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / recorded).read_text()
