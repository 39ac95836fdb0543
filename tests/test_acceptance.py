"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE <k> ... PASS|FAIL`` line (run pytest with
``-s`` to see them).  All comparisons are exact and discrete; the only
tolerances are the stated runtime bounds.
"""

import functools
import time

from bhfix.dilator import CodedElement
from bhfix.finite_orders import LT
from bhfix.interpret import OmegaSuccessorWitness, embed_bh
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import (
    ConstantDilator,
    IdentityDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
)
from bhfix.syntax import format_bh, parse_bh
from bhfix.verify import (
    check_collapse_admissible,
    check_commuting_square,
    check_dilator_laws,
    check_fixed_point,
    check_goodness,
    check_theta_linear,
)
from bhfix.cli import main


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {label}: PASS")

        return run

    return wrap


@criterion(1, "dilator-law suite")
def test_criterion_1_dilator_laws():
    start = time.perf_counter()
    for dilator in (SuccessorDilator(), IdentityDilator(), ConstantDilator(3)):
        report = check_dilator_laws(dilator, max_n=4, budget=50)
        assert report.passed, report.format()
        assert report.exhaustive, f"{dilator.name} should be checked exhaustively"
    omega = OmegaPowerDilator()
    for n in range(1, 5):
        assert len(omega.sample_at(n, 50)) == 50  # >= 50 tokens per arity
    for dilator in (omega, SumDilator(SuccessorDilator(), OmegaPowerDilator())):
        report = check_dilator_laws(dilator, max_n=4, budget=50)
        assert report.passed, report.format()
        assert not report.exhaustive  # infinite token orders: sampled only
    assert time.perf_counter() - start < 10.0


@criterion(2, "theta-order linearity")
def test_criterion_2_theta_linearity():
    start = time.perf_counter()
    succ_tower = Tower(SuccessorDilator())
    for stage, size in ((1, 2), (2, 3)):  # X_2 and X_3 of the successor
        terms = succ_tower.listing(stage + 1, 50)
        assert len(terms) == size and terms.exhaustive
        report = check_theta_linear(succ_tower.stage(stage), 50)
        assert report.passed and report.exhaustive, report.format()
    om_tower = Tower(OmegaPowerDilator())
    sample = om_tower.listing(2, 200)
    assert len(sample) >= 200
    report = check_theta_linear(om_tower.stage(1), 200)
    assert report.passed, report.format()
    assert time.perf_counter() - start < 60.0


@criterion(3, "collapse admissibility and subterm bound")
def test_criterion_3_collapse_admissibility():
    succ_tower = Tower(SuccessorDilator())
    for stage in (1, 2):
        report = check_collapse_admissible(succ_tower.stage(stage), 50)
        assert report.passed, report.format()
    om_tower = Tower(OmegaPowerDilator())
    report = check_collapse_admissible(om_tower.stage(1), 200)
    assert report.passed, report.format()


@criterion(4, "iteration soundness")
def test_criterion_4_iteration_soundness():
    for make in (SuccessorDilator, OmegaPowerDilator):
        tower = Tower(make())
        for n in (1, 2, 3):
            report = check_goodness(tower.stage(n), 40)
            assert report.passed, report.format()
            if make is SuccessorDilator:
                assert report.exhaustive  # finite carriers, checked on all of X_n


@criterion(5, "commuting square")
def test_criterion_5_commuting_square():
    succ_tower = Tower(SuccessorDilator())
    for stage in (0, 1, 2):
        report = check_commuting_square(succ_tower.stage(stage), 50)
        assert report.passed and report.exhaustive, report.format()
    om_tower = Tower(OmegaPowerDilator())
    report = check_commuting_square(om_tower.stage(1), 200)
    assert report.passed, report.format()


@criterion(6, "exact successor facts")
def test_criterion_6_successor_facts():
    start = time.perf_counter()
    tower = Tower(SuccessorDilator())
    for n in range(9):
        stage = tower.listing(n, 50)
        assert len(stage) == n and stage.exhaustive
    elements = tower.enumerate(8, 50)
    assert len(elements) == 8 and elements.exhaustive
    assert [birth_stage(e) for e in elements] == list(range(8))
    for a, b in zip(elements, elements.items[1:]):
        assert tower.compare(a, b) == LT
    witness = OmegaSuccessorWitness()
    assert [embed_bh(witness, e) for e in elements] == list(range(8))
    assert time.perf_counter() - start < 1.0


@criterion(7, "glued collapse is a collapse over the limit")
def test_criterion_7_fixed_point():
    succ_tower = Tower(SuccessorDilator())
    report = check_fixed_point(
        succ_tower, 50, stage_bound=6, sample_cap=100, carrier_cap=6
    )
    assert report.passed and report.exhaustive, report.format()
    om_tower = Tower(OmegaPowerDilator())
    coded = om_tower.select(om_tower.enumerate(2, 40), 12, 40, 40, om_tower)
    pairs = min(len(coded), 40)
    assert pairs * (pairs - 1) >= 100
    report = check_fixed_point(
        om_tower, 40, stage_bound=2, sample_cap=40, carrier_cap=12
    )
    assert report.passed, report.format()


@criterion(8, "omega order facts in the second stage")
def test_criterion_8_omega_chain():
    tower = Tower(OmegaPowerDilator())
    sys1 = tower.stage(1)
    a = tower.listing(1, 5)[0]

    def term(j):
        return sys1.collapse(CodedElement(() if j == 0 else (a,), (0,) * j))

    chain = [term(j) for j in range(4)]
    for s, t in zip(chain, chain[1:]):
        assert sys1.compare(s, t) == LT

    def ref_less(j, k):
        # independent clause evaluation over multiplicities: bodies compare
        # by the prefix rule, the only support element is a, and a embeds
        # to the multiplicity-0 term one stage up
        if j == k:
            return False
        if j < k:
            return j == 0 or ref_less(0, k)
        return k >= 1 and (j == 0 or ref_less(j, 0))

    for j in range(6):
        for k in range(6):
            got = sys1.compare(term(j), term(k))
            assert (got == LT) == ref_less(j, k)
            assert (got == 0) == (j == k)


@criterion(9, "CLI round trip and exit codes")
def test_criterion_9_cli_round_trip(capsys):
    for name in ("successor", "omega"):
        code = main(
            ["enumerate", "--dilator", name, "--stages", "4", "--budget", "25",
             "--format", "lines"]
        )
        out = capsys.readouterr().out
        assert code == 0
        dilator = SuccessorDilator() if name == "successor" else OmegaPowerDilator()
        tower = Tower(dilator)
        lines = out.splitlines()
        assert lines
        for line in lines:
            assert format_bh(dilator, parse_bh(tower, line)) == line
    assert main(["verify", "--dilator", "successor", "--suite", "laws"]) == 0
    capsys.readouterr()
    assert (
        main(["verify", "--dilator", "successor", "--suite", "laws",
              "--break-naturality"])
        == 1
    )
    capsys.readouterr()
