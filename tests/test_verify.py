"""The check harness itself: reports, determinism, failure detection."""

import re

import pytest

from bhfix.dilator import CodedElement
from bhfix.limits import Tower
from bhfix.standard_dilators import (
    ConstantDilator,
    IdentityDilator,
    OmegaPowerDilator,
    SuccessorDilator,
)
from bhfix.systems import System
from bhfix.verify import (
    check_collapse_admissible,
    check_commuting_square,
    check_dilator_laws,
    check_fixed_point,
    check_goodness,
    check_limit_order,
    check_theta_linear,
    erase_supports,
    run_suite,
)

_HEAD = re.compile(r"^CHECK \S+ (pass|fail) instances=\d+ exhaustive=(true|false)$")


def test_report_line_format():
    report = check_dilator_laws(SuccessorDilator(), 3, 20)
    head = report.format().splitlines()[0]
    assert _HEAD.match(head), head


def test_successor_suites_all_pass():
    reports = run_suite(SuccessorDilator(), "all", 20)
    assert reports == sorted(reports, key=lambda r: r.name)
    for report in reports:
        assert report.passed, report.format()


def test_omega_suites_all_pass():
    reports = run_suite(OmegaPowerDilator(), "all", 20)
    for report in reports:
        assert report.passed, report.format()


def test_broken_dilator_fails_with_counterexample():
    # erasing supports on the identity dilator leaves tokens that cannot
    # factor through the empty inclusion
    broken = erase_supports(IdentityDilator())
    report = check_dilator_laws(broken, 3, 10)
    assert not report.passed
    assert any("factorization" in line for line in report.failures)


class _LengthenedSystem(System):
    """A copy of a stage whose length function overshoots by one."""

    def length_of(self, x):
        return x.length + 1


class _ZeroLengthSystem(System):
    """A copy of a stage whose length function is constantly 0."""

    def length_of(self, x):
        return 0


def test_corrupted_length_fails_goodness():
    tower = Tower(SuccessorDilator())
    bad = _LengthenedSystem(tower, tower.stage(0))
    report = check_goodness(bad, 10)
    assert not report.passed
    assert any("length equation" in line for line in report.failures)


def test_reports_are_deterministic():
    om = OmegaPowerDilator()
    a = check_theta_linear(Tower(om).stage(1), 25)
    b = check_theta_linear(Tower(om).stage(1), 25)
    assert a == b


def test_exhaustive_flag_reflects_enumeration():
    succ_report = check_theta_linear(Tower(SuccessorDilator()).stage(1), 10)
    om_report = check_theta_linear(Tower(OmegaPowerDilator()).stage(1), 10)
    assert succ_report.exhaustive
    assert not om_report.exhaustive


def test_empty_token_order_passes_vacuously():
    tower = Tower(ConstantDilator(0))
    report = check_commuting_square(tower.stage(0), 10)
    assert report.passed and report.instances == 0 and report.exhaustive


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(SuccessorDilator(), "bogus")


def test_failure_lines_use_term_grammar():
    # a corrupted stage system reports counterexamples as serialized terms
    tower = Tower(SuccessorDilator())
    bad = _ZeroLengthSystem(tower, tower.stage(0))
    report = check_goodness(bad, 10)
    assert not report.passed
    assert any("th(" in line or "length" in line for line in report.failures)


def test_failure_overflow_is_capped():
    broken = erase_supports(OmegaPowerDilator())
    report = check_dilator_laws(broken, 3, 30)
    assert not report.passed
    assert len(report.failures) == 12 and report.overflow > 0
    assert report.format().endswith(f"\n  ... and {report.overflow} more failures")


class _FlippedTower(Tower):
    """A limit order with the verdict on one pair of elements reversed."""

    flipped = frozenset()

    def compare(self, e1, e2):
        verdict = super().compare(e1, e2)
        return -verdict if {e1, e2} == self.flipped else verdict


def test_limit_order_catches_a_perturbed_comparison():
    tower = _FlippedTower(SuccessorDilator())
    listed = tower.enumerate(3, 10)
    tower.flipped = frozenset(listed[:2])
    report = check_limit_order(tower, 10, stage_bound=3)
    assert not report.passed
    assert any("stage-1 order" in line for line in report.failures), report.format()


class _FlippedSystem(System):
    """A stage system with the verdict on one pair of terms reversed."""

    flipped = frozenset()

    def compare(self, s, t):
        verdict = super().compare(s, t)
        return -verdict if {s, t} == self.flipped else verdict


def test_collapse_admissible_catches_a_perturbed_stage_order():
    # a copy of the successor stage X1 whose order puts th(v0;th(top))
    # below its own support element th(top)
    tower = Tower(SuccessorDilator())
    bad = _FlippedSystem(tower, tower.stage(0))
    (top,) = tower.stage(1).carrier_listing(1)
    bad.flipped = frozenset({bad.embed(top), bad.collapse(CodedElement((top,), 0))})
    report = check_collapse_admissible(bad, 10)
    assert not report.passed
    assert "condition (ii) broken: th(top) not below th(v0;th(top))" in report.failures, (
        report.format()
    )


def test_fixed_point_catches_a_perturbed_limit_order():
    tower = _FlippedTower(SuccessorDilator())
    listed = tower.enumerate(3, 10)
    tower.flipped = frozenset(listed[:2])
    report = check_fixed_point(tower, 10)
    assert not report.passed
    assert any(
        line.startswith("condition (ii) broken: @0:th(top) not below @1:th(")
        for line in report.failures
    ), report.format()
