"""The check harness itself: reports, determinism, failure detection."""

import re
from functools import cmp_to_key, partial
from itertools import combinations

import pytest

from bhfix import cli, limits, verify
from bhfix.cli import parse_selector
from bhfix.dilator import (
    CodedElement,
    Enumeration,
    compare_coded,
    full_support_tokens,
    least_coded,
)
from bhfix.errors import WitnessLawError
from bhfix.finite_orders import EQ
from bhfix.interpret import OmegaSuccessorWitness
from bhfix.limits import BASE_SAMPLE_CAP, LIMIT_STAGES, Tower, birth_stage
from bhfix.standard_dilators import (
    ConstantDilator,
    IdentityDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    TOP,
)
from bhfix.systems import Stage, System, ThetaTerm
from bhfix.verify import (
    CheckReport,
    check_collapse_admissible,
    check_commuting_square,
    check_dilator_laws,
    check_fixed_point,
    check_goodness,
    check_limit_order,
    check_minimality,
    check_theta_linear,
    check_witness,
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


def test_erased_constant_factors_beyond_any_sample_cap():
    # a constant dilator has no supports to erase, however many tokens it has
    broken = erase_supports(ConstantDilator(513))
    assert broken.restrict_token(0, 512, ()) == 512
    report = check_dilator_laws(broken, 0, 513)
    assert report.format() == "CHECK dilator-laws pass instances=264708 exhaustive=true"


_LEAVES = ["successor", "identity", "constant:0", "constant:2", "omega"]
_TREES = _LEAVES + [
    f"{op}({a},{b})" for op in ("sum", "product") for a in _LEAVES for b in _LEAVES
]


@pytest.mark.parametrize("selector", _TREES)
def test_every_check_passes_on_nested_selectors(selector):
    for report in run_suite(parse_selector(selector), "all", 8):
        assert report.passed, report.format()


@pytest.mark.parametrize("selector", _TREES)
def test_erased_supports_fail_exactly_when_some_support_is_nonempty(selector):
    dilator = parse_selector(selector)
    has_support = any(
        dilator.supp_at(n, tok) for n in range(4) for tok in dilator.sample_at(n, 6)
    )
    report = check_dilator_laws(erase_supports(dilator), 3, 6)
    assert report.passed != has_support, report.format()


@pytest.mark.parametrize("selector", _TREES)
def test_cli_round_trips_the_listing_on_nested_selectors(selector, capsys):
    # enumerate -> compare (the listing's order, EQ exactly on equal text)
    # -> interpret into the limit itself, which returns the element
    argv = ["enumerate", "--dilator", selector, "--stages", "3", "--budget", "6"]
    assert cli.main(argv + ["--format", "lines"]) == 0
    elements = capsys.readouterr().out.splitlines()
    assert len(set(elements)) == len(elements)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            assert cli.main(["compare", "--dilator", selector, a, b]) == 0
            verdict = "LT" if i < j else "GT" if i > j else "EQ"
            assert capsys.readouterr().out == verdict + "\n", (a, b)
        assert cli.main(["interpret", "--dilator", selector, "--witness", "bh-self", a]) == 0
        assert capsys.readouterr().out == a + "\n"


def coded_elements(dilator, carrier_sample, budget):
    """Every coded element with support inside the sample and token within
    the per-arity budget, in generation order: the full generation that the
    pruned selector ``least_coded`` replaces, kept as its reference."""
    out = []
    exhaustive = carrier_sample.exhaustive
    for k in range(len(carrier_sample) + 1):
        tokens = full_support_tokens(dilator, k, budget)
        exhaustive &= tokens.exhaustive
        for subset in combinations(carrier_sample.items, k):
            out.extend(CodedElement(subset, tok) for tok in tokens)
    return Enumeration(tuple(out), exhaustive)


def sorted_cut(items, k, cmp):
    """The least ``k`` of a listing under cmp, by sorting all of it: the
    reference cut of full generation, exhaustive when nothing is cut."""
    ordered = sorted(items, key=cmp_to_key(cmp))
    return Enumeration(tuple(ordered[:k]), items.exhaustive and len(ordered) <= k)


@pytest.mark.parametrize("selector", _TREES)
def test_pruned_selection_is_the_cut_of_full_generation(selector):
    tower = Tower(parse_selector(selector))
    cmp = tower.compare
    for n in (1, 2, 3, 4):
        for budget in (0, 1, 3, 7, 12, 13, 25):
            listed = tower.listing(n, budget)
            base = tower.listing(n - 1, min(budget, BASE_SAMPLE_CAP))
            coded = coded_elements(tower.dilator, base, budget)
            terms = Enumeration(tuple(map(tower.collapse, coded)), coded.exhaustive)
            assert listed == sorted_cut(terms, budget, cmp), (n, budget)
            sample = tower.select(base, BASE_SAMPLE_CAP, budget, budget, tower)
            order = partial(compare_coded, tower.dilator, cmp)
            assert sample == sorted_cut(coded, budget, order), (n, budget)


def _is_identity(f):
    return f.images == tuple(range(f.codomain_size))


class _IdentityMovesTokens(SuccessorDilator):
    """Identity maps send every token to top.  An identity action that is
    not the identity also breaks monotonicity or composition, so other
    laws fail too, after this one."""

    def map_token(self, f, tok):
        return TOP if _is_identity(f) else super().map_token(f, tok)


class _FlatValues(SuccessorDilator):
    """All value tokens compare equal: compare_at is no longer linear."""

    def compare_at(self, n, s, t):
        return EQ if TOP not in (s, t) else super().compare_at(n, s, t)


class _TopHasSupport(SuccessorDilator):
    """top claims support {0} at every non-zero arity, which the empty
    embedding 0 -> n cannot carry over."""

    def supp_at(self, n, tok):
        return (0,) if tok == TOP and n else super().supp_at(n, tok)


class _EvenArityReversed(SuccessorDilator):
    """Value tokens are ordered backwards at even arities, so an embedding
    from an even to an odd arity reverses them."""

    def compare_at(self, n, s, t):
        verdict = super().compare_at(n, s, t)
        return -verdict if n % 2 == 0 and TOP not in (s, t) else verdict


class _MergedRepeats(OmegaPowerDilator):
    """Every non-identity map drops repeated entries, so distinct tokens
    such as w[0] and w[0,0] map to one token; support factorization fails
    too, after monotonicity."""

    def map_token(self, f, tok):
        mapped = super().map_token(f, tok)
        return mapped if _is_identity(f) else tuple(sorted(set(mapped), reverse=True))


class _DoubledHead(OmegaPowerDilator):
    """Every non-identity map repeats the first entry of a non-empty token:
    monotone and natural, but mapping along f and then g repeats it twice.
    The inclusions miss the tokens without a repeat, so support
    factorization, checked last, fails too."""

    def map_token(self, f, tok):
        mapped = super().map_token(f, tok)
        return mapped[:1] + mapped if mapped and not _is_identity(f) else mapped


class _ReversedSupport(OmegaPowerDilator):
    """Supports are listed in decreasing order, which is no support at all;
    the naturality law compares the reversed lists and passes."""

    def supp_at(self, n, tok):
        return super().supp_at(n, tok)[::-1]


class _BoundOneShort(OmegaPowerDilator):
    """A support bound one too small at every arity: at arity 0 it is -1,
    below the empty support of w[].  Tested in each token's factorization
    instance, so the instance count is omega's own."""

    def support_bound(self, n, budget):
        return super().support_bound(n, budget) - 1


@pytest.mark.parametrize(
    "mutant,instances,exhaustive,first,alone",
    [
        (_IdentityMovesTokens, 160, True, "identity action changed v0", False),
        (_FlatValues, 153, True, "token order broken on v0, v1", True),
        (_TopHasSupport, 160, True, "support not natural for top along ()->1", True),
        (
            _EvenArityReversed, 160, True,
            "monotonicity broken: v1 < v0 but not after mapping along (0, 1)->3", True,
        ),
        (
            _MergedRepeats, 483, False,
            "monotonicity broken: w[0] < w[0,0] but not after mapping along (0,)->2", False,
        ),
        (_DoubledHead, 483, False, "composition law broken on w[0] at arity 3", False),
        (
            _ReversedSupport, 483, False,
            "omega: support (1, 0) of w[1,0] is not strictly increasing within 0..1", True,
        ),
        (
            _BoundOneShort, 483, False,
            "support of w[] has 0 elements, above support_bound(0, 6) = -1", True,
        ),
    ],
    ids=[
        "identity", "token-order", "naturality", "order-monotonicity", "map-monotonicity",
        "composition", "support-order", "support-bound",
    ],
)
def test_dilator_laws_report_each_broken_law(mutant, instances, exhaustive, first, alone):
    report = check_dilator_laws(mutant(), 3, 6)
    assert (report.instances, report.exhaustive) == (instances, exhaustive)
    assert report.failures[0] == first, report.format()
    if alone:
        # the mutant breaks this law alone
        assert all(line.split()[0] == first.split()[0] for line in report.failures)


class _LengthenedSystem(Stage):
    """A view of a stage whose length function overshoots by one."""

    def length_of(self, x):
        return x.length + 1


class _ZeroLengthSystem(Stage):
    """A view of a stage whose length function is constantly 0."""

    def length_of(self, x):
        return 0


def test_corrupted_length_fails_goodness():
    tower = Tower(SuccessorDilator())
    bad = _LengthenedSystem(tower.full_order, 1)
    report = check_goodness(bad, 10)
    assert not report.passed
    assert any("length equation" in line for line in report.failures)


def test_a_stage_length_function_leaves_interned_lengths_structural():
    # collapse sets a term's length from its supports alone, so a stage
    # whose L is corrupted still interns th(v0;th(top)) with length 2 in
    # the tower's shared table
    tower = Tower(SuccessorDilator())
    (top,) = tower.listing(1, 1)
    term = _ZeroLengthSystem(tower.full_order, 1).collapse(CodedElement((top,), 0))
    assert term.length == 2
    assert tower.collapse(CodedElement((top,), 0)) is term


def test_reports_are_deterministic():
    om = OmegaPowerDilator()
    a = check_theta_linear(Tower(om).stage(1), 25)
    b = check_theta_linear(Tower(om).stage(1), 25)
    assert a.format() == b.format()


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


class _ReversedLimit:
    """The limit witnessing itself with its order reversed."""

    def __init__(self, tower):
        self.tower = tower
        self.collapse, self.format = tower.collapse, tower.format

    def compare(self, a, b):
        return -self.tower.compare(a, b)

    def sample(self, budget):
        return sorted_cut(self.tower.enumerate(LIMIT_STAGES, budget), budget, self.compare)


def test_failure_lines_use_term_grammar():
    # a corrupted stage system and a corrupted witness report
    # counterexamples as serialized terms
    tower = Tower(SuccessorDilator())
    for report in (
        check_goodness(_ZeroLengthSystem(tower.full_order, 1), 10),
        check_witness(_ReversedLimit(tower), tower, 10),
    ):
        assert not report.passed
        assert any("th(" in line for line in report.failures), report.format()
        assert not any(
            "ThetaTerm(" in line or "CodedElement(" in line for line in report.failures
        ), report.format()
    assert report.failures[0] == (
        "condition (ii) broken: @2:th(v0;th(v0;th(top))) not below "
        "@3:th(v0;th(v0;th(v0;th(top))))"
    )


def test_failure_overflow_is_capped():
    broken = erase_supports(OmegaPowerDilator())
    report = check_dilator_laws(broken, 3, 30)
    assert not report.passed
    assert len(report.failures) == 12 and report.overflow > 0
    assert report.format().endswith(f"\n  ... and {report.overflow} more failures")


class _FlippedSystem(System):
    """A full order with the verdict on one pair of terms reversed, in its
    own recursion too."""

    flipped = frozenset()

    def compare(self, s, t):
        verdict = super().compare(s, t)
        return -verdict if {s, t} == self.flipped else verdict


class _FlippedTower(_FlippedSystem, Tower):
    """A limit order with the verdict on one pair of elements reversed,
    in its own recursion too."""


def test_limit_order_catches_a_perturbed_comparison():
    tower = _FlippedTower(SuccessorDilator())
    listed = tower.enumerate(3, 10)
    tower.flipped = frozenset(listed[:2])
    report = check_limit_order(tower, 10)
    assert not report.passed
    assert any("stage-1 order" in line for line in report.failures), report.format()


def test_collapse_admissible_catches_a_perturbed_stage_order():
    # the successor stage X1 over a full order that puts th(v0;th(top))
    # below its own support element th(top)
    tower = Tower(SuccessorDilator())
    order = _FlippedSystem(tower)
    bad = Stage(order, 1)
    (top,) = tower.listing(1, 1)
    order.flipped = frozenset({bad.embed(top), bad.collapse(CodedElement((top,), 0))})
    report = check_collapse_admissible(bad, 10)
    assert not report.passed
    assert "condition (ii) broken: th(top) not below th(v0;th(top))" in report.failures, (
        report.format()
    )


def test_collapse_admissible_lists_subterms_in_walk_order():
    # the successor stage X2 over a full order with the verdict on its
    # first and third listed terms reversed: the subterms of
    # th(v0;th(v0;th(top))) that exceed it are reported in the order the
    # closure walk reaches them, the same on every run
    for _ in range(3):
        tower = Tower(SuccessorDilator())
        order = _FlippedSystem(tower)
        bad = Stage(order, 2)
        items = tower.listing(3, 25).items
        order.flipped = frozenset({items[0], items[2]})
        report = check_collapse_admissible(bad, 25)
        assert [line for line in report.failures if line.startswith("subterm")] == [
            "subterm th(v0;th(top)) exceeds th(v0;th(v0;th(top)))",
            "subterm th(top) exceeds th(v0;th(v0;th(top)))",
        ], report.format()


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


def _assert_flipped_theta_linear(order, bad, items):
    # prime the memo with the true order, so that no other verdict
    # recurses through the flipped one
    for s in items:
        for t in items:
            bad.compare(s, t)
    order.flipped = frozenset({items[0], items[2]})
    report = check_theta_linear(bad, 6)
    assert report.instances == 52, report.format()
    transitivity = [line for line in report.failures if line.startswith("transitivity")]
    assert transitivity[0] == (
        "transitivity broken on th(w[]) < th(w[0];th(w[])) < th(w[0,0];th(w[]))"
    ), report.format()


def test_theta_linear_counts_each_instance_once():
    # stage 1 of omega with the verdict on its first and third listed terms
    # reversed: 6 terms give 30 ordered pairs, and the flipped order (a
    # 3-cycle below three more terms) 22 triples.
    tower = Tower(OmegaPowerDilator())
    # the tower's own stage over its own full order, whose listed terms are
    # its terms
    tower.full_order.__class__ = _FlippedSystem
    bad = tower.stage(1)
    items = tower.listing(2, 6).items
    _assert_flipped_theta_linear(tower.full_order, bad, items)
    # that stage over a second full order of the tower, which shares the
    # tower's terms but not its memo
    order = _FlippedSystem(tower)
    bad = Stage(order, 1)
    items = tower.listing(2, 6).items
    assert all(bad.collapse(t.body) is t for t in items)
    _assert_flipped_theta_linear(order, bad, items)


_STAGE_CHECKS = (
    check_theta_linear, check_collapse_admissible, check_commuting_square, check_goodness,
)


@pytest.mark.parametrize(
    "dilator", [SuccessorDilator, OmegaPowerDilator], ids=["successor", "omega"]
)
def test_stage_checks_read_only_the_given_system(dilator):
    # a view of stage n over a second full order of the tower, with a memo
    # of its own, checks like the tower's stage n
    tower = Tower(dilator())
    order = System(tower)
    for n in range(4):
        copy = Stage(order, n)
        for check in _STAGE_CHECKS:
            assert check(copy, 8).format() == check(tower.stage(n), 8).format(), (
                check.__name__, n,
            )
    assert order._memo and order._memo.keys() <= tower.full_order._memo.keys()


class _MovingSystem(Stage):
    """A stage whose iota sends every term of length >= 2 to the least
    limit element."""

    def embed(self, x):
        x = super().embed(x)
        return self.tower.listing(1, 1)[0] if x.length >= 2 else x


class _StageTwoMoved(Tower):
    """A tower whose stage 2 (the iota of X_2 into X_3) moves every term
    of length >= 2 to the least limit element."""

    def __init__(self, dilator):
        super().__init__(dilator)
        self.stage(2).__class__ = _MovingSystem


@pytest.mark.parametrize(
    "dilator,instances,exhaustive,first",
    [
        (SuccessorDilator, 23, True, "collapse depends on the stage for @1:th(v0;th(top))"),
        (
            OmegaPowerDilator, 968, False,
            "collapse depends on the stage for @1:th(w[0];th(w[]))",
        ),
    ],
    ids=["successor", "omega"],
)
def test_fixed_point_catches_a_stage_dependent_lift(dilator, instances, exhaustive, first):
    report = check_fixed_point(_StageTwoMoved(dilator()), 10)
    assert (report.instances, report.exhaustive) == (instances, exhaustive)
    assert report.failures[0] == first, report.format()


def test_negative_carrier_cap_is_a_value_error():
    # a negative cap is refused, never read as a slice from the end
    tower = Tower(SuccessorDilator())
    with pytest.raises(ValueError, match="cannot cut a listing to -1 items"):
        check_fixed_point(tower, 12, carrier_cap=-1)
    with pytest.raises(ValueError, match="cannot cut a listing to -1 items"):
        check_witness(tower, tower, 12, carrier_cap=-1)


def test_witness_of_another_dilator_fails_on_its_first_collapse():
    report = check_witness(OmegaSuccessorWitness(), Tower(OmegaPowerDilator()), 12)
    assert (report.passed, report.instances, report.exhaustive) == (False, 1, False)
    assert len(report.failures) == 1
    assert report.failures[0].startswith("collapse undefined on a sampled element: ")


def test_limit_order_catches_a_stage_dependent_lift():
    report = check_limit_order(_StageTwoMoved(SuccessorDilator()), 10)
    assert report.instances == 9
    assert report.failures[0] == "lift to X3 moved @1:th(v0;th(top))", (
        report.format()
    )


class _SettlesEverySupport(Tower):
    """A limit that settles every support through the merge, so that its
    order is the order of the bodies alone: its listings need not be sorted
    in the stage order."""

    def _settled(self, ps, pt):
        return len(ps)


def test_a_listing_out_of_stage_order_is_a_system_defect(monkeypatch, capsys):
    names = ("collapse-admissible:X3", "commuting-square:X3")
    reports = {r.name: r for r in run_suite(SuccessorDilator(), "theta", 40)}
    assert all(reports[name].passed for name in names)
    monkeypatch.setattr(verify, "Tower", _SettlesEverySupport)
    reports = {r.name: r for r in run_suite(SuccessorDilator(), "all", 40)}
    defect = "system defect: X2: the tower's listing of its carrier is not sorted in its order"
    for name in names:
        report = reports[name]
        assert (report.failures, report.instances, report.exhaustive) == ([defect], 1, False)
    # the CLI reports it as failed checks, not as a traceback
    assert cli.main(["verify", "--dilator", "successor"]) == 1
    out = capsys.readouterr().out
    assert f"CHECK collapse-admissible:X3 fail instances=1 exhaustive=false\n  {defect}" in out


def _collapse_one_level_too_long(self, coded):
    """``System.collapse`` with one fault: a new term's length is 2, not 1,
    plus the largest support length."""
    term = self._intern.get(coded)
    if term is None:
        support = coded[0]
        length = 2 + max(x.length for x in support) if support else 1
        term = self._intern[coded] = ThetaTerm(coded, length)
    return term


@pytest.mark.parametrize(
    "selector", ["successor", "sum(successor,omega)", "product(successor,constant:2)"]
)
def test_a_birth_guard_fault_fails_checks_instead_of_raising(monkeypatch, capsys, selector):
    # X3's collapses get the length of terms born at stage 4, so X3's birth
    # guard refuses them: each check that meets it fails with one line
    monkeypatch.setattr(System, "collapse", _collapse_one_level_too_long)
    defect = "system defect: cannot embed an element born at stage 4 at stage 3"
    reports = run_suite(parse_selector(selector), "all", 40)
    failed = {r.name: (r.failures, r.exhaustive) for r in reports if not r.passed}
    assert failed == {"commuting-square:X3": ([defect], False), "goodness:X3": ([defect], False)}
    # the CLI prints every check, with no traceback
    assert cli.main(["verify", "--dilator", selector, "--budget", "40"]) == 1
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines() if _HEAD.match(line)] == [
        r.name for r in reports
    ]
    assert "CHECK goodness:X3 fail instances=" in out and f"\n  {defect}\n" in out


def _unsorted_least_coded(*args):
    """``least_coded`` with its values kept in reverse order, as a selector
    that appends each value without a compare keeps them unsorted."""
    kept = least_coded(*args)
    return Enumeration(kept.items[::-1], kept.exhaustive)


def test_an_unsorted_listing_fails_checks_instead_of_raising(monkeypatch, capsys):
    # a listing built over an unsorted one is a system defect, and each
    # check builds its sample inside its report, so it fails with one line
    monkeypatch.setattr(limits, "least_coded", _unsorted_least_coded)
    defect = "system defect: lim: the tower's listing of its carrier is not sorted in its order"
    reports = {r.name: r for r in run_suite(parse_selector("sum(successor,omega)"), "all", 40)}
    for name in ("theta-linear:X3", "goodness:X3", "fixed-point", "limit-order", "witness"):
        report = reports[name]
        assert (report.failures, report.instances, report.exhaustive) == ([defect], 1, False)
    assert reports["collapse-admissible:X2"].failures == [
        "system defect: X1: the tower's listing of its carrier is not sorted in its order"
    ]
    # the CLI prints every check, with no traceback
    assert cli.main(["verify", "--dilator", "sum(successor,omega)", "--budget", "40"]) == 1
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines() if _HEAD.match(line)] == list(reports)


def test_stage_checks_name_themselves_after_the_stage():
    tower = Tower(SuccessorDilator())
    for n in range(3):
        stage = tower.stage(n)
        assert check_theta_linear(stage, 5).name == f"theta-linear:X{n + 1}"
        assert check_collapse_admissible(stage, 5).name == f"collapse-admissible:X{n + 1}"
        assert check_commuting_square(stage, 5).name == f"commuting-square:X{n + 1}"
        assert check_goodness(tower.stage(n + 1), 5).name == f"goodness:X{n + 1}"
    names = {r.name for r in run_suite(SuccessorDilator(), "theta", 5)}
    assert names == {
        f"{check}:X{n}" for n in (1, 2, 3)
        for check in ("theta-linear", "collapse-admissible", "commuting-square", "goodness")
    }


def test_limit_checks_cover_the_shared_stage_count():
    # the omega counts of `verify --suite all --budget 40` (tests/golden)
    tower = Tower(OmegaPowerDilator())
    assert check_limit_order(tower, 40).instances == 861
    assert check_minimality(tower, tower, 40).instances == 2421


def test_budgets_past_the_caps_reach_only_the_dilator_laws():
    # every other check reads the budget only through the caps of
    # bhfix.limits (TERMS_CAP, SAMPLE_CAP, BASE_SAMPLE_CAP), none above 40
    def without_laws(budget):
        return [r for r in run_suite(OmegaPowerDilator(), "all", budget) if r.name != "dilator-laws"]

    assert [r.format() for r in without_laws(41)] == [r.format() for r in without_laws(40)]


class _CountingTower(Tower):
    """The limit witnessing itself, recording the coded elements it is
    asked to collapse.  Its listings intern through ``System.collapse``,
    so only the interpretation reaches this one."""

    def __init__(self, dilator):
        super().__init__(dilator)
        self.collapsed = []

    def collapse(self, coded):
        self.collapsed.append(coded)
        return super().collapse(coded)


def test_minimality_maps_each_term_once():
    # one interpretation serves every line, so no coded element reaches
    # the witness twice (40 collapses of 40 distinct elements here)
    tower = _CountingTower(OmegaPowerDilator())
    assert check_minimality(tower, tower, 40).instances == 2421
    assert len(tower.collapsed) == len(set(tower.collapsed))


class _RefusingTower(Tower):
    """The limit witnessing itself, with no collapse for values born at
    stage 2 or later."""

    def collapse(self, coded):
        value = super().collapse(coded)
        if birth_stage(value) >= 2:
            raise WitnessLawError(f"refused {value.length}")
        return value


def test_minimality_fails_at_the_first_refused_collapse():
    # the memoized maps are filled in call order, so the first refusal and
    # the instances counted before it stay those of mapping every time
    tower = _RefusingTower(parse_selector("sum(successor,omega)"))
    report = check_minimality(tower, tower, 40)
    assert (report.passed, report.instances) == (False, 825)
    assert report.failures == ["witness law violation: refused 3"]


def test_tally_records_like_one_check_per_instance():
    # 17 failures over 50 instances, counted in one call and in two:
    # the same 12 lines in order, the same overflow and count
    verdicts = [i % 3 != 0 for i in range(50)]
    one_by_one = CheckReport("r")
    for i, ok in enumerate(verdicts):
        one_by_one.check(ok, lambda i=i: f"instance {i}")
    in_bulk = CheckReport("r")
    in_bulk.tally(50, (lambda i=i: f"instance {i}" for i, ok in enumerate(verdicts) if not ok))
    in_parts = CheckReport("r")
    in_parts.tally(20, (f"instance {i}" for i, ok in enumerate(verdicts[:20]) if not ok))
    in_parts.tally(30, (f"instance {i}" for i, ok in enumerate(verdicts) if i >= 20 and not ok))
    assert one_by_one.failures == [f"instance {i}" for i in range(0, 34, 3)]
    assert (one_by_one.instances, one_by_one.overflow) == (50, 5)
    assert in_bulk.format() == one_by_one.format() == in_parts.format()


def test_tally_builds_only_the_recorded_descriptions():
    built = []
    report = CheckReport("r")
    report.tally(20, (lambda i=i: built.append(i) or f"instance {i}" for i in range(20)))
    assert built == list(range(12)) and report.overflow == 8


class _CountingOmega(OmegaPowerDilator):
    """omega, counting its token maps and token compares."""

    def __init__(self):
        self.maps = self.compares = 0

    def map_token(self, f, tok):
        self.maps += 1
        return super().map_token(f, tok)

    def compare_at(self, n, s, t):
        self.compares += 1
        return super().compare_at(n, s, t)


def test_dilator_laws_map_each_token_once_per_embedding():
    # mapping again for every instance and comparing every token pair
    # twice made 8629 token maps and 36874 token compares here
    omega = _CountingOmega()
    assert check_dilator_laws(omega, budget=40).instances == 28398
    assert omega.maps <= 5100 and omega.compares <= 31000, (omega.maps, omega.compares)


def test_stage_checks_share_each_coded_sample(monkeypatch):
    # one sample per stage for collapse-admissible and commuting-square,
    # plus fixed-point and witness: 5 coded selections, ordered by
    # compare_coded, where selecting per check made 8; the listings select
    # collapses in the limit order
    calls = []
    monkeypatch.setattr(limits, "least_coded", lambda *a: calls.append(a) or least_coded(*a))
    run_suite(OmegaPowerDilator(), "all", 40)
    coded = [order for *_, order in calls if getattr(order, "func", None) is compare_coded]
    assert len(coded) == 5
