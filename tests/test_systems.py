"""The collapse-term order over one stage: lengths, comparison, iteration."""

import heapq
import re
from functools import cmp_to_key, partial
from itertools import combinations

import pytest

from bhfix import limits, verify
from bhfix.cli import parse_selector
from bhfix.dilator import (
    CodedElement,
    Enumeration,
    compare_coded,
    first_token_monotone,
    full_support_tokens,
    least,
    least_coded,
)
from bhfix.errors import SystemDefectError
from bhfix.finite_orders import EQ, GT, LT
from bhfix.interpret import LIMIT_STAGES
from bhfix.limits import BASE_SAMPLE_CAP, Tower
from bhfix.standard_dilators import TOP, OmegaPowerDilator, SuccessorDilator
from bhfix.syntax import format_term
from bhfix.systems import System
from bhfix.verify import check_dilator_laws, run_suite
from test_verify import _TREES, coded_elements

# the default battery of scripts/run_checks.py
SELECTORS = [
    "successor",
    "identity",
    "constant:3",
    "omega",
    "sum(successor,omega)",
    "product(successor,constant:2)",
]


@pytest.fixture
def succ_tower():
    return Tower(SuccessorDilator())


@pytest.fixture
def omega_tower():
    return Tower(OmegaPowerDilator())


def test_theta_length_conventions(succ_tower, omega_tower):
    sys0 = succ_tower.stage(0)
    assert sys0.theta_length(CodedElement((), TOP)) == 1
    sys1 = succ_tower.stage(1)
    x = succ_tower.listing(1, 5)[0]  # the single stage-1 term, length 1
    assert sys1.length_of(x) == 1
    assert sys1.theta_length(CodedElement((x,), 0)) == 2
    osys1 = omega_tower.stage(1)
    a = omega_tower.listing(1, 5)[0]
    assert osys1.theta_length(CodedElement((a,), (0, 0))) == 2


def test_each_system_binds_its_carrier_order(succ_tower):
    # X_{n+1} is ordered as the terms of stage n, the limit as itself, and
    # X_0 is empty: its carrier order has nothing to compare
    for n in range(3):
        assert succ_tower.stage(n + 1).carrier_compare == succ_tower.stage(n).compare
    assert succ_tower.carrier_compare == succ_tower.compare
    (top,) = succ_tower.listing(1, 1)
    with pytest.raises(ValueError, match="X0 has an empty carrier"):
        succ_tower.stage(0).carrier_compare(top, top)


def test_collapse_interns_and_is_injective(succ_tower):
    sys1 = succ_tower.stage(1)
    x = succ_tower.listing(1, 5)[0]
    s1 = sys1.collapse(CodedElement((x,), 0))
    s2 = sys1.collapse(CodedElement((x,), 0))
    t = sys1.collapse(CodedElement((), TOP))
    assert s1 is s2
    assert s1 is not t
    assert s1.length == 2 and t.length == 1


def test_theta_compare_successor_stage_one(succ_tower):
    # over the one-element carrier: th(top) < th(v0; th(top)), decided by the
    # second clause since the carrier element embeds back to th(top) itself
    sys1 = succ_tower.stage(1)
    x = succ_tower.listing(1, 5)[0]
    top_term = sys1.collapse(CodedElement((), TOP))
    succ_term = sys1.collapse(CodedElement((x,), 0))
    assert sys1.embed(x) is top_term
    assert sys1.compare(top_term, succ_term) == LT
    assert sys1.compare(succ_term, top_term) == GT
    assert sys1.compare(succ_term, succ_term) == EQ


def test_theta_compare_agrees_with_external_oracle(succ_tower):
    # cross-check the stage-1 verdict through the collapse into the naturals
    from bhfix.interpret import OmegaSuccessorWitness, interpretation

    h = interpretation(OmegaSuccessorWitness())
    sys1 = succ_tower.stage(1)
    x = succ_tower.listing(1, 5)[0]
    top_term = sys1.collapse(CodedElement((), TOP))
    succ_term = sys1.collapse(CodedElement((x,), 0))
    assert h(top_term) == 0
    assert h(succ_term) == 1
    assert sys1.compare(top_term, succ_term) == LT


def test_theta_compare_omega_empty_below_singleton(omega_tower):
    sys1 = omega_tower.stage(1)
    a = omega_tower.listing(1, 5)[0]
    empty = sys1.collapse(CodedElement((), ()))
    single = sys1.collapse(CodedElement((a,), (0,)))
    assert sys1.compare(empty, single) == LT


def test_embed_next_keeps_empty_support_and_length(succ_tower):
    sys0 = succ_tower.stage(0)
    top0 = sys0.collapse(CodedElement((), TOP))
    lifted = succ_tower.stage(1).embed(top0)
    assert lifted.body == CodedElement((), TOP)
    assert lifted.length == top0.length == 1


def test_embed_next_relabels_omega_support(omega_tower):
    sys1 = omega_tower.stage(1)
    sys2 = omega_tower.stage(2)
    a = omega_tower.listing(1, 5)[0]
    term = sys1.collapse(CodedElement((a,), (0,)))
    lifted = sys2.embed(term)
    assert lifted is term
    assert lifted.body.token == (0,)
    assert lifted.body.support == (sys1.embed(a),)
    assert lifted.body.support[0] in omega_tower.listing(2, 5).items


def test_embed_next_preserves_length_on_samples(omega_tower):
    sys2 = omega_tower.stage(2)
    for term in omega_tower.listing(2, 15):
        assert sys2.embed(term).length == term.length


def test_iterate_carrier_sizes_successor(succ_tower):
    assert len(succ_tower.listing(0, 10)) == 0
    assert len(succ_tower.listing(1, 10)) == 1
    assert len(succ_tower.listing(2, 10)) == 2


def test_iterate_is_idempotent(succ_tower):
    assert succ_tower.stage(2) is succ_tower.stage(2)
    assert succ_tower.stage(2).base is succ_tower.stage(1)


def test_iterate_omega_budgeted_chain(omega_tower):
    listed = omega_tower.listing(2, 5)
    assert not listed.exhaustive
    tokens = [t.body.token for t in listed]
    assert tokens == [(), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]
    for s, t in zip(listed, listed.items[1:]):
        assert omega_tower.stage(1).compare(s, t) == LT


def test_subterm_closure_cases(succ_tower):
    sys1 = succ_tower.stage(1)
    x = succ_tower.listing(1, 5)[0]
    top_term = sys1.collapse(CodedElement((), TOP))
    succ_term = sys1.collapse(CodedElement((x,), 0))
    assert sys1.subterm_closure(top_term) == (top_term,)
    assert sys1.subterm_closure(succ_term) == (succ_term, top_term)


def test_subterm_closure_is_closed_and_bounded(omega_tower):
    sys2 = omega_tower.stage(2)
    for term in omega_tower.listing(3, 12):
        closure = sys2.subterm_closure(term)
        for r in closure:
            assert sys2.compare(r, term) in (LT, EQ)
            assert r.length <= term.length
            assert set(sys2.subterm_closure(r)) <= set(closure)


def test_stage_iota_returns_its_argument_and_interns_nothing(omega_tower, monkeypatch):
    # the stages share the tower's terms, so iota is the inclusion: it
    # returns the element itself, interns nothing and never collapses
    stage = omega_tower.stage(3)
    elements = omega_tower.enumerate(3, 20)
    interned = len(omega_tower._intern)
    collapsed = []
    monkeypatch.setattr(stage, "collapse", lambda coded: collapsed.append(coded))
    assert all(stage.embed(x) is x for x in elements)
    assert len(omega_tower._intern) == interned
    assert collapsed == []
    assert all(omega_tower.stage(n)._intern is omega_tower._intern for n in range(4))


def test_subterm_closure_of_a_deep_limit_element(succ_tower):
    # the walk keeps its own stack, so the closure of a successor chain far
    # above the recursion limit is every term of the chain
    e = succ_tower.collapse(CodedElement((), TOP))
    for _ in range(2999):
        e = succ_tower.collapse(CodedElement((e,), 0))
    closure = succ_tower.subterm_closure(e)
    assert sorted(r.length for r in closure) == list(range(1, 3001))


class _SelfEmbeddingSystem(System):
    """A copy of X1 whose iota sends x to th(v0; x) and whose lengths are
    all 5, so that th(v0; x) translates its own support back to itself."""

    def length_of(self, x):
        return 5

    def embed(self, x):
        return self.collapse(CodedElement((x,), 0))


def test_corrupted_length_function_trips_the_recursion_guard():
    succ = SuccessorDilator()
    tower = Tower(succ)
    x = tower.listing(1, 5)[0]
    bad = _SelfEmbeddingSystem(tower, tower.stage(0))
    s = bad.collapse(CodedElement((x,), 0))
    t = bad.collapse(CodedElement((), TOP))
    with pytest.raises(SystemDefectError):
        bad.compare(s, t)


def test_subterm_closure_names_the_term_whose_support_breaks_the_length_law():
    tower = Tower(SuccessorDilator())
    x = tower.listing(1, 5)[0]
    bad = _SelfEmbeddingSystem(tower, tower.stage(0))
    s = bad.collapse(CodedElement((x,), 0))
    with pytest.raises(SystemDefectError, match=re.escape(f"in the support of {s!r}")):
        bad.subterm_closure(s)


def test_compare_is_memoized_deterministically(omega_tower):
    sys1 = omega_tower.stage(1)
    terms = omega_tower.listing(2, 20).items
    first = [[sys1.compare(s, t) for t in terms] for s in terms]
    again = [[sys1.compare(s, t) for t in terms] for s in terms]
    assert first == again


def _sorted_then_cut(tower, n, budget, refs):
    """Reference listing of X_n, built without any carrier listing: take
    this same reference one stage down as the base sample, collapse every
    coded element over it in the stage system, sort all of the terms by the
    stage order, and cut the sorted list to the budget.  ``refs`` keeps the
    references already built for this tower, keyed by (n, budget)."""
    if n == 0:
        return (), True
    if (n, budget) in refs:
        return refs[n, budget]
    system = tower.stage(n - 1)
    sample, exhaustive = _sorted_then_cut(tower, n - 1, min(budget, BASE_SAMPLE_CAP), refs)
    terms = []
    for k in range(len(sample) + 1):
        tokens = full_support_tokens(system.dilator, k, budget)
        exhaustive &= tokens.exhaustive
        for subset in combinations(sample, k):
            terms.extend(system.collapse(CodedElement(subset, tok)) for tok in tokens)
    least = heapq.nsmallest(budget, terms, key=cmp_to_key(system.compare))
    ref = refs[n, budget] = tuple(least), exhaustive and len(terms) <= budget
    return ref


@pytest.mark.parametrize("selector", SELECTORS)
def test_stage_listing_is_the_sorted_cut(selector):
    tower = Tower(parse_selector(selector))
    refs = {}
    for n in (1, 2, 3, 4):
        for budget in (0, 1, 5, 12, 13, 40, 60):
            listed = tower.listing(n, budget)
            assert (listed.items, listed.exhaustive) == _sorted_then_cut(
                tower, n, budget, refs
            ), (selector, n, budget)
            assert tower.listing(n, budget) is listed


def _coded_sample_reference(tower, n, budget, refs):
    """Reference coded sample of stage n: every coded element over the
    reference listing of its carrier X_n, cut to the least ``budget`` under
    ``compare_coded`` in the carrier order."""
    items, exhaustive = _sorted_then_cut(tower, n, min(budget, BASE_SAMPLE_CAP), refs)
    coded = coded_elements(tower.dilator, Enumeration(items, exhaustive), budget)
    order = partial(compare_coded, tower.dilator, tower.stage(n).carrier_compare)
    return least(coded, budget, order)


def _assert_full_generation_cut(tower, stages, budgets):
    """Each listing and each stage coded sample of the tower at these
    stages and budgets is the sorted cut of full generation."""
    refs = {}
    for n in stages:
        for budget in budgets:
            listed = tower.listing(n, budget)
            assert (listed.items, listed.exhaustive) == _sorted_then_cut(
                tower, n, budget, refs
            ), (n, budget)
            sample = verify._coded_sample(tower.stage(n), budget)
            assert sample == _coded_sample_reference(tower, n, budget, refs), (n, budget)


@pytest.mark.parametrize("selector", _TREES)
def test_small_listings_and_coded_samples_are_the_sorted_cut(selector):
    _assert_full_generation_cut(Tower(parse_selector(selector)), (1, 2, 3), (0, 1, 3, 7))


class _ReversedOmega(OmegaPowerDilator):
    """Omega with its token order reversed at every arity.  Strictly
    increasing maps preserve the reversed order too, so it is still a
    lawful prae-dilator; but raising a support element lowers a token, so
    no least token passes ``first_token_monotone``."""

    name = "reversed(omega)"

    def compare_at(self, n, s, t):
        return (s < t) - (s > t)


def _full_generation(dilator, carrier_sample, budget, k, cmp, value, order):
    """``least_coded`` without pruning: every value, cut to the least k."""
    coded = coded_elements(dilator, carrier_sample, budget)
    return least(Enumeration(tuple(map(value, coded)), coded.exhaustive), k, order)


def test_every_least_token_of_the_grammar_passes_the_monotonicity_gate():
    tested = 0
    for selector in _TREES:
        dilator = parse_selector(selector)
        for a in (1, 2, 3, 4):
            for budget in (1, 5, 12, 40, 80):
                tokens = full_support_tokens(dilator, a, budget)
                if tokens.items:
                    t0 = min(tokens, key=cmp_to_key(partial(dilator.compare_at, a)))
                    assert first_token_monotone(dilator, a, t0), (selector, a, budget)
                    tested += 1
    assert tested > 200


def test_the_reversed_double_is_lawful_but_fails_the_gate():
    double = _ReversedOmega()
    assert check_dilator_laws(double, 3, 12).passed
    for a in (1, 2, 3, 4):
        # omega's first full-support token at arity 4 is its 70th
        tokens = full_support_tokens(double, a, 80)
        t0 = min(tokens, key=cmp_to_key(partial(double.compare_at, a)))
        assert not first_token_monotone(double, a, t0), a
    # arity 0 has no support element to raise
    assert first_token_monotone(double, 0, ())


def test_a_dilator_that_fails_the_gate_is_never_pruned(monkeypatch):
    # the listings, the coded samples and the reports of the reversed
    # double are those of full generation
    _assert_full_generation_cut(Tower(_ReversedOmega()), (1, 2, 3, 4), (0, 1, 5, 12, 13, 40))
    pruned = [r.format() for r in run_suite(_ReversedOmega(), "all", 12)]
    monkeypatch.setattr(limits, "least_coded", _full_generation)
    monkeypatch.setattr(verify, "least_coded", _full_generation)
    assert [r.format() for r in run_suite(_ReversedOmega(), "all", 12)] == pruned


def _listings_and_samples(selector):
    """The text of every stage listing and stage coded sample, and of the
    limit's coded sample, at budgets 3, 12 and 40."""
    tower = Tower(parse_selector(selector))
    show = partial(format_term, tower.dilator)
    out = []
    for budget in (3, 12, 40):
        for n in range(1, LIMIT_STAGES + 1):
            listed = tower.listing(n, budget)
            out.append(([show(t) for t in listed], listed.exhaustive))
        samples = [verify._coded_sample(tower.stage(n), budget) for n in range(LIMIT_STAGES)]
        carried = least(tower.enumerate(LIMIT_STAGES, budget), BASE_SAMPLE_CAP, tower.compare)
        samples.append(verify._least_coded(tower.dilator, carried, budget, budget, tower.compare))
        for coded in samples:
            out.append(([(tuple(map(show, c.support)), c.token) for c in coded], coded.exhaustive))
    return out


@pytest.mark.parametrize("selector", SELECTORS)
def test_token_table_selects_what_fresh_tokens_select(selector, monkeypatch):
    kept = _listings_and_samples(selector)

    def fresh(dilator, *rest):
        # a new dilator per call starts with an empty token table
        return least_coded(parse_selector(selector), *rest)

    monkeypatch.setattr(limits, "least_coded", fresh)
    monkeypatch.setattr(verify, "least_coded", fresh)
    assert _listings_and_samples(selector) == kept
