"""The collapse-term order over one stage: lengths, comparison, iteration."""

from functools import cmp_to_key, partial
from itertools import combinations, islice, product

import pytest

from bhfix import limits, systems
from bhfix.cli import parse_selector
from bhfix.dilator import (
    CodedElement,
    Enumeration,
    compare_coded,
    compare_merged,
    first_token_monotone,
    full_support_tokens,
    least_coded,
)
from bhfix.finite_orders import EQ, GT, LT
from bhfix.limits import BASE_SAMPLE_CAP, LIMIT_STAGES, Tower
from bhfix.standard_dilators import TOP, OmegaPowerDilator, SuccessorDilator
from bhfix.syntax import format_term, parse_bh
from bhfix.systems import System
from bhfix.verify import check_dilator_laws, run_suite
from test_verify import _TREES, coded_elements, sorted_cut

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
    # collapse sets a new term's length: 1 over the empty support, else
    # one plus the largest support length
    assert succ_tower.stage(0).collapse(CodedElement((), TOP)).length == 1
    sys1 = succ_tower.stage(1)
    x = succ_tower.listing(1, 5)[0]  # the single stage-1 term, length 1
    assert sys1.length_of(x) == x.length == 1
    assert sys1.collapse(CodedElement((x,), 0)).length == 2
    osys1 = omega_tower.stage(1)
    a = omega_tower.listing(1, 5)[0]
    assert osys1.collapse(CodedElement((a,), (0, 0))).length == 2
    b = osys1.collapse(CodedElement((a,), (0,)))
    assert omega_tower.collapse(CodedElement((a, b), (0, 1))).length == 3


def test_each_system_binds_its_carrier_order(succ_tower):
    # every stage compares in the tower's one full order, and X_{n+1} is
    # ordered as the terms of stage n in that order; the full order and the
    # limit are each ordered as themselves, and X_0 is empty: its carrier
    # order has nothing to compare
    full = succ_tower.full_order
    for n in range(4):
        assert succ_tower.stage(n).compare == full.compare
        assert succ_tower.stage(n + 1).carrier_compare == full.compare
    assert full.carrier_compare == full.compare != succ_tower.compare
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
    # the stages are views of one full order, not a chain of systems
    assert succ_tower.stage(2).compare.__self__ is succ_tower.full_order
    assert succ_tower.stage(1).compare.__self__ is succ_tower.full_order


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


def test_compare_is_memoized_deterministically(omega_tower):
    sys1 = omega_tower.stage(1)
    terms = omega_tower.listing(2, 20).items
    first = [[sys1.compare(s, t) for t in terms] for s in terms]
    again = [[sys1.compare(s, t) for t in terms] for s in terms]
    assert first == again


class _ChainStage(System):
    """A stage system as the construction iterates it: the system over
    X_{n+1} has a memo of its own, and its carrier order is the compare of
    the system over X_n, the one ``below`` (X_0's carrier is empty)."""

    def __init__(self, tower, below=None):
        super().__init__(tower)
        self.carrier_compare = systems._empty_carrier if below is None else below.compare


@pytest.mark.parametrize(
    "selector", ["omega", "successor", "sum(successor,omega)", "product(omega,successor)"]
)
def test_the_full_order_restricted_to_a_stage_is_the_chain_of_stage_orders(selector):
    # each stage compares in the tower's one full order; a chain of stage
    # systems, each over the one below with a memo of its own, gives the
    # same verdict on every pair of each stage's listing
    tower = Tower(parse_selector(selector))
    chain = [_ChainStage(tower)]
    for n in range(LIMIT_STAGES):
        items = tower.listing(n + 1, 20).items
        stage = tower.stage(n)
        for s in items:
            for t in items:
                assert stage.compare(s, t) == chain[n].compare(s, t), (n, s, t)
        chain.append(_ChainStage(tower, chain[n]))
    assert len(items) >= 3
    assert all(link._memo is not tower.full_order._memo for link in chain)


def test_a_verdict_of_stage_one_is_a_memo_hit_at_stage_three(omega_tower, monkeypatch):
    s, t = omega_tower.listing(2, 6).items[-2:]
    assert omega_tower.stage(1).compare(s, t) == LT
    merges = []

    def counted(*args):
        merges.append(args)
        return compare_merged(*args)

    monkeypatch.setattr(systems, "compare_merged", counted)
    stage3 = omega_tower.stage(3)
    assert (stage3.compare(s, t), stage3.compare(t, s)) == (LT, GT)
    assert merges == []
    # a pair that no stage has compared yet merges
    a, b = omega_tower.listing(4, 6).items[-2:]
    assert stage3.compare(a, b) == LT and merges


def test_the_full_order_keeps_a_memo_apart_from_the_limit(omega_tower):
    # check_limit_order compares the limit against the full order, so
    # neither may read the other's verdicts
    full = omega_tower.full_order
    assert full._memo is not omega_tower._memo
    items = omega_tower.enumerate(3, 12).items
    assert omega_tower._memo and not full._memo
    limit = dict(omega_tower._memo)
    assert omega_tower.stage(3).compare(items[0], items[-1]) == LT
    assert full._memo and omega_tower._memo == limit


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
    cut = sorted_cut(Enumeration(tuple(terms), exhaustive), budget, system.compare)
    ref = refs[n, budget] = cut.items, cut.exhaustive
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
    return sorted_cut(coded, budget, order)


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
            sample = tower.coded_sample(n, budget)
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


def _full_generation(dilator, table, carrier_sample, budget, k, cmp, value, order):
    """``least_coded`` without pruning or token table: every value, cut to
    the least k."""
    coded = coded_elements(dilator, carrier_sample, budget)
    return sorted_cut(Enumeration(tuple(map(value, coded)), coded.exhaustive), k, order)


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
    assert [r.format() for r in run_suite(_ReversedOmega(), "all", 12)] == pruned


class _Sequences(OmegaPowerDilator):
    """``seq``: every finite sequence over n, in Python's tuple order (a
    proper prefix is below), with the set of its entries as support.  A
    prae-dilator but not a dilator: s[1] > s[0,1] > s[0,0,1] > ... descends
    forever at arity 2, so its limit is not well founded."""

    name = "seq"

    def sample_at(self, n, budget):
        # by length, each length in tuple order; at arity 0 the empty
        # sequence is the only token
        if n == 0:
            return Enumeration(((),) if budget >= 1 else (), budget >= 1)
        items = []
        length = 0
        while len(items) < budget:
            items.extend(islice(product(range(n), repeat=length), budget - len(items)))
            length += 1
        return Enumeration(tuple(items), False)

    def format_token(self, n, tok):
        return "s[" + ",".join(map(str, tok)) + "]"

    def parse_token(self, n, text):
        assert text.startswith("s[") and text.endswith("]"), text
        return tuple(map(int, text[2:-1].split(","))) if text != "s[]" else ()


@pytest.mark.parametrize("budget", [20, 40])
def test_a_prae_dilator_that_is_no_dilator_passes_every_check(budget):
    # the checks are finite, so a pass is no proof of well-foundedness
    reports = run_suite(_Sequences(), "all", budget)
    assert len(reports) == 17 and all(r.passed for r in reports)


def test_the_seq_limit_descends_forever():
    tower = Tower(_Sequences())
    a, b = parse_bh(tower, "@0:th(s[])"), parse_bh(tower, "@1:th(s[0];th(s[]))")
    chain = [tower.collapse(CodedElement((a, b), (0,) * k + (1,))) for k in range(1, 200)]
    assert all(tower.compare(t, s) == LT for s, t in zip(chain, chain[1:]))
    assert format_term(tower.dilator, chain[0]) == "th(s[0,1];th(s[]),th(s[0];th(s[])))"


def test_seq_listings_and_coded_samples_are_the_sorted_cut():
    _assert_full_generation_cut(Tower(_Sequences()), (1, 2, 3, 4), (0, 1, 5, 12, 13, 40))


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
        samples = [tower.coded_sample(n, budget) for n in range(LIMIT_STAGES)]
        elements = tower.enumerate(LIMIT_STAGES, budget)
        samples.append(tower.select(elements, BASE_SAMPLE_CAP, budget, budget, tower))
        for coded in samples:
            out.append(([(tuple(map(show, c.support)), c.token) for c in coded], coded.exhaustive))
    return out


@pytest.mark.parametrize("selector", SELECTORS)
def test_token_table_selects_what_fresh_tokens_select(selector, monkeypatch):
    kept = _listings_and_samples(selector)

    def fresh(dilator, table, *rest):
        # a new dilator and an empty token table per call
        return least_coded(parse_selector(selector), {}, *rest)

    monkeypatch.setattr(limits, "least_coded", fresh)
    assert _listings_and_samples(selector) == kept
