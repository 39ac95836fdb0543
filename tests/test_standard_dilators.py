"""Behavior of the concrete dilators and their token syntax."""

from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bhfix.cli import parse_selector
from bhfix.dilator import Enumeration, full_support_tokens
from bhfix.errors import TermSyntaxError, TermTypeError
from bhfix.finite_orders import EQ, GT, LT
from bhfix.standard_dilators import (
    TOP,
    ConstantDilator,
    IdentityDilator,
    LexProductDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
)
from bhfix.verify import check_dilator_laws

succ = SuccessorDilator()
ident = IdentityDilator()
omega = OmegaPowerDilator()


@pytest.mark.parametrize(
    "dilator",
    [
        succ,
        ident,
        ConstantDilator(3),
        ConstantDilator(0),
        omega,
        SumDilator(SuccessorDilator(), OmegaPowerDilator()),
        LexProductDilator(SuccessorDilator(), ConstantDilator(2)),
        LexProductDilator(OmegaPowerDilator(), SuccessorDilator()),
    ],
    ids=lambda d: d.name,
)
def test_contract_laws_small(dilator):
    report = check_dilator_laws(dilator, max_n=3, budget=20)
    assert report.passed, report.format()


SAMPLE_BUDGETS = (0, 1, 2, 3, 5, 8, 20)


@pytest.mark.parametrize(
    "selector",
    [
        "successor",
        "identity",
        "constant:3",
        "omega",
        "sum(successor,omega)",
        "product(successor,constant:2)",
        "sum(constant:2,successor)",
        "product(omega,successor)",
        "product(constant:0,successor)",
    ],
)
def test_sample_at_contract(selector):
    # sample_at is the one token listing: deterministic, within budget,
    # growing with the budget, and complete once it claims to be exhaustive
    dilator = parse_selector(selector)
    for n in range(5):
        listings = [dilator.sample_at(n, b) for b in SAMPLE_BUDGETS]
        for budget, listed in zip(SAMPLE_BUDGETS, listings):
            assert len(listed) <= budget
            assert len(set(listed.items)) == len(listed)
            assert dilator.sample_at(n, budget) == listed
        for i, small in enumerate(listings):
            for large in listings[i + 1 :]:
                assert set(small.items) <= set(large.items)
                if small.exhaustive:
                    assert set(large.items) == set(small.items) and large.exhaustive


def test_successor_enumeration_sizes():
    for n in range(6):
        listed = succ.sample_at(n, 50)
        assert len(listed) == n + 1
        assert listed.exhaustive
    assert list(succ.sample_at(0, 50)) == [TOP]


def test_successor_top_is_maximal():
    for i in range(4):
        assert succ.compare_at(4, i, TOP) == LT
        assert succ.compare_at(4, TOP, i) == GT
    assert succ.compare_at(4, TOP, TOP) == EQ


def test_omega_sample_at_zero_and_prefix_rule():
    assert list(omega.sample_at(0, 5)) == [()]
    assert omega.sample_at(0, 5).exhaustive
    assert omega.compare_at(1, (), (0,)) == LT
    # proper extension is greater; first difference decides otherwise
    assert omega.compare_at(2, (1,), (1, 0)) == LT
    assert omega.compare_at(2, (0, 0), (1,)) == LT
    assert omega.compare_at(3, (2, 1), (2, 0, 0)) == GT


def _descending(n, max_len):
    for length in range(max_len + 1):
        for c in combinations_with_replacement(range(n), length):
            yield tuple(reversed(c))


def _reference_sample(dilator, n, budget):
    """``sample_at`` as first defined, by sorting where the samplers now
    emit in order: omega's by-length blocks each sorted, the cut of the
    product's (i + j, i, j)-sorted index triples, and the sum's alternating
    interleave.  Items and flag, over the references of the sides."""
    if isinstance(dilator, OmegaPowerDilator):
        if n == 0:
            return ((),)[:budget], budget >= 1
        max_len = 0
        while comb(n + max_len, max_len) < budget:  # sequences of length <= max_len
            max_len += 1
        items = sorted(_descending(n, max_len), key=lambda t: (len(t), t))
        return tuple(items[:budget]), False
    if isinstance(dilator, (SumDilator, LexProductDilator)):
        ls, l_all = _reference_sample(dilator.left, n, budget)
        rs, r_all = _reference_sample(dilator.right, n, budget)
        if isinstance(dilator, SumDilator):
            items = []
            for i in range(max(len(ls), len(rs))):
                items += [("L", ls[i])] if i < len(ls) else []
                items += [("R", rs[i])] if i < len(rs) else []
            return tuple(items[:budget]), l_all and r_all and len(items) <= budget
        triples = sorted((i + j, i, j) for i in range(len(ls)) for j in range(len(rs)))
        items = tuple((ls[i], rs[j]) for _, i, j in triples[:budget])
        return items, l_all and r_all and len(ls) * len(rs) <= budget
    listed = dilator.sample_at(n, budget)
    return listed.items, listed.exhaustive


PIN_BUDGETS = (0, 1, 2, 5, 12, 30, 40, 60, 100, 500)


@pytest.mark.parametrize(
    "selector",
    [
        "omega",
        "sum(omega,successor)",
        "sum(successor,omega)",
        "product(omega,omega)",
        "product(constant:0,successor)",
        "product(sum(omega,successor),constant:3)",
    ],
)
def test_sample_at_items_order_and_flag_are_the_sorted_definitions(selector):
    # the samplers emit in order instead of sorting; the order is output too,
    # since dilator-laws reports its failures in sample order
    dilator = parse_selector(selector)
    for n in range(13):
        for budget in PIN_BUDGETS:
            expected = Enumeration(*_reference_sample(dilator, n, budget))
            assert dilator.sample_at(n, budget) == expected, (n, budget)


def test_omega_sample_is_diverse_and_descending():
    sample = omega.sample_at(3, 40)
    assert len(sample) == 40
    assert len(set(sample.items)) == 40
    for tok in sample:
        assert all(a >= b for a, b in zip(tok, tok[1:]))
    assert (2, 1, 0) in sample.items


def test_omega_full_support_tokens_are_onto_sequences():
    # at arity k the full-support tokens are exactly the descending
    # sequences that use every index; cross-checked structurally
    for k in (1, 2, 3):
        sample = omega.sample_at(k, 120)
        fs = set(full_support_tokens(omega, k, 120).items)
        for tok in sample:
            assert (tok in fs) == (set(tok) == set(range(k)))
        assert fs  # the sample reaches at least one onto sequence per arity


def test_constant_dilator_shape():
    c3 = ConstantDilator(3)
    assert list(c3.sample_at(5, 10)) == [0, 1, 2]
    assert c3.sample_at(5, 10).exhaustive
    assert c3.supp_at(5, 1) == ()
    f = None  # map ignores the embedding entirely
    assert c3.map_token(f, 2) == 2


def test_identity_dilator_has_empty_arity_zero():
    listed = ident.sample_at(0, 5)
    assert len(listed) == 0 and listed.exhaustive


def test_sum_order_and_enumeration():
    s = SumDilator(SuccessorDilator(), OmegaPowerDilator())
    assert s.compare_at(1, ("L", TOP), ("R", ())) == LT
    # the sample interleaves the two sides, so an infinite left side does
    # not hide the right one
    s2 = SumDilator(OmegaPowerDilator(), SuccessorDilator())
    listed = s2.sample_at(1, 5)
    assert listed.items == (("L", ()), ("R", 0), ("L", (0,)), ("R", TOP), ("L", (0, 0)))
    assert not listed.exhaustive


def test_product_lex_order_and_enumeration():
    p = LexProductDilator(ConstantDilator(2), SuccessorDilator())
    listed = p.sample_at(1, 10)
    assert listed.items == ((0, 0), (0, TOP), (1, 0), (1, TOP))
    assert listed.exhaustive
    assert p.compare_at(1, (0, TOP), (1, 0)) == LT
    assert p.supp_at(3, (0, 1)) == (1,)


def test_product_with_empty_component_is_empty():
    p = LexProductDilator(ConstantDilator(0), SuccessorDilator())
    listed = p.sample_at(2, 10)
    assert len(listed) == 0 and listed.exhaustive


@given(st.lists(st.integers(0, 3), max_size=6))
def test_omega_token_round_trip(entries):
    tok = tuple(sorted(entries, reverse=True))
    text = omega.format_token(4, tok)
    assert omega.parse_token(4, text) == tok


@pytest.mark.parametrize(
    "dilator,n,tok",
    [
        (succ, 0, TOP),
        (succ, 3, 2),
        (ident, 2, 1),
        (ConstantDilator(4), 7, 3),
        (SumDilator(succ, omega), 2, ("R", (1, 0))),
        (LexProductDilator(succ, omega), 2, (TOP, (1, 1, 0))),
    ],
)
def test_token_round_trip(dilator, n, tok):
    assert dilator.parse_token(n, dilator.format_token(n, tok)) == tok


def test_token_parse_errors():
    with pytest.raises(TermSyntaxError):
        succ.parse_token(1, "q9")
    with pytest.raises(TermSyntaxError):
        omega.parse_token(1, "w[1,")
    with pytest.raises(TermTypeError):
        succ.parse_token(1, "v1")
    with pytest.raises(TermTypeError):
        omega.parse_token(2, "w[0,1]")
    with pytest.raises(TermTypeError):
        omega.parse_token(1, "w[3]")
    with pytest.raises(TermTypeError, match=r"^w\[0\] has an entry not below 0$"):
        omega.parse_token(0, "w[0]")
    with pytest.raises(TermSyntaxError):
        SumDilator(succ, omega).parse_token(1, "M(v0)")
