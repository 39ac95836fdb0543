"""Coded-element operations against the successor and omega dilators."""

from functools import lru_cache, partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bhfix.dilator import (
    CodedElement,
    Enumeration,
    coded_elements,
    compare_coded,
    full_support_tokens,
    least,
    make_coded,
    map_coded,
    merged_positions,
    normal_form,
)
from bhfix.errors import DilatorLawError
from bhfix.finite_orders import EQ, GT, LT, Embedding, all_embeddings, compose, finset_map, sgn
from bhfix.standard_dilators import (
    TOP,
    LexProductDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
)

int_cmp = lambda a, b: sgn(a - b)  # noqa: E731
succ = SuccessorDilator()
omega = OmegaPowerDilator()


def test_normal_form_successor_top():
    nf = normal_form(succ, 2, TOP)
    assert nf.support == ()
    assert nf.token == TOP


def test_normal_form_successor_element():
    nf = normal_form(succ, 2, 1)
    assert nf.support == (1,)
    assert nf.token == 0


def test_normal_form_full_support_is_identity():
    nf = normal_form(omega, 2, (1, 0))
    assert nf.support == (0, 1)
    assert nf.token == (1, 0)


def test_make_coded_rejects_partial_support():
    with pytest.raises(DilatorLawError):
        make_coded(succ, (4, 7), TOP)  # TOP has empty support, arity 2 claimed


def test_compare_coded_successor_over_naturals():
    top = CodedElement((), TOP)
    five = CodedElement((5,), 0)
    assert compare_coded(succ, int_cmp, top, five) == GT
    assert compare_coded(succ, int_cmp, top, top) == EQ
    assert compare_coded(succ, int_cmp, five, five) == EQ


def test_compare_coded_omega_two_chain():
    ea = CodedElement(("a",), (0,))
    eb = CodedElement(("b",), (0,))
    str_cmp = lambda a, b: (a > b) - (a < b)  # noqa: E731
    assert compare_coded(omega, str_cmp, ea, eb) == LT


def test_map_coded_relabels_support_only():
    e = CodedElement((0, 2), (1, 0, 0))
    out = map_coded(lambda x: x + 1, e)
    assert out == CodedElement((1, 3), (1, 0, 0))
    assert map_coded(lambda x: x, e) == e
    top = CodedElement((), TOP)
    assert map_coded(lambda x: x + 10, top) == top


def test_map_coded_functor_composition():
    e = CodedElement((1, 4), (1, 1, 0))
    f = lambda x: x + 2  # noqa: E731
    g = lambda x: x * 3  # noqa: E731
    assert map_coded(g, map_coded(f, e)) == map_coded(lambda x: g(f(x)), e)


def test_support_naturality_at_coded_level():
    e = CodedElement((2, 5), (1, 0))
    f = lambda x: x + 1  # noqa: E731
    assert map_coded(f, e).support == finset_map(f, e.support)


def sorted_coded(dilator, sample, budget):
    """Every coded element over a sorted sample of naturals, in coded order."""
    coded = coded_elements(dilator, Enumeration(tuple(sample), True), budget, int_cmp)
    return least(coded, len(coded), partial(compare_coded, dilator, int_cmp))


def test_enumerate_coded_successor_singleton_sample():
    out = sorted_coded(succ, (7,), 10)
    assert out.exhaustive
    assert list(out) == [CodedElement((7,), 0), CodedElement((), TOP)]


def test_enumerate_coded_empty_sample_arity_zero_only():
    out = sorted_coded(omega, (), 10)
    assert list(out) == [CodedElement((), ())]
    assert out.exhaustive


def test_enumerate_coded_budget_zero():
    out = sorted_coded(succ, (3,), 0)
    assert len(out) == 0
    assert not out.exhaustive


def test_enumerate_coded_requires_sorted_sample():
    with pytest.raises(ValueError):
        coded_elements(succ, Enumeration((3, 1), True), 5, int_cmp)


def test_least_selects_sorts_and_flags_the_cut():
    listing = Enumeration((5, 1, 4, 2, 3), True)
    assert least(listing, 5, int_cmp) == Enumeration((1, 2, 3, 4, 5), True)
    assert least(listing, 9, int_cmp) == Enumeration((1, 2, 3, 4, 5), True)
    assert least(listing, 2, int_cmp) == Enumeration((1, 2), False)
    assert least(listing, 0, int_cmp) == Enumeration((), False)
    assert least(Enumeration((2, 1), False), 2, int_cmp) == Enumeration((1, 2), False)
    with pytest.raises(ValueError):
        least(listing, -1, int_cmp)


def test_coded_elements_keeps_the_sample_flag():
    assert coded_elements(succ, Enumeration((7,), True), 10, int_cmp).exhaustive
    assert not coded_elements(succ, Enumeration((7,), False), 10, int_cmp).exhaustive


def _verdict_matrix(dilator, items, cmp):
    return [[compare_coded(dilator, cmp, a, b) for b in items] for a in items]


@pytest.mark.parametrize(
    "dilator,sample,budget",
    [(succ, (0, 1, 2), 10), (omega, (0, 1), 14)],
)
def test_compare_coded_is_linear_on_enumeration(dilator, sample, budget):
    items = list(sorted_coded(dilator, sample, budget))
    assert len(items) <= 60
    m = _verdict_matrix(dilator, items, int_cmp)
    n = len(items)
    for i in range(n):
        assert m[i][i] == EQ
        for j in range(n):
            if i != j:
                assert m[i][j] in (LT, GT)
                assert m[i][j] == -m[j][i]
                # the enumeration is sorted
                assert m[i][j] == sgn(i - j)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m[i][j] == LT and m[j][k] == LT:
                    assert m[i][k] == LT


def test_compare_coded_invariant_under_larger_carrier():
    # computing the verdict inside any common superset of the supports
    # agrees with the merge of the two supports
    sample = (0, 1, 2, 3)
    items = list(sorted_coded(omega, sample, 12))
    whole = Embedding(tuple(sample), len(sample))
    for a in items[:20]:
        for b in items[:20]:
            pos_a = Embedding(a.support, len(sample))
            pos_b = Embedding(b.support, len(sample))
            big = omega.compare_at(
                len(sample),
                omega.map_token(pos_a, a.token),
                omega.map_token(pos_b, b.token),
            )
            assert big == compare_coded(omega, int_cmp, a, b)
    assert whole.codomain_size == 4


@given(
    st.sets(st.integers(-20, 20)), st.sets(st.integers(-20, 20)), st.booleans()
)
def test_merged_positions_are_the_inclusions_into_the_union(xs, ys, descending):
    # the carrier order comes only from cmp: descending runs reverse it
    cmp = (lambda a, b: int_cmp(b, a)) if descending else int_cmp
    a = tuple(sorted(xs, reverse=descending))
    b = tuple(sorted(ys, reverse=descending))
    union = sorted(xs | ys, reverse=descending)
    pa, pb, n = merged_positions(a, b, cmp)
    assert n == len(union)
    assert pa == tuple(union.index(x) for x in a)
    assert pb == tuple(union.index(y) for y in b)
    # the public constructor accepts what compare_coded builds unchecked
    assert Embedding(pa, n) == Embedding.trusted(pa, n)
    assert Embedding(pb, n) == Embedding.trusted(pb, n)


def test_full_support_tokens_successor():
    assert list(full_support_tokens(succ, 0, 10)) == [TOP]
    assert list(full_support_tokens(succ, 1, 10)) == [0]
    assert list(full_support_tokens(succ, 2, 10)) == []


def test_map_token_along_all_small_embeddings_keeps_laws():
    for m in range(4):
        for n in range(m, 4):
            for f in all_embeddings(m, n):
                for tok in succ.sample_at(m, 10):
                    mapped = succ.map_token(f, tok)
                    assert succ.supp_at(n, mapped) == finset_map(f, succ.supp_at(m, tok))
                for p in range(n, 4):
                    for g in all_embeddings(n, p):
                        for tok in omega.sample_at(m, 6):
                            assert omega.map_token(compose(f, g), tok) == omega.map_token(
                                g, omega.map_token(f, tok)
                            )


def _reference_compare(dilator, cmp, e1, e2):
    # both tokens always pushed into the merge of the two supports
    p1, p2, n = merged_positions(e1.support, e2.support, cmp)
    return dilator.compare_at(
        n,
        dilator.map_token(Embedding(p1, n), e1.token),
        dilator.map_token(Embedding(p2, n), e2.token),
    )


_COMPOSITES = {
    d.name: d
    for d in (omega, SumDilator(succ, omega), LexProductDilator(omega, succ))
}


@lru_cache(maxsize=None)
def _full_tokens(name, k):
    return full_support_tokens(_COMPOSITES[name], k, 120).items


@pytest.mark.parametrize("name", sorted(_COMPOSITES))
@given(data=st.data())
def test_compare_coded_agrees_with_mapping_both_tokens(name, data):
    dilator = _COMPOSITES[name]
    support = data.draw(st.sets(st.integers(-9, 9), max_size=3))
    relation = data.draw(st.sampled_from(["equal", "nested", "disjoint", "empty"]))
    if relation == "equal":
        other = support
    elif relation == "nested":
        other = data.draw(st.sets(st.sampled_from(sorted(support)))) if support else set()
    elif relation == "disjoint":
        outside = st.integers(-9, 9).filter(lambda x: x not in support)
        other = data.draw(st.sets(outside, max_size=3))
    else:
        other = set()
    elements = [
        CodedElement(tuple(sorted(s)), data.draw(st.sampled_from(_full_tokens(name, len(s)))))
        for s in (support, other)
    ]
    if data.draw(st.booleans()):
        elements.reverse()
    e1, e2 = elements
    expected = _reference_compare(dilator, int_cmp, e1, e2)
    if expected == EQ:
        assert e1 == e2
    assert compare_coded(dilator, int_cmp, e1, e2) == expected


def _zip_compare(s, t):
    for a, b in zip(s, t):
        if a != b:
            return sgn(a - b)
    return sgn(len(s) - len(t))


_descending = st.lists(st.integers(0, 5), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(_descending, _descending)
def test_omega_order_is_lexicographic_with_extensions_greater(s, t):
    assert omega.compare_at(6, s, t) == _zip_compare(s, t)
