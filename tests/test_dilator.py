"""Coded-element operations against the successor and omega dilators."""

import copy
import pickle
from functools import lru_cache, partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bhfix.dilator import (
    CodedElement,
    Enumeration,
    compare_coded,
    compare_merged,
    full_support_tokens,
    least_coded,
    map_coded,
    normal_form,
)
from bhfix.errors import DilatorLawError
from bhfix.finite_orders import EQ, GT, LT, Embedding, all_embeddings, compose, finset_map, sgn
from bhfix.limits import Tower
from bhfix.standard_dilators import (
    TOP,
    ConstantDilator,
    LexProductDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
)
from bhfix.systems import ThetaTerm

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


class _TiedConstant(ConstantDilator):
    """constant:2 with every two tokens tied: not a linear order."""

    def compare_at(self, n, s, t):
        return EQ


def test_compare_coded_rejects_distinct_elements_that_tie():
    with pytest.raises(DilatorLawError, match="distinct coded elements compare equal"):
        compare_coded(_TiedConstant(2), int_cmp, CodedElement((), 0), CodedElement((), 1))


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


def coded_sample(dilator, carried, budget, k):
    """The k least coded elements over a carrier sample of naturals, with
    a token table of their own."""
    order = partial(compare_coded, dilator, int_cmp)
    return least_coded(dilator, {}, carried, budget, k, int_cmp, lambda c: c, order)


def sorted_coded(dilator, sample, budget):
    """Every coded element over a sorted sample of naturals, in coded order:
    at most ``budget`` tokens per arity make at most budget * 2**|sample|."""
    carried = Enumeration(tuple(sample), True)
    return coded_sample(dilator, carried, budget, budget * 2 ** len(sample))


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
        coded_sample(succ, Enumeration((3, 1), True), 5, 5)


def test_least_coded_is_exhaustive_exactly_when_nothing_is_cut():
    # constant:3 over the empty sample has three coded elements
    empty = Enumeration((), True)
    for k, exhaustive in ((4, True), (3, True), (2, False)):
        out = coded_sample(ConstantDilator(3), empty, 50, k)
        assert (len(out), out.exhaustive) == (min(k, 3), exhaustive), k


def test_cut_keeps_the_first_k_and_clears_the_flag_on_a_drop():
    listing = Enumeration((1, 2, 3, 4, 5), True)
    assert listing.cut(5) == listing.cut(9) == listing
    assert listing.cut(2) == Enumeration((1, 2), False)
    assert listing.cut(0) == Enumeration((), False)
    assert Enumeration((), True).cut(0) == Enumeration((), True)
    assert Enumeration((1, 2), False).cut(2) == Enumeration((1, 2), False)
    with pytest.raises(ValueError, match="cannot cut a listing to -1 items"):
        listing.cut(-1)


def test_value_classes_keep_their_value_semantics():
    # equal coded elements hash alike and are one intern key
    a, b = CodedElement((1, 2), (0,)), CodedElement((1, 2), (0,))
    assert a is not b and a == b and hash(a) == hash(b)
    interned = {a: "term"}
    assert interned[b] == "term" and len({a, b}) == 1
    assert a != CodedElement((1, 2), (1,)) and a != CodedElement((1,), (0,))
    # the codomain is part of an embedding, as the token table needs
    assert Embedding((0,), 1) == Embedding((0,), 1)
    assert hash(Embedding((0,), 1)) == hash(Embedding((0,), 1))
    assert Embedding((0,), 1) != Embedding((0,), 2)
    assert Embedding.trusted(((0,), 2)) == Embedding((0,), 2)
    assert Enumeration((1,), True) == Enumeration((1,), True)
    assert Enumeration((1,), True) != Enumeration((1,), False)
    assert Enumeration((1,), True) != Enumeration((2,), True)
    # a term is equal only to itself: terms are interned
    term = ThetaTerm(CodedElement((), TOP), 1)
    assert term == term and term != ThetaTerm(term.body, 1)
    # frozen, and printed as the field-wise text
    for value, field in [(a, "support"), (a, "token"), (Embedding((0,), 1), "images"),
                         (Embedding((0,), 1), "codomain_size"),
                         (Enumeration((), True), "items"), (Enumeration((), True), "exhaustive"),
                         (term, "body"), (term, "length")]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(CodedElement((), "top")) == "CodedElement(support=(), token='top')"
    assert repr(Embedding((0, 2), 3)) == "Embedding(images=(0, 2), codomain_size=3)"
    assert repr(Enumeration((1,), False)) == "Enumeration(items=(1,), exhaustive=False)"
    with pytest.raises(ValueError):
        Embedding((1, 0), 2)


def test_coded_elements_are_pairs():
    a = CodedElement((1, 2), (0,))
    assert (a.support, a.token, a.arity) == ((1, 2), (0,), 2)
    # a tuple: equal to the plain pair and hashed as it, so it is an intern
    # key without any Python-level __eq__ or __hash__
    assert a == ((1, 2), (0,)) and hash(a) == hash(((1, 2), (0,)))
    assert tuple(a) == ((1, 2), (0,)) and len(a) == 2
    with pytest.raises(AttributeError):
        a.arity = 3
    with pytest.raises(AttributeError):
        a.extra = None
    # each collapse is interned under its body
    tower = Tower(omega)
    terms = tower.listing(2, 20)
    assert terms and all(tower._intern[t.body] is t for t in terms)
    assert all(tower._intern[tuple(t.body)] is t for t in terms)


def test_embeddings_are_pairs():
    f = Embedding((0, 2), 3)
    assert (f.images, f.codomain_size, f.domain_size, f(1)) == ((0, 2), 3, 2, 2)
    # a tuple, as a coded element is: equal to the plain pair and hashed as it
    assert f == ((0, 2), 3) and hash(f) == hash(((0, 2), 3)) and len(f) == 2
    assert type(Embedding.trusted(((0, 2), 3))) is Embedding
    with pytest.raises(AttributeError):
        f.extra = None


def test_terms_cannot_be_copied_or_pickled():
    # a term is equal only to itself, so a second term with the same body
    # would break the intern table: comparing it with the first is a defect
    tower = Tower(succ)
    term = tower.listing(2, 20)[-1]
    for clone in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
        with pytest.raises((AttributeError, TypeError)):
            clone(term)


class _CountingSum(SumDilator):
    """A sum that records the (arity, budget) of each token listing."""

    def __init__(self, left, right):
        super().__init__(left, right)
        self.listed = []

    def sample_at(self, n, budget):
        self.listed.append((n, budget))
        return super().sample_at(n, budget)


def test_each_arity_is_listed_once_per_budget():
    # listing the tokens on every least_coded call made 60 listings here,
    # and listing every arity once made 26.  An arity above its support
    # bound is not listed, not even for its flag: omega's listings are
    # never exhaustive, so no result here can be
    dilator = _CountingSum(succ, omega)
    assert len(Tower(dilator).enumerate(4, 60)) == 75
    assert len(dilator.listed) == len(set(dilator.listed)) == 9


def test_a_value_past_the_cut_end_costs_one_compare():
    # over one carrier element omega's values come in ascending order,
    # (), (0,), (0, 0), ...; bisecting each one made 94 and 7 order calls
    carried = Enumeration((7,), True)
    order = partial(compare_coded, omega, int_cmp)
    for k, built in ((100, 30), (5, 6)):
        calls, values = [], []
        out = least_coded(
            omega, {}, carried, 30, k, int_cmp,
            lambda c: values.append(c) or c,
            lambda a, b: calls.append(a) or order(a, b),
        )
        assert (len(out), len(values), len(calls)) == (min(k, 30), built, built - 1)
        assert list(out) == values[:k]


def test_coded_elements_keeps_the_sample_flag():
    assert coded_sample(succ, Enumeration((7,), True), 10, 10).exhaustive
    assert not coded_sample(succ, Enumeration((7,), False), 10, 10).exhaustive


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
# one-element supports, merged by one cmp call: below, above and equal
@example({0}, {1}, False)
@example({1}, {0}, False)
@example({0}, {1}, True)
@example({0}, {0}, False)
def test_compare_merged_positions_are_the_inclusions_into_the_union(xs, ys, descending):
    # the carrier order comes only from cmp: descending runs reverse it.
    # Omega's full-support tokens w[k-1,...,0] and w[k-1,...,0,0] keep the
    # two elements distinct when their supports are equal and nonempty.
    cmp = (lambda a, b: int_cmp(b, a)) if descending else int_cmp
    a = tuple(sorted(xs, reverse=descending))
    b = tuple(sorted(ys, reverse=descending))
    union = sorted(xs | ys, reverse=descending)
    e1 = CodedElement(a, tuple(range(len(a) - 1, -1, -1)))
    e2 = CodedElement(b, tuple(range(len(b) - 1, -1, -1)) + (0,) * bool(b))
    verdict, pa, pb = compare_merged(omega, cmp, e1, e2)
    assert verdict == compare_coded(omega, cmp, e1, e2)
    n = len(union)
    # together the positions are the whole union, 0..n-1
    assert sorted(set(pa) | set(pb)) == list(range(n))
    assert pa == tuple(union.index(x) for x in a)
    assert pb == tuple(union.index(y) for y in b)
    # the public constructor accepts what compare_merged builds unchecked
    assert Embedding(pa, n) == Embedding.trusted((pa, n))
    assert Embedding(pb, n) == Embedding.trusted((pb, n))


def test_compare_merged_places_a_tie_of_one_element_supports_at_one_position():
    # distinct carrier values that cmp ties share a position, as they do in
    # the merge of longer supports
    def cmp(a, b):
        return int_cmp(ord(a.lower()), ord(b.lower()))

    e1, e2 = CodedElement(("a",), (0,)), CodedElement(("A",), (0, 0))
    assert compare_merged(omega, cmp, e1, e2) == (omega.compare_at(1, (0,), (0, 0)), (0,), (0,))
    longer = CodedElement(("a", "b"), (1, 0)), CodedElement(("A", "c"), (1, 0, 0))
    assert compare_merged(omega, cmp, *longer)[1:] == ((0, 1), (0, 2))


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


def _reference_compare(dilator, e1, e2):
    # both tokens always pushed into the union of the two integer supports
    union = sorted(set(e1.support) | set(e2.support))
    n = len(union)
    return dilator.compare_at(
        n,
        dilator.map_token(Embedding(tuple(map(union.index, e1.support)), n), e1.token),
        dilator.map_token(Embedding(tuple(map(union.index, e2.support)), n), e2.token),
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
    expected = _reference_compare(dilator, e1, e2)
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
