"""The stage tower, the limit system, and the glued collapse."""

from functools import cmp_to_key

import pytest

from bhfix.cli import parse_selector
from bhfix.dilator import CodedElement, map_coded
from bhfix.errors import DilatorLawError
from bhfix.finite_orders import EQ, LT
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import TOP, OmegaPowerDilator, SuccessorDilator
from bhfix.syntax import format_bh

BATTERY = [
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


def test_stage_zero_is_empty(succ_tower):
    listed = succ_tower.stage(0).carrier_listing(10)
    assert len(listed) == 0 and listed.exhaustive


def test_stage_sizes_successor(succ_tower):
    assert len(succ_tower.stage(2).carrier_listing(10)) == 2


def test_stage_one_omega_is_th_empty(omega_tower):
    listed = omega_tower.stage(1).carrier_listing(10)
    assert len(listed) == 1 and listed.exhaustive
    assert listed[0].body == CodedElement((), ())


# flatten is the injection of each stage into the limit (the colimit map).


def test_inject_strips_embedded_terms(succ_tower):
    t = succ_tower.stage(1).carrier_listing(5)[0]   # th(top) in X_1
    lifted = succ_tower.stage(1).embed(t)             # its image in X_2
    e = succ_tower.flatten(t)
    assert succ_tower.flatten(lifted) is e
    assert birth_stage(e) == 0 and succ_tower.stage(0).embed(e) is t


def test_inject_detects_new_terms(succ_tower):
    # exactly one X_3 term is new at stage 2: the one of length 3
    terms3 = succ_tower.stage(3).carrier_listing(10)
    new = [t for t in terms3 if birth_stage(succ_tower.flatten(t)) == 2]
    assert len(new) == 1 and new[0].length == 3
    assert succ_tower.stage(2).embed(succ_tower.flatten(new[0])) is new[0]


def test_lift_base_and_single_step(succ_tower):
    e0 = succ_tower.enumerate(1, 10)[0]
    t0 = succ_tower.stage(0).embed(e0)
    assert t0 in succ_tower.stage(1).carrier_listing(5).items
    lifted = succ_tower.stage(1).embed(e0)
    assert lifted is succ_tower.stage(1).embed(t0)
    assert format_bh(succ_tower.dilator, succ_tower.flatten(lifted)) == "@0:th(top)"


def test_flatten_after_lift_is_identity(succ_tower, omega_tower):
    for tower in (succ_tower, omega_tower):
        for e in tower.enumerate(3, 10):
            for m in range(birth_stage(e), 5):
                assert tower.flatten(tower.stage(m).embed(e)) is e


def test_lift_commutes_with_stage_embedding(succ_tower):
    for e in succ_tower.enumerate(3, 10):
        for m in range(birth_stage(e), 5):
            assert succ_tower.stage(m + 1).embed(e) is succ_tower.stage(m + 1).embed(
                succ_tower.stage(m).embed(e)
            )


def _preimage(tower, m, u):
    """The X_m term that the stage embedding maps to u in X_{m+1}, if any."""
    if m == 0:
        return None
    stripped = [_preimage(tower, m - 1, v) for v in u.body.support]
    if None in stripped:
        return None
    p = tower.stage(m - 1).collapse(CodedElement(tuple(stripped), u.body.token))
    assert tower.stage(m).embed(p) is u
    return p


def _birth_by_preimages(tower, n, t):
    """The least m such that t in X_{n+1} comes from X_{m+1} along the
    stage embeddings."""
    while (p := _preimage(tower, n, t)) is not None:
        t, n = p, n - 1
    return n


@pytest.mark.parametrize("selector", BATTERY)
def test_birth_stage_is_length_minus_one(selector):
    tower = Tower(parse_selector(selector))
    for n in range(4):
        for t in tower.stage(n + 1).carrier_listing(25):
            e = tower.flatten(t)
            assert _birth_by_preimages(tower, n, t) == birth_stage(e) == e.length - 1
    for e in tower.enumerate(4, 25):
        born = birth_stage(e)
        assert _birth_by_preimages(tower, born, tower.stage(born).embed(e)) == born


def test_compare_reflexive_and_stage_monotone(succ_tower):
    es = succ_tower.enumerate(4, 10)
    assert succ_tower.compare(es[0], es[0]) == EQ
    assert succ_tower.compare(es[0], es[1]) == LT
    for a, b in zip(es, es.items[1:]):
        assert succ_tower.compare(a, b) == LT


def test_compare_independent_of_lifting_stage(omega_tower):
    es = omega_tower.enumerate(2, 6)
    for a in es:
        for b in es:
            expected = omega_tower.compare(a, b)
            for m in range(max(birth_stage(a), birth_stage(b)), 4):
                sysm = omega_tower.stage(m)
                got = EQ if a == b else sysm.compare(sysm.embed(a), sysm.embed(b))
                assert got == expected


def test_glued_collapse_least_elements(succ_tower):
    least = succ_tower.collapse(CodedElement((), TOP))
    assert least == succ_tower.enumerate(1, 5)[0]
    second = succ_tower.collapse(CodedElement((least,), 0))
    assert second == succ_tower.enumerate(2, 5)[1]
    assert succ_tower.compare(least, second) == LT


def test_glued_collapse_stage_independence(succ_tower):
    es = succ_tower.enumerate(3, 10)
    sigma = CodedElement((es[1],), 0)
    value = succ_tower.collapse(sigma)
    n = birth_stage(value)
    at_n = succ_tower.flatten(succ_tower.stage(n).embed(value))
    assert at_n == succ_tower.flatten(succ_tower.stage(n + 1).embed(value))
    assert at_n == value


def test_glued_collapse_rejects_misordered_support(succ_tower):
    es = succ_tower.enumerate(3, 10)
    with pytest.raises(ValueError):
        succ_tower.collapse(CodedElement((es[2], es[0]), 0))


def test_glued_collapse_rejects_partial_support(succ_tower):
    # the top token uses none of its arity-1 support
    e0 = succ_tower.enumerate(1, 10)[0]
    with pytest.raises(DilatorLawError):
        succ_tower.collapse(CodedElement((e0,), TOP))


def test_push_pull_round_trip(omega_tower):
    # pull back to a stage, then push forward along flatten
    es = omega_tower.enumerate(2, 6)
    sigma = CodedElement((es[0], es[2]), (1, 0))
    value = omega_tower.collapse(sigma)
    n = birth_stage(value)
    for m in (n, n + 1):
        assert map_coded(omega_tower.flatten, omega_tower.stage(m).embed(value).body) == sigma


def test_enumerate_successor_one_birth_per_stage(succ_tower):
    listed = succ_tower.enumerate(5, 50)
    assert listed.exhaustive
    assert [birth_stage(e) for e in listed] == [0, 1, 2, 3, 4]


def test_enumerate_stage_bound_zero(succ_tower):
    listed = succ_tower.enumerate(0, 10)
    assert len(listed) == 0 and listed.exhaustive


def test_enumerate_omega_budgeted(omega_tower):
    listed = omega_tower.enumerate(2, 4)
    assert not listed.exhaustive
    assert [birth_stage(e) for e in listed] == [0, 1, 1, 1]
    for a, b in zip(listed, listed.items[1:]):
        assert omega_tower.compare(a, b) == LT


@pytest.mark.parametrize("make", [SuccessorDilator, OmegaPowerDilator])
def test_limit_order_is_linear_on_enumeration(make):
    tower = Tower(make())
    items = tower.enumerate(3, 6).items
    m = [[tower.compare(a, b) for b in items] for a in items]
    n = len(items)
    for i in range(n):
        assert m[i][i] == EQ
        for j in range(n):
            if i != j:
                assert m[i][j] in (-1, 1) and m[i][j] == -m[j][i]
            for k in range(n):
                if m[i][j] == LT and m[j][k] == LT:
                    assert m[i][k] == LT


def test_cocone_law(succ_tower, omega_tower):
    # flattening an embedded term gives the element of the term one stage down
    for tower in (succ_tower, omega_tower):
        for n in (1, 2, 3):
            for s in tower.stage(n).carrier_listing(10):
                assert tower.flatten(tower.stage(n).embed(s)) is tower.flatten(s)


@pytest.mark.parametrize("selector", BATTERY)
def test_enumerate_builds_no_stage_system(selector):
    tower = Tower(parse_selector(selector))
    tower.enumerate(200, 12)
    assert len(tower._systems) == 1


@pytest.mark.parametrize("selector", BATTERY)
def test_enumerate_stops_where_every_later_listing_repeats(selector):
    # the early stop agrees with walking every stage up to the bound
    tower = Tower(parse_selector(selector))
    for budget in (0, 3, 12, 13):
        out, exhaustive = [], True
        for n in range(1, 9):
            listed = tower.listing(n, budget)
            exhaustive &= listed.exhaustive
            out.extend(e for e in listed if e.length == n)
        out.sort(key=cmp_to_key(tower.compare))
        listed = tower.enumerate(8, budget)
        assert (listed.items, listed.exhaustive) == (tuple(out), exhaustive), budget


def test_deep_listing_is_built_without_recursion(omega_tower):
    listed = omega_tower.listing(5000, 3)
    assert listed == omega_tower.listing(4, 3)


@pytest.mark.parametrize("selector", BATTERY)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stage_iota_is_the_lift_of_the_flattened_element(selector, n):
    # iota of X_n relabels through the stage below; through the limit it is
    # the element's own representative one stage up
    tower = Tower(parse_selector(selector))
    stage = tower.stage(n)
    for x in stage.carrier_listing(40):
        assert stage.embed(x) is tower.stage(n).embed(tower.flatten(x))
