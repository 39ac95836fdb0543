"""The stage tower, the limit system, and the glued collapse."""

from functools import cmp_to_key

import pytest

from bhfix.cli import parse_selector
from bhfix.dilator import CodedElement, Enumeration
from bhfix.errors import DilatorLawError
from bhfix.finite_orders import EQ, LT
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import TOP, OmegaPowerDilator, SuccessorDilator
from bhfix.syntax import format_bh, parse_bh
from test_verify import _TREES, _FlippedTower

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
    listed = succ_tower.listing(0, 10)
    assert len(listed) == 0 and listed.exhaustive


def test_stage_sizes_successor(succ_tower):
    assert len(succ_tower.listing(2, 10)) == 2


def test_stage_one_omega_is_th_empty(omega_tower):
    listed = omega_tower.listing(1, 10)
    assert len(listed) == 1 and listed.exhaustive
    assert listed[0].body == CodedElement((), ())


# The stages and the limit share one intern table: a stage term is the
# limit element it stands for, and the stage iota is the inclusion.


def test_stage_term_is_its_limit_element(succ_tower):
    t = succ_tower.listing(1, 5)[0]   # th(top) in X_1
    assert succ_tower.stage(1).embed(t) is t          # and in X_2
    assert succ_tower._intern[t.body] is t
    assert birth_stage(t) == 0 and succ_tower.stage(0).embed(t) is t


def test_new_terms_are_born_at_their_stage(succ_tower):
    # exactly one X_3 term is new at stage 2: the one of length 3
    terms3 = succ_tower.listing(3, 10)
    new = [t for t in terms3 if birth_stage(t) == 2]
    assert len(new) == 1 and new[0].length == 3
    assert succ_tower.stage(2).embed(new[0]) is new[0]
    with pytest.raises(ValueError):
        succ_tower.stage(1).embed(new[0])


def test_lift_base_and_single_step(succ_tower):
    e0 = succ_tower.enumerate(1, 10)[0]
    assert succ_tower.stage(0).embed(e0) is e0
    assert e0 in succ_tower.listing(1, 5).items
    assert succ_tower.stage(1).embed(e0) is e0
    assert format_bh(succ_tower.dilator, e0) == "@0:th(top)"


def test_lift_is_the_identity(succ_tower, omega_tower):
    for tower in (succ_tower, omega_tower):
        for e in tower.enumerate(3, 10):
            for m in range(birth_stage(e), 5):
                assert tower.stage(m).embed(e) is e


def test_lift_commutes_with_stage_embedding(succ_tower):
    for e in succ_tower.enumerate(3, 10):
        for m in range(birth_stage(e), 5):
            assert succ_tower.stage(m + 1).embed(e) is succ_tower.stage(m + 1).embed(
                succ_tower.stage(m).embed(e)
            )


def test_embed_rejects_an_element_born_above_the_stage(succ_tower):
    # the recursion used to reach stage 0's missing base and raise
    # AttributeError ('NoneType' object has no attribute 'embed')
    by_length = {e.length: e for e in succ_tower.enumerate(3, 10)}
    for m, length in ((1, 3), (0, 2)):
        with pytest.raises(ValueError, match=f"born at stage {length - 1} at stage {m}"):
            succ_tower.stage(m).embed(by_length[length])


def test_listing_stops_each_support_at_its_first_miss(omega_tower):
    # building every collapse over the base sample interns 4681 limit terms
    # here; leaving each support at its first miss interns 347, and also
    # skipping the supports pointwise above a first-token miss interns 53
    assert len(omega_tower.enumerate(3, 50)) == 50
    assert len(omega_tower._intern) <= 100


def test_select_cuts_the_carrier_to_its_first_cap_elements(succ_tower):
    # a carrier one longer than the cap selects over its first cap
    # elements, and the cut clears the exhaustive flag
    carrier = succ_tower.enumerate(4, 50)
    assert len(carrier) == 4 and carrier.exhaustive
    whole = succ_tower.select(carrier, 4, 50, 100, succ_tower)
    cut = succ_tower.select(carrier, 3, 50, 100, succ_tower)
    first = Enumeration(carrier.items[:3], False)
    assert cut == succ_tower.select(first, 3, 50, 100, succ_tower)
    assert whole.exhaustive and not cut.exhaustive and len(cut) < len(whole)


def _chain(tower, bottom, token, height):
    """The limit element th(token; th(token; ... th(bottom))) of the given height."""
    e = tower.collapse(CodedElement((), bottom))
    for _ in range(height - 1):
        e = tower.collapse(CodedElement((e,), token))
    return e


@pytest.mark.parametrize(
    "make, a, b",
    [
        (SuccessorDilator, (TOP, 0, 150), (TOP, 0, 149)),
        (OmegaPowerDilator, ((), (0,), 120), ((), (0, 0), 119)),
    ],
)
def test_limit_compare_is_linear_along_chains(make, a, b):
    # checking every support against the other term as well as merging
    # visits every pair of heights: 22350 memo entries for the successor
    # pair and 14280 for the omega pair; settling the supports the merge
    # already places below leaves one compare per level
    tower = Tower(make())
    tower.compare(_chain(tower, *a), _chain(tower, *b))
    assert len(tower._memo) <= 4 * a[2]


def test_limit_compare_settles_the_supports_merged_below_the_last():
    # two supports each, the same on both sides: the merge places both
    # supports of s at or before the last support of t, so no support
    # compare is left and one verdict (two entries) is memoized.  Settling
    # only those merged at or before t's first support leaves one to
    # compare, and memoizes its verdict too.
    tower = Tower(OmegaPowerDilator())
    s = parse_bh(tower, "@2:th(w[1,0];th(w[]),th(w[0];th(w[])))")
    t = parse_bh(tower, "@2:th(w[1,1,0];th(w[]),th(w[0];th(w[])))")
    # parsing compares the supports too, so count from here
    before = len(tower._memo)
    assert tower.compare(s, t) == LT
    assert len(tower._memo) - before == 2


def _in_stage(m, u):
    """Is u a term of X_m, built in m collapse steps from the empty X_0?"""
    return m > 0 and all(_in_stage(m - 1, v) for v in u.body.support)


def _birth_by_construction(t):
    """The least m such that t is a term of X_{m+1}."""
    m = 0
    while not _in_stage(m + 1, t):
        m += 1
    return m


@pytest.mark.parametrize("selector", BATTERY)
def test_birth_stage_is_length_minus_one(selector):
    tower = Tower(parse_selector(selector))
    for n in range(4):
        for t in tower.listing(n + 1, 25):
            assert tower._intern[t.body] is t
            assert _in_stage(n + 1, t)
            assert _birth_by_construction(t) == birth_stage(t) == t.length - 1
    for e in tower.enumerate(4, 25):
        born = birth_stage(e)
        assert _birth_by_construction(e) == born
        assert tower.stage(born).embed(e) is e
        if born:
            with pytest.raises(ValueError):
                tower.stage(born - 1).embed(e)


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


@pytest.mark.parametrize("selector", _TREES)
def test_limit_order_is_the_stage_order(selector):
    # the limit settles supports through the merge; a stage checks every
    # clause, so it is the oracle
    tower = Tower(parse_selector(selector))
    es = tower.enumerate(4, 25)
    for a in es:
        for b in es:
            stage = tower.stage(max(birth_stage(a), birth_stage(b)))
            assert tower.compare(a, b) == stage.compare(stage.embed(a), stage.embed(b)), (
                format_bh(tower.dilator, a),
                format_bh(tower.dilator, b),
            )


def _stage_verdicts(tower, n, items):
    stage = tower.stage(n)
    return [[stage.compare(s, t) for t in items] for s in items]


def test_stage_order_does_not_read_the_limit():
    # the stages share the limit's terms but not its order: a stage merges
    # supports in its base's order, so a limit order with one verdict
    # reversed leaves every stage verdict as it is on a clean tower
    selector = "product(successor,constant:2)"
    towers = [Tower(parse_selector(selector)), _FlippedTower(parse_selector(selector))]
    clean, tower = towers
    items, firsts = [], []
    for t in towers:
        items.append(t.listing(3, 30).items)
        supports = dict.fromkeys(x for term in items[-1] for x in term.body.support)
        firsts.append(list(supports)[:2])
    tower.flipped = frozenset(firsts[1])
    assert tower.compare(*firsts[1]) == -clean.compare(*firsts[0])
    assert _stage_verdicts(tower, 2, items[1]) == _stage_verdicts(clean, 2, items[0])


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
    for m in (n, n + 1):
        assert succ_tower.stage(m).embed(value) is value
        # collapsing at the stage gives the limit's element
        assert succ_tower.stage(m).collapse(sigma) is value


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
    # pull back to a stage and collapse there: the limit's element again
    es = omega_tower.enumerate(2, 6)
    sigma = CodedElement((es[0], es[2]), (1, 0))
    value = omega_tower.collapse(sigma)
    n = birth_stage(value)
    for m in (n, n + 1):
        staged = omega_tower.stage(m).embed(value)
        assert staged.body == sigma
        assert omega_tower.stage(m).collapse(staged.body) is value


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
    # the maps into the limit commute with the stage iota: every stage term
    # is a limit element, and iota keeps it
    for tower in (succ_tower, omega_tower):
        for n in (1, 2, 3):
            for s in tower.listing(n, 10):
                assert tower.stage(n).embed(s) is s
                assert tower._intern[s.body] is s


@pytest.mark.parametrize("selector", BATTERY)
def test_enumerate_builds_no_stage_system(selector):
    # enumerating reads only the limit: it builds no stage view, and the
    # full order of the stages compares nothing
    tower = Tower(parse_selector(selector))
    tower.enumerate(200, 12)
    assert tower._stages == {} and tower.full_order._memo == {}


@pytest.mark.parametrize("selector", BATTERY)
def test_enumerate_stops_where_every_later_listing_repeats(selector):
    # the early stop, and the last stage's skipped repeat test, agree with
    # walking every stage up to the bound
    tower = Tower(parse_selector(selector))
    for budget in (0, 3, 12, 13, 50):
        for bound in (1, 2, 3, 4, 8):
            listed = tower.enumerate(bound, budget)
            out, exhaustive = [], True
            for n in range(1, bound + 1):
                xs = tower.listing(n, budget)
                exhaustive &= xs.exhaustive
                out.extend(e for e in xs if e.length == n)
            out.sort(key=cmp_to_key(tower.compare))
            assert (listed.items, listed.exhaustive) == (tuple(out), exhaustive), (budget, bound)


def test_enumerate_builds_no_capped_listing_at_its_last_stage(omega_tower):
    # the repeat test at the bound could only end the loop a step early;
    # the stages below keep their capped listings, each the next one's base
    omega_tower.enumerate(3, 50)
    assert sorted(omega_tower._listings) == [(1, 12), (1, 50), (2, 12), (2, 50), (3, 50)]


def test_deep_listing_is_built_without_recursion(omega_tower):
    listed = omega_tower.listing(5000, 3)
    assert listed == omega_tower.listing(4, 3)


@pytest.mark.parametrize("selector", BATTERY)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stage_iota_is_the_inclusion(selector, n):
    # the listed terms of X_n are limit elements, and iota of X_n keeps
    # each one, interning nothing
    tower = Tower(parse_selector(selector))
    stage = tower.stage(n)
    listed = tower.listing(n, 40)
    interned = len(tower._intern)
    for x in listed:
        assert tower._intern[x.body] is x
        assert stage.embed(x) is x
    assert len(tower._intern) == interned
