"""A direct differential oracle: for a normal dilator the limit order is T's
own order on bodies.

T is normal when it preserves initial segments: below the image of an
initial-segment inclusion m -> n, every token's support lies inside
0..m-1.  Then sigma < tau in T_X puts every support of sigma at or below
max supp tau, and every support of tau lies below th(tau) (the support
lemma in :mod:`bhfix.limits`), so the first clause of the term order always
decides and th is order preserving:

    tower.compare(s, t) == compare_coded(T, tower.compare, s.body, t.body).

The right-hand side has no collapse clauses and no settled supports, so it
shares neither with the limit order.  ``normal`` here is a finite,
test-local predicate; a non-normal dilator is one whose collapse must
reorder, and the identity fails there.
"""

from functools import partial
from itertools import combinations

import pytest

from bhfix.cli import parse_selector
from bhfix.dilator import CodedElement, compare_coded, full_support_tokens
from bhfix.finite_orders import Embedding
from bhfix.limits import Tower
from bhfix.standard_dilators import OmegaPowerDilator, SuccessorDilator
from test_verify import _TREES

SAMPLE_BUDGET = 12


def normal(dilator, max_arity=4, budget=SAMPLE_BUDGET):
    """For every n <= max_arity and every initial-segment inclusion m -> n,
    each sampled arity-n token below the image of a sampled arity-m token
    has its support inside 0..m-1."""
    for n in range(max_arity + 1):
        tokens = dilator.sample_at(n, budget)
        for m in range(n):
            segment = Embedding(tuple(range(m)), n)
            for u in dilator.sample_at(m, budget):
                image = dilator.map_token(segment, u)
                for t in tokens:
                    if dilator.compare_at(n, t, image) < 0 and any(
                        i >= m for i in dilator.supp_at(n, t)
                    ):
                        return False
    return True


def stratified_sample(tower):
    """The first 8 elements of each listing X1..X3, and for each n the
    collapses of the first two full-support tokens of arities 1 and 2 over
    supports from the first 8 of X(n-1) that meet its elements of length
    n - 1, so the sample reaches elements born at every stage it names."""
    dilator = tower.dilator
    out = {}
    for n in (1, 2, 3):
        out.update(dict.fromkeys(tower.listing(n, SAMPLE_BUDGET)[:8]))
        base = tower.listing(n - 1, SAMPLE_BUDGET)[:8]
        for k in (1, 2):
            tokens = full_support_tokens(dilator, k, SAMPLE_BUDGET)[:2]
            for support in combinations(base, k):
                if any(x.length == n - 1 for x in support):
                    for token in tokens:
                        out[tower.collapse(CodedElement(support, token))] = None
    return list(out)


def body_order_disagreements(tower, sample):
    """The pairs of the sample that the limit order and T's order on
    bodies rank differently."""
    body_order = partial(compare_coded, tower.dilator, tower.compare)
    return [
        (s, t)
        for i, s in enumerate(sample)
        for t in sample[i + 1:]
        if tower.compare(s, t) != body_order(s.body, t.body)
    ]


NORMAL_TREES = [selector for selector in _TREES if normal(parse_selector(selector))]


def test_normal_picks_the_trees_that_preserve_initial_segments():
    assert len(NORMAL_TREES) == 26
    assert "omega" in NORMAL_TREES and "constant:2" in NORMAL_TREES
    assert "successor" not in NORMAL_TREES and "sum(omega,omega)" not in NORMAL_TREES


@pytest.mark.parametrize("selector", NORMAL_TREES)
def test_the_limit_order_is_the_body_order_on_normal_dilators(selector):
    tower = Tower(parse_selector(selector))
    assert body_order_disagreements(tower, stratified_sample(tower)) == []


def test_the_omega_sample_reaches_above_omega():
    # elements of length 3 are omega and above
    sample = stratified_sample(Tower(OmegaPowerDilator()))
    assert sum(x.length == 3 for x in sample) > 8


def test_the_body_order_identity_fails_on_successor():
    # th(top) is the least element, though top is T's greatest token
    tower = Tower(SuccessorDilator())
    assert not normal(tower.dilator)
    assert body_order_disagreements(tower, stratified_sample(tower))


class _ReversedAboveOmega(Tower):
    """The omega limit with its verdict reversed on every pair of terms of
    length >= 3, in its own recursion too: a fault that ``verify``'s
    samples, all below omega, cannot see."""

    def compare(self, s, t):
        verdict = super().compare(s, t)
        return -verdict if s.length >= 3 and t.length >= 3 else verdict


def test_the_oracle_sees_omega_reversed_above_omega():
    tower = _ReversedAboveOmega(OmegaPowerDilator())
    assert body_order_disagreements(tower, stratified_sample(tower))
