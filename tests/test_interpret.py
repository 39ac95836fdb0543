"""Witnesses and the embedding of the limit order into them."""

import pytest

from bhfix.dilator import CodedElement
from bhfix.errors import WitnessLawError
from bhfix.interpret import (
    OmegaSuccessorWitness,
    SelfWitness,
    Witness,
    embed_bh,
    extend_interpretation,
    interpretation_at,
)
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import TOP, OmegaPowerDilator, SuccessorDilator
from bhfix.dilator import Enumeration
from bhfix.verify import check_witness


@pytest.fixture
def succ_tower():
    return Tower(SuccessorDilator())


def test_omega_witness_base_values(succ_tower):
    # the canonical collapse on the naturals: the new top goes to 0 and a
    # carrier element n to n + 1
    w = OmegaSuccessorWitness()
    assert w.collapse(CodedElement((), TOP)) == 0
    assert w.collapse(CodedElement((7,), 0)) == 8
    h1 = interpretation_at(w, 1)
    first = succ_tower.stage(1).carrier_listing(5)[0]
    assert h1(first) == 0


def test_omega_witness_rejects_foreign_elements():
    w = OmegaSuccessorWitness()
    with pytest.raises(WitnessLawError):
        w.collapse(CodedElement((1, 2), (1, 0)))


def test_empty_interpretation_is_vacuous():
    ip = interpretation_at(OmegaSuccessorWitness(), 0)
    with pytest.raises(WitnessLawError):
        ip(object())


def test_iterated_interpretation_enumerates_naturals(succ_tower):
    w = OmegaSuccessorWitness()
    for n in range(1, 6):
        ip = interpretation_at(w, n)
        values = [ip(t) for t in succ_tower.stage(n).carrier_listing(20)]
        assert values == list(range(n))


def test_extension_equation_on_samples(succ_tower):
    w = OmegaSuccessorWitness()
    ip = interpretation_at(w, 0)
    for n in range(4):
        nxt = extend_interpretation(w, ip)
        for x in succ_tower.stage(n).carrier_listing(10):
            assert nxt(succ_tower.stage(n).embed(x)) == ip(x)
        ip = nxt


def test_interpret_term_maps_support_through_h(succ_tower):
    w = OmegaSuccessorWitness()
    h = extend_interpretation(w, interpretation_at(w, 1))
    sys1 = succ_tower.stage(1)
    x = sys1.carrier_listing(5)[0]
    assert h(sys1.collapse(CodedElement((x,), 0))) == 1
    assert h(sys1.collapse(CodedElement((), TOP))) == 0


def test_embed_bh_counts_the_naturals(succ_tower):
    w = OmegaSuccessorWitness()
    elements = succ_tower.enumerate(6, 50)
    assert [embed_bh(w, e) for e in elements] == list(range(6))


def test_embed_bh_is_order_preserving_and_stage_consistent(succ_tower):
    w = OmegaSuccessorWitness()
    elements = succ_tower.enumerate(5, 50)
    images = [embed_bh(w, e) for e in elements]
    assert images == sorted(images)
    for e, img in zip(elements, images):
        later = interpretation_at(w, birth_stage(e) + 2)
        assert later(succ_tower.stage(birth_stage(e) + 1).embed(e)) == img


@pytest.mark.parametrize("dilator", [SuccessorDilator(), OmegaPowerDilator()],
                         ids=lambda d: d.name)
def test_self_witness_embeds_identically(dilator):
    # the limit collapses into itself; the induced embedding is the identity
    tower = Tower(dilator)
    w = SelfWitness(tower)
    for e in tower.enumerate(3, 8):
        assert embed_bh(w, e) is e


def test_omega_witness_self_check_at_scale(succ_tower):
    # both collapse conditions on every element with support inside 0..20
    report = check_witness(
        OmegaSuccessorWitness(), succ_tower.dilator, budget=21, carrier_cap=21
    )
    assert report.passed, report.format()
    assert report.instances > 400


class _ZeroWitness(Witness):
    name = "zero"

    def compare(self, a, b):
        return (a > b) - (a < b)

    def collapse(self, coded):
        return 0

    def enumerate(self, budget):
        return Enumeration(tuple(range(budget)), False)


def test_violating_witness_is_caught():
    report = check_witness(_ZeroWitness(), SuccessorDilator(), budget=6)
    assert not report.passed
