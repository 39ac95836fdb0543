"""Witnesses and the embedding of the limit order into them."""

import pytest

from bhfix.dilator import CodedElement
from bhfix.errors import WitnessLawError
from bhfix.interpret import OmegaSuccessorWitness, embed_bh, interpretation
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import TOP, OmegaPowerDilator, SuccessorDilator
from bhfix.dilator import Enumeration
from bhfix.cli import parse_selector
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
    h = interpretation(w)
    first = succ_tower.listing(1, 5)[0]
    assert h(first) == 0


def test_omega_witness_rejects_foreign_elements():
    w = OmegaSuccessorWitness()
    with pytest.raises(WitnessLawError):
        w.collapse(CodedElement((1, 2), (1, 0)))


def test_omega_witness_rejects_other_arity_one_tokens():
    # only the successor token 0 has a one-element support
    with pytest.raises(WitnessLawError):
        OmegaSuccessorWitness().collapse(CodedElement((7,), (0,)))


def test_interpretation_restricted_to_stages_enumerates_naturals(succ_tower):
    h = interpretation(OmegaSuccessorWitness())
    for n in range(1, 6):
        values = [h(t) for t in succ_tower.listing(n, 20)]
        assert values == list(range(n))


def test_extension_equation_on_samples(succ_tower):
    h = interpretation(OmegaSuccessorWitness())
    for n in range(4):
        for x in succ_tower.listing(n, 10):
            assert h(succ_tower.stage(n).embed(x)) == h(x)


def test_interpret_term_maps_support_through_h(succ_tower):
    h = interpretation(OmegaSuccessorWitness())
    sys1 = succ_tower.stage(1)
    x = succ_tower.listing(1, 5)[0]
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
    h = interpretation(w)
    for e, img in zip(elements, images):
        assert h(succ_tower.stage(birth_stage(e) + 1).embed(e)) == img


@pytest.mark.parametrize("dilator", [SuccessorDilator(), OmegaPowerDilator()],
                         ids=lambda d: d.name)
def test_self_witness_embeds_identically(dilator):
    # the limit collapses into itself; the induced embedding is the identity
    tower = Tower(dilator)
    for e in tower.enumerate(3, 8):
        assert embed_bh(tower, e) is e


def test_omega_witness_self_check_at_scale(succ_tower):
    # both collapse conditions on every element with support inside 0..20
    report = check_witness(
        OmegaSuccessorWitness(), succ_tower, budget=21, carrier_cap=21
    )
    assert report.passed, report.format()
    assert report.instances > 400


class _ZeroWitness:
    format = str

    def compare(self, a, b):
        return (a > b) - (a < b)

    def collapse(self, coded):
        return 0

    def sample(self, budget):
        return Enumeration(tuple(range(budget)), False)


def test_violating_witness_is_caught():
    report = check_witness(_ZeroWitness(), Tower(SuccessorDilator()), budget=6)
    assert not report.passed


class _FixedPointWitness(OmegaSuccessorWitness):
    """The naturals with a carrier element n collapsing to n, not n + 1:
    every support element equals its collapse, and the order is kept."""

    def collapse(self, coded):
        return coded.support[0] if coded.support else 0


def test_support_element_equal_to_its_collapse_is_caught():
    # condition (ii) asks for strictly below; condition (i) holds here
    report = check_witness(_FixedPointWitness(), Tower(SuccessorDilator()), budget=6)
    assert not report.passed
    assert all(line.startswith("condition (ii) broken: ") for line in report.failures)
    assert "condition (ii) broken: 3 not below 3" in report.failures


class _DescendingSample(OmegaSuccessorWitness):
    """The naturals with their sample listed from the top down."""

    def __repr__(self):
        return "descending"

    def sample(self, budget):
        return Enumeration(tuple(reversed(range(budget))), False)


def test_an_unsorted_witness_sample_is_a_system_defect():
    # the tower cuts the witness sample as it is, without sorting it
    report = check_witness(_DescendingSample(), Tower(SuccessorDilator()), budget=6)
    assert report.failures == [
        "system defect: descending: the tower's listing of its carrier is not sorted in its order"
    ]


def test_the_tower_is_its_own_witness():
    # bh-self: the least elements born below LIMIT_STAGES, printed in the
    # term grammar; the successor sample holds every limit element of X_3
    tower = Tower(SuccessorDilator())
    assert [tower.format(e) for e in tower.sample(5)] == [
        "@0:th(top)", "@1:th(v0;th(top))", "@2:th(v0;th(v0;th(top)))"
    ]
    report = check_witness(tower, tower, 10)
    assert (report.passed, report.instances, report.exhaustive) == (True, 15, True)
    product = Tower(parse_selector("product(successor,constant:2)"))
    report = check_witness(product, product, 30)
    assert (report.passed, report.instances) == (True, 674)
