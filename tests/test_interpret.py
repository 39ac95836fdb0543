"""Witnesses and the embedding of the limit order into them."""

import pytest

from bhfix.dilator import CodedElement
from bhfix.errors import WitnessLawError
from bhfix.interpret import OmegaSuccessorWitness, embed_bh, interpretation
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import TOP, OmegaPowerDilator, SuccessorDilator
from bhfix.dilator import Enumeration
from bhfix.cli import parse_selector
from bhfix.syntax import format_bh, parse_bh
from bhfix.verify import check_witness
from test_verify import _TREES


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


def _recursive_interpretation(witness):
    """The interpretation as the plain recursion, one Python frame a level:
    the reference for the order of the witness's collapse calls."""
    images = {}

    def h(term):
        if term not in images:
            support, token = term.body
            images[term] = witness.collapse(CodedElement(tuple(map(h, support)), token))
        return images[term]

    return h


class _Recording:
    """A witness that records each coded element it is asked to collapse
    and hands it on to ``base``."""

    def __init__(self, base):
        self.base, self.calls = base, []

    def collapse(self, coded):
        self.calls.append(coded)
        return self.base.collapse(coded)


class _StrictZeroWitness(_ZeroWitness):
    """_ZeroWitness, which rejects a support that is not strictly
    increasing: every element of arity 2 or more, since each image is 0."""

    def collapse(self, coded):
        if len(coded.support) > 1:
            raise WitnessLawError(f"support {coded.support} of token {coded.token!r}")
        return super().collapse(coded)


def _collapse_calls(make_h, base, elements):
    """The collapse calls and the images, or the first error, of one h on
    the elements in turn, as check_minimality uses it, and of a fresh h on
    each element alone."""
    runs = [elements] + [[e] for e in elements]
    out = []
    for run in runs:
        witness = _Recording(base)
        h = make_h(witness)
        try:
            out.append((witness.calls, [h(e) for e in run]))
        except WitnessLawError as err:
            out.append((witness.calls, str(err)))
    return out


def _successor_chains():
    tower = Tower(SuccessorDilator())
    chain = [tower.collapse(CodedElement((), TOP))]
    while len(chain) < 60:
        chain.append(tower.collapse(CodedElement((chain[-1],), 0)))
    # deepest first, so that one h meets the shallower ones already mapped
    return tower, chain[::-3] + chain[::7]


@pytest.mark.parametrize("selector", _TREES + ["successor-chains"])
def test_interpretation_collapses_in_the_order_of_the_recursion(selector):
    # the explicit stack makes the recursion's collapse calls in its order,
    # and meets the same first WitnessLawError
    if selector == "successor-chains":
        tower, elements = _successor_chains()
    else:
        tower = Tower(parse_selector(selector))
        # the last stage first, so that one h meets terms whose supports
        # it has not mapped yet
        elements = [e for n in (3, 2, 1) for e in tower.listing(n, 12)]
    for base in (tower, _StrictZeroWitness()):
        expected = _collapse_calls(_recursive_interpretation, base, elements)
        assert _collapse_calls(interpretation, base, elements) == expected
    # into bh-self h is the identity, also on an element read back into a
    # fresh tower, as the CLI reads its input
    for e in elements:
        fresh = Tower(tower.dilator)
        read = parse_bh(fresh, format_bh(tower.dilator, e))
        assert embed_bh(fresh, read) is read
        assert embed_bh(tower, e) is e
