"""Term grammar round trips and error classification."""

import pytest

from bhfix.errors import TermSyntaxError, TermTypeError
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import OmegaPowerDilator, SuccessorDilator
from bhfix.syntax import format_bh, format_term, parse_bh


def parse_stage_term(tower, n, text):
    """The representative in X_{n+1} of a term read at stage n."""
    return tower.stage(n).embed(parse_bh(tower, f"@{n}:{text}"))


@pytest.fixture
def succ_tower():
    return Tower(SuccessorDilator())


@pytest.fixture
def omega_tower():
    return Tower(OmegaPowerDilator())


@pytest.mark.parametrize("make", [SuccessorDilator, OmegaPowerDilator])
def test_round_trip_enumerated_elements(make):
    dilator = make()
    tower = Tower(dilator)
    for e in tower.enumerate(4, 25):
        text = format_bh(dilator, e)
        assert parse_bh(tower, text) is e
        assert format_bh(dilator, parse_bh(tower, text)) == text


def test_nested_omega_term_example(omega_tower):
    text = "th(w[1,0,0];th(w[]),th(w[0];th(w[])))"
    term = parse_stage_term(omega_tower, 2, text)
    assert format_term(omega_tower.dilator, term) == text
    assert term.body.token == (1, 0, 0)
    assert len(term.body.support) == 2


def test_whitespace_insensitive(succ_tower, omega_tower):
    a = parse_bh(succ_tower, " @1 : th( v0 ; th( top ) ) ")
    b = parse_bh(succ_tower, "@1:th(v0;th(top))")
    assert a is b
    c = parse_stage_term(omega_tower, 1, "th( w[ 0 , 0 ] ; th(w[]) )")
    assert format_term(omega_tower.dilator, c) == "th(w[0,0];th(w[]))"


def test_parse_canonicalizes_birth_stage(omega_tower):
    # th(w[]) exists at every stage but was born at stage 0
    e = parse_bh(omega_tower, "@3:th(w[])")
    assert birth_stage(e) == 0
    assert format_bh(omega_tower.dilator, e) == "@0:th(w[])"


def test_syntax_errors(succ_tower):
    for text in ["", "@", "@0", "@0:", "@0:th(", "@0:th(top", "th(top)", "@0:th()"]:
        with pytest.raises(TermSyntaxError):
            parse_bh(succ_tower, text)
    with pytest.raises(TermSyntaxError):
        parse_bh(succ_tower, "@0:th(top))")  # trailing input


def test_type_errors(succ_tower, omega_tower):
    # support at stage 0
    with pytest.raises(TermTypeError):
        parse_bh(succ_tower, "@0:th(v0;th(top))")
    # token out of range for the arity
    with pytest.raises(TermTypeError):
        parse_bh(succ_tower, "@1:th(v1;th(top))")
    # non-full-support token with a listed support term
    with pytest.raises(TermTypeError):
        parse_bh(omega_tower, "@1:th(w[];th(w[]))")
    # misordered support list
    with pytest.raises(TermTypeError):
        parse_stage_term(
            omega_tower, 1, "th(w[1,0];th(w[0];th(w[])),th(w[]))"
        )
    # duplicate support terms
    with pytest.raises(TermTypeError):
        parse_stage_term(omega_tower, 1, "th(w[1,0];th(w[]),th(w[]))")


def test_unknown_token_is_syntax_error(succ_tower):
    with pytest.raises(TermSyntaxError):
        parse_bh(succ_tower, "@0:th(w[])")
