"""Term grammar round trips and error classification."""

import re
import sys

import pytest

from bhfix import errors
from bhfix.cli import parse_selector
from bhfix.errors import TermSyntaxError, TermTypeError
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import (
    LexProductDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
)
from bhfix.syntax import format_bh, format_term, parse_bh
from bhfix.systems import System
from test_limits import BATTERY
from test_verify import _TREES

# Malformed inputs with the exact error each raises: (dilator selector,
# text, exception class name, message).  Every raise of the grammar and of
# the token parsers appears, and so do the orders between them: the head
# before the term, the syntax of the whole term before any type check, the
# type checks in the order a recursive reader meets them (a support list
# at stage 0 when its ";" is read, a token after its supports), and
# trailing input last.
ERROR_CORPUS = [
    ("successor", "", "TermSyntaxError", "expected '@' at position 0, found 'end of input'"),
    ("successor", "th(top)", "TermSyntaxError", "expected '@' at position 0, found 't'"),
    ("successor", " \t", "TermSyntaxError", "expected '@' at position 2, found 'end of input'"),
    ("successor", "@", "TermSyntaxError", "expected a number at position 1"),
    ("successor", "@x:th(top)", "TermSyntaxError", "expected a number at position 1"),
    ("successor", " @ x", "TermSyntaxError", "expected a number at position 3"),
    ("successor", "@" + "9" * 4301 + ":th(top)", "TermSyntaxError",
     "the stage at position 1 has 4301 digits, more than 4300"),
    ("successor", "@10001:th(top)", "TermTypeError",
     "stage 10001 exceeds the supported bound 10000"),
    ("successor", "@10001", "TermTypeError", "stage 10001 exceeds the supported bound 10000"),
    ("successor", "@10001:th(", "TermTypeError", "stage 10001 exceeds the supported bound 10000"),
    ("successor", "@0", "TermSyntaxError", "expected ':' at position 2, found 'end of input'"),
    ("successor", "@0;th(top)", "TermSyntaxError", "expected ':' at position 2, found ';'"),
    ("successor", "@0:", "TermSyntaxError", "expected 'th' at position 3, found 'end of input'"),
    ("successor", "@0:x(top)", "TermSyntaxError", "expected 'th' at position 3, found 'x('"),
    ("successor", "@0:t", "TermSyntaxError", "expected 'th' at position 3, found 't'"),
    ("successor", "@0:th", "TermSyntaxError", "expected '(' at position 5, found 'end of input'"),
    ("successor", "@0:th [top)", "TermSyntaxError", "expected '(' at position 6, found '['"),
    ("successor", "@0:th(", "TermSyntaxError", "missing token at position 6"),
    ("successor", "@0:th()", "TermSyntaxError", "missing token at position 6"),
    ("successor", "@0:th( ;th(top))", "TermSyntaxError", "missing token at position 6"),
    ("successor", "@0:th(top", "TermSyntaxError",
     "expected ')' at position 9, found 'end of input'"),
    ("successor", "@0:th(top]", "TermSyntaxError", "unbalanced bracket at position 9"),
    ("successor", "@1:th(v0;th(top]))", "TermSyntaxError", "unbalanced bracket at position 15"),
    ("omega", "@0:th(w[0)", "TermSyntaxError",
     "expected ')' at position 10, found 'end of input'"),
    ("successor", "@1:th(v0;th(top)", "TermSyntaxError",
     "expected ')' at position 16, found 'end of input'"),
    ("successor", "@1:th(v0;th(top)x", "TermSyntaxError",
     "expected ')' at position 16, found 'x'"),
    ("successor", "@1:th(v0;)", "TermSyntaxError", "expected 'th' at position 9, found ')'"),
    ("successor", "@1:th(v0;th(top),)", "TermSyntaxError",
     "expected 'th' at position 17, found ')'"),
    ("successor", "@1:th(v0;th(top);th(top))", "TermSyntaxError",
     "expected ')' at position 16, found ';'"),
    ("successor", "@0:th(v0;th(top)", "TermSyntaxError",
     "expected ')' at position 16, found 'end of input'"),
    ("successor", "@0:th(v0;th(top)) )", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@1:th(v0 th(top))", "TermSyntaxError",
     "the index of a successor token must be a natural number, got '0th(top)'"),
    ("successor", "@0:th(v0;th(top))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@0:th(v0;th(top)))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@1:th(v9;th(top)) x", "TermTypeError",
     "token v9 out of range (bound 1) for successor"),
    ("successor", "@1:th(v1;th(top))", "TermTypeError",
     "token v1 out of range (bound 1) for successor"),
    ("successor", "@0:th(v0;th(w[]))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@1:th(w[];th(top))", "TermSyntaxError", "unknown successor token 'w[]'"),
    ("successor", "@1:th(v0;th(v0;th(top)))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@2:th(x;th(v0;th(top)),th(v0;th(v0;th(top))))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@2:th(v0;th(x),th(v0;th(v0;th(top))))", "TermSyntaxError",
     "unknown successor token 'x'"),
    ("successor", "@1:th(v 9;th(top))", "TermTypeError",
     "token v9 out of range (bound 1) for successor"),
    ("successor", "@0:th(top))", "TermSyntaxError", "trailing input at position 10"),
    ("successor", "@0:th(top) x", "TermSyntaxError", "trailing input at position 11"),
    ("successor", "@0:th(top)@0:th(top)", "TermSyntaxError", "trailing input at position 10"),
    ("successor", "@2:th(v0;th(v0;th(v5)]))", "TermSyntaxError",
     "expected ')' at position 21, found ']'"),
    ("successor", "@2:th(v0;th(v0;th(v5))))", "TermTypeError",
     "token v5 out of range (bound 0) for successor"),
    ("successor", "@0:th(v01)", "TermSyntaxError",
     "the index of a successor token has a leading zero: '01'"),
    ("successor", "@0:th(v)", "TermSyntaxError",
     "the index of a successor token must be a natural number, got ''"),
    ("successor", "@0:th(v0)", "TermTypeError", "token v0 out of range (bound 0) for successor"),
    ("identity", "@0:th(v0)", "TermTypeError", "token v0 out of range (bound 0) for identity"),
    ("constant:2", "@0:th(c2)", "TermTypeError", "token c2 out of range (bound 2) for constant:2"),
    ("constant:2", "@0:th(d0)", "TermSyntaxError", "unknown constant:2 token 'd0'"),
    ("constant:2", "@0:th(c²)", "TermSyntaxError",
     "the index of a constant:2 token must be a natural number, got '²'"),
    ("omega", "@0:th(w0)", "TermSyntaxError", "expected w[...], got 'w0'"),
    ("omega", "@0:th(w[x])", "TermSyntaxError",
     "an entry of w[...] must be a natural number, got 'x'"),
    ("omega", "@0:th(w[00])", "TermSyntaxError", "an entry of w[...] has a leading zero: '00'"),
    ("omega", "@0:th(w[0,,0])", "TermSyntaxError",
     "an entry of w[...] must be a natural number, got ''"),
    ("omega", "@0:th(w[0,00])", "TermSyntaxError", "an entry of w[...] has a leading zero: '00'"),
    ("omega", "@0:th(w[0,0x])", "TermSyntaxError",
     "an entry of w[...] must be a natural number, got '0x'"),
    ("omega", "@0:th(w[0,²])", "TermSyntaxError",
     "an entry of w[...] must be a natural number, got '²'"),
    ("omega", "@0:th(w[" + "1" * 4301 + "])", "TermSyntaxError",
     "an entry of w[...] has 4301 digits, more than 4300"),
    ("omega", "@0:th(w[0])", "TermTypeError", "w[0] has an entry not below 0"),
    ("omega", "@2:th(w[0,1];th(w[]),th(w[0];th(w[])))", "TermTypeError",
     "w[0,1] is not weakly descending"),
    ("omega", "@1:th(w[];th(w[]))", "TermTypeError",
     "token w[] must use every listed support term"),
    ("omega", "@2:th(w[1,0];th(w[0];th(w[])),th(w[]))", "TermTypeError",
     "support terms must be strictly increasing"),
    ("omega", "@1:th(w[1,0];th(w[]),th(w[]))", "TermTypeError",
     "support terms must be strictly increasing"),
    ("sum(successor,omega)", "@0:th(X(top))", "TermSyntaxError",
     "expected L(...) or R(...), got 'X(top)'"),
    ("sum(successor,omega)", "@0:th(L(w[]))", "TermSyntaxError", "unknown successor token 'w[]'"),
    ("sum(successor,omega)", "@0:th(R(top))", "TermSyntaxError", "expected w[...], got 'top'"),
    ("sum(successor,omega)", "@0:th(L( v 3 ))", "TermTypeError",
     "token v3 out of range (bound 0) for successor"),
    ("product(successor,constant:2)", "@0:th(Q(top,c0))", "TermSyntaxError",
     "expected P(...,...), got 'Q(top,c0)'"),
    ("product(successor,constant:2)", "@0:th(P(top))", "TermSyntaxError",
     "P takes exactly two components: 'P(top)'"),
    ("product(successor,constant:2)", "@0:th(P(top,c0,c1))", "TermSyntaxError",
     "P takes exactly two components: 'P(top,c0,c1)'"),
    ("product(successor,constant:2)", "@0:th(P(top],c0))", "TermSyntaxError",
     "expected P(...,...), got 'P(top],c0'"),
    ("product(successor,constant:2)", "@0:th(P(top],[c0))", "TermSyntaxError",
     "unbalanced brackets in 'top],[c0'"),
]

# Whitespace the parser accepts wherever it skips any.
SPACES = [" ", "\t\n", "\u2003", " \r\x0b\x0c\x1c "]


def spread_whitespace(text, ws):
    """``@n:term`` with ``ws`` between every two grammar tokens and every
    two characters of a token: everywhere but inside ``th`` and the stage."""
    head, _, term = text.partition(":")
    out = [ws, "@", ws, head[1:], ws, ":", ws]
    for i, ch in enumerate(term):
        out.append(ch)
        if term[i : i + 2] != "th":
            out.append(ws)
    return "".join(out)


def successor_element(height):
    """The successor element of the given height, written at its birth stage."""
    return f"@{height - 1}:" + "th(v0;" * (height - 1) + "th(top)" + ")" * (height - 1)


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


def test_round_trip_two_bracket_levels():
    # product(sum(successor,omega),omega): tokens such as P(R(w[1,0]),w[0])
    dilator = LexProductDilator(
        SumDilator(SuccessorDilator(), OmegaPowerDilator()), OmegaPowerDilator()
    )
    tower = Tower(dilator)
    texts = [format_bh(dilator, e) for e in tower.enumerate(3, 40)]
    assert any("P(R(w[" in t and "]),w[" in t for t in texts)
    for text in texts:
        e = parse_bh(tower, text)
        assert format_bh(dilator, e) == text
        for ws in SPACES:
            assert parse_bh(tower, spread_whitespace(text, ws)) is e


@pytest.mark.parametrize("height", [1000, 5000])
def test_deep_round_trip_at_default_recursion_limit(height):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        dilator = SuccessorDilator()
        tower = Tower(dilator)
        text = successor_element(height)
        e = parse_bh(tower, text)
        assert e.length == height
        assert format_bh(dilator, e) == text
        assert parse_bh(tower, format_bh(dilator, e)) is e
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "selector, text, error, message",
    ERROR_CORPUS,
    ids=[f"{selector} {text[:40]!r}" for selector, text, _, _ in ERROR_CORPUS],
)
def test_error_corpus(selector, text, error, message):
    cls = getattr(errors, error)
    with pytest.raises(cls) as info:
        parse_bh(Tower(parse_selector(selector)), text)
    assert type(info.value) is cls
    assert str(info.value) == message


def test_error_corpus_covers_every_error_kind():
    assert len(ERROR_CORPUS) >= 40
    messages = [m for _, _, _, m in ERROR_CORPUS]
    for fragment in [
        "expected '@'", "expected a number", "digits, more than", "exceeds the supported bound",
        "expected ':'", "expected 'th'", "expected '('", "expected ')'", "missing token",
        "unbalanced bracket at", "a stage-0 term", "must use every listed support term",
        "strictly increasing", "trailing input", "leading zero", "must be a natural number",
        "unbalanced brackets in", "expected w[...]", "not below", "not weakly descending",
        "expected L(...) or R(...)", "expected P(...,...)", "exactly two components",
        "unknown successor token", "out of range",
    ]:
        assert any(fragment in m for m in messages), fragment


def test_nested_omega_term_example(omega_tower):
    text = "th(w[1,0,0];th(w[]),th(w[0];th(w[])))"
    term = parse_stage_term(omega_tower, 2, text)
    assert format_term(omega_tower.dilator, term) == text
    assert term.body.token == (1, 0, 0)
    assert len(term.body.support) == 2


def test_whitespace_examples(succ_tower, omega_tower):
    a = parse_bh(succ_tower, " @1 : th( v0 ; th( top ) ) ")
    b = parse_bh(succ_tower, "@1:th(v0;th(top))")
    assert a is b
    c = parse_stage_term(omega_tower, 1, "th( w[ 0 , 0 ] ; th(w[]) )")
    assert format_term(omega_tower.dilator, c) == "th(w[0,0];th(w[]))"


@pytest.mark.parametrize("selector", list(dict.fromkeys(BATTERY + _TREES)))
def test_whitespace_insensitive(selector):
    dilator = parse_selector(selector)
    tower = Tower(dilator)
    for e in tower.enumerate(3, 12):
        text = format_bh(dilator, e)
        for ws in SPACES:
            assert parse_bh(tower, spread_whitespace(text, ws)) is e, (text, ws)


def test_whitespace_is_str_isspace():
    # the parser skips str.isspace characters and its patterns exclude \s:
    # the two must be the same set
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(filter(str.isspace, chars))
    assert "".join(re.findall(r"\s", chars)) == spaces
    assert "\u2003" in spaces and "\x1c" in spaces
    tower = Tower(parse_selector("sum(successor,omega)"))
    text = "@2:th(L(v0);th(R(w[0,0]);th(L(top))))"
    e = parse_bh(tower, text)
    for ws in spaces:
        assert parse_bh(tower, spread_whitespace(text, ws)) is e, ws


@pytest.mark.parametrize("height", [1, 150, 5000])
def test_parse_interns_each_level_once(height, monkeypatch):
    calls = []
    collapse = System.collapse

    def counting(system, coded):
        calls.append(coded)
        return collapse(system, coded)

    monkeypatch.setattr(System, "collapse", counting)
    tower = Tower(SuccessorDilator())
    text = successor_element(height)
    before = len(tower._intern)
    e = parse_bh(tower, text)
    assert len(tower._intern) - before == height
    assert len(calls) == height
    interned = len(tower._intern)
    assert parse_bh(tower, text) is e
    assert len(tower._intern) == interned


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
    with pytest.raises(TermTypeError, match="strictly increasing"):
        parse_stage_term(
            omega_tower, 2, "th(w[1,0];th(w[0];th(w[])),th(w[]))"
        )
    # duplicate support terms
    with pytest.raises(TermTypeError, match="strictly increasing"):
        parse_stage_term(omega_tower, 1, "th(w[1,0];th(w[]),th(w[]))")


def test_unknown_token_is_syntax_error(succ_tower):
    with pytest.raises(TermSyntaxError):
        parse_bh(succ_tower, "@0:th(w[])")
