"""Term grammar round trips and error classification."""

import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bhfix import errors, syntax
from bhfix.cli import parse_selector
from bhfix.errors import TermSyntaxError, TermTypeError
from bhfix.limits import Tower, birth_stage
from bhfix.standard_dilators import (
    LexProductDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
)
from bhfix.syntax import _LEVEL, _scan, format_bh, format_term, parse_bh
from bhfix.systems import System
from grammar_corpus import ERROR_CORPUS, SPACES, spread_whitespace
from test_limits import BATTERY
from test_verify import _TREES


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


def _levelwise_scan(text, n):
    """``_scan``'s events and stage-0 index for a term, read one level at a
    time by a plain recursion: a token ends at the first ';' or ')' outside
    its own brackets."""
    text = "".join(text.split())
    events, stage0, pos = [], None, 0

    def read(depth):
        nonlocal pos, stage0
        assert text.startswith("th(", pos)
        end, nesting = pos + 3, 0
        while nesting or text[end] not in ";)":
            nesting += (text[end] in "([") - (text[end] in ")]")
            end += 1
        token, pos, k = text[pos + 3 : end], end, 0
        if text[pos] == ";":
            if stage0 is None and depth == n:
                stage0 = len(events)
            while text[pos] in ";,":
                pos += 1
                read(depth + 1)
                k += 1
        assert text[pos] == ")"
        pos += 1
        events.append((k, token))

    read(0)
    return events, stage0


# token patterns of a chain's levels: one run, runs of two, and a token
# that is a prefix of the next
_CHAIN_TOKENS = {"run": ["v0"], "pairs": ["v0", "v0", "v1", "v1"], "prefix": ["v0", "v00"]}


@pytest.mark.parametrize("pattern", list(_CHAIN_TOKENS))
@pytest.mark.parametrize("height", range(1, 9))
def test_scan_reads_runs_of_levels_as_one_level_at_a_time(height, pattern):
    tokens = _CHAIN_TOKENS[pattern]
    term = "".join(f"th({tokens[i % len(tokens)]};" for i in range(height - 1))
    term += "th(top)" + ")" * (height - 1)
    for n in range(9):
        expected = _levelwise_scan(term, n)
        for ws in [""] + SPACES:
            text = spread_whitespace(f"@{n}:{term}", ws) if ws else f"@{n}:{term}"
            events, stage0, end = _scan(text, text.index(":") + 1, n)
            assert ((events, stage0), end) == (expected, len(text)), (text, n)


@pytest.mark.parametrize("selector", _TREES)
def test_scan_reads_listed_terms_as_one_level_at_a_time(selector):
    # every token of these selectors is nested at most three deep, so the
    # level pattern reads each level
    tower = Tower(parse_selector(selector))
    terms = {format_term(tower.dilator, e) for n in range(1, 4) for e in tower.listing(n, 12)}
    for term in sorted(terms):
        for n in range(4):
            text = f"@{n}:{term}"
            events, stage0, end = _scan(text, text.index(":") + 1, n)
            assert ((events, stage0), end) == (_levelwise_scan(term, n), len(text)), (text, n)
            assert all(_LEVEL.match(f"th({token})") for _, token in events), text


# (token, whether the level pattern reads it): brackets nested three deep
# and paired by type take one match; four deep, or paired across types,
# the bracket walk reads them
_NESTED_TOKENS = [
    ("P(R(w[1,0]),w[0])", True),
    ("L(P(top,w[0,0]))", True),
    ("[([x])]a(b),c0", True),
    ("L(P(top,R(w[0,0])))", False),
    ("[[[[0]]]]", False),
    ("R(w[0)]", False),
    ("R(w(0])", False),
]


@pytest.mark.parametrize("token, one_match", _NESTED_TOKENS)
def test_scan_reads_nested_tokens_as_one_level_at_a_time(token, one_match):
    assert bool(_LEVEL.match(f"th({token})")) == one_match
    assert bool(_LEVEL.match(f"th({token};")) == one_match
    term = f"th({token};th({token}),th({token};th(v0;th({token}))))"
    for n in range(4):
        expected = _levelwise_scan(term, n)
        for ws in [""] + SPACES:
            text = spread_whitespace(f"@{n}:{term}", ws) if ws else f"@{n}:{term}"
            events, stage0, end = _scan(text, text.index(":") + 1, n)
            assert ((events, stage0), end) == (expected, len(text)), (text, n)


def _scan_outcome(text, n):
    try:
        return _scan(text, 0, n)
    except TermSyntaxError as e:
        return str(e)


_PIECES = ["th(", ";", ")", "(", "[", "]", ",", " ", "w", "0", "v", "R(", "P(", "top", "th"]


@given(st.lists(st.sampled_from(_PIECES), max_size=30), st.integers(0, 3))
def test_scan_reads_any_text_as_the_bracket_walk_alone(pieces, n):
    # the same events, stage-0 index and end, or the same error message,
    # as when no level is read by the pattern
    text = "th(" + "".join(pieces)
    expected = _scan_outcome(text, n)
    saved = syntax._LEVEL
    syntax._LEVEL = re.compile("(?!)")  # matches nowhere
    try:
        assert _scan_outcome(text, n) == expected
    finally:
        syntax._LEVEL = saved


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
