"""Textual term grammar.

    bhterm := "@" nat ":" term
    term   := "th(" token ( ";" term { "," term } )? ")"

Support terms are listed in strictly increasing limit order; token syntax
is per dilator.  The serializer emits no whitespace; the parser is
whitespace-insensitive between grammar tokens.  Parsing builds the limit
element directly, checking that the term lives in the stage it is read at
(its height is at most n + 1); printing writes its birth stage, so every
serialized element round-trips to the identical element.

Neither direction recurses per term level.  Reading is one left-to-right
scan, which keeps a stack of the open terms, finds each token's end by
searching for the next of ``;()[]`` and emits one event per term as it
closes (support count, token text); then one build replays the events on
a stack of values, parsing each distinct token once.  Of several faults
the first in this order is reported: (1) the head: ``@``, the stage, its
``MAX_STAGE`` bound, ``:``; (2) the syntax of the whole term; (3) the type
checks in the order a recursive reader meets them: a support list at
stage 0 at its ``;``, and after a term's supports its token's parse, full
support and the strict increase of the supports; (4) trailing input.
"""

from __future__ import annotations

import re

from .dilator import CodedElement, Dilator, parse_nat
from .errors import TermSyntaxError, TermTypeError
from .limits import Tower, birth_stage
from .systems import System, ThetaTerm

# The largest stage index the grammar accepts; an absurd index in the input
# is rejected up front.
MAX_STAGE = 10_000

# The characters that can end a token or change its bracket depth.
_TOKEN_STOP = re.compile(r"[;()\[\]]")


def format_term(dilator: Dilator, term: ThetaTerm) -> str:
    parts = []
    stack = [term]  # terms still to write, and the text between them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        body = item.body
        parts.append(f"th({dilator.format_token(body.arity, body.token)}")
        stack.append(")")
        for i in reversed(range(body.arity)):
            stack += (body.support[i], "," if i else ";")
    return "".join(parts)


def format_bh(dilator: Dilator, e: ThetaTerm) -> str:
    return f"@{birth_stage(e)}:{format_term(dilator, e)}"


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text: str, pos: int, lit: str) -> int:
    """The position past ``lit``, which must follow ``pos`` after whitespace."""
    pos = _skip_ws(text, pos)
    if not text.startswith(lit, pos):
        found = text[pos : pos + len(lit)] or "end of input"
        raise TermSyntaxError(f"expected {lit!r} at position {pos}, found {found!r}")
    return pos + len(lit)


def _scan(text: str, pos: int, n: int) -> tuple[list, int | None, int]:
    """Scan one term, read at stage n, from ``pos``: its events in the
    order the terms close, how many of them precede the first support list
    at stage 0 (None if none), and the position past it and whitespace."""
    events = []
    stage0 = None
    open_terms = []  # [token text, supports so far] of each open support list
    while True:
        if text.startswith("th(", pos):
            pos += 3
        else:
            pos = _expect(text, _expect(text, pos, "th"), "(")
        # the token ends at the first ';' or ')' outside its own brackets
        start = pos
        depth = 0
        while match := _TOKEN_STOP.search(text, pos):
            pos = match.start()
            ch = text[pos]
            if ch == "(" or ch == "[":
                depth += 1
            elif ch == ";":
                if not depth:
                    break
            elif depth:
                depth -= 1
            elif ch == ")":
                break
            else:
                raise TermSyntaxError(f"unbalanced bracket at position {pos}")
            pos += 1
        else:  # no stop character: the token runs to the end of input
            pos = len(text)
        token_text = "".join(text[start:pos].split())
        if not token_text:
            raise TermSyntaxError(f"missing token at position {start}")
        if text.startswith(";", pos):
            # the term's stage is n less one per enclosing support list
            if stage0 is None and len(open_terms) == n:
                stage0 = len(events)
            open_terms.append([token_text, 1])
            pos += 1
            continue
        pos = _expect(text, pos, ")")
        events.append((0, token_text))
        while open_terms:
            if text.startswith(")", pos):
                pos += 1
            else:
                pos = _skip_ws(text, pos)
                if text.startswith(",", pos):
                    open_terms[-1][1] += 1
                    pos += 1
                    break
                pos = _expect(text, pos, ")")
            token_text, k = open_terms.pop()
            events.append((k, token_text))
        if not open_terms:
            return events, stage0, _skip_ws(text, pos)


def parse_bh(tower: Tower, text: str) -> ThetaTerm:
    """Parse ``@n:term`` into the limit element it denotes."""
    pos = _skip_ws(text, _expect(text, 0, "@"))
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise TermSyntaxError(f"expected a number at position {start}")
    n = parse_nat(text[start:pos], f"the stage at position {start}", TermSyntaxError)
    if n > MAX_STAGE:
        raise TermTypeError(f"stage {n} exceeds the supported bound {MAX_STAGE}")
    events, stage0, end = _scan(text, _expect(text, pos, ":"), n)
    dilator = tower.dilator
    tokens = {}  # event -> its parsed token, checked for full support
    values = []
    for event in events[:stage0]:
        k, token_text = event
        if event not in tokens:
            tokens[event] = dilator.parse_token(k, token_text)
            if dilator.supp_at(k, tokens[event]) != tuple(range(k)):
                raise TermTypeError(f"token {token_text} must use every listed support term")
        token = tokens[event]
        subs = tuple(values[len(values) - k :])
        del values[len(values) - k :]
        for a, b in zip(subs, subs[1:]):
            if tower.compare(a, b) >= 0:
                raise TermTypeError("support terms must be strictly increasing")
        # checked above, with the grammar's messages: intern without rechecking
        values.append(System.collapse(tower, CodedElement(subs, token)))
    if stage0 is not None:
        raise TermTypeError("a stage-0 term cannot have support terms")
    if end < len(text):
        raise TermSyntaxError(f"trailing input at position {end}")
    return values[0]
