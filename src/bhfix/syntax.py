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
scan, which keeps a stack of the open terms and emits one event per term
as it closes (support count, token text); then one build replays the
events on a stack of values, parsing each distinct token once.  The scan
reads a level, ``th(``, its token and the ``;`` or the run of ``)`` after
it, by one pattern match when the token holds no whitespace or ``;`` and
its brackets pair up by type, nested at most three deep: every token of a
dilator with at most two combinators on any path from its root to a
builtin (``v0``, ``w[1,0]``, ``R(w[0])``, ``P(R(w[1,0]),w[0])``).  It
finds the end of any other token by walking its brackets, the reference
for whitespace, deeper nesting and every error.  A run of levels that
repeat such a level's text, as ``th(v0;`` does along a successor chain,
is read in one loop that keeps the stage-0 index exact, and the build
puts a one-support term in place of its support on the value stack.  The
build checks each level as :meth:`~bhfix.limits.Tower.collapse` would, so
the element read is the tower's own collapse of it.  Of several faults
the first in this order is reported: (1) the head: ``@``, the stage, its
``MAX_STAGE`` bound, ``:``; (2) the syntax of the whole term; (3) the type
checks in the order a recursive reader meets them: a support list at
stage 0 at its ``;``, and after a term's supports its token's parse, full
support and the strict increase of the supports; (4) trailing input.
"""

from __future__ import annotations

import re

from .dilator import Dilator, _coded, parse_nat
from .errors import TermSyntaxError, TermTypeError
from .limits import Tower, birth_stage
from .systems import System, ThetaTerm

# The largest stage index the grammar accepts; an absurd index in the input
# is rejected up front.
MAX_STAGE = 10_000


def _token_pattern(depth: int) -> str:
    """A token with no whitespace or ';' whose brackets pair up by type,
    nested at most ``depth`` deep, as one regex unrolled level by level:
    plain characters, then groups each followed by plain characters.  A
    group starts with its bracket, so the text splits one way only and a
    failed match backtracks in linear time."""
    plain = r"[^;()\[\]\s]*"
    if not depth:
        return plain
    inner = _token_pattern(depth - 1)
    return rf"{plain}(?:(?:\({inner}\)|\[{inner}\]){plain})*"


# "th(", a nonempty token with brackets nested at most three deep (``w[..]``,
# ``R(w[..])``, ``P(R(w[..]),w[..])``), and the ';' or the run of ')' after
# it: the bracket walk of ``_scan`` reads the same token there.
_LEVEL = re.compile(rf"th\((?![;)])({_token_pattern(3)})(;|\)+)")

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
    open_terms = []  # (supports so far, token text) of each open support list
    while True:
        if level := _LEVEL.match(text, pos):
            token_text, delimiter = level.groups()
            pos = level.end()
        else:
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
            delimiter = ";" if text.startswith(";", pos) else ")"
            pos = _expect(text, pos, delimiter)
        if delimiter == ";":
            # a run of levels that repeat this one's text opens together
            depth = len(open_terms)
            opened = 1
            if level:
                repeat = level.group()
                while text.startswith(repeat, pos):
                    pos += len(repeat)
                    opened += 1
            # a term's stage is n less one per enclosing support list
            if stage0 is None and depth <= n < depth + opened:
                stage0 = len(events)
            open_terms += [(1, token_text)] * opened
            continue
        events.append((0, token_text))
        closers = len(delimiter) - 1  # the ')' read past the term's own
        while True:
            if run := min(closers, len(open_terms)):
                closed = open_terms[-run:]
                del open_terms[-run:]
                closed.reverse()
                events += closed
            if not open_terms:  # any ')' past the last open term is trailing input
                return events, stage0, _skip_ws(text, pos - closers + run)
            pos = _skip_ws(text, pos)
            if text.startswith(",", pos):
                k, top = open_terms[-1]
                open_terms[-1] = (k + 1, top)
                pos += 1
                break
            pos = _expect(text, pos, ")")
            closers = 1


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
    collapse = System.collapse
    tokens = {}  # event -> its parsed token, checked for full support
    values = []
    for event in events[:stage0]:
        k = event[0]
        try:
            token = tokens[event]
        except KeyError:
            token = tokens[event] = dilator.parse_token(k, event[1])
            if dilator.supp_at(k, token) != tuple(range(k)):
                raise TermTypeError(f"token {event[1]} must use every listed support term")
        # Each term is checked in this loop, with the grammar's messages, and
        # interned without rechecking; a one-support term takes the place of
        # its support at the top of the stack.
        if k == 1:
            values[-1] = collapse(tower, _coded(((values[-1],), token)))
            continue
        if k:
            subs = tuple(values[-k:])
            del values[-k:]
            for a, b in zip(subs, subs[1:]):
                if tower.compare(a, b) >= 0:
                    raise TermTypeError("support terms must be strictly increasing")
        else:
            subs = ()
        values.append(collapse(tower, _coded((subs, token))))
    if stage0 is not None:
        raise TermTypeError("a stage-0 term cannot have support terms")
    if end < len(text):
        raise TermSyntaxError(f"trailing input at position {end}")
    return values[0]
