"""Textual term grammar.

    bhterm := "@" nat ":" term
    term   := "th(" token ( ";" term { "," term } )? ")"

Support terms are listed in strictly increasing limit order; token syntax
is per dilator.  The serializer emits no whitespace; the parser is
whitespace-insensitive between grammar tokens.  Parsing builds the limit
element directly, checking that the term lives in the stage it is read at
(its height is at most n + 1); printing writes its birth stage, so every
serialized element round-trips to the identical element.
"""

from __future__ import annotations

from .dilator import CodedElement, Dilator, parse_nat
from .errors import TermSyntaxError, TermTypeError
from .limits import Tower, birth_stage
from .systems import System, ThetaTerm

# The largest stage index the grammar accepts; an absurd index in the input
# is rejected up front.
MAX_STAGE = 10_000


def format_term(dilator: Dilator, term: ThetaTerm) -> str:
    body = term.body
    token_text = dilator.format_token(body.arity, body.token)
    if not body.support:
        return f"th({token_text})"
    subs = ",".join(format_term(dilator, s) for s in body.support)
    return f"th({token_text};{subs})"


def format_bh(dilator: Dilator, e: ThetaTerm) -> str:
    return f"@{birth_stage(e)}:{format_term(dilator, e)}"


class _Tree:
    __slots__ = ("token_text", "subs")

    def __init__(self, token_text: str, subs: list) -> None:
        self.token_text = token_text
        self.subs = subs


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, lit: str) -> None:
        self.skip_ws()
        if not self.text.startswith(lit, self.pos):
            found = self.text[self.pos : self.pos + len(lit)] or "end of input"
            raise TermSyntaxError(f"expected {lit!r} at position {self.pos}, found {found!r}")
        self.pos += len(lit)

    def read_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise TermSyntaxError(f"expected a number at position {start}")
        digits = self.text[start : self.pos]
        return parse_nat(digits, f"the stage at position {start}", TermSyntaxError)

    def read_token_text(self) -> str:
        # The token region ends at the first ';' or ')' outside any nested
        # () or [] pairs belonging to the token itself.
        depth = 0
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "([":
                depth += 1
            elif ch in ")]":
                if depth == 0 and ch == ")":
                    break
                depth -= 1
                if depth < 0:
                    raise TermSyntaxError(f"unbalanced bracket at position {self.pos}")
            elif ch == ";" and depth == 0:
                break
            self.pos += 1
        raw = self.text[start : self.pos]
        token = "".join(raw.split())
        if not token:
            raise TermSyntaxError(f"missing token at position {start}")
        return token

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _read_term(cur: _Cursor) -> _Tree:
    cur.expect("th")
    cur.expect("(")
    token_text = cur.read_token_text()
    subs: list[_Tree] = []
    if cur.peek() == ";":
        cur.expect(";")
        subs.append(_read_term(cur))
        while cur.peek() == ",":
            cur.expect(",")
            subs.append(_read_term(cur))
    cur.expect(")")
    return _Tree(token_text, subs)


def _build_term(tower: Tower, tree: _Tree, n: int) -> ThetaTerm:
    """The limit element of a term read at stage n (an element of X_{n+1})."""
    if tree.subs and n == 0:
        raise TermTypeError("a stage-0 term cannot have support terms")
    subs = tuple(_build_term(tower, sub, n - 1) for sub in tree.subs)
    k = len(subs)
    token = tower.dilator.parse_token(k, tree.token_text)
    if tower.dilator.supp_at(k, token) != tuple(range(k)):
        raise TermTypeError(
            f"token {tree.token_text} must use every listed support term"
        )
    for a, b in zip(subs, subs[1:]):
        if tower.compare(a, b) >= 0:
            raise TermTypeError("support terms must be strictly increasing")
    # checked above, with the grammar's messages: intern without rechecking
    return System.collapse(tower, CodedElement(subs, token))


def parse_bh(tower: Tower, text: str) -> ThetaTerm:
    """Parse ``@n:term`` into the limit element it denotes."""
    cur = _Cursor(text)
    cur.expect("@")
    n = cur.read_nat()
    if n > MAX_STAGE:
        raise TermTypeError(f"stage {n} exceeds the supported bound {MAX_STAGE}")
    cur.expect(":")
    element = _build_term(tower, _read_term(cur), n)
    if not cur.at_end():
        raise TermSyntaxError(f"trailing input at position {cur.pos}")
    return element
