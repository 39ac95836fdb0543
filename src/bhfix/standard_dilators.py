"""Concrete prae-dilators: builtins and the two combinators.

Token syntaxes (bit-exact, used by the term grammar):

    successor    ``top`` | ``v<i>``
    identity     ``v<i>``
    constant:k   ``c<i>``
    omega        ``w[i_0,...,i_{m-1}]`` with weakly descending indices
    sum          ``L(<tok>)`` | ``R(<tok>)``
    product      ``P(<tokL>,<tokR>)``
"""

from __future__ import annotations

import re
from itertools import combinations_with_replacement

from .dilator import Dilator, Enumeration, Token
from .errors import TermSyntaxError, TermTypeError
from .finite_orders import EQ, GT, LT, sgn

TOP = "top"

_NAT_RE = re.compile(r"^(0|[1-9][0-9]*)$")


def _parse_nat(text: str, what: str) -> int:
    if not _NAT_RE.match(text):
        raise TermSyntaxError(f"expected a natural number in {what}, got {text!r}")
    return int(text)


def _split_args(text: str) -> list[str]:
    """Split on top-level commas, respecting ( ) and [ ] nesting."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise TermSyntaxError(f"unbalanced brackets in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise TermSyntaxError(f"unbalanced brackets in {text!r}")
    parts.append(text[start:])
    return parts


class SuccessorDilator(Dilator):
    """Adds a single new maximum element on top of the input order.

    Tok_n = {0..n-1} with the natural order, plus TOP above everything;
    supp(TOP) is empty, supp(i) = {i}.
    """

    name = "successor"

    def compare_at(self, n, s, t):
        if s == t:
            return EQ
        if s == TOP:
            return GT
        if t == TOP:
            return LT
        return sgn(s - t)

    def map_token(self, f, tok):
        return TOP if tok == TOP else f.images[tok]

    def supp_at(self, n, tok):
        return () if tok == TOP else (tok,)

    def sample_at(self, n, budget):
        items = list(range(n)) + [TOP]
        return Enumeration(tuple(items[:budget]), budget >= n + 1)

    def restrict_token(self, n, tok, positions):
        return TOP if tok == TOP else tuple(positions).index(tok)

    def format_token(self, n, tok):
        return TOP if tok == TOP else f"v{tok}"

    def parse_token(self, n, text):
        if text == TOP:
            return TOP
        return _parse_element(text, "v", n, self.name)


class IdentityDilator(Dilator):
    """Returns the input order unchanged; Tok_n = {0..n-1}."""

    name = "identity"

    def compare_at(self, n, s, t):
        return sgn(s - t)

    def map_token(self, f, tok):
        return f.images[tok]

    def supp_at(self, n, tok):
        return (tok,)

    def sample_at(self, n, budget):
        return Enumeration(tuple(range(min(n, budget))), budget >= n)

    def restrict_token(self, n, tok, positions):
        return tuple(positions).index(tok)

    def format_token(self, n, tok):
        return f"v{tok}"

    def parse_token(self, n, text):
        return _parse_element(text, "v", n, self.name)


class ConstantDilator(Dilator):
    """Sends every order to the fixed k-element order; supports are empty."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("constant dilator needs k >= 0")
        self.k = k
        self.name = f"constant:{k}"

    def compare_at(self, n, s, t):
        return sgn(s - t)

    def map_token(self, f, tok):
        return tok

    def supp_at(self, n, tok):
        return ()

    def sample_at(self, n, budget):
        return Enumeration(tuple(range(min(self.k, budget))), budget >= self.k)

    def restrict_token(self, n, tok, positions):
        return tok

    def format_token(self, n, tok):
        return f"c{tok}"

    def parse_token(self, n, text):
        return _parse_element(text, "c", self.k, self.name)


class OmegaPowerDilator(Dilator):
    """Finite weakly descending sequences over the input order.

    Ordered lexicographically with the normal-form convention that a proper
    extension is greater (so the empty sequence is least).  The support of a
    sequence is the set of its entries.
    """

    name = "omega"

    def compare_at(self, n, s, t):
        for a, b in zip(s, t):
            if a != b:
                return sgn(a - b)
        return sgn(len(s) - len(t))

    def map_token(self, f, tok):
        return tuple(f.images[x] for x in tok)

    def supp_at(self, n, tok):
        return tuple(sorted(set(tok)))

    def sample_at(self, n, budget):
        # Diverse sampling by length: all weakly descending sequences of
        # length 0, 1, 2, ... until the budget is filled.  At arity 0 the
        # empty sequence is the only token.
        if n == 0:
            return Enumeration(((),) if budget >= 1 else (), budget >= 1)
        items: list[tuple[int, ...]] = []
        length = 0
        while len(items) < budget:
            block = sorted(
                tuple(reversed(c))
                for c in combinations_with_replacement(range(n), length)
            )
            items.extend(block[: budget - len(items)])
            length += 1
        return Enumeration(tuple(items), False)

    def restrict_token(self, n, tok, positions):
        index = {p: i for i, p in enumerate(positions)}
        return tuple(index[x] for x in tok)

    def format_token(self, n, tok):
        return "w[" + ",".join(str(x) for x in tok) + "]"

    def parse_token(self, n, text):
        if not (text.startswith("w[") and text.endswith("]")):
            raise TermSyntaxError(f"expected w[...], got {text!r}")
        inner = text[2:-1]
        if inner == "":
            return ()
        entries = tuple(_parse_nat(p, "w[...]") for p in inner.split(","))
        if any(x >= n for x in entries):
            raise TermTypeError(f"{text} has entries outside 0..{n - 1}")
        if any(a < b for a, b in zip(entries, entries[1:])):
            raise TermTypeError(f"{text} is not weakly descending")
        return entries


class SumDilator(Dilator):
    """Disjoint sum of two dilators, every left element below every right one."""

    def __init__(self, left: Dilator, right: Dilator):
        self.left = left
        self.right = right
        self.name = f"sum({left.name},{right.name})"

    def _side(self, tag: str) -> Dilator:
        return self.left if tag == "L" else self.right

    def compare_at(self, n, s, t):
        if s[0] != t[0]:
            return LT if s[0] == "L" else GT
        return self._side(s[0]).compare_at(n, s[1], t[1])

    def map_token(self, f, tok):
        return (tok[0], self._side(tok[0]).map_token(f, tok[1]))

    def supp_at(self, n, tok):
        return self._side(tok[0]).supp_at(n, tok[1])

    def sample_at(self, n, budget):
        l = self.left.sample_at(n, budget)
        r = self.right.sample_at(n, budget)
        items: list = []
        for i in range(max(len(l), len(r))):
            if i < len(l):
                items.append(("L", l[i]))
            if i < len(r):
                items.append(("R", r[i]))
        exhaustive = l.exhaustive and r.exhaustive and len(items) <= budget
        return Enumeration(tuple(items[:budget]), exhaustive)

    def restrict_token(self, n, tok, positions):
        return (tok[0], self._side(tok[0]).restrict_token(n, tok[1], positions))

    def format_token(self, n, tok):
        return f"{tok[0]}({self._side(tok[0]).format_token(n, tok[1])})"

    def parse_token(self, n, text):
        if len(text) >= 3 and text[0] in "LR" and text[1] == "(" and text[-1] == ")":
            tag = text[0]
            return (tag, self._side(tag).parse_token(n, text[2:-1]))
        raise TermSyntaxError(f"expected L(...) or R(...), got {text!r}")


class LexProductDilator(Dilator):
    """Lexicographic product of two dilators; supports are unions."""

    def __init__(self, left: Dilator, right: Dilator):
        self.left = left
        self.right = right
        self.name = f"product({left.name},{right.name})"

    def compare_at(self, n, s, t):
        c = self.left.compare_at(n, s[0], t[0])
        return c if c != EQ else self.right.compare_at(n, s[1], t[1])

    def map_token(self, f, tok):
        return (self.left.map_token(f, tok[0]), self.right.map_token(f, tok[1]))

    def supp_at(self, n, tok):
        return tuple(sorted(set(self.left.supp_at(n, tok[0])) | set(self.right.supp_at(n, tok[1]))))

    def sample_at(self, n, budget):
        ls = self.left.sample_at(n, budget)
        rs = self.right.sample_at(n, budget)
        diag = sorted(
            ((i + j, i, j) for i in range(len(ls)) for j in range(len(rs)))
        )[:budget]
        items = tuple((ls[i], rs[j]) for _, i, j in diag)
        exhaustive = ls.exhaustive and rs.exhaustive and len(ls) * len(rs) <= budget
        return Enumeration(items, exhaustive)

    def restrict_token(self, n, tok, positions):
        return (
            self.left.restrict_token(n, tok[0], positions),
            self.right.restrict_token(n, tok[1], positions),
        )

    def format_token(self, n, tok):
        return (
            f"P({self.left.format_token(n, tok[0])},"
            f"{self.right.format_token(n, tok[1])})"
        )

    def parse_token(self, n, text):
        if not (text.startswith("P(") and text.endswith(")")):
            raise TermSyntaxError(f"expected P(...,...), got {text!r}")
        parts = _split_args(text[2:-1])
        if len(parts) != 2:
            raise TermSyntaxError(f"P takes exactly two components: {text!r}")
        return (self.left.parse_token(n, parts[0]), self.right.parse_token(n, parts[1]))


def _parse_element(text: str, prefix: str, bound: int, name: str) -> int:
    if not text.startswith(prefix):
        raise TermSyntaxError(f"unknown {name} token {text!r}")
    i = _parse_nat(text[len(prefix):], f"{name} token")
    if i >= bound:
        raise TermTypeError(f"token {text} out of range (bound {bound}) for {name}")
    return i
