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
from itertools import combinations_with_replacement, islice
from math import comb
from typing import Iterator

from .dilator import MAX_DIGITS, Dilator, Enumeration, parse_nat
from .errors import TermSyntaxError, TermTypeError
from .finite_orders import EQ, GT, LT, sgn

TOP = "top"

# An omega entry as ``_parse_nat`` accepts it (ASCII digits, no leading
# zero, at most MAX_DIGITS), then a comma: an entry list with a comma
# appended is a run of these.
_ENTRIES = re.compile(rf"(?:(?:0|[1-9][0-9]{{0,{MAX_DIGITS - 1}}}),)+")


def _parse_nat(text: str, what: str) -> int:
    value = parse_nat(text, what, TermSyntaxError)
    if text.startswith("0") and text != "0":
        raise TermSyntaxError(f"{what} has a leading zero: {text!r}")
    return value


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

    def support_bound(self, n, budget):
        return min(n, 1)

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

    def support_bound(self, n, budget):
        return min(n, 1)

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

    def support_bound(self, n, budget):
        return 0

    def restrict_token(self, n, tok, positions):
        return tok

    def format_token(self, n, tok):
        return f"c{tok}"

    def parse_token(self, n, text):
        return _parse_element(text, "c", self.k, self.name)


class OmegaPowerDilator(Dilator):
    """Finite weakly descending sequences over the input order.

    Ordered lexicographically with the normal-form convention that a proper
    extension is greater (so the empty sequence is least), which is Python's
    tuple order.  The support of a sequence is the set of its entries.

    Every token at arity 1, and each of its images, repeats one entry, up
    to 39 times in a budget-40 sample: ``map_token`` maps such a token to
    its entry's image repeated, one lookup in place of one per entry.
    """

    name = "omega"

    def compare_at(self, n, s, t):
        return (s > t) - (s < t)

    def map_token(self, f, tok):
        # the repeat test counts every entry: a subclass may map sequences
        # that are not descending, such as (0, 1, 0)
        if tok and tok.count(tok[0]) == len(tok):
            return (f.images[tok[0]],) * len(tok)
        return tuple(map(f.images.__getitem__, tok))

    def supp_at(self, n, tok):
        return tuple(sorted(set(tok)))

    def sample_at(self, n, budget):
        # Diverse sampling by length: all weakly descending sequences of
        # length 0, 1, 2, ... until the budget is filled, each length sorted
        # (over the descending range its block comes out in reverse order).
        # At arity 0 the empty sequence is the only token.
        if n == 0:
            return Enumeration(((),) if budget >= 1 else (), budget >= 1)
        items: list[tuple[int, ...]] = []
        for length in _block_lengths(n, budget):
            block = list(combinations_with_replacement(range(n - 1, -1, -1), length))
            block.reverse()
            items.extend(block[: budget - len(items)])
        return Enumeration(tuple(items), False)

    def support_bound(self, n, budget):
        # a sequence has at most as many distinct entries as its length,
        # and the last block sampled is the longest
        length = max(_block_lengths(n, budget), default=0) if n else 0
        return min(n, length)

    def restrict_token(self, n, tok, positions):
        index = {p: i for i, p in enumerate(positions)}
        return tuple(index[x] for x in tok)

    def format_token(self, n, tok):
        return "w[" + ",".join(map(str, tok)) + "]"

    def parse_token(self, n, text):
        if not (text.startswith("w[") and text.endswith("]")):
            raise TermSyntaxError(f"expected w[...], got {text!r}")
        inner = text[2:-1]
        if inner == "":
            return ()
        parts = inner.split(",")
        if not _ENTRIES.fullmatch(inner + ","):
            for p in parts:
                _parse_nat(p, "an entry of w[...]")  # raises on the first bad entry
        entries = tuple(map(int, parts))
        if max(entries) >= n:
            raise TermTypeError(f"{text} has an entry not below {n}")
        if list(entries) != sorted(entries, reverse=True):
            raise TermTypeError(f"{text} is not weakly descending")
        return entries


def _block_lengths(n: int, budget: int) -> Iterator[int]:
    """The lengths 0, 1, ... of the blocks that omega's sample draws from
    at arity n >= 1: the blocks below length l hold C(l + n - 1, n)
    sequences together, so the last is the least L with C(L + n, n) >=
    budget, and there is none at budget 0."""
    length = 0
    while budget > comb(length + n - 1, n):
        yield length
        length += 1


class SumDilator(Dilator):
    """Disjoint sum of two dilators, every left element below every right one."""

    def __init__(self, left: Dilator, right: Dilator):
        self.left = left
        self.right = right
        self.name = f"sum({left.name},{right.name})"

    # Each method picks the side of a token's tag ("L" is the left) inline,
    # with no helper call: the term order maps and compares sum tokens at
    # every level.

    def compare_at(self, n, s, t):
        if s[0] != t[0]:
            return LT if s[0] == "L" else GT
        return (self.left if s[0] == "L" else self.right).compare_at(n, s[1], t[1])

    def map_token(self, f, tok):
        return (tok[0], (self.left if tok[0] == "L" else self.right).map_token(f, tok[1]))

    def supp_at(self, n, tok):
        return (self.left if tok[0] == "L" else self.right).supp_at(n, tok[1])

    def sample_at(self, n, budget):
        l = self.left.sample_at(n, budget)
        r = self.right.sample_at(n, budget)
        left = [("L", t) for t in l.items]
        right = [("R", t) for t in r.items]
        items = [tok for pair in zip(left, right) for tok in pair]
        items += left[len(right):] + right[len(left):]
        exhaustive = l.exhaustive and r.exhaustive and len(items) <= budget
        return Enumeration(tuple(items[:budget]), exhaustive)

    def support_bound(self, n, budget):
        return max(self.left.support_bound(n, budget), self.right.support_bound(n, budget))

    def restrict_token(self, n, tok, positions):
        side = self.left if tok[0] == "L" else self.right
        return (tok[0], side.restrict_token(n, tok[1], positions))

    def format_token(self, n, tok):
        side = self.left if tok[0] == "L" else self.right
        return f"{tok[0]}({side.format_token(n, tok[1])})"

    def parse_token(self, n, text):
        if len(text) >= 3 and text[0] in "LR" and text[1] == "(" and text[-1] == ")":
            side = self.left if text[0] == "L" else self.right
            return (text[0], side.parse_token(n, text[2:-1]))
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
        l = self.left.sample_at(n, budget)
        r = self.right.sample_at(n, budget)
        ls, rs = l.items, r.items
        # the anti-diagonals i + j in turn, each in order of i, up to the budget
        items = (
            (ls[i], rs[d - i])
            for d in range(len(ls) + len(rs) - 1)
            for i in range(max(0, d - len(rs) + 1), min(d + 1, len(ls)))
        )
        exhaustive = l.exhaustive and r.exhaustive and len(ls) * len(rs) <= budget
        return Enumeration(tuple(islice(items, budget)), exhaustive)

    def support_bound(self, n, budget):
        # a pair's support is the union of its sides' supports
        return min(n, self.left.support_bound(n, budget) + self.right.support_bound(n, budget))

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
    i = _parse_nat(text[len(prefix):], f"the index of a {name} token")
    if i >= bound:
        raise TermTypeError(f"token {text} out of range (bound {bound}) for {name}")
    return i
