"""The coded prae-dilator contract and support normal forms.

A prae-dilator assigns to every finite order n a decidable linear order of
*tokens* Tok_n, acts functorially on strictly increasing maps, and equips
every token with a finite support such that the token factors uniquely
through the inclusion of its support.  Because of that factorization, an
element of T_X for an arbitrary linearly ordered carrier X can always be
stored in *support normal form*: a strictly sorted support tuple over X
plus a full-support token at arity |support|.  All values in this package
keep that normal form; raw tokens exist only at module boundaries.  Each
dilator computes that factorization itself (``restrict_token``).

Token values must be hashable and their ``==`` must agree with
``compare_at`` equality at a fixed arity.  All operations are pure;
dilator instances hold no observable state and can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from heapq import nsmallest
from itertools import combinations
from typing import Any, Callable, Iterator, Sequence

from .errors import DilatorLawError
from .finite_orders import EQ, Embedding, finset_map, is_strictly_sorted

Token = Any
Cmp = Callable[[Any, Any], int]

# The longest numeral parse_nat reads: Python's default limit of int(str).
MAX_DIGITS = 4300


@dataclass(frozen=True)
class Enumeration:
    """A finite listing plus an honest claim about its completeness.

    ``exhaustive`` is True only when the listing provably contains every
    value in question; property checks propagate the flag so that a report
    can distinguish "verified on all" from "verified on a sample".
    """

    items: tuple
    exhaustive: bool

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


def least(items: Enumeration, k: int, cmp: Cmp) -> Enumeration:
    """The k least items under cmp, sorted.

    Keeps the listing's exhaustive flag when nothing is cut and clears it
    otherwise.  Selection costs O(n log k) comparisons, so a large listing
    cut to a small budget is never sorted in full.
    """
    if k < 0:
        raise ValueError(f"cannot select {k} items")
    key = cmp_to_key(cmp)
    if len(items) <= k:
        return Enumeration(tuple(sorted(items, key=key)), items.exhaustive)
    return Enumeration(tuple(nsmallest(k, items, key=key)), False)


class Dilator:
    """Contract for a coded prae-dilator over skeletal finite orders.

    Core obligations (the laws are *checked*, not assumed; see
    :mod:`bhfix.verify`):

    * ``compare_at(n, s, t)`` is a linear order on Tok_n;
    * ``map_token`` is functorial and strictly monotone;
    * ``supp_at`` is natural: supp(map(f, s)) = f[supp(s)];
    * every token is map_token(inclusion-of-its-support) of a unique
      full-support token, which ``restrict_token`` returns.

    All seven methods are required.  ``normal_form`` (and through it the
    ``dilator-laws`` check) verifies each ``restrict_token`` answer by
    mapping it back and testing that it has full support.

    ``sample_at`` is the one token listing: a deterministic finite subset
    of Tok_n of at most ``budget`` tokens, flagged exhaustive only when it
    is all of Tok_n.  It need not be an initial segment, so dilators with
    infinite token orders can feed diverse tokens to the checks and to the
    stage enumerations.
    """

    name = "dilator"

    def compare_at(self, n: int, s: Token, t: Token) -> int:
        raise NotImplementedError

    def map_token(self, f: Embedding, tok: Token) -> Token:
        raise NotImplementedError

    def supp_at(self, n: int, tok: Token) -> tuple[int, ...]:
        raise NotImplementedError

    def sample_at(self, n: int, budget: int) -> Enumeration:
        raise NotImplementedError

    def restrict_token(self, n: int, tok: Token, positions: Sequence[int]) -> Token:
        raise NotImplementedError

    def format_token(self, n: int, tok: Token) -> str:
        raise NotImplementedError

    def parse_token(self, n: int, text: str) -> Token:
        raise NotImplementedError


def parse_nat(text: str, what: str, error: type[ValueError]) -> int:
    """The natural number that ``text`` writes in ASCII decimal digits.

    The one numeral reader of token texts, term stages and command-line
    counts.  Anything else raises ``error``: other Unicode digits ("²",
    "٣"), signs, spaces, and numerals of more than ``MAX_DIGITS`` digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise error(f"{what} must be a natural number, got {text!r}")
    if len(text) > MAX_DIGITS:
        raise error(f"{what} has {len(text)} digits, more than {MAX_DIGITS}")
    return int(text)


@dataclass(frozen=True)
class CodedElement:
    """An element of T_X in support normal form.

    ``support`` is strictly sorted in the carrier order and ``token`` has
    full support at arity len(support).  Equality is syntactic.
    """

    support: tuple
    token: Token

    @property
    def arity(self) -> int:
        return len(self.support)


def make_coded(dilator: Dilator, support: Sequence, token: Token) -> CodedElement:
    """Build a coded element, checking the full-support invariant."""
    k = len(support)
    supp = dilator.supp_at(k, token)
    if supp != tuple(range(k)):
        raise DilatorLawError(
            f"{dilator.name}: token {dilator.format_token(k, token)} does not use "
            f"its whole arity-{k} support (supp = {supp})"
        )
    return CodedElement(tuple(support), token)


def normal_form(dilator: Dilator, n: int, tok: Token) -> CodedElement:
    """Factor a raw token through the inclusion of its support.

    Returns the coded element over the carrier 0..n-1.  A support that is
    not strictly increasing within 0..n-1, failure to factor, or a factor
    that is not full-support indicates a law-violating dilator and raises
    :class:`DilatorLawError`.
    """
    supp = dilator.supp_at(n, tok)
    try:
        incl = Embedding(supp, n)
    except ValueError:
        raise DilatorLawError(
            f"{dilator.name}: support {supp} of {dilator.format_token(n, tok)} is not "
            f"strictly increasing within 0..{n - 1}"
        ) from None
    full = dilator.restrict_token(n, tok, supp)
    if dilator.compare_at(n, dilator.map_token(incl, full), tok) != EQ:
        raise DilatorLawError(
            f"{dilator.name}: restriction of {dilator.format_token(n, tok)} does not "
            "map back to the original token"
        )
    k = len(supp)
    if dilator.supp_at(k, full) != tuple(range(k)):
        raise DilatorLawError(
            f"{dilator.name}: restricted token {dilator.format_token(k, full)} is not "
            "full-support"
        )
    return CodedElement(supp, full)


def map_coded(f: Callable, coded: CodedElement) -> CodedElement:
    """Apply a strictly increasing carrier map to a coded element.

    The support is relabelled through f; the token is unchanged.
    """
    return CodedElement(finset_map(f, coded.support), coded.token)


def merged_positions(a: Sequence, b: Sequence, cmp: Cmp) -> tuple[tuple, tuple, int]:
    """Positions of two strictly sorted tuples inside their union under cmp,
    and the size of that union, in one merge pass."""
    pa: list[int] = []
    pb: list[int] = []
    i = j = n = 0
    while i < len(a) and j < len(b):
        c = cmp(a[i], b[j])
        if c <= 0:
            pa.append(n)
            i += 1
        if c >= 0:
            pb.append(n)
            j += 1
        n += 1
    rest_a, rest_b = len(a) - i, len(b) - j
    pa.extend(range(n, n + rest_a))
    pb.extend(range(n, n + rest_b))
    return tuple(pa), tuple(pb), n + rest_a + rest_b


def compare_coded(dilator: Dilator, cmp: Cmp, e1: CodedElement, e2: CodedElement) -> int:
    """Linear comparison of two coded elements over the same carrier.

    Both tokens are pushed into the merge of the two supports and compared
    there; the verdict does not depend on the choice of common carrier.  A
    side whose support is the whole merge keeps its token unmapped: that is
    the identity law (``map_token`` along an identity returns the token),
    which the ``dilator-laws`` check tests.
    """
    if e1 == e2:
        return EQ
    p1, p2, n = merged_positions(e1.support, e2.support, cmp)
    t1 = e1.token if len(p1) == n else dilator.map_token(Embedding.trusted(p1, n), e1.token)
    t2 = e2.token if len(p2) == n else dilator.map_token(Embedding.trusted(p2, n), e2.token)
    verdict = dilator.compare_at(n, t1, t2)
    if verdict == EQ:
        raise DilatorLawError(
            f"{dilator.name}: distinct coded elements compare equal "
            f"(token {dilator.format_token(n, t1)})"
        )
    return verdict


def full_support_tokens(dilator: Dilator, k: int, budget: int) -> Enumeration:
    """Tokens at arity k whose support is all of 0..k-1, within budget."""
    sample = dilator.sample_at(k, budget)
    full = tuple(t for t in sample if dilator.supp_at(k, t) == tuple(range(k)))
    return Enumeration(full, sample.exhaustive)


def coded_elements(
    dilator: Dilator, carrier_sample: Enumeration, budget: int, cmp: Cmp
) -> Enumeration:
    """All coded elements with support inside the sample and token within
    the per-arity budget, in generation order (not sorted).

    ``carrier_sample`` must be strictly sorted under cmp.  The result is
    exhaustive for T_X restricted to the sampled carrier only when the
    sample and every per-arity token enumeration were exhaustive.
    """
    sample = carrier_sample.items
    if not is_strictly_sorted(sample, cmp):
        raise ValueError("carrier sample must be strictly sorted")
    out: list[CodedElement] = []
    exhaustive = carrier_sample.exhaustive
    for k in range(len(sample) + 1):
        tokens = full_support_tokens(dilator, k, budget)
        exhaustive &= tokens.exhaustive
        if not tokens.items:
            continue
        for subset in combinations(sample, k):
            out.extend(CodedElement(subset, tok) for tok in tokens)
    return Enumeration(tuple(out), exhaustive)
