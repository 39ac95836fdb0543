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

from bisect import insort
from functools import cmp_to_key, partial
from itertools import combinations, compress
from math import comb
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence
from weakref import WeakKeyDictionary

from .errors import DilatorLawError
from .finite_orders import EQ, Embedding, Frozen, finset_map, is_strictly_sorted

Token = Any
Cmp = Callable[[Any, Any], int]

# The longest numeral parse_nat reads: Python's default limit of int(str).
MAX_DIGITS = 4300


class Enumeration(Frozen):
    """A finite listing plus an honest claim about its completeness.

    ``exhaustive`` is True only when the listing provably contains every
    value in question; property checks propagate the flag so that a report
    can distinguish "verified on all" from "verified on a sample".  Equal
    exactly when both fields are; a listing is unhashable.
    """

    __slots__ = ("items", "exhaustive")

    def __init__(self, items: tuple, exhaustive: bool) -> None:
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "exhaustive", exhaustive)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.items == other.items and self.exhaustive == other.exhaustive

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(items={self.items!r}, exhaustive={self.exhaustive!r})"

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
    # imported here, its only use, so that importing the package leaves heapq out
    from heapq import nsmallest

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

    Seven methods are required.  The eighth, ``support_bound``, is
    optional: its default bound ``n`` says nothing.  ``normal_form``
    (and through it the ``dilator-laws`` check) verifies each
    ``restrict_token`` answer by mapping it back and testing that it has
    full support.

    :func:`least_coded` lists and sorts each arity's tokens once per
    dilator instance and budget, so a dilator must be hashable and weakly
    referenceable, as plain subclasses are.
    """

    name = "dilator"

    def compare_at(self, n: int, s: Token, t: Token) -> int:
        raise NotImplementedError

    def map_token(self, f: Embedding, tok: Token) -> Token:
        raise NotImplementedError

    def supp_at(self, n: int, tok: Token) -> tuple[int, ...]:
        raise NotImplementedError

    def sample_at(self, n: int, budget: int) -> Enumeration:
        """The one token listing: at most ``budget`` tokens of Tok_n, a set
        that grows with the budget and is flagged exhaustive only when it is
        all of Tok_n, in an order that is part of the output (``dilator-laws``
        reports failures in it).  It need not be an initial segment, so an
        infinite token order can feed diverse tokens to the checks."""
        raise NotImplementedError

    def support_bound(self, n: int, budget: int) -> int:
        """An upper bound on the support size of every token that
        ``sample_at(n, budget)`` lists.  Below ``n`` it proves that the
        listing holds no full-support token, so :func:`least_coded` never
        samples that arity's table."""
        return n

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


class CodedElement(tuple):
    """An element of T_X in support normal form: the pair (support, token).

    ``support`` is strictly sorted in the carrier order and ``token`` has
    full support at arity len(support).  A coded element is a tuple, so it
    is immutable and its equality and hash are the tuple's own, computed
    in C: equal exactly when support and token are, which makes it the
    intern key.  Being a tuple, it also equals the plain tuple
    ``(support, token)``, has length 2, and unpacks and orders as that
    tuple does; :class:`~bhfix.finite_orders.Embedding` is the same kind of
    pair.  Nothing copies or pickles a coded element, and neither works:
    both would rebuild it through ``__new__`` with the pair as one argument.
    """

    __slots__ = ()

    def __new__(cls, support: tuple, token: Token) -> "CodedElement":
        return tuple.__new__(cls, (support, token))

    support = property(itemgetter(0))
    token = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(support={self[0]!r}, token={self[1]!r})"

    @property
    def arity(self) -> int:
        return len(self[0])


# ``CodedElement(support, token)`` without the Python-level ``__new__``: the
# selector's hot loop builds its candidates with it.
_coded = partial(tuple.__new__, CodedElement)


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


def compare_coded(dilator: Dilator, cmp: Cmp, e1: CodedElement, e2: CodedElement) -> int:
    """Linear comparison of two coded elements over the same carrier.

    Both tokens are pushed into the merge of the two supports and compared
    there; the verdict does not depend on the choice of common carrier.  A
    side whose support is the whole merge keeps its token unmapped: that is
    the identity law (``map_token`` along an identity returns the token),
    which the ``dilator-laws`` check tests.
    """
    return compare_merged(dilator, cmp, e1, e2)[0]


def compare_merged(
    dilator: Dilator, cmp: Cmp, e1: CodedElement, e2: CodedElement
) -> tuple[int, tuple, tuple]:
    """The verdict of :func:`compare_coded` together with the positions of
    both supports inside their merge under cmp.  Equal elements are EQ
    without a merge, with empty positions.  Identical supports are their
    own merge, so their tokens are compared unmapped, with no call to cmp:
    every carrier order makes an element EQ to itself.  Other supports are
    merged in one pass."""
    if e1 == e2:
        return EQ, (), ()
    s1, t1 = e1
    s2, t2 = e2
    l1, l2 = len(s1), len(s2)
    if s1 == s2:
        p1 = p2 = tuple(range(l1))
        n = l1
    elif not l1 or not l2:
        p1, p2, n = tuple(range(l1)), tuple(range(l2)), l1 + l2
    else:
        q1: list[int] = []
        q2: list[int] = []
        i = j = n = 0
        while i < l1 and j < l2:
            c = cmp(s1[i], s2[j])
            if c <= 0:
                q1.append(n)
                i += 1
            if c >= 0:
                q2.append(n)
                j += 1
            n += 1
        q1.extend(range(n, n + l1 - i))
        q2.extend(range(n, n + l2 - j))
        p1, p2, n = tuple(q1), tuple(q2), n + l1 - i + l2 - j
    if len(p1) != n:
        t1 = dilator.map_token(Embedding.trusted((p1, n)), t1)
    if len(p2) != n:
        t2 = dilator.map_token(Embedding.trusted((p2, n)), t2)
    verdict = dilator.compare_at(n, t1, t2)
    if verdict == EQ:
        raise DilatorLawError(
            f"{dilator.name}: distinct coded elements compare equal "
            f"(token {dilator.format_token(n, t1)})"
        )
    return verdict, p1, p2


def full_support_tokens(dilator: Dilator, k: int, budget: int) -> Enumeration:
    """Tokens at arity k whose support is all of 0..k-1, within budget."""
    sample = dilator.sample_at(k, budget)
    supports = map(partial(dilator.supp_at, k), sample.items)
    full = compress(sample.items, map(tuple(range(k)).__eq__, supports))
    return Enumeration(tuple(full), sample.exhaustive)


# Each dilator's full-support tokens by (arity, budget), sorted by
# ``compare_at``, with their exhaustive flag and the verdict of
# ``first_token_monotone`` on the least of them: they depend on the dilator
# alone.  An arity skipped by its support bound has no tokens, and its flag
# is None until read.  Weakly keyed, so that a dilator's table dies with it.
_TOKENS: WeakKeyDictionary[Dilator, dict[tuple[int, int], tuple]] = WeakKeyDictionary()


def first_token_monotone(dilator: Dilator, a: int, tok: Token) -> bool:
    """Whether raising one support element of an arity-a token raises it.

    For each s < a, with skip_s the inclusion of a into a + 1 that omits s,
    map(skip_{s+1}, tok) must lie below map(skip_s, tok) at arity a + 1:
    ``a`` comparisons.  Two supports f <= g pointwise are joined by steps
    that raise one element, and each step is that pair of inclusions
    followed by the inclusion of the two supports' union, so the test gives
    (f, tok) < (g, tok) under ``compare_coded`` whenever f != g.  A lawful
    prae-dilator need not pass it; omega with its token order reversed
    does not.
    """
    images = []
    for s in range(a + 1):
        skip = Embedding.trusted((tuple(i + (i >= s) for i in range(a)), a + 1))
        images.append(dilator.map_token(skip, tok))
    return all(dilator.compare_at(a + 1, images[s + 1], images[s]) < 0 for s in range(a))


def least_coded(
    dilator: Dilator,
    carrier_sample: Enumeration,
    budget: int,
    k: int,
    cmp: Cmp,
    value: Callable[[CodedElement], Any],
    order: Cmp,
) -> Enumeration:
    """The k least values of the coded elements over a carrier sample, sorted.

    The coded elements are those with support inside ``carrier_sample``,
    which must be strictly sorted under cmp, and token among the arity's
    full-support tokens within ``budget``.  ``value`` maps each one to an
    item ordered by ``order``.  Two values are in use, the coded element
    itself under ``compare_coded`` and its collapse th(S, t) under the
    limit's term order, and both obey two rules:

    * *On one support the value order is the token order*: value(S, t1) <
      value(S, t2) exactly when t1 < t2 under ``compare_at``.  On one
      support ``compare_coded`` is ``compare_at`` on the unmapped tokens;
      for collapses the deciding clause finds S below the other collapse,
      by the support lemma (:mod:`bhfix.limits`).
    * *At the arity's least token t0, a support pointwise above another
      has the greater value*, when t0 passes :func:`first_token_monotone`:
      if S[j] <= S'[j] for every j, then (S, t0) < (S', t0) under
      ``compare_coded``.  For collapses the first clause then asks for
      every S[j] below th(S', t0), and S[j] <= S'[j] < th(S', t0) by the
      support lemma.  An arity whose t0 fails the test is walked without
      this rule.

    The tokens of each arity are listed, sorted and tested once per dilator
    and budget, on first use, and kept in a table that dies with the
    dilator.  An arity a with ``support_bound(a, budget) < a`` gets an empty
    table without a listing, since none of its sampled tokens has full
    support; its listing's exhaustive flag is read only while the result can
    still be exhaustive.  The supports of an arity come in lexicographic
    order of their sample indices.  Each walks the tokens in token order,
    keeps the k least values so far, and stops at its first value that is
    not below the k-th: no later token of that support can enter.  When that
    first miss is at t0, no later support pointwise above this one can enter
    either.  Those include the rest of the lexicographic block that shares
    the indices before the consecutive run that ends the support, so the
    walk skips that block, and when the run is the whole support it leaves
    the arity.  So values past a first miss are never built.

    Each value is compared with the last kept one first: one at or past it
    goes at the end, where bisection would put it in a transitive order,
    or is the first miss when k are kept; only one below it is bisected in.
    On one support values rise in token order, so most cost one compare.

    The result is exhaustive when the sample and every per-arity token
    listing are, and the sum over arities a of C(|sample|, a) times the
    number of tokens is at most k; that count builds no element.
    """
    if k < 0:
        raise ValueError(f"cannot select {k} items")
    sample = carrier_sample.items
    if not is_strictly_sorted(sample, cmp):
        raise ValueError("carrier sample must be strictly sorted")
    m = len(sample)
    table = _TOKENS.setdefault(dilator, {})
    key = cmp_to_key(order)
    kept: list = []
    count = 0
    exhaustive = carrier_sample.exhaustive
    for a in range(m + 1):
        entry = table.get((a, budget))
        if entry is None:
            if dilator.support_bound(a, budget) < a:
                entry = table[a, budget] = (), None, False
            else:
                full = full_support_tokens(dilator, a, budget)
                tokens = tuple(sorted(full, key=cmp_to_key(partial(dilator.compare_at, a))))
                monotone = bool(tokens) and first_token_monotone(dilator, a, tokens[0])
                entry = table[a, budget] = tokens, full.exhaustive, monotone
        tokens, listed_all, monotone = entry
        if exhaustive:
            if listed_all is None:
                listed_all = dilator.sample_at(a, budget).exhaustive
                table[a, budget] = tokens, listed_all, monotone
            exhaustive = listed_all
        count += comb(m, a) * len(tokens)
        if not k or not tokens:
            continue
        t0 = tokens[0]
        # a support whose indices are below ``skip`` is in the block skipped last
        skip = ()
        for idx, subset in zip(combinations(range(m), a), combinations(sample, a)):
            if idx < skip:
                continue
            for tok in tokens:
                v = value(_coded((subset, tok)))
                if kept and order(v, kept[-1]) < 0:
                    if len(kept) == k:
                        kept.pop()
                    insort(kept, v, key=key)
                elif len(kept) == k:
                    break
                else:
                    kept.append(v)
            else:
                continue
            # a first miss at t0: every later support above this one misses too
            if monotone and tok is t0:
                p = max(a - 1, 0)
                while p and idx[p - 1] + 1 == idx[p]:
                    p -= 1
                if not p:
                    break
                skip = idx[:p] + (m,)
    return Enumeration(tuple(kept), exhaustive and count <= k)
