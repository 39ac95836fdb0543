"""Bachmann-Howard systems and the collapsing term order.

Fix a prae-dilator T and a linear order X.  The collapsing order over X
consists of formal terms ``th(sigma)`` for sigma in T_X.  Comparing two
such terms needs a translation ``iota : X -> terms-over-X`` for the
supports and a length function ``L : X -> N``; the term length is

    L(th(sigma)) = max{ L(x) : x in supp(sigma) } + 1

with max over the empty set taken to be 0, so every term has length >= 1.
A triple (X, iota, L) with L(iota(x)) = L(x) is a *system*; it is *good*
when iota is additionally an order embedding.  The comparison of th(sigma)
and th(tau) recurses on the sum of their lengths:

* th(sigma) < th(tau) and sigma < tau in T_X: every translated support
  element of sigma must lie strictly below th(tau);
* th(sigma) < th(tau) and tau < sigma in T_X: some translated support
  element of tau lies at or above th(sigma).

Each recursive step replaces a term by a translated support element, whose
length is strictly smaller, so the recursion terminates on well-formed
systems; a violated length law raises :class:`SystemDefectError` instead
of looping.

A stage system is fixed by the stage below it, its *base*: its carrier
X_{n+1} is the base's term order, L is the term length, and iota relabels
supports through the base's iota.  X_0 has no base and is empty.

Terms are interned per system (one object per body), so term equality is
object identity, and comparison verdicts are memoized.  A stage also keeps
its carrier listing per budget.  All three caches are append-only and
idempotent; systems are immutable once built and safe to share.  Stages
generate nothing: the tower lists limit elements
(:meth:`bhfix.limits.Tower.listing`), and a carrier listing is that listing
embedded into the base by the base's iota, so a system reads nothing of the
tower's stages but what its base gives it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dilator import CodedElement, Dilator, Enumeration, compare_coded
from .errors import SystemDefectError
from .finite_orders import EQ, GT, LT


@dataclass(frozen=True, eq=False)
class ThetaTerm:
    """A formal collapse term; unique per body within its owning system."""

    body: CodedElement
    length: int

    def __repr__(self) -> str:
        return f"ThetaTerm(L={self.length}, token={self.body.token!r}, supp={len(self.body.support)})"


class System:
    """The stage system (X, iota_X, L_X) over ``base``; X_0 has no base.

    Goodness and the length equation are checkable properties (see
    :func:`bhfix.verify.check_goodness`), never assumed at construction.
    """

    def __init__(self, tower, base: "System | None" = None):
        self.tower = tower
        self.base = base
        self.n = 0 if base is None else base.n + 1
        self.dilator: Dilator = tower.dilator
        self._intern: dict[CodedElement, ThetaTerm] = {}
        self._memo: dict[tuple[int, int], int] = {}
        self._listings: dict[int, Enumeration] = {}

    def __repr__(self) -> str:
        return f"X{self.n}"

    # -- the carrier X_n: the terms of the base system ----------------------

    def carrier_compare(self, x: ThetaTerm, y: ThetaTerm) -> int:
        return self.base.compare(x, y)

    def carrier_listing(self, budget: int) -> Enumeration:
        """The tower's listing of X_n at this budget, embedded into the base."""
        listing = self._listings.get(budget)
        if listing is None:
            listed = self.tower.listing(self.n, budget)
            terms = tuple(self.base.embed(e) for e in listed)
            listing = self._listings[budget] = Enumeration(terms, listed.exhaustive)
        return listing

    def length_of(self, x: ThetaTerm) -> int:
        """L_X: the term length of a carrier element."""
        return x.length

    # -- the system data ---------------------------------------------------

    def embed(self, x: ThetaTerm) -> ThetaTerm:
        """iota_X: relabel the supports of x through the base's iota.

        iota reads only the structure of x, and the base only when x has a
        support, so it also takes a limit element born at stage <= n to its
        representative in X_{n+1}.
        """
        support = tuple(self.base.embed(y) for y in x.body.support)
        return self.collapse(CodedElement(support, x.body.token))

    def theta_length(self, coded: CodedElement) -> int:
        """Term length: one plus the maximal carrier length over the support."""
        return 1 + max((self.length_of(x) for x in coded.support), default=0)

    def collapse(self, coded: CodedElement) -> ThetaTerm:
        """The formal collapse of a coded element; interned, hence injective."""
        term = self._intern.get(coded)
        if term is None:
            term = ThetaTerm(coded, self.theta_length(coded))
            self._intern[coded] = term
        return term

    # -- the term order ----------------------------------------------------

    def compare(self, s: ThetaTerm, t: ThetaTerm) -> int:
        if s is t:
            return EQ
        key = (id(s), id(t))
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = self._compare_terms(s, t)
            self._memo[key] = verdict
            self._memo[(id(t), id(s))] = -verdict
        return verdict

    def _compare_terms(self, s: ThetaTerm, t: ThetaTerm) -> int:
        body = compare_coded(self.dilator, self.carrier_compare, s.body, t.body)
        if body == EQ:
            raise SystemDefectError(
                f"{self!r}: two distinct interned terms have equal bodies"
            )
        if body == LT:
            return LT if self._support_below(s, t) else GT
        return GT if self._support_below(t, s) else LT

    def _support_below(self, s: ThetaTerm, t: ThetaTerm) -> bool:
        # Does the translated support of s lie strictly below t?  When it
        # does not, the witnessing element is >= t by trichotomy at smaller
        # length, which is exactly the other comparison clause for t < s.
        for x in s.body.support:
            ix = self.embed(x)
            if ix.length >= s.length:
                raise SystemDefectError(
                    f"{self!r}: length law violated: L(iota(x)) = {ix.length} "
                    f">= {s.length} = L(term); comparison recursion would not terminate"
                )
            if self.compare(ix, t) != LT:
                return False
        return True

    def subterm_closure(self, t: ThetaTerm) -> frozenset[ThetaTerm]:
        """All terms reachable through supports and iota; every member is <= t."""
        out = {t}
        for x in t.body.support:
            ix = self.embed(x)
            if ix.length >= t.length:
                raise SystemDefectError(
                    f"{self!r}: length law violated below {t!r}"
                )
            out |= self.subterm_closure(ix)
        return frozenset(out)
