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

Terms are interned per system (one object per body), so term equality is
object identity, and comparison verdicts are memoized.  A stage carrier
also keeps its listing per budget.  All three caches are append-only and
idempotent; systems are immutable once built and safe to share.  Stage
carriers generate nothing: the tower lists limit elements
(:meth:`bhfix.limits.Tower.listing`), and a stage listing is that listing
lifted to the stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .dilator import CodedElement, Dilator, Enumeration, compare_coded, map_coded
from .errors import SystemDefectError
from .finite_orders import EQ, GT, LT

# Base samples feeding a listing are capped so that the subset lattice over
# the sample stays at desk scale even for generous budgets.
BASE_SAMPLE_CAP = 12


@dataclass(frozen=True, eq=False)
class ThetaTerm:
    """A formal collapse term; unique per body within its owning system."""

    body: CodedElement
    length: int

    def __repr__(self) -> str:
        return f"ThetaTerm(L={self.length}, token={self.body.token!r}, supp={len(self.body.support)})"


class ThetaCarrier:
    """Carrier X_n of a stage: the collapse terms over X_{n-1}; X_0 is empty."""

    def __init__(self, tower, base: "System | None" = None):
        self.tower = tower
        self.base = base
        self.n = 0 if base is None else base.carrier.n + 1
        self._listings: dict[int, Enumeration] = {}

    def compare(self, s: ThetaTerm, t: ThetaTerm) -> int:
        return self.base.compare(s, t)

    def enumerate(self, budget: int) -> Enumeration:
        """The tower's listing of X_n at this budget, as terms of X_n."""
        listing = self._listings.get(budget)
        if listing is None:
            listed = self.tower.listing(self.n, budget)
            lifted = tuple(self.tower.lift(e, self.n - 1) for e in listed)
            listing = self._listings[budget] = Enumeration(lifted, listed.exhaustive)
        return listing


class System:
    """A Bachmann-Howard system (X, iota_X, L_X) for a fixed prae-dilator.

    ``carrier`` supplies the order on X (compare + budgeted enumerate),
    ``length_of`` is L_X, and ``embed_of`` is iota_X, producing terms over
    this same system.  Goodness and the length equation are checkable
    properties (see :func:`bhfix.verify.check_goodness`), never assumed at
    construction time.
    """

    def __init__(
        self,
        dilator: Dilator,
        carrier,
        length_of: Callable[[Any], int] | None = None,
        embed_of: Callable[[Any], ThetaTerm] | None = None,
        label: str = "X",
    ):
        self.dilator = dilator
        self.carrier = carrier
        self.length_of = length_of
        self._embed_of = embed_of
        self.label = label
        self._intern: dict[CodedElement, ThetaTerm] = {}
        self._memo: dict[tuple[int, int], int] = {}
        self._next: System | None = None

    def __repr__(self) -> str:
        return f"System({self.dilator.name}, {self.label})"

    # -- the system data ---------------------------------------------------

    def embed(self, x) -> ThetaTerm:
        """iota_X: translate a carrier element into the term order over X."""
        return self._embed_of(x)

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
        body = compare_coded(self.dilator, self.carrier.compare, s.body, t.body)
        if body == EQ:
            raise SystemDefectError(
                f"{self.label}: two distinct interned terms have equal bodies"
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
                    f"{self.label}: length law violated: L(iota(x)) = {ix.length} "
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
                    f"{self.label}: length law violated below {t!r}"
                )
            out |= self.subterm_closure(ix)
        return frozenset(out)

    # -- iteration ---------------------------------------------------------

    def iterate(self) -> "System":
        """The next system: carrier = terms over X, iota relabels supports.

        Idempotent: repeated calls return the same object, so term interning
        is shared by everyone walking the same stage chain.
        """
        if self._next is None:
            nxt = System(
                self.dilator,
                ThetaCarrier(self.carrier.tower, self),
                length_of=lambda term: term.length,
                label=f"theta({self.label})",
            )

            def embed_next(term: ThetaTerm) -> ThetaTerm:
                return nxt.collapse(map_coded(self.embed, term.body))

            nxt._embed_of = embed_next
            self._next = nxt
        return self._next
