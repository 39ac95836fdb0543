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
of looping.  The body comparison and the clause checks share one merge of
the two supports: :func:`bhfix.dilator.compare_merged` returns the body
verdict with the positions of both supports in their merge.  A stage checks
every support, the limit system only those the merge leaves open
(:mod:`bhfix.limits`).  Each term level of a comparison costs two Python
frames, ``System.compare`` and ``compare_merged``, since the clause loop
runs inside ``compare``.

A stage system is fixed by the stage below it, its *base*: its carrier
X_{n+1} is the base's term order, L is the term length, and iota is the
inclusion.  X_0 has no base and is empty.  The limit is the tower itself
(:class:`bhfix.limits.Tower`), a system without a base whose carrier is
its own term order.  Each system binds its carrier order once, as the
attribute ``carrier_compare``.

All systems of a tower intern their terms into the tower's one table (one
object per body), so term equality is object identity and X_n is a subset
of X_{n+1} and of the limit.  Each system memoizes its own comparison
verdicts.  Both caches are append-only and idempotent; systems are
immutable once built and safe to share.  Stages generate nothing: X_n is
listed by ``tower.listing(n, budget)`` (:meth:`bhfix.limits.Tower.listing`).
"""

from __future__ import annotations

from .dilator import CodedElement, Dilator, compare_merged
from .errors import SystemDefectError
from .finite_orders import EQ, GT, LT, Frozen


class ThetaTerm(Frozen):
    """A formal collapse term; unique per body within its tower, so
    equality is identity."""

    __slots__ = ("body", "length")

    def __init__(self, body: CodedElement, length: int) -> None:
        _set_body(self, body)
        _set_length(self, length)

    def __repr__(self) -> str:
        return (
            f"ThetaTerm(L={self.length}, token={self.body.token!r}, "
            f"supp={len(self.body.support)})"
        )


# the slot setters of ``ThetaTerm`` (see ``Frozen``)
_set_body = ThetaTerm.body.__set__
_set_length = ThetaTerm.length.__set__


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
        self._intern: dict[CodedElement, ThetaTerm] = tower._intern
        self._memo: dict[tuple[int, int], int] = {}
        # the carrier X_n: the terms of the base system, in its order
        self.carrier_compare = base.compare if base is not None else _empty_carrier

    def __repr__(self) -> str:
        return f"X{self.n}"

    # -- the system data ---------------------------------------------------

    def length_of(self, x: ThetaTerm) -> int:
        """L_X: the term length of a carrier element."""
        return x.length

    def embed(self, x: ThetaTerm) -> ThetaTerm:
        """iota_X: the inclusion of X_n into X_{n+1}.

        The terms are shared, so a limit element born at stage <= n is
        already its own representative in X_{n+1}.  A longer element is
        born above stage n and is not in X_{n+1}.
        """
        if x.length > self.n + 1:
            raise ValueError(
                f"cannot embed an element born at stage {x.length - 1} at stage {self.n}"
            )
        return x

    def theta_length(self, coded: CodedElement) -> int:
        """Term length: one plus the maximal carrier length over the support."""
        support = coded[0]
        return 1 + max(map(self.length_of, support)) if support else 1

    def collapse(self, coded: CodedElement) -> ThetaTerm:
        """The formal collapse of a coded element; interned, hence injective."""
        term = self._intern.get(coded)
        if term is None:
            term = self._intern[coded] = ThetaTerm(coded, self.theta_length(coded))
        return term

    # -- the term order ----------------------------------------------------

    def compare(self, s: ThetaTerm, t: ThetaTerm) -> int:
        if s is t:
            return EQ
        key = (id(s), id(t))
        verdict = self._memo.get(key)
        if verdict is None:
            body, ps, pt = compare_merged(self.dilator, self.carrier_compare, s.body, t.body)
            if body == EQ:
                raise SystemDefectError(
                    f"{self!r}: two distinct interned terms have equal bodies"
                )
            # The clause of the body verdict: the lower body's term is below
            # exactly when its translated support, past the members the merge
            # settles, lies strictly below the other term.  A member that does
            # not is >= that term by trichotomy at smaller length, which is
            # exactly the other clause.
            if body == LT:
                low, high, settled, verdict = s, t, self._settled(ps, pt), LT
            else:
                low, high, settled, verdict = t, s, self._settled(pt, ps), GT
            for x in low.body.support[settled:]:
                ix = self.embed(x)
                if ix.length >= low.length:
                    raise SystemDefectError(
                        f"{self!r}: length law violated: L(iota(x)) = {ix.length} "
                        f">= {low.length} = L(term); comparison recursion would not terminate"
                    )
                if self.compare(ix, high) != LT:
                    verdict = -verdict
                    break
            self._memo[key] = verdict
            self._memo[(id(t), id(s))] = -verdict
        return verdict

    def _settled(self, ps: tuple, pt: tuple) -> int:
        """How many leading supports of s the merge of the two supports
        (``ps`` and ``pt``, their positions in it) already places below t.
        A stage settles none: its merge runs in the base order, and that
        iota carries that order into its own is the goodness law, which is
        checked, not assumed."""
        return 0

    def subterm_closure(self, t: ThetaTerm) -> tuple[ThetaTerm, ...]:
        """All terms reachable through supports and iota, t first, each once
        in the order the walk first reaches it; every member is <= t.

        A depth-first walk on an explicit stack that expands each shared
        subterm once, in the order of the plain recursion, so the first
        length-law violation it meets is that recursion's first."""
        out = {t: None}
        stack = [(t, x) for x in reversed(t.body.support)]
        while stack:
            s, x = stack.pop()
            ix = self.embed(x)
            if ix.length >= s.length:
                raise SystemDefectError(
                    f"{self!r}: length law violated in the support of {s!r}: "
                    f"L(iota(x)) = {ix.length} >= {s.length} = L(term)"
                )
            if ix not in out:
                out[ix] = None
                stack.extend((ix, y) for y in reversed(ix.body.support))
        return tuple(out)


def _empty_carrier(x: ThetaTerm, y: ThetaTerm) -> int:
    # the carrier order of X_0, whose carrier is empty
    raise ValueError("X0 has an empty carrier: there is nothing to compare")
