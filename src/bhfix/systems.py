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
verdict with the positions of both supports in their merge.  The stages check
every support, the limit system only those the merge leaves open
(:mod:`bhfix.limits`).  Each term level of a comparison costs two Python
frames, ``System.compare`` and ``compare_merged``, since the clause loop
runs inside ``compare``.

All systems of a tower intern their terms into the tower's one table (one
object per body), so term equality is object identity and X_n is a subset
of X_{n+1} and of the limit.  On these terms, by induction on n, the order
of X_{n+1} (whose carrier is X_n in its own order) is one recursion F with
every clause check, restricted to X_{n+1}.  So a tower keeps F once, as a
:class:`System` whose carrier order is F itself, with one memo for every
stage; the system over X_n is a :class:`Stage`, a view of F whose iota
keeps the birth guard.  The limit (:class:`bhfix.limits.Tower`) keeps a
memo of its own.  Each system binds its carrier order once, as the
attribute ``carrier_compare``.  Both caches are append-only and
idempotent; systems are immutable once built and safe to share.  Stages
generate nothing: X_n is listed by ``tower.listing(n, budget)``
(:meth:`bhfix.limits.Tower.listing`).
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
    """The full order F over a tower's terms, whose carrier order is F
    itself and whose iota is the identity; the limit is a System too.
    Goodness and the length equation are checkable properties (see
    :func:`bhfix.verify.check_goodness`), never assumed at construction."""

    def __init__(self, tower):
        self.tower = tower
        self.dilator: Dilator = tower.dilator
        self._intern: dict[CodedElement, ThetaTerm] = tower._intern
        self._memo: dict[tuple[int, int], int] = {}
        # the carrier: the terms themselves, in this order
        self.carrier_compare = self.compare

    def __repr__(self) -> str:
        return "F"

    # -- the system data ---------------------------------------------------

    def length_of(self, x: ThetaTerm) -> int:
        """L_X: the term length of a carrier element."""
        return x.length

    def embed(self, x: ThetaTerm) -> ThetaTerm:
        """iota_X: the identity, as the carrier is the terms themselves."""
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
        F settles none and checks every clause, so that the limit, which
        settles supports through the merge, has a full recursion to be
        checked against (:func:`bhfix.verify.check_limit_order`)."""
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


class Stage(System):
    """The system over X_n: a view of the full order ``order`` on the
    stage's terms, with no memo of its own (X_0 is empty)."""

    def __init__(self, order: System, n: int):
        self.tower, self.dilator, self._intern = order.tower, order.dilator, order._intern
        self.n = n
        # F's bound compare, so that a stage compare costs no extra frame
        self.compare = order.compare
        self.carrier_compare = order.compare if n else _empty_carrier

    def __repr__(self) -> str:
        return f"X{self.n}"

    def embed(self, x: ThetaTerm) -> ThetaTerm:
        """iota_X: the inclusion of X_n into X_{n+1}.  The terms are shared,
        so it keeps an element born at stage <= n, and no other is in X_n."""
        if x.length > self.n + 1:
            raise ValueError(
                f"cannot embed an element born at stage {x.length - 1} at stage {self.n}"
            )
        return x


def _empty_carrier(x: ThetaTerm, y: ThetaTerm) -> int:
    # the carrier order of X_0, whose carrier is empty
    raise ValueError("X0 has an empty carrier: there is nothing to compare")
