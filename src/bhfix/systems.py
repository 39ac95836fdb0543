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

All systems of a tower intern their terms into the tower's one table (one
object per body), so term equality is object identity and X_n is a subset
of X_{n+1} and of the limit.  On these terms, by induction on n, the order
of X_{n+1} (whose carrier is X_n in its own order) is one recursion F with
every clause check, restricted to X_{n+1}.  A tower keeps F once, as a
:class:`System` with one memo for every stage; the limit
(:class:`bhfix.limits.Tower`) is a System with a memo of its own.  Both
order the terms themselves, so iota is the identity and L is the
``length`` that :meth:`System.collapse` sets, and neither keeps them.
Each recursive step replaces a term by a support, a proper subterm, and
terms are immutable and built from existing ones, so the recursion walks
down a finite acyclic graph.  The system over X_n is a :class:`Stage`, a
view of F that keeps iota (the inclusion, with its birth guard) and L for
the checks (:mod:`bhfix.verify`), which test the length equation there.
The body comparison and the clause checks share one merge of the two
supports (:func:`bhfix.dilator.compare_merged`); F checks every support,
the limit only those the merge leaves open.  Each system binds its
carrier order once, as ``carrier_compare``.  Both caches are append-only
and idempotent; systems are immutable once built and safe to share.  X_n
is listed by :meth:`bhfix.limits.Tower.listing`.
"""

from __future__ import annotations

from operator import attrgetter

from .dilator import CodedElement, Dilator, compare_merged
from .errors import BirthStageError, SystemDefectError
from .finite_orders import EQ, GT, LT, Frozen

_length = attrgetter("length")


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
    """The full order F over a tower's terms, which orders them as
    themselves: the carrier order is F itself; the limit is a System too.
    Goodness and the length equation are checkable properties of the
    stages (see :func:`bhfix.verify.check_goodness`), never assumed at
    construction."""

    def __init__(self, tower):
        self.tower = tower
        self.dilator: Dilator = tower.dilator
        self._intern: dict[CodedElement, ThetaTerm] = tower._intern
        self._memo: dict[tuple[int, int], int] = {}
        # the carrier: the terms themselves, in this order
        self.carrier_compare = self.compare

    def __repr__(self) -> str:
        return "F"

    def collapse(self, coded: CodedElement) -> ThetaTerm:
        """The formal collapse of a coded element; interned, hence injective.
        A new term's length is one plus the largest support length."""
        term = self._intern.get(coded)
        if term is None:
            support = coded[0]
            length = 1 + max(map(_length, support)) if support else 1
            term = self._intern[coded] = ThetaTerm(coded, length)
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
            # exactly when its support, past the members the merge settles,
            # lies strictly below the other term.  A member that does not is
            # >= that term by trichotomy on a proper subterm, which is
            # exactly the other clause.
            if body == LT:
                low, high, settled, verdict = s, t, self._settled(ps, pt), LT
            else:
                low, high, settled, verdict = t, s, self._settled(pt, ps), GT
            for x in low.body.support[settled:]:
                if self.compare(x, high) != LT:
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
        """All terms reachable through supports, t first, each once in the
        order the walk first reaches it; every member is <= t.

        A depth-first walk on an explicit stack that expands each shared
        subterm once, in the order of the plain recursion."""
        out = {t: None}
        stack = list(reversed(t.body.support))
        while stack:
            x = stack.pop()
            if x not in out:
                out[x] = None
                stack.extend(reversed(x.body.support))
        return tuple(out)


class Stage(System):
    """The system over X_n: a view of the full order ``order`` on the
    stage's terms, with no memo of its own (X_0 is empty), and the paper's
    system data iota and L, which the checks read."""

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
            raise BirthStageError(
                f"cannot embed an element born at stage {x.length - 1} at stage {self.n}"
            )
        return x

    def length_of(self, x: ThetaTerm) -> int:
        """L_X: the term length of a carrier element."""
        return x.length


def _empty_carrier(x: ThetaTerm, y: ThetaTerm) -> int:
    # the carrier order of X_0, whose carrier is empty
    raise ValueError("X0 has an empty carrier: there is nothing to compare")
