"""The stage tower, its direct limit, and the glued collapse.

Stages iterate from the empty order: X_0 is empty and the system over X_n
is ``System(tower, stage(n - 1))``, whose carrier is the order of collapse
terms over X_{n-1}.  The direct limit of the stages is itself a system over
its own carrier (:class:`LimitSystem`): its elements are collapse terms
whose supports are limit elements, iota is the identity, and the order is
the same two-clause recursion as at every stage.  Limit elements are the
interned terms of that one system, so equality is identity and every
comparison is one :meth:`System.compare`.

A term is new at stage n+1 exactly when one of its supports is new at
stage n, so by induction a limit element of length L is born at stage
L - 1 and first lives in X_L.  Listings are generated over the limit
(:meth:`Tower.listing`) and embedded into the stages, which stay as the
paper's construction and as the oracle the checks compare against.
``flatten`` takes a stage term to the limit; the stage iota
(:meth:`System.embed`) reads only the structure of its argument, so
``stage(m).embed(e)`` is the representative in X_{m+1} of a limit element
e born at stage <= m.

The glued collapse is the limit system's collapse; computing it at any
stage containing the support and flattening gives the same element.

All caches are append-only; elements are immutable.
"""

from __future__ import annotations

from functools import cmp_to_key

from .dilator import (
    CodedElement,
    Dilator,
    Enumeration,
    coded_elements,
    least,
    make_coded,
    map_coded,
)
from .finite_orders import is_strictly_sorted
from .systems import System, ThetaTerm

# Base samples feeding a listing are capped so that the subset lattice over
# the sample stays at desk scale even for generous budgets.
BASE_SAMPLE_CAP = 12


def birth_stage(e: ThetaTerm) -> int:
    """The stage n at which a limit element is new, i.e. first in X_{n+1}."""
    return e.length - 1


class LimitSystem(System):
    """The direct limit as a system over its own elements: the carrier order
    is the limit order itself and iota is the identity."""

    def __repr__(self) -> str:
        return "lim"

    def carrier_compare(self, x: ThetaTerm, y: ThetaTerm) -> int:
        return self.compare(x, y)

    def embed(self, x: ThetaTerm) -> ThetaTerm:
        return x


class Tower:
    """The stage sequence of a prae-dilator together with its limit system."""

    def __init__(self, dilator: Dilator):
        self.dilator = dilator
        self._systems = [System(self)]
        self.limit = LimitSystem(self)
        self._listings: dict[tuple[int, int], Enumeration] = {}

    def stage(self, n: int) -> System:
        """The system whose carrier is X_n (cached; stage 0 is empty)."""
        while len(self._systems) <= n:
            self._systems.append(System(self, self._systems[-1]))
        return self._systems[n]

    def flatten(self, s: ThetaTerm) -> ThetaTerm:
        """The limit element of a term in any stage X_n, n >= 1."""
        return self.limit.collapse(map_coded(self.flatten, s.body))

    # -- the limit order and the glued collapse --------------------------------

    def compare(self, e1: ThetaTerm, e2: ThetaTerm) -> int:
        return self.limit.compare(e1, e2)

    def collapse(self, coded: CodedElement) -> ThetaTerm:
        """Collapse a coded element over the limit order.

        The support must be a strictly increasing tuple of limit elements
        and the token must use all of it.
        """
        if not is_strictly_sorted(coded.support, self.compare):
            raise ValueError("support must be strictly increasing in the limit order")
        return self.limit.collapse(make_coded(self.dilator, coded.support, coded.token))

    # -- enumeration -------------------------------------------------------------

    def listing(self, n: int, budget: int) -> Enumeration:
        """The least ``budget`` collapses over ``listing(n - 1, min(budget,
        BASE_SAMPLE_CAP))``, sorted; X_0 is empty.  The one listing generator,
        cached per (n, budget) and filled bottom-up."""
        if n == 0 or (n, budget) in self._listings:
            return self._listings.get((n, budget), Enumeration((), True))
        cap = min(budget, BASE_SAMPLE_CAP)
        m = n - 1
        while m and (m, cap) not in self._listings:
            m -= 1
        listing = self._listings[m, cap] if m else Enumeration((), True)
        cmp = self.limit.compare
        for k in range(m + 1, n + 1):
            b = budget if k == n else cap
            coded = coded_elements(self.dilator, listing, b, cmp)
            terms = Enumeration(tuple(map(self.limit.collapse, coded)), coded.exhaustive)
            listing = self._listings[k, b] = least(terms, b, cmp)
        return listing

    def enumerate(self, stage_bound: int, budget: int) -> Enumeration:
        """All limit elements born below stage_bound that the listings reach,
        sorted; it stops once the capped listings repeat, as all later ones do."""
        out: list[ThetaTerm] = []
        exhaustive = True
        cap = min(budget, BASE_SAMPLE_CAP)
        for n in range(1, stage_bound + 1):
            xs = self.listing(n, budget)
            exhaustive &= xs.exhaustive
            out.extend(e for e in xs if e.length == n)
            if self.listing(n, cap) == self.listing(n - 1, cap):
                break
        out.sort(key=cmp_to_key(self.compare))
        return Enumeration(tuple(out), exhaustive)
