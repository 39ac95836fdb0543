"""The stage tower, its direct limit, and the glued collapse.

Stages iterate from the empty order: X_0 is empty, and the order of
X_{n+1} is the two-clause recursion over the collapse terms of X_n.  The
stage iota reads only the structure of a term, so the stages and the limit
intern into the tower's one table: a term of X_{n+1} is the limit element
it stands for, and the stage iota (:meth:`bhfix.systems.Stage.embed`)
returns its argument, raising ``BirthStageError`` (a ``ValueError``) on an
element born above its stage.  A term is new at stage n+1 exactly when one
of its supports is new at stage n, so by induction a limit element of
length L is born at stage L - 1 and first lives in X_L.  Every stage is
listed over the limit, by :meth:`Tower.listing`, and compares in one full
recursion F, the tower's ``full_order`` (:mod:`bhfix.systems`);
``stage(n)`` is a view of it.

The direct limit of the stages is the :class:`Tower` itself: its elements
are collapse terms whose supports are limit elements, ordered as
themselves by F less the support checks that its merge already settles
(below), with a memo of its own; like F, it keeps no iota or length
function.  Limit elements are the interned terms of that one order, so
equality is identity and every comparison is one :meth:`System.compare`.

The support lemma: every support of a limit element, and every support of
one hereditarily, lies below it under the two-clause recursion as
computed, whatever the tokens do.  By induction on the two lengths, for x
hereditarily in the support S of th(S, t): when the body of x is below
(S, t), the first clause asks for the supports of x below th(S, t), which
they are by induction; otherwise the second asks for a member of S at or
above x: x itself, or for a deeper support the member it comes from, which
lies above it by induction.  Two rules rest on the lemma.

* The limit comparison settles supports through the merge.  When the body
  of s is below that of t, the first clause asks for every support x of s
  below t; the body comparison has already merged the two supports, and an
  x merged at or before the last support y of t has x <= y < t.  So only
  the supports of s merged after all of t's are compared; the second
  clause is the same with s and t swapped.  The step uses transitivity, so
  it is exact when the limit order is linear, as it is for every lawful
  dilator, and so is the lemma for the comparison with the step.  A
  compare along chains is then linear in the height instead of quadratic.
  F keeps every clause check, so ``check_limit_order`` compares the limit
  against a full recursion.
* A listing is the least ``budget`` collapses th(S, t) over the listing
  one stage down, chosen by :func:`bhfix.dilator.least_coded` without
  building them all (:meth:`Tower.select`, which cuts every sample of the
  tower and the checks over the tower's one token table).  The selector
  rests on two rules, stated and proved for collapses from the lemma in
  that function's docstring.

The glued collapse is the limit system's collapse; a stage containing the
support collapses to the same element.  So the tower is itself a collapse
witness, ``bh-self`` (:mod:`bhfix.interpret`): it has the witness methods
``compare``, ``collapse``, ``sample`` and ``format``, and minimality embeds
it into itself by the identity.

All caches are append-only; elements are immutable.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cmp_to_key, partial

from .dilator import CodedElement, Dilator, Enumeration, compare_coded, least_coded
from .errors import DilatorLawError, SystemDefectError
from .finite_orders import is_strictly_sorted
from .systems import Stage, System, ThetaTerm

# The caps of every sample.  Base samples feeding a listing or a coded
# sample are capped so that the subset lattice over the sample stays at
# desk scale even for generous budgets.
BASE_SAMPLE_CAP = 12

# How many stages the samples cover (X_1..X_3): the tower's witness sample
# and every check of :mod:`bhfix.verify` that walks the stages.
LIMIT_STAGES = 3

TERMS_CAP = 40   # cap on the per-stage term budget of a verify suite
SAMPLE_CAP = 30  # cap on the coded-element samples feeding its pair loops


def birth_stage(e: ThetaTerm) -> int:
    """The stage n at which a limit element is new, i.e. first in X_{n+1}."""
    return e.length - 1


def _identity(x):
    return x


class Tower(System):
    """The stage sequence of a prae-dilator; the tower itself is the limit
    order over its own elements, which is also its carrier order."""

    def __init__(self, dilator: Dilator):
        self.dilator = dilator
        # the one intern table of the stages and the limit
        self._intern: dict[CodedElement, ThetaTerm] = {}
        System.__init__(self, self)
        # the order of every stage, with a memo of its own
        self.full_order = System(self)
        self._stages: dict[int, Stage] = {}
        self._listings: dict[tuple[int, int], Enumeration] = {}
        # the coded samples of the stages by (n, budget), and the token
        # table of every selection (:func:`bhfix.dilator.least_coded`)
        self._samples: dict[tuple[int, int], Enumeration] = {}
        self._tokens: dict[tuple[int, int], tuple] = {}

    def __repr__(self) -> str:
        return "lim"

    def stage(self, n: int) -> Stage:
        """X_n's system, a view of the full order (cached; X_0 is empty)."""
        stage = self._stages.get(n)
        if stage is None:
            stage = self._stages[n] = Stage(self.full_order, n)
        return stage

    # -- the limit order and the glued collapse --------------------------------

    def _settled(self, ps: tuple, pt: tuple) -> int:
        # A support x of s merged at or before the last support y of t has
        # x <= y < t by the support lemma (module docstring), so only the
        # supports merged after all of t's need a compare.
        return bisect_right(ps, pt[-1]) if pt else 0

    def collapse(self, coded: CodedElement) -> ThetaTerm:
        """Collapse a coded element over the limit order and intern it.

        Raises ``ValueError`` unless the support is a strictly increasing
        tuple of limit elements, and ``DilatorLawError`` unless the token
        uses all of it (its arity-k support is 0..k-1).
        """
        if not is_strictly_sorted(coded.support, self.compare):
            raise ValueError("support must be strictly increasing in the limit order")
        dilator, k, token = self.dilator, coded.arity, coded.token
        supp = dilator.supp_at(k, token)
        if supp != tuple(range(k)):
            raise DilatorLawError(
                f"{dilator.name}: token {dilator.format_token(k, token)} does "
                f"not use its whole arity-{k} support (supp = {supp})"
            )
        return super().collapse(coded)

    # -- samples -----------------------------------------------------------------

    def select(
        self, carrier: Enumeration, cap: int, budget: int, k: int, owner, collapse=None
    ) -> Enumeration:
        """The one sample cut: the least ``k`` coded elements over
        ``carrier.cut(cap)``, with tokens within ``budget``, sorted; or,
        given ``collapse``, their least ``k`` collapses.  A negative ``cap``
        or ``k`` is a ``ValueError``.

        ``owner`` is the system or witness whose ``compare`` orders the
        carrier, and it orders the collapses too.  The carrier must be
        sorted in that order, as the listings and witness samples are; one
        that is not is a ``SystemDefectError`` naming ``owner``, since then
        the tower's order and the owner's disagree."""
        cmp = owner.compare
        carrier = carrier.cut(cap)
        if collapse is None:
            value, order = _identity, partial(compare_coded, self.dilator, cmp)
        else:
            value, order = collapse, cmp
        try:
            return least_coded(self.dilator, self._tokens, carrier, budget, k, cmp, value, order)
        except ValueError:
            if not is_strictly_sorted(carrier.items, cmp):
                raise SystemDefectError(
                    f"{owner!r}: the tower's listing of its carrier is not sorted in its order"
                ) from None
            raise

    def listing(self, n: int, budget: int) -> Enumeration:
        """The least ``budget`` collapses over ``listing(n - 1, min(budget,
        BASE_SAMPLE_CAP))``, sorted; X_0 is empty.  The one listing generator,
        cached per (n, budget) and filled bottom-up.  A listing one stage down
        that is not sorted in the limit order is a ``SystemDefectError``."""
        if n == 0 or (n, budget) in self._listings:
            return self._listings.get((n, budget), Enumeration((), True))
        cap = min(budget, BASE_SAMPLE_CAP)
        m = n - 1
        while m and (m, cap) not in self._listings:
            m -= 1
        listing = self._listings[m, cap] if m else Enumeration((), True)
        collapse = super().collapse
        for k in range(m + 1, n + 1):
            b = budget if k == n else cap
            listing = self._listings[k, b] = self.select(listing, cap, b, b, self, collapse)
        return listing

    def coded_sample(self, n: int, budget: int) -> Enumeration:
        """X_n's least ``budget`` coded elements over ``listing(n,
        min(budget, BASE_SAMPLE_CAP))``, in the stage order: the sample that
        the stage checks share, cached per (n, budget).  A listing that is not
        sorted in the stage order is a ``SystemDefectError`` naming X_n."""
        sample = self._samples.get((n, budget))
        if sample is None:
            cap = min(budget, BASE_SAMPLE_CAP)
            sample = self._samples[n, budget] = self.select(
                self.listing(n, cap), cap, budget, budget, self.stage(n)
            )
        return sample

    def enumerate(self, stage_bound: int, budget: int) -> Enumeration:
        """All limit elements born below stage_bound that the listings reach,
        sorted; it stops once the capped listings repeat, as all later ones do.
        The last stage needs no repeat test, so its capped listing, the base
        of a stage past the bound, is not built."""
        out: list[ThetaTerm] = []
        exhaustive = True
        cap = min(budget, BASE_SAMPLE_CAP)
        for n in range(1, stage_bound + 1):
            xs = self.listing(n, budget)
            exhaustive &= xs.exhaustive
            out.extend(e for e in xs if e.length == n)
            if n < stage_bound and self.listing(n, cap) == self.listing(n - 1, cap):
                break
        out.sort(key=cmp_to_key(self.compare))
        return Enumeration(tuple(out), exhaustive)

    # -- the witness methods -----------------------------------------------------

    def sample(self, budget: int) -> Enumeration:
        """The least ``budget`` limit elements born below ``LIMIT_STAGES``:
        the cut of the sorted walk :meth:`enumerate`."""
        return self.enumerate(LIMIT_STAGES, budget).cut(budget)

    def format(self, e: ThetaTerm) -> str:
        """A limit element in the term grammar."""
        # imported here: bhfix.syntax imports this module
        from .syntax import format_bh

        return format_bh(self.dilator, e)
