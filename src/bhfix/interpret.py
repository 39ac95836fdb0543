"""Collapse witnesses and the embedding of the limit into them.

A witness is an external order Y together with a function from coded
elements over Y to Y that is claimed to satisfy the two collapse
conditions; validity is only ever *sampled* (see
:func:`bhfix.verify.check_witness`), never proven, since the conditions
quantify over all of T_Y.

An interpretation of a stage X into a witness is an order map h : X -> Y,
represented as a plain function.  It extends along stage iteration by

    h'(th(sigma)) = collapse_Y(h[sigma])

and a valid extension satisfies h' o iota_X = h; gluing the extensions over
the stage tower embeds the whole limit order into Y.  On the limit itself,
whose iota is the identity, the glued map is the recursion
h(th(sigma)) = collapse_Y(h[sigma]) (see :func:`embed_bh`).
"""

from __future__ import annotations

from typing import Any, Callable

from .dilator import CodedElement, Enumeration, least, map_coded
from .errors import WitnessLawError
from .finite_orders import sgn
from .limits import Tower
from .standard_dilators import TOP
from .syntax import format_bh
from .systems import ThetaTerm

# How many stages the samples cover (X_1..X_3): the self witness's order
# sample and every check of :mod:`bhfix.verify` that walks the stages.
LIMIT_STAGES = 3


class Witness:
    """Contract for an order Y with a claimed collapse of T_Y into Y."""

    name = "witness"

    def compare(self, a: Any, b: Any) -> int:
        raise NotImplementedError

    def collapse(self, coded: CodedElement) -> Any:
        raise NotImplementedError

    def enumerate(self, budget: int) -> Enumeration:
        raise NotImplementedError

    def format(self, value: Any) -> str:
        """A witness value as printed by the CLI and in failure lines."""
        return str(value)


class OmegaSuccessorWitness(Witness):
    """The naturals as a collapse target for the successor dilator.

    The new maximum collapses to 0 and a carrier element n to n + 1; this is
    the canonical external oracle for the successor limit.
    """

    name = "omega-successor"

    def compare(self, a, b):
        return sgn(a - b)

    def collapse(self, coded):
        if coded.token == TOP and coded.support == ():
            return 0
        if coded.token == 0 and len(coded.support) == 1:
            return coded.support[0] + 1
        raise WitnessLawError(
            f"{self.name}: not a successor-dilator element: {coded!r}"
        )

    def enumerate(self, budget):
        return Enumeration(tuple(range(budget)), False)


class SelfWitness(Witness):
    """The limit order of a tower, witnessed by its own glued collapse.

    Available for every dilator; embedding the limit into itself through
    this witness must be the identity, which makes it a sharp self-test.
    """

    name = "bh-self"

    def __init__(self, tower: Tower):
        self.tower = tower

    def compare(self, a, b):
        return self.tower.compare(a, b)

    def collapse(self, coded):
        return self.tower.collapse(coded)

    def enumerate(self, budget):
        listed = self.tower.enumerate(LIMIT_STAGES, budget)
        return least(listed, budget, self.compare)

    def format(self, value):
        return format_bh(self.tower.dilator, value)


def extend_interpretation(witness: Witness, h: Callable) -> Callable:
    """The extension of an interpretation h of X_n to X_{n+1}:
    th(sigma) |-> collapse_Y(h[sigma])."""
    return lambda term: witness.collapse(map_coded(h, term.body))


def interpretation_at(witness: Witness, n: int) -> Callable:
    """The glued interpretation of X_n, built by iterated extension from the
    empty map on X_0."""

    def h(x):
        raise WitnessLawError("the empty system has no elements to interpret")

    for _ in range(n):
        h = extend_interpretation(witness, h)
    return h


def embed_bh(witness: Witness, e: ThetaTerm) -> Any:
    """Image of a limit element in the witness order, memoized per subterm."""
    images: dict[ThetaTerm, Any] = {}

    def h(t: ThetaTerm) -> Any:
        if t not in images:
            images[t] = witness.collapse(map_coded(h, t.body))
        return images[t]

    return h(e)
