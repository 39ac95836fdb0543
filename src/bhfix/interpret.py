"""Collapse witnesses and the embedding of the limit into them.

A witness is an external order Y together with a function from coded
elements over Y to Y that is claimed to satisfy the two collapse
conditions; validity is only ever *sampled* (see
:func:`bhfix.verify.check_witness`), never proven, since the conditions
quantify over all of T_Y.

The interpretation of the limit into a witness is the order map h : lim -> Y
given by the recursion

    h(th(sigma)) = collapse_Y(h[sigma])

(see :func:`interpretation`).  The stages intern into the limit's terms, so
X_n is a subset of X_{n+1} and of the limit, and the interpretation of X_n
that the paper builds stage by stage is this one h restricted to X_n: the
extension equation h_{n+1} o iota_n = h_n and the gluing of the h_n hold by
construction.
"""

from __future__ import annotations

from typing import Any, Callable

from .dilator import CodedElement, Enumeration, least
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


def interpretation(witness: Witness) -> Callable[[ThetaTerm], Any]:
    """The interpretation h of the limit into the witness,
    th(sigma) |-> collapse_Y(h[sigma]), memoized per term and filled on
    demand in call order, so each distinct term is collapsed once."""
    images: dict[ThetaTerm, Any] = {}

    def h(term: ThetaTerm) -> Any:
        if term not in images:
            support, token = term.body
            images[term] = witness.collapse(CodedElement(tuple(map(h, support)), token))
        return images[term]

    return h


def embed_bh(witness: Witness, e: ThetaTerm) -> Any:
    """Image of a limit element in the witness order."""
    return interpretation(witness)(e)
