"""Collapse witnesses and the embedding of the limit into them.

A witness is an external order Y together with a function from coded
elements over Y to Y that is claimed to satisfy the two collapse
conditions; validity is only ever *sampled* (see
:func:`bhfix.verify.check_witness`), never proven, since the conditions
quantify over all of T_Y.

An interpretation of a system X into a witness is an order map h : X -> Y.
It extends along stage iteration by

    h'(th(sigma)) = collapse_Y(h[sigma])

and a valid extension satisfies h' o iota_X = h; gluing the extensions over
the stage tower embeds the whole limit order into Y.  On the limit itself,
whose iota is the identity, the glued map is the recursion
h(th(sigma)) = collapse_Y(h[sigma]) (see :func:`embed_bh`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .dilator import CodedElement, Enumeration, least, map_coded
from .errors import WitnessLawError
from .finite_orders import sgn
from .limits import Tower
from .standard_dilators import TOP
from .systems import System, ThetaTerm

# Stage bound of the limit samples: the self witness's order sample and the
# limit checks of :mod:`bhfix.verify`.
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
        listed = self.tower.enumerate(min(budget, LIMIT_STAGES), budget)
        return least(listed, budget, self.compare)


@dataclass(frozen=True)
class Interpretation:
    """An order map from a system's carrier into a witness order."""

    system: System
    func: Callable[[Any], Any]


def empty_interpretation(witness: Witness, tower: Tower) -> Interpretation:
    def no_element(x):
        raise WitnessLawError("the empty system has no elements to interpret")

    return Interpretation(tower.stage(0), no_element)


def interpret_term(witness: Witness, ip: Interpretation, term: ThetaTerm) -> Any:
    """Value of the extended map on a term over ip's carrier."""
    return witness.collapse(map_coded(ip.func, term.body))


def extend_interpretation(witness: Witness, ip: Interpretation) -> Interpretation:
    """The extension of an interpretation one stage up the tower."""
    return Interpretation(
        ip.system.iterate(), lambda term: interpret_term(witness, ip, term)
    )


def interpretation_at(witness: Witness, tower: Tower, n: int) -> Interpretation:
    """The glued interpretation of X_n, built by iterated extension."""
    ip = empty_interpretation(witness, tower)
    for _ in range(n):
        ip = extend_interpretation(witness, ip)
    return ip


def embed_bh(witness: Witness, tower: Tower, e: ThetaTerm) -> Any:
    """Image of a limit element in the witness order, memoized per subterm."""
    images: dict[ThetaTerm, Any] = {}

    def h(t: ThetaTerm) -> Any:
        if t not in images:
            images[t] = witness.collapse(map_coded(h, t.body))
        return images[t]

    return h(e)
