"""Collapse witnesses and the embedding of the limit into them.

A witness is an order Y with a function from coded elements over Y to Y
that is claimed to satisfy the two collapse conditions.  It has four
methods: ``compare(a, b)``, ``collapse(coded)``, ``sample(budget)``, a
sorted :class:`~bhfix.dilator.Enumeration` of Y, and ``format(value)``,
a value as printed by the CLI and in failure lines.  Validity is only ever
*sampled* (see :func:`bhfix.verify.check_witness`), never proven, since the
conditions quantify over all of T_Y.  The two witnesses are
:class:`OmegaSuccessorWitness` and ``bh-self``, the
:class:`~bhfix.limits.Tower` itself with its glued collapse.

The interpretation of the limit into a witness is the order map h : lim -> Y
given by the recursion

    h(th(sigma)) = collapse_Y(h[sigma])

(see :func:`interpretation`).  The stages intern into the limit's terms, so
X_n is a subset of X_{n+1} and of the limit, and the interpretation of X_n
that the paper builds stage by stage is this one h restricted to X_n: the
extension equation h_{n+1} o iota_n = h_n and the gluing of the h_n hold by
construction.  Into ``bh-self`` h is the identity.
"""

from __future__ import annotations

from typing import Any, Callable

from .dilator import CodedElement, Enumeration
from .errors import WitnessLawError
from .finite_orders import sgn
from .standard_dilators import TOP
from .systems import ThetaTerm


class OmegaSuccessorWitness:
    """The naturals as a collapse target for the successor dilator.

    The new maximum collapses to 0 and a carrier element n to n + 1; this is
    the canonical external oracle for the successor limit.
    """

    format = str

    def compare(self, a, b):
        return sgn(a - b)

    def collapse(self, coded):
        if coded.token == TOP and coded.support == ():
            return 0
        if coded.token == 0 and len(coded.support) == 1:
            return coded.support[0] + 1
        raise WitnessLawError(f"omega-successor: not a successor-dilator element: {coded!r}")

    def sample(self, budget):
        return Enumeration(tuple(range(budget)), False)


def interpretation(witness) -> Callable[[ThetaTerm], Any]:
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


def embed_bh(witness, e: ThetaTerm) -> Any:
    """Image of a limit element in the witness order."""
    return interpretation(witness)(e)
