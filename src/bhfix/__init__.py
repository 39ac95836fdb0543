"""Minimal Bachmann-Howard fixed points of coded prae-dilators.

The construction iterates a collapsing term order from the empty carrier,
takes the direct limit (itself a system of collapse terms over its own
elements), glues the stage collapses into an almost order preserving
collapse over the limit, and embeds the limit into any order carrying such
a collapse.  All of the construction's laws are rechecked by finite brute
force in :mod:`bhfix.verify`, which is imported on first use: by the CLI's
``verify`` command, or by the first access to ``bhfix.run_suite``.
"""

# The check suites of :func:`bhfix.verify.run_suite`.  They are defined here,
# ahead of the imports, so that the CLI offers them without importing
# bhfix.verify, and bhfix.verify can read them whenever it is imported.
SUITES = ("all", "laws", "theta", "fixedpoint", "minimality")

from .dilator import CodedElement, Dilator
from .interpret import OmegaSuccessorWitness, SelfWitness, Witness, embed_bh
from .limits import Tower
from .standard_dilators import (
    ConstantDilator,
    IdentityDilator,
    LexProductDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
)
from .syntax import format_bh, parse_bh

__version__ = "0.1.0"

__all__ = [
    "CodedElement",
    "ConstantDilator",
    "Dilator",
    "IdentityDilator",
    "LexProductDilator",
    "OmegaPowerDilator",
    "OmegaSuccessorWitness",
    "SelfWitness",
    "SuccessorDilator",
    "SumDilator",
    "Tower",
    "Witness",
    "embed_bh",
    "format_bh",
    "parse_bh",
    "run_suite",
]


def __getattr__(name: str):
    if name == "run_suite":
        from .verify import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | {"run_suite"})
