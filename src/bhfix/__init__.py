"""Minimal Bachmann-Howard fixed points of coded prae-dilators.

The construction iterates a collapsing term order from the empty carrier,
takes the direct limit (itself a system of collapse terms over its own
elements), glues the stage collapses into an almost order preserving
collapse over the limit, and embeds the limit into any order carrying such
a collapse.  All of the construction's laws are rechecked by finite brute
force in :mod:`bhfix.verify`.
"""

from .dilator import (
    CodedElement,
    Dilator,
    Enumeration,
    coded_elements,
    compare_coded,
    make_coded,
    map_coded,
    normal_form,
)
from .errors import (
    DilatorLawError,
    SelectorError,
    SystemDefectError,
    TermSyntaxError,
    TermTypeError,
    WitnessLawError,
)
from .finite_orders import (
    EQ,
    GT,
    LT,
    Embedding,
    compose,
    finset_map,
    identity_embedding,
)
from .interpret import (
    Interpretation,
    OmegaSuccessorWitness,
    SelfWitness,
    Witness,
    embed_bh,
    extend_interpretation,
    interpret_term,
    interpretation_at,
)
from .limits import Tower
from .standard_dilators import (
    TOP,
    ConstantDilator,
    IdentityDilator,
    LexProductDilator,
    OmegaPowerDilator,
    SuccessorDilator,
    SumDilator,
)
from .syntax import format_bh, format_term, parse_bh, parse_term
from .systems import System, ThetaTerm, empty_system
from .verify import (
    Budgets,
    CheckReport,
    check_collapse_admissible,
    check_commuting_square,
    check_dilator_laws,
    check_fixed_point,
    check_goodness,
    check_limit_order,
    check_minimality,
    check_theta_linear,
    check_witness,
    erase_supports,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Budgets",
    "CheckReport",
    "CodedElement",
    "ConstantDilator",
    "Dilator",
    "DilatorLawError",
    "EQ",
    "Embedding",
    "Enumeration",
    "GT",
    "IdentityDilator",
    "Interpretation",
    "LT",
    "LexProductDilator",
    "OmegaPowerDilator",
    "OmegaSuccessorWitness",
    "SelectorError",
    "SelfWitness",
    "SuccessorDilator",
    "SumDilator",
    "System",
    "SystemDefectError",
    "TOP",
    "TermSyntaxError",
    "TermTypeError",
    "ThetaTerm",
    "Tower",
    "Witness",
    "WitnessLawError",
    "check_collapse_admissible",
    "check_commuting_square",
    "check_dilator_laws",
    "check_fixed_point",
    "check_goodness",
    "check_limit_order",
    "check_minimality",
    "check_theta_linear",
    "check_witness",
    "coded_elements",
    "compare_coded",
    "compose",
    "embed_bh",
    "empty_system",
    "erase_supports",
    "extend_interpretation",
    "finset_map",
    "format_bh",
    "format_term",
    "identity_embedding",
    "interpret_term",
    "interpretation_at",
    "make_coded",
    "map_coded",
    "normal_form",
    "parse_bh",
    "parse_term",
    "run_suite",
]
