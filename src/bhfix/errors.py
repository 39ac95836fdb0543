"""Exception vocabulary shared across the package."""


class DilatorLawError(Exception):
    """A dilator value violated the prae-dilator contract (functoriality,
    support naturality, or the support factorization condition)."""


class SystemDefectError(Exception):
    """A term order is corrupted: two distinct interned terms have equal
    bodies, or a listing is not sorted in its stage's order."""


class BirthStageError(SystemDefectError, ValueError):
    """A stage was asked to embed an element born above it."""


class WitnessLawError(Exception):
    """A claimed collapse witness violated one of the collapse conditions."""


class TermSyntaxError(ValueError):
    """Input text does not match the term grammar."""


class TermTypeError(ValueError):
    """A grammatically valid term does not type-check against its stage
    (out-of-range token, non-full support, misordered support list)."""


class SelectorError(ValueError):
    """A dilator selector string does not denote a known dilator."""
