"""Exception hierarchy for the package.

Everything raised on purpose derives from :class:`KindbError`, so callers
(and the CLI) can distinguish bad input from genuine bugs.
"""


class KindbError(Exception):
    """Base class for all errors raised by kindb."""


# -- monoid layer ------------------------------------------------------------

class ElementError(KindbError):
    """A value is not an element of the monoid's carrier."""


class InvalidMonoidTable(KindbError):
    """A finite operation table violates a monoid axiom; the message names
    the failing instance."""


class UnsupportedMonoid(KindbError):
    """The requested operation is undefined for this monoid."""


class NotSubtractable(KindbError):
    """monus(a, b) requested with b not below a in the natural order."""


# -- database layer ----------------------------------------------------------

class SchemaMismatch(KindbError):
    pass


class MonoidMismatch(KindbError):
    pass


class UnknownRelation(KindbError):
    pass


class UnknownAttribute(KindbError):
    pass


class StarConstantError(KindbError):
    """The reserved star constant appeared in user input."""


# -- dependency / inference layer --------------------------------------------

class ParseError(KindbError):
    pass


class DuplicateAttribute(KindbError):
    pass


class ArityMismatch(KindbError):
    pass


class IndexOutOfRange(KindbError):
    pass


class DuplicateIndex(KindbError):
    pass


class MiddleMismatch(KindbError):
    """Transitivity premises whose shared relation/attribute sequence differ."""


class PremiseMismatch(KindbError):
    """Weak-symmetry premises that do not line up."""


class ProofError(KindbError):
    """A derivation tree failed re-validation."""


# -- chase / entailment layer ------------------------------------------------

class InvalidConfig(KindbError):
    """A chase setting is out of range."""


class ChaseBudgetExceeded(KindbError):
    """The additive chase of a refuted query hit its step limit inside
    ``decide_entailment``.  No termination proof for the chased member list
    is written down, so the limit guards it; the CLI exits 3 on this error."""


class NoCountermodel(KindbError):
    """A countermodel was requested for a derivable dependency."""


class InvalidChain(KindbError):
    pass


class CountermodelError(KindbError):
    """A construction produced a database that failed verification."""


class SearchSpaceTooLarge(KindbError):
    pass
