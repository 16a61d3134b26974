"""Exception taxonomy shared by every module in the package.

Division by zero in a field raises the builtin ZeroDivisionError rather than
a custom class.
"""


class VspartError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimePower(VspartError, ValueError):
    """The requested field order is not a prime power."""


class UnsupportedField(VspartError, ValueError):
    """The field order is a prime power but outside the supported range."""


class DimensionMismatch(VspartError, ValueError):
    """Vectors or subspaces with incompatible ambient dimensions were mixed."""


class BadRange(VspartError, ValueError):
    """A numeric argument is outside its documented range."""


class NotDivisible(VspartError, ValueError):
    """A spread was requested for a dimension that does not divide n."""


class NotAPartitionOfMember(VspartError, ValueError):
    """The replacement passed to refine does not partition the chosen member."""


class BadCut(VspartError, ValueError):
    """The supertail cut is not an occurring dimension above the smallest one."""


class NotAHyperplane(VspartError, ValueError):
    """A hyperplane argument does not have dimension n - 1."""


class EmptySupertail(VspartError, ValueError):
    """The requested statistic needs a nonempty supertail."""


class IdentityViolation(VspartError, ValueError):
    """A counting identity that must hold for valid partitions failed."""


class HypothesisNotMet(VspartError, ValueError):
    """The structural hypotheses of the requested check do not hold."""


class NotDisjoint(VspartError, ValueError):
    """Members expected to be pairwise disjoint share a nonzero vector."""


class StructureViolation(VspartError, AssertionError):
    """An assert-mode structural check failed on a concrete instance."""


class FileFormatError(VspartError, ValueError):
    """A partition file could not be parsed."""


class BudgetExceeded(VspartError, RuntimeError):
    """A search or enumeration hit its node budget.

    When the search supports checkpointing, ``checkpoint`` carries a
    JSON-serializable snapshot that can be used to resume.
    """

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint
