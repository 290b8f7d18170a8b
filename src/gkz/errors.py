"""Exception types shared across the package.

Each class carries the exit code of a ``gkz`` command it ends:
1 (usage, parse or io): UsageError, ParseError, IoError, UnknownName
3 (numeric): NotConverged, SingularOnCycle, PoleInC, PoleInGamma,
  OutOfDomain, UnsupportedParameters, FitUnstable, TooLarge
2 (invalid configuration and the rest): every other class
"""


class GkzError(Exception):
    """Base class for all package errors."""
    exit_code = 2


class NotFullRank(GkzError):
    """Matrix rows are linearly dependent."""


class LatticeNotSpanned(GkzError):
    """Columns generate a proper sublattice of the integer lattice."""


class NoXi(GkzError):
    """No rational row vector pairs to 1 with every column."""


class NoSuchBlockStructure(GkzError):
    """No 0/1 partition rows with the requested block count exist."""


class UnknownName(GkzError):
    """Catalog name not recognized."""
    exit_code = 1


class DegenerateCone(GkzError):
    """Cone spanned by the columns has no facet description."""


class TooLarge(GkzError):
    """Enumeration refused because the instance exceeds the supported size."""
    exit_code = 3


class ConfigMismatch(GkzError):
    """Operands belong to different point configurations."""


class DimensionMismatch(GkzError):
    """Vector or cycle length does not match the expected dimension."""


class LeavesConfiguration(GkzError):
    """A substitution produces a monomial outside the configuration."""


class NotNegativeInteger(GkzError):
    """Parameter slot is not a negative integer, so no finite expansion exists."""


class SingularOnCycle(GkzError):
    """Integrand vanishes or is ill-defined somewhere on the requested cycle."""
    exit_code = 3


class NotConverged(GkzError):
    """Iterative evaluation failed to reach the requested tolerance."""
    exit_code = 3


class PoleInC(GkzError):
    """Lower parameter of a hypergeometric series is a nonpositive integer."""
    exit_code = 3


class OutOfDomain(GkzError):
    """Arguments fall outside every implemented convergence region."""
    exit_code = 3


class PoleInGamma(GkzError):
    """log-gamma evaluated at a nonpositive integer."""
    exit_code = 3


class UnsupportedParameters(GkzError):
    """Operation is only defined for a restricted parameter range."""
    exit_code = 3


class FitUnstable(GkzError):
    """Fitted proportionality constant varies beyond tolerance across samples."""
    exit_code = 3


class ParseError(GkzError):
    """Input file or literal could not be parsed."""
    exit_code = 1


class UsageError(GkzError):
    """Command line invoked with inconsistent or missing arguments."""
    exit_code = 1


class IoError(GkzError):
    """Report could not be written."""
    exit_code = 1


class BranchAmbiguityWarning(UserWarning):
    """A power of a negative real base was taken on its principal branch."""
