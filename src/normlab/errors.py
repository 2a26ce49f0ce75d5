"""Exception family shared across normlab modules.

Every error raised on purpose by the library derives from NormlabError,
so callers can catch one type at a campaign boundary.  CLI-facing errors
(usage, config, io) are separate leaves because they map to exit codes.

An argument outside its function's domain raises InvalidParams (InvalidK
for a shift k, ZeroEigenvalue for a zero spectrum entry), which names the
first offending value and is also a ValueError.
"""


class NormlabError(Exception):
    """Base class for all errors raised deliberately by normlab."""


class DimensionMismatch(NormlabError):
    """Operands have incompatible shapes."""


class NotHermitian(NormlabError):
    """A Hermitian input was required but the matrix is not self-adjoint."""


class NotPositiveDefinite(NormlabError):
    """A positive definite input was required."""


class NotPSD(NormlabError):
    """A positive semidefinite input was required."""


class Singular(NormlabError):
    """Matrix is numerically singular where an inverse is required."""


class NonFinite(NormlabError):
    """A norm, a power of one, or a value built from them overflowed the
    float range."""


class NoConvergence(NormlabError):
    """An iterative kernel failed to converge; input is pathological."""


class InvalidParams(NormlabError, ValueError):
    """An argument outside the domain its function is stated on."""


class ZeroEigenvalue(InvalidParams):
    """A spectral criterion received an eigenvalue equal to zero."""


class InvalidK(InvalidParams):
    """Shift parameter k outside the admissible range."""


class DegenerateDenominator(NormlabError):
    """An entry denominator vanished; the matrix entry is undefined."""


class SamplerExhausted(NormlabError):
    """Rejection sampling hit its draw budget without an accepted point."""


class UsageError(NormlabError):
    """Command line could not be parsed."""


class ConfigInvalid(NormlabError):
    """Parsed configuration violates a documented constraint."""


class IoFailure(NormlabError):
    """Report files could not be written or read."""
