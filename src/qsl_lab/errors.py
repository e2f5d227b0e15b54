"""Exception hierarchy shared by all modules."""


class QslError(Exception):
    """Base class for all library errors."""


class NonHermitian(QslError):
    """Matrix violates the Hermiticity tolerance."""


class NegativeEigenvalue(QslError):
    """Eigenvalue below the clipping tolerance of a PSD matrix."""


class DimMismatch(QslError):
    """Operands have incompatible dimensions."""


class BadRank(QslError):
    """Requested rank outside 1..dim."""


class BlochNormExceeded(QslError):
    """Bloch vector longer than 1 beyond tolerance."""


class BadUnitVector(QslError):
    """Rotation axis is not a unit vector."""


class FrozenState(QslError):
    """Zero coherence with a nonzero angle: the generator cannot connect the states."""


class BadAlpha(QslError):
    """Alpha (or alpha grid) that is not finite and positive, or a grid that
    is empty or not 1-D, passed to a spectral-power bound."""


class BadGrid(QslError):
    """Time grid is empty or has too few nodes, tau is not positive, or a
    scan or quadrature needs more nodes than MAX_SCAN_NODES allows."""


class NotReached(QslError):
    """First-passage search exhausted t_max without hitting the target."""


class InvalidStateProduced(QslError):
    """Propagation produced a matrix that is not a valid state (non-CP model?)."""


class BasisMismatch(QslError):
    """Damping basis fails the biorthogonality check."""


class ZeroShots(QslError):
    """Sampling requested with a non-positive shot count."""


class BadN(QslError):
    """Moment order outside 1..dim."""


class IllConditioned(QslError):
    """Eigenvalue recovery from moments produced invalid roots."""


class ParseError(QslError):
    """Scenario file is not well-formed."""


class ValidationError(QslError):
    """Scenario file is well-formed but violates the schema; message carries the key path."""


class IoError(QslError):
    """Output emission failed."""
