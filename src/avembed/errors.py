"""Exception taxonomy shared across the package.

Argument misuse (wrong shapes, out-of-range parameters) raises plain
ValueError; the classes here cover data, numerical, and resource failures
that the CLI maps to distinct exit codes.
"""


class DataError(Exception):
    """Base class for problems with input data or on-disk artifacts."""


class FormatError(DataError):
    """File does not match the expected layout (bad magic, version, schema)."""


class CorruptFileError(DataError):
    """File matches the format but its payload is truncated or inconsistent."""


class ValidationError(DataError):
    """Data violates a documented invariant (non-finite values, duplicate ids, ...)."""


class NumericalError(Exception):
    """Base class for numerical failures."""


class SingularityError(NumericalError):
    """Covariance is rank deficient and no regularization was requested."""


class DivergenceError(NumericalError):
    """Training produced a non-finite objective or gradient."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class UndefinedSimilarityError(NumericalError):
    """Cosine similarity requested against a vector whose norm is zero or not finite."""


class ResourceLimitError(Exception):
    """Input exceeds a configured desk-scale cap (e.g. the KCCA O(n^3) solve)."""
