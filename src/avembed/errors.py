"""Exception taxonomy shared across the package.

Argument misuse (wrong shapes, out-of-range parameters) raises plain
ValueError; the classes here cover data and numerical failures, which the CLI
maps to distinct exit codes by their base class: DataError exits 2,
NumericalError 3.
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


class UndefinedSimilarityError(NumericalError):
    """Cosine similarity requested against a vector whose norm is zero or not finite."""


class ResourceLimitError(DataError):
    """Input exceeds a configured desk-scale cap (e.g. the KCCA O(n^3) solve); a data error."""
