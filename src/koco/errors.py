"""Exception types shared across the library."""


class KocoError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(KocoError):
    """Operands have incompatible shapes or coordinate dimensions."""


class ZeroNormPoint(KocoError):
    """Cosine normalization is undefined for a zero-norm input."""


class SchurNotPositive(KocoError):
    """Appending a row/column would make the bordered matrix numerically
    singular; the caller must reject the step."""


class NonFinitePrediction(KocoError):
    """A learner's unclipped prediction is NaN or infinite: its
    preconditioner has lost precision (seen at a very small alpha)."""


class NotPositiveDefinite(KocoError):
    """Cholesky factorization failed: the shifted matrix is not PD."""


class NoConvergence(KocoError):
    """Eigenvalue extraction did not converge within the sweep budget."""


class NoProgress(KocoError):
    """The comparator solver produced no finite objective (degenerate stream)."""


class TargetOutOfRange(KocoError):
    """A regression target lies outside the feasible prediction interval."""


class StreamParseError(KocoError):
    """A CSV stream row could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConfigError(KocoError):
    """An experiment config is malformed (unknown key, bad type, bad value)."""
