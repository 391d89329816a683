"""Shared exception types, one base per CLI exit code: a DataError (a
malformed or mismatched input, file or configuration) exits 2, a
NumericError or an InvariantViolation exits 3."""


class DataError(ValueError):
    """An input, file or configuration the program refuses."""


class ShapeError(DataError):
    """Tensor or sequence shapes are incompatible with an operation."""


class NumericError(ArithmeticError):
    """Non-finite values or other numeric-domain violations."""


class ConfigError(DataError):
    """Invalid configuration value or combination."""


class MalformedInputError(DataError):
    """Input text violates structural preconditions (e.g. stray diacritic)."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class IngestError(DataError):
    """Audio file does not satisfy the ingest contract (rate, channels, codec)."""


class FormatError(DataError):
    """On-disk container is truncated or structurally invalid."""


class ManifestError(DataError):
    """Manifest parsing or cross-manifest alignment failure."""


class FingerprintError(DataError):
    """Checkpoint config fingerprint does not match the supplied config."""


class AlignmentError(DataError):
    """Prediction and gold disagree on the underlying (stripped) text."""


class InvariantViolation(RuntimeError):
    """A post-processing invariant was violated for a sample."""

    def __init__(self, invariant, message):
        super().__init__(f"invariant {invariant}: {message}")
        self.invariant = invariant
