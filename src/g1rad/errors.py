"""Exception types shared across the package."""


class G1RadError(Exception):
    """Base class for all package errors."""


class NotSelfAdjoint(G1RadError):
    """Raised when an operand required to be self-adjoint is not."""


class Singular(G1RadError):
    """Raised when an LU factorization hits a negligible pivot."""


class DimensionMismatch(G1RadError):
    """Raised when matrix operands have incompatible shapes."""


class SpectrumOnBoundary(G1RadError):
    """Raised when an eigenvalue sits on (or outside) the unit circle guard band."""


class CertificationFailed(G1RadError):
    """Raised when an operator fails the resolvent growth-condition check."""


class ConfigError(G1RadError):
    """Raised for invalid run configuration."""


class ParseError(G1RadError):
    """Raised for malformed input files."""


class IoError(G1RadError):
    """Raised when a report cannot be written."""
