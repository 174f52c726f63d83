"""Exception types raised across the package.

Every error is a ``StarProdError``.  Those that mean the caller handed in a
bad file, name, parameter or shape derive from ``MalformedInputError``; the
rest mean the input was well formed but a precondition of the operation
failed (a rank, a cardinality, a unitarity).  The ``starprod``
command exits 2 for the first kind and 1 for the second.
"""


class StarProdError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(StarProdError, ValueError):
    """Base class for errors in the input itself rather than in what it describes."""


class SchemeParseError(MalformedInputError):
    """A scheme/operator/vector/kernel file is malformed."""


class ScaleOutOfRangeError(MalformedInputError):
    """A scheme's scale puts a result outside the float64 range, where it would
    overflow or lose its digits."""


class UnknownSchemeError(MalformedInputError):
    """The requested name is not in the built-in scheme registry."""


class InvalidParameterError(MalformedInputError):
    """A constructor got a parameter outside its supported range, such as a
    dimension that is not prime where a prime is required."""


class DimensionMismatchError(MalformedInputError):
    """Operands have incompatible shapes or dimensions: a vector length that
    disagrees with the object it is paired with or is not a positive perfect
    square, or a rectangular matrix where a square one is required."""


class NotTomographicError(StarProdError, ValueError):
    """The dequantizer set does not span the operator space (rank below d^2)."""


class InvalidGaugeError(StarProdError, ValueError):
    """A quantizer shift does not annihilate the dequantization matrix, or the
    scheme is not overfilled (N <= d^2) and so admits no shift at all."""


class NotUnitaryError(StarProdError, ValueError):
    """A matrix required to be unitary is not, within tolerance."""


class NotSICError(StarProdError, ValueError):
    """A fiducial orbit fails the symmetric overlap condition."""
