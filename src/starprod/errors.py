"""Exception types raised across the package.

Every error is a ``StarProdError``.  Those that mean the caller handed in a
bad file, name, parameter or shape derive from ``MalformedInputError``; the
rest mean the input was well formed but a precondition of the operation
failed (a rank, a cardinality, a unitarity, a retry budget).  The ``starprod``
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
    """A constructor or a tolerance got a parameter outside its supported range."""


class NotPrimeError(InvalidParameterError):
    """The requested dimension is not a prime number."""


class DimensionMismatchError(MalformedInputError):
    """Operands have incompatible shapes or dimensions."""


class LengthMismatchError(MalformedInputError):
    """Vector lengths disagree with the object they are paired with."""


class NotSquareLengthError(MalformedInputError):
    """A vector length is not a perfect square, so it cannot become a square matrix."""


class WrongCountError(MalformedInputError):
    """A collection has the wrong number of members."""


class NotSquareError(StarProdError, ValueError):
    """A matrix required to be square is rectangular."""


class NotTomographicError(StarProdError, ValueError):
    """The dequantizer set does not span the operator space (rank below d^2)."""


class NotOverfilledError(StarProdError, ValueError):
    """The operation needs more points than operator-space dimensions (N > d^2)."""


class InvalidGaugeError(StarProdError, ValueError):
    """A quantizer shift does not annihilate the dequantization matrix."""


class MissingQuantizersError(StarProdError, ValueError):
    """The scheme carries no quantizers but the operation needs them."""


class NonHermitianMemberError(StarProdError, ValueError):
    """A scheme member required to be Hermitian is not; the message names its index."""


class NotUnitaryError(StarProdError, ValueError):
    """A matrix required to be unitary is not, within tolerance."""


class NotSICError(StarProdError, ValueError):
    """A fiducial orbit fails the symmetric overlap condition."""


class SamplerFailureError(StarProdError, RuntimeError):
    """A randomized constructor exhausted its retry budget."""
