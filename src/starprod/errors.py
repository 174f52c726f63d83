"""Exception types raised across the package."""


class StarProdError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(StarProdError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class NonHermitianError(StarProdError, ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotSquareError(StarProdError, ValueError):
    """A matrix required to be square is rectangular."""


class NotSquareLengthError(StarProdError, ValueError):
    """A vector length is not a perfect square, so it cannot become a square matrix."""


class WrongCountError(StarProdError, ValueError):
    """A collection has the wrong number of members."""


class LengthMismatchError(StarProdError, ValueError):
    """Vector lengths disagree with the object they are paired with."""


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


class UnknownSchemeError(StarProdError, ValueError):
    """The requested name is not in the built-in scheme registry."""


class InvalidParameterError(StarProdError, ValueError):
    """A constructor or a tolerance got a parameter outside its supported range."""


class NotPrimeError(InvalidParameterError):
    """The requested dimension is not a prime number."""


class ScaleOutOfRangeError(StarProdError, ValueError):
    """A scheme's scale puts the squares its classification takes outside the
    normal float64 range, where they would overflow or lose precision."""


class SchemeParseError(StarProdError, ValueError):
    """A scheme/operator/vector/kernel file is malformed."""
