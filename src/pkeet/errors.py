"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
all of them inherit from :class:`PkeetError` so that blanket handling stays
possible at the CLI boundary.
"""

from __future__ import annotations


class PkeetError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(PkeetError):
    """A parameter record is malformed or outside the supported range."""


class InvalidDegree(InvalidParams):
    """Ring degree is not a power of two or is below the supported floor."""


class ParameterOverflow(InvalidParams):
    """A derived parameter exceeds the 64-bit coefficient budget, or the
    arrays it sizes exceed memory."""


class ParamsMismatch(PkeetError):
    """Two objects governed by different parameter sets were combined."""


class NotInvertible(PkeetError):
    """Inversion was requested for a ring element with a zero evaluation."""


class TagNotInvertible(NotInvertible):
    """A trapdoor tag must be invertible and is not."""


class InvalidMessage(PkeetError):
    """A message lies outside the documented message space."""


class WidthTooSmall(PkeetError):
    """A Gaussian width fell below the sampler's supported minimum."""


class CovarianceNotPD(PkeetError):
    """The perturbation covariance is not positive definite."""


class GenerationFailed(PkeetError):
    """Key generation failed after the bounded number of retries."""


class KeyMismatch(PkeetError):
    """A secret key does not satisfy the trapdoor identity of the public key."""


class RejectSignature(PkeetError):
    """Ciphertext verification failed: one-time signature invalid."""


class RejectHash(PkeetError):
    """Ciphertext verification failed: decoded digest mismatch."""


class RejectNoise(PkeetError):
    """Ciphertext verification failed: a vector slot's error, recovered by
    trapdoor inversion, exceeds its tail bound."""


class InternalError(PkeetError):
    """An internal retry bound was exhausted; indicates a bug or bad params."""


class FramingError(PkeetError):
    """A serialized file is malformed or inconsistent with its header."""
