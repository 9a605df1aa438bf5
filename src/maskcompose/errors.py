"""Exception types shared across the package."""


class MaskComposeError(Exception):
    """Base class for all errors raised by this package."""


class AllMassZero(MaskComposeError):
    """A distribution ended up with no finite log-probability entries."""


class ShapeMismatch(MaskComposeError):
    """Input vectors disagree on category count or weight count."""


class NonPositiveTemperature(MaskComposeError):
    """Sampling temperature must be finite and strictly positive."""


class EmptyIntersection(MaskComposeError):
    """No state in the world satisfies every supplied condition."""


class StateSpaceTooLarge(MaskComposeError):
    """Exhaustive enumeration would exceed the enforced state-count cap."""


class InvalidTable(MaskComposeError):
    """A per-cell probability table is malformed or not normalized."""


class DimensionMismatch(MaskComposeError):
    """Vector or image dimensions do not match the codebook layout."""


class TokenOutOfRange(MaskComposeError):
    """A token id lies outside the codebook."""


class TooFewPatches(MaskComposeError):
    """Codebook learning needs at least as many patches as entries."""


class ValidationError(MaskComposeError):
    """A run configuration field failed validation."""
