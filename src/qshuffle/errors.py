"""Exception types raised by the engine.

Every error carries a short message naming the offending data; callers that
want machine-readable witnesses catch the specific class.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class BasisMismatch(EngineError):
    """Operands live in different bases, or in a basis with no product rule."""


class NotAPartition(EngineError):
    """Parts are not weakly decreasing."""


class NonvanishingAtEmpty(EngineError):
    """exp requires the functional to vanish on the empty composition."""


class WrongValueAtEmpty(EngineError):
    """log requires value 1 on the empty composition."""


class SingularCharacter(EngineError):
    """f((n)) = 0 for some single part n, so triangular data cannot be inverted."""


class NotNormalized(EngineError):
    """f((n)) != 1 for some single part n."""


class ZeroPrefixSum(EngineError):
    """A prefix sum of tau-values vanished, so the prefix-sum character is undefined."""


class PartOutOfRange(EngineError):
    """A part exceeds the declared bound of an order or ordered-partition rule."""


class NotACharacter(EngineError):
    """Functional fails the character precondition."""


class NotAnInfinitesimalCharacter(EngineError):
    """Functional fails the infinitesimal-character precondition."""
