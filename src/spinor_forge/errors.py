"""Exception types shared across the library.

Every precondition violation raises one of these; mathematical *falsehoods*
(a spinor failing a purity test, a basis failing to close) are reported as
data, never as exceptions.
"""


class SpinorForgeError(Exception):
    """Base class for all library errors."""


class InexactScalar(SpinorForgeError):
    """A value that is not an exact rational (a float, a bool, a complex
    number, None or a bad rational string) was given where one is required."""


class ShapeMismatch(SpinorForgeError):
    """Operands live in different spinor spaces (n, r or m disagree)."""


class IndexOutOfRange(SpinorForgeError):
    """A generator or slot index is outside its declared range."""


class NotUnitVector(SpinorForgeError):
    """A group-element factor does not have exact squared norm 1."""


class OddLength(SpinorForgeError):
    """Group elements need an even number of unit-vector factors."""


class ScaleMismatch(SpinorForgeError):
    """Hermitian product of spinors whose scale factors have an irrational
    geometric mean."""


class ZeroSpinor(SpinorForgeError):
    """The zero spinor was passed where a nonzero one is required."""


class RankTooSmall(SpinorForgeError):
    """The twisting rank is below what the requested certificate needs."""


class WrongRank(SpinorForgeError):
    """Operation defined only for a specific twisting rank."""


class NotOrthogonal(SpinorForgeError):
    """Matrix expected in SO(r) fails A^T A = Id or det A = 1 exactly."""


class EmptyInput(SpinorForgeError):
    """An operation over a collection was handed an empty one."""


class MissingPair(SpinorForgeError):
    """A complete family indexed by pairs k < l has a hole."""


class UnsupportedDimension(SpinorForgeError):
    """A dimension outside the supported range: a catalog constructor's, or
    the caps on n, r and m of ``spinrep.check_dimensions``."""


class MalformedInput(SpinorForgeError, ValueError):
    """A wire object that does not decode: a wrong JSON type, a missing
    field or a bad rational string.  Still a ``ValueError``."""


class InvalidValue(SpinorForgeError, ValueError):
    """An argument outside its finite set of allowed values: a certificate
    kind other than 'pure' or 'reducing', a sign entry other than +-1, a
    rank, a dimension or an index that is not an int, a key that is not a
    pair of indices.  Still a ``ValueError``."""
