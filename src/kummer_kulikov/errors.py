"""Exception hierarchy shared across the package.

Every semantic failure raised by the library derives from
:class:`KummerDegenerationError`; malformed input documents raise
:class:`SchemaError`.  The CLI maps the former to exit code 1 and the
latter to exit code 2.
"""


class KummerDegenerationError(Exception):
    """Base class for semantic errors."""


class SchemaError(KummerDegenerationError):
    """An input document is malformed (missing field, wrong type, bad value)."""


class SingularPairing(KummerDegenerationError):
    """The pairing matrix has determinant zero, so Y -> X^v is not injective."""


class InvalidScale(KummerDegenerationError):
    """Base-change ramification indices must be positive."""


class UnsupportedRank(KummerDegenerationError):
    """Only toric ranks 0, 1, 2 occur for abelian surfaces."""


class UncertifiedFan(KummerDegenerationError):
    """An operation requires a triangulation with passing certificates."""


class ShapeMismatch(KummerDegenerationError):
    """A dual complex fails the structural predicate for its toric rank."""


class OddData(KummerDegenerationError):
    """An operation requires an even pairing (all entries of b even)."""


class NotUnipotent(KummerDegenerationError):
    """Characteristic polynomial is not (x-1)^n."""


class NotNilpotent(KummerDegenerationError):
    """No power of the operator up to its dimension vanishes."""


class BadSquare(KummerDegenerationError):
    """The operator is nilpotent but its square does not vanish."""


class InvalidIndex(KummerDegenerationError):
    """Nilpotency indices of Kulikov monodromy operators lie in {1, 2, 3}."""


class HypothesisFailed(KummerDegenerationError):
    """The wedge-square of the operator is not unipotent, so the
    sign-recovery dichotomy does not apply."""


class ResourceLimit(KummerDegenerationError):
    """The result would pass a size limit, so the input is refused before the work."""


class ConsistencyError(KummerDegenerationError):
    """Two independent computation routes disagree (indicates a bug)."""
