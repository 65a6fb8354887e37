"""Exception hierarchy shared by all coxkit modules, and the checks that
raise InvalidQuery: one for the integer arguments (radius, depth, length,
caps), one for the arguments iterated over (words, generator sets,
coordinates, closure query elements) and one for the arguments that must be
coxkit objects (systems, fields, group elements, parabolics, dual points).

Every domain error raised by the library derives from CoxeterError, so
callers (and the command line driver) can distinguish "the input is
outside the mathematical domain" from programming errors.
"""


class CoxeterError(Exception):
    """Base class for all domain errors raised by coxkit."""


class InvalidMatrix(CoxeterError):
    """The given matrix is not a Coxeter matrix (or a group file is malformed)."""


class FieldTooLarge(CoxeterError):
    """The field Q(2cos(pi/L)) a Coxeter matrix needs has a degree above the
    cap (scalar.MAX_FIELD_DEGREE)."""


class IncompatibleOrder(CoxeterError):
    """cos(pi/m) is not representable in this field (finite m not dividing L)."""


class InvalidQuery(CoxeterError, ValueError):
    """A query's arguments are out of range (no elements, or a radius, depth,
    length or cap that is not a nonnegative int: require_count), or of the
    wrong kind (a word, set or point that cannot be iterated over:
    require_iterable; a system, field, element, parabolic or point of
    another type, or group file text that is not a string: require_instance;
    word text that is not a string)."""


class IrrationalScalar(CoxeterError, ValueError):
    """A rational value was asked of a scalar that is not rational."""


class MixedFields(CoxeterError):
    """A value outside the field at hand: a scalar of another field context,
    or a number that is neither an int nor a Fraction (a float, say)."""


class DimensionMismatch(CoxeterError):
    """A vector or point has the wrong number of coordinates."""


class UnknownGenerator(CoxeterError):
    """A word or generator set refers to a label outside the system."""


class MixedSystems(CoxeterError):
    """An operation combined objects attached to different Coxeter systems."""


class RootSignViolation(CoxeterError):
    """A claimed root vector has mixed coordinate signs (or is zero)."""


class NotARoot(CoxeterError):
    """A vector does not correspond to any reflection of the group."""


class SupportNotContained(CoxeterError):
    """A root's support is not contained in the requested generator subset."""


class StepCapExceeded(CoxeterError):
    """A walk did not end within its step cap: point location in the Tits
    cone, or the descent of a root to a simple root (roots.descend_root)."""


class GroupNotFinite(CoxeterError):
    """Enumeration exceeded its cap, so the group is not finite within it."""


class CandidateTableTooLarge(CoxeterError):
    """The closure candidate scan reached a BFS layer that takes the
    parabolics (w, I) it covers, w coset-minimal and I nonempty, past the cap
    (paraclose.MAX_CANDIDATES) before a hit on its floor, though it tries
    each w once."""


class NotAParabolic(CoxeterError):
    """A subgroup expected to be parabolic was not found among the parabolics."""


class InvariantViolation(CoxeterError):
    """An exact check of a mathematical guarantee failed, so the system or
    field at hand is inconsistent (for instance, a tampered Coxeter matrix)."""


def require_count(value, what: str, positive: bool = False) -> int:
    """value itself if it is an int, not a bool, that is nonnegative (or
    positive); anything else raises InvalidQuery naming it as what."""
    if not isinstance(value, int) or isinstance(value, bool) or value < positive:
        kind = "positive" if positive else "nonnegative"
        raise InvalidQuery(f"{what} {value!r} is not a {kind} integer")
    return value


def require_iterable(value, what: str):
    """An iterator over value; a value that cannot be iterated over raises
    InvalidQuery naming it as what."""
    try:
        return iter(value)
    except TypeError:
        raise InvalidQuery(f"{what} {value!r} is not iterable") from None


def require_instance(value, kind: type, what: str):
    """value itself if it is an instance of kind; anything else raises
    InvalidQuery naming it as what."""
    if not isinstance(value, kind):
        raise InvalidQuery(f"{what} {value!r} is not a {kind.__name__}")
    return value
