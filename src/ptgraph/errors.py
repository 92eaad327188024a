"""Exception types raised by the library.

Everything derives from PTGraphError so callers can catch one base class;
the concrete classes mirror the failure they name.
"""


class PTGraphError(Exception):
    """Base class for all library errors."""


class NonPositiveLength(PTGraphError):
    pass


class TooFewBonds(PTGraphError):
    pass


class NonFiniteInput(PTGraphError):
    pass


class LengthMismatch(PTGraphError):
    pass


class EvenPointCount(PTGraphError):
    pass


class EvaluationFailure(PTGraphError):
    pass


class UnknownFamily(PTGraphError):
    pass


class DimensionMismatch(PTGraphError):
    pass


class GraphMismatch(PTGraphError):
    pass


class InsufficientBasis(PTGraphError):
    pass


class InvalidWindow(PTGraphError):
    pass


class NotARoot(PTGraphError):
    pass


class DegenerateMode(PTGraphError):
    pass


class NormalizationError(PTGraphError):
    pass


class OutOfDomain(PTGraphError):
    pass


class SingularGram(PTGraphError):
    pass


class EmptyBasis(PTGraphError):
    pass


class UnsortedGrid(PTGraphError):
    pass
