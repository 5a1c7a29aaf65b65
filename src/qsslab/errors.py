"""Exception hierarchy shared across the package."""


class QsslabError(Exception):
    """Base class for all qsslab errors."""


class DimensionMismatch(QsslabError):
    pass


class NotSymmetric(QsslabError):
    pass


class NotIsometry(QsslabError):
    pass


class NonUnitary(QsslabError):
    pass


class BadParameterCount(QsslabError):
    pass


class BadParameters(QsslabError):
    pass


class BadWeights(QsslabError):
    pass


class ZeroProbability(QsslabError):
    pass


class ParseError(QsslabError):
    pass


class InvalidState(QsslabError):
    """A state file or matrix violates a structural invariant.

    The message names the violated invariant ("trace", "hermitian", ...).
    """
