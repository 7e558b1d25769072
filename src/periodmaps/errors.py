"""Exception hierarchy shared by all modules."""


class PeriodmapsError(Exception):
    """Base class for every error raised by this package."""


class ArityError(PeriodmapsError):
    """Evaluation point too short for the variables occurring in a polynomial."""


class NonFiniteError(PeriodmapsError):
    """A numeric value overflowed to NaN or infinity."""


class NothingToEliminateError(PeriodmapsError):
    """Resultant requested in a variable in which an input has degree zero."""


class InexactDivisionError(PeriodmapsError):
    """Polynomial division left a nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class RootFindingError(PeriodmapsError):
    """Root solver could not meet its residual bound."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ParseError(PeriodmapsError):
    """Malformed polynomial text."""


class UnknownMapError(PeriodmapsError):
    """Catalog lookup with an unrecognized map name."""


class MissingParameterError(PeriodmapsError):
    """A map parameter is unbound, malformed, or not one the map takes."""


class DegenerateParameterError(PeriodmapsError):
    """Parameter values that collapse the family (e.g. ab = 1 for a Moebius map)."""


class PoleError(PeriodmapsError):
    """A denominator vanished (or nearly vanished) at an evaluation point."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class UnknownVarietyError(PeriodmapsError):
    """No variety generator catalogued for the requested (map, period) pair."""

    def __init__(self, message, available=()):
        super().__init__(message)
        self.available = tuple(available)


class SamplingError(PeriodmapsError):
    """Variety sampler ran out of redraw attempts."""


class EliminationError(PeriodmapsError):
    """Resultant elimination collapsed, or left no factor on the variety."""


class NotRecordedError(EliminationError):
    """No elimination or fixture recorded for the requested (map, period) pair."""

