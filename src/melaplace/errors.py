"""Exception hierarchy. Everything raised on purpose derives from MelaplaceError."""


class MelaplaceError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MelaplaceError):
    """Argument outside the mathematical domain of a function or kernel."""


class NonFiniteIntegrand(MelaplaceError):
    """Integrand returned NaN or infinity at a quadrature node."""


class TailDivergence(MelaplaceError):
    """The integral diverges, or decays too slowly to resolve: a half-line
    tail is still not negligible at t ~ 1.3e154, or an endpoint exponent is
    outside the convergence region."""


class OutOfDomain(MelaplaceError):
    """Evaluation point outside the transform's validity region."""


class NoStrip(MelaplaceError):
    """The function has no holomorphy strip; its Mellin transform diverges."""


class NoClosedForm(MelaplaceError):
    """No cataloged closed-form transform for this (function, kind) pair."""


class PoleHit(MelaplaceError):
    """Evaluation point collides with a pole of a rational transform."""


class NotRectangularizable(MelaplaceError):
    """Rectangular contours require a rational transform with finitely many poles."""


class SidePoleConflict(MelaplaceError):
    """A pole lies on the wrong side of the requested single line."""


class ZInsideRectangle(MelaplaceError):
    """Reproduction point must lie to the right of the rectangle."""


class EmptyGrid(MelaplaceError):
    """An argument grid must contain at least one point."""


class ParseError(MelaplaceError):
    """Malformed spec string or CLI literal; carries the 1-based column."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
