"""Exception types shared across the package."""


class KSBlowupError(ValueError):
    """Base class for all domain errors raised by this package."""


class ZeroDatumError(KSBlowupError):
    """The density is identically zero."""


class NormDivergenceError(KSBlowupError):
    """A requested Lp norm is not finite."""


class UnboundedSupportError(KSBlowupError):
    """The operation requires compactly supported data."""


class NonPositiveTimeError(KSBlowupError):
    """The heat-mass functional is only defined for s > 0."""


class TargetOutOfRangeError(KSBlowupError):
    """Inversion target lies outside the open range (0, M)."""


class BracketFailureError(KSBlowupError):
    """A root bracket could not be established within the iteration budget."""


class SubcriticalMassError(KSBlowupError):
    """Mass is at or below 8*pi: no blow-up, the critical time is infinite."""


class NotRadialError(KSBlowupError):
    """The operation requires a radially symmetric datum."""


class InvalidExponentsError(KSBlowupError):
    """Lebesgue exponents violate 1 <= p <= q <= infinity."""


class HypothesisCheckError(KSBlowupError):
    """A numerical hypothesis check failed; the estimator is inapplicable."""


class InvalidFieldError(ValueError):
    """A datum field holds a value its family refuses.

    ``field`` names the dataclass field; the message reads
    "<field> <problem>".
    """

    def __init__(self, field, problem):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


class DatumSpecError(KSBlowupError):
    """A datum spec file failed to parse or validate.

    ``field`` names the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
