"""Exception hierarchy for qthermo.

Every error raised by the library derives from QThermoError so callers can
catch library failures without swallowing programming errors.
"""


class QThermoError(Exception):
    """Base class for all qthermo errors."""


class InvalidStateError(QThermoError):
    """Covariance matrix violates the uncertainty relation or positivity."""


class StepTooSmallError(QThermoError):
    """Finite-difference step is below the floating-point resolution floor."""


class DegenerateStateError(QThermoError):
    """State sits at (or below) the minimal-uncertainty boundary where the
    derivative-based QFI formula has a vanishing denominator."""


class DivergenceError(QThermoError):
    """An integral diverges for the requested parameters."""


class IntegrationError(QThermoError):
    """Adaptive quadrature failed to converge or returned a non-finite
    value; carries diagnostics in the message."""


class UnstableChainError(QThermoError):
    """Chain spectrum is not bounded from below."""


class ZeroModeError(QThermoError):
    """Gapless chain hit the zero mode without regularization enabled."""


class ConvergenceError(QThermoError):
    """A limiting sequence did not converge (a non-Cauchy tail, or Newton steps)."""


class FitError(QThermoError):
    """Regression input unusable: too few points or non-positive values."""


class ConfigError(QThermoError):
    """Experiment configuration failed to parse or holds an invalid value."""
