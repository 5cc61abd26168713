"""Single-mode Gaussian states and temperature metrology.

A zero-mean single-mode Gaussian state is fully described by its 2x2
covariance matrix; every state here (thermal modes, chain nodes, the
Brownian probe) is diagonal by construction.  A mode of a harmonic system
is one thermal sum over its normal modes Om_a, weighted by its squared
amplitude w_a in each (_mode_sums; one zero-mode rule, _mode_frequencies).
A temperature sweep is one set of float columns over T, (s11, s22) and
(a1, a2) in one SingleModeCovariance and CovarianceDerivatives, checked
as one; state[i] is row i as floats.  This module also provides the
Uhlmann fidelity between two states and the quantum Fisher information
(QFI) for temperature estimation through two independent routes:

* a central finite difference of the fidelity,
      F_T = 4 (1 - F(rho_T, rho_{T+d})) / d^2   as d -> 0,
* the closed formula in the covariance derivatives,
      F_T = 4 (a1 a2 + 2 s11^2 a2^2 + 2 s22^2 a1^2) / (16 s11^2 s22^2 - 1).

Units: hbar = k_B = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateStateError, InvalidStateError, StepTooSmallError, ZeroModeError

# Floor of a clamped zero mode, as a fraction of Om_max (_mode_frequencies).
GAP_FLOOR_SCALE = 1e-8

# Tolerance on det(sigma) >= 1/4, the one uncertainty check (every
# SingleModeCovariance makes it); loose enough that quadrature noise on
# near-vacuum states does not spuriously reject them.
PHYSICALITY_TOL = 1e-12

_MIN_STEP_FACTOR = 1e3 * np.finfo(float).eps


def _first_failure(ok, **values) -> str:
    """The values where ok first fails, after that row's index for columns over T."""
    row = np.unravel_index(np.argmin(ok), np.shape(ok))
    shown = " ".join(f"{k}={float(np.broadcast_to(v, np.shape(ok))[row])!r}" for k, v in values.items())
    return f"{f' at row {row[0]}' if row else ''}: {shown}"


class _Rows:
    """state[i]: row i of columns over T, as floats.  States compare field by
    field with np.array_equal, and are unhashable."""

    def __getitem__(self, i: int):
        return type(self)(*(float(np.asarray(v)[i]) for v in vars(self).values()))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))


@dataclass(frozen=True, eq=False)
class SingleModeCovariance(_Rows):
    """Diagonal covariance matrix diag(s11, s22) of one bosonic mode, or a
    column of them over T (float arrays).

    s11 is the position variance (units 1/energy), s22 the momentum
    variance (units energy).  A state is physical when it is made: s11 and
    s22 > 0 and det >= 1/4 within PHYSICALITY_TOL, or InvalidStateError.
    """

    s11: float
    s22: float

    def __post_init__(self) -> None:
        s11, s22, det = self.s11, self.s22, self.det()
        if not np.all(ok := (s11 > 0.0) & (s22 > 0.0) & (det >= 0.25 - PHYSICALITY_TOL)):
            raise InvalidStateError("covariance violates uncertainty relation det >= 1/4"
                                    + _first_failure(ok, s11=s11, s22=s22, det=det))

    def det(self) -> float:
        return self.s11 * self.s22


@dataclass(frozen=True, eq=False)
class CovarianceDerivatives(_Rows):
    """Temperature derivatives (a1, a2) = (d s11/dT, d s22/dT), or their columns."""

    a1: float
    a2: float


def _mode_frequencies(om_sq: np.ndarray, regularize_gapless: bool, hint: str) -> np.ndarray:
    """Frequencies Om_a from their squares.  A square below 1e-12 max(1, max
    Om^2), the rounding scale of the sums that produce it, is an exact zero
    mode: ZeroModeError (ending with hint) or, with regularize_gapless, every
    frequency is raised to the floor GAP_FLOOR_SCALE Om_max."""
    om = np.sqrt(om_sq)
    low = float(np.min(om_sq))
    if low < 1e-12 * max(1.0, float(np.max(om_sq))):
        if not regularize_gapless:
            raise ZeroModeError(f"zero mode (min Om^2 = {low!r}): {hint}")
        om = np.maximum(om, GAP_FLOOR_SCALE * float(np.max(om)))
    return om


def _mode_sums(om: np.ndarray, w: np.ndarray, temperatures) -> tuple:
    """The (s11, s22) and (a1, a2) columns of the mode sum over om > 0 with weights
    w, every T in one numpy pass; coth and csch^2 are exactly 1.0 and 0.0 beyond x = 350."""
    t = np.asarray(temperatures, dtype=float)[:, None]
    x = om / (2.0 * t)
    small = x <= 350.0
    nu = np.ones_like(x)
    nu[small] = 1.0 + 2.0 / np.expm1(2.0 * x[small])
    dnu = np.zeros_like(x)
    dnu[small] = 1.0 / np.sinh(x[small]) ** 2
    dnu = (om / (2.0 * t * t)) * dnu
    return (SingleModeCovariance(np.sum(w * nu / (2.0 * om), axis=1), np.sum(w * om * nu / 2.0, axis=1)),
            CovarianceDerivatives(np.sum(w * dnu / (2.0 * om), axis=1), np.sum(w * om * dnu / 2.0, axis=1)))


def _thermal_mode(omega: float, T: float) -> tuple[SingleModeCovariance, CovarianceDerivatives]:
    if not (0.0 < omega < math.inf and 0.0 < T < math.inf):
        raise ValueError("a thermal mode requires finite omega > 0 and finite T > 0")
    return tuple(m[0] for m in _mode_sums(np.array([float(omega)]), np.ones(1), [float(T)]))


def thermal_mode_covariance(omega: float, T: float) -> SingleModeCovariance:
    """Covariance of a harmonic mode of frequency omega at temperature T.

    s11 = coth(omega/2T)/(2 omega), s22 = omega coth(omega/2T)/2.
    """
    return _thermal_mode(omega, T)[0]


def thermal_mode_derivatives(omega: float, T: float) -> CovarianceDerivatives:
    """Analytic dT-derivatives of the thermal covariance.

    d coth(omega/2T)/dT = (omega/2T^2) csch^2(omega/2T).
    """
    return _thermal_mode(omega, T)[1]


def uhlmann_fidelity(a: SingleModeCovariance, b: SingleModeCovariance) -> float:
    """Uhlmann fidelity between two zero-mean single-mode Gaussian states.

        F = 2 / (sqrt(Lam + Del) - sqrt(Lam)),
        Lam = (4 det a - 1)(4 det b - 1),  Del = 4 det(a + b).

    Symmetric in its arguments; equals 1 iff a == b.
    """
    da = a.det()
    db = b.det()
    # Clamp the tiny negative excursions PHYSICALITY_TOL allows.
    lam = max(4.0 * da - 1.0, 0.0) * max(4.0 * db - 1.0, 0.0)
    # Del > 0 and Lam >= 0 for any two diagonal states
    del_ = 4.0 * ((a.s11 + b.s11) * (a.s22 + b.s22))
    # rationalized form of 2/(sqrt(Lam+Del) - sqrt(Lam)): no cancellation
    # when the states are close (Del << Lam); rounding can leave F
    # slightly above 1, hence the clamp
    f = 2.0 * (math.sqrt(lam + del_) + math.sqrt(lam)) / del_
    return min(f, 1.0)


def qfi_from_fidelity(cov_at: Callable[[float], SingleModeCovariance], T: float, step_fraction: float) -> float:
    """QFI from a central finite difference of the fidelity.

    Evaluates 4(1 - F(sigma(T - d/2), sigma(T + d/2)))/d^2 with
    d = step_fraction * T.  Centering the pair around T makes the estimate
    second order in d; one Richardson step over d and d/2 removes the
    leading d^2 error as well.
    """
    if not 0.0 < T < math.inf:
        raise ValueError("qfi_from_fidelity requires a positive, finite T")
    if not 0.0 < step_fraction <= 0.1:
        raise ValueError("step_fraction must lie in (0, 0.1]")
    delta = step_fraction * T
    if delta < _MIN_STEP_FACTOR * T:
        raise StepTooSmallError(
            f"step {delta!r} below resolution floor {_MIN_STEP_FACTOR * T!r}"
        )

    def estimate(d: float) -> float:
        f = uhlmann_fidelity(cov_at(T - d / 2.0), cov_at(T + d / 2.0))
        return 4.0 * (1.0 - f) / (d * d)

    f1 = estimate(delta)
    f2 = estimate(delta / 2.0)
    return max((4.0 * f2 - f1) / 3.0, 0.0)


def qfi_from_derivatives(cov: SingleModeCovariance, deriv: CovarianceDerivatives) -> float:
    """QFI from the covariance and its temperature derivatives, a float for
    a state and a column for columns over T.

    F_T = 4 (a1 a2 + 2 s11^2 a2^2 + 2 s22^2 a1^2) / (16 s11^2 s22^2 - 1),
    which needs no second-order Taylor coefficients.  The pure-state
    boundary (denominator <= 0) is rejected rather than regularized since
    the finite-difference route stays available there.
    """
    s11, s22, a1, a2 = cov.s11, cov.s22, deriv.a1, deriv.a2
    if not np.all(ok := np.isfinite(a1) & np.isfinite(a2)):
        raise ValueError("derivatives must be finite" + _first_failure(ok, a1=a1, a2=a2))
    p = s11 * s22
    denom = 16.0 * p * p - 1.0
    if not np.all(ok := denom > 0.0):
        raise DegenerateStateError("16 s11^2 s22^2 - 1 <= 0: state at the minimal-uncertainty boundary"
                                   + _first_failure(ok, denom=denom))
    return 4.0 * (a1 * a2 + 2.0 * s11 * s11 * a2 * a2 + 2.0 * s22 * s22 * a1 * a1) / denom


QFI_COLUMNS = ("T", "beta", "sigma11", "sigma22", "qfi", "rel_error_M1")


@dataclass(frozen=True, eq=False)
class QfiCurve:
    """Sampled (T, F_T) data with the single-shot relative error 1/(T sqrt(F)).

    Temperatures are positive, finite and strictly increasing; QFI values
    finite and >= 0.  Both are kept as read-only float arrays.  covariances,
    when given, is the states' column over T.
    """

    temperatures: np.ndarray
    qfi: np.ndarray
    covariances: SingleModeCovariance | None = None

    def __post_init__(self) -> None:
        t, f = np.array(self.temperatures, dtype=float), np.array(self.qfi, dtype=float)
        if t.ndim != 1 or t.shape != f.shape:
            raise ValueError("temperatures and qfi must have equal length")
        if self.covariances is not None and np.shape(self.covariances.s11) != t.shape:
            raise ValueError("one covariance per temperature required")
        if not np.all((t > 0.0) & (t < math.inf)):
            raise ValueError("temperatures must be positive and finite")
        if t.size and not np.all(np.diff(t) > 0.0):
            raise ValueError("temperatures must be strictly increasing")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0):
            raise ValueError("qfi samples must be finite and non-negative")
        t.flags.writeable = f.flags.writeable = False
        object.__setattr__(self, "temperatures", t)
        object.__setattr__(self, "qfi", f)

    @classmethod
    def from_moments(cls, temperatures, moments) -> "QfiCurve":
        """Curve from the (covariance, derivatives) columns over the temperatures."""
        return cls(temperatures, qfi_from_derivatives(*moments), moments[0])

    def rows(self) -> list[list[float]]:
        """Table rows in QFI_COLUMNS order; needs the covariances."""
        c, t = self.covariances, self.temperatures
        if c is None:
            raise ValueError("rows need the covariances")
        return np.column_stack((t, 1.0 / t, c.s11, c.s22, self.qfi, self.rel_error_single_shot())).tolist()

    def rel_error_single_shot(self) -> np.ndarray:
        """Best-case relative error dT/T = 1/(T sqrt(F)) for one shot (M = 1).

        inf where F = 0.
        """
        with np.errstate(divide="ignore"):
            return 1.0 / (self.temperatures * np.sqrt(self.qfi))
