"""Single-mode Gaussian states and temperature metrology.

A zero-mean single-mode Gaussian state is fully described by its 2x2
covariance matrix; every state here (thermal modes, chain nodes, the
Brownian probe) is diagonal by construction.  A mode of a harmonic system
is one thermal sum over its normal modes Om_a, weighted by its squared
amplitude w_a in each (_mode_sums; one zero-mode rule, _mode_frequencies).
This module also provides the Uhlmann fidelity between two such states
and the quantum Fisher information (QFI) for temperature estimation
through two independent routes:

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


@dataclass(frozen=True)
class SingleModeCovariance:
    """Diagonal covariance matrix diag(s11, s22) of one bosonic mode.

    s11 is the position variance (units 1/energy), s22 the momentum
    variance (units energy).  A state is physical when it is made: s11 and
    s22 > 0 and det >= 1/4 within PHYSICALITY_TOL, or InvalidStateError.
    """

    s11: float
    s22: float

    def __post_init__(self) -> None:
        if not (self.s11 > 0.0 and self.s22 > 0.0 and self.det() >= 0.25 - PHYSICALITY_TOL):
            raise InvalidStateError(
                f"covariance violates uncertainty relation: "
                f"s11={self.s11!r} s22={self.s22!r} det={self.det()!r} < 1/4"
            )

    def det(self) -> float:
        return self.s11 * self.s22


@dataclass(frozen=True)
class CovarianceDerivatives:
    """Temperature derivatives (a1, a2) = (d s11/dT, d s22/dT)."""

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


def _mode_sums(om: np.ndarray, w: np.ndarray, temperatures) -> list[tuple]:
    """(s11, s22) and (a1, a2) of the mode sum over om > 0 with weights w, every
    T in one numpy pass; coth and csch^2 are exactly 1.0 and 0.0 beyond x = 350."""
    t = np.asarray(temperatures, dtype=float)[:, None]
    x = om / (2.0 * t)
    small = x <= 350.0
    nu = np.ones_like(x)
    nu[small] = 1.0 + 2.0 / np.expm1(2.0 * x[small])
    dnu = np.zeros_like(x)
    dnu[small] = 1.0 / np.sinh(x[small]) ** 2
    dnu = (om / (2.0 * t * t)) * dnu
    s11, s22 = np.sum(w * nu / (2.0 * om), axis=1), np.sum(w * om * nu / 2.0, axis=1)
    a1, a2 = np.sum(w * dnu / (2.0 * om), axis=1), np.sum(w * om * dnu / 2.0, axis=1)
    covs = [SingleModeCovariance(float(v), float(u)) for v, u in zip(s11, s22)]
    return list(zip(covs, [CovarianceDerivatives(float(v), float(u)) for v, u in zip(a1, a2)]))


def _thermal_mode(omega: float, T: float) -> tuple[SingleModeCovariance, CovarianceDerivatives]:
    if not (0.0 < omega < math.inf and 0.0 < T < math.inf):
        raise ValueError("a thermal mode requires finite omega > 0 and finite T > 0")
    return _mode_sums(np.array([float(omega)]), np.ones(1), [float(T)])[0]


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


def qfi_from_fidelity(
    cov_at: Callable[[float], SingleModeCovariance],
    T: float,
    step_fraction: float,
) -> float:
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


def qfi_from_derivatives(
    cov: SingleModeCovariance, deriv: CovarianceDerivatives
) -> float:
    """QFI from the covariance and its temperature derivatives.

    F_T = 4 (a1 a2 + 2 s11^2 a2^2 + 2 s22^2 a1^2) / (16 s11^2 s22^2 - 1),
    which needs no second-order Taylor coefficients.  The pure-state
    boundary (denominator <= 0) is rejected rather than regularized since
    the finite-difference route stays available there.
    """
    if not (math.isfinite(deriv.a1) and math.isfinite(deriv.a2)):
        raise ValueError("derivatives must be finite")
    p = cov.s11 * cov.s22
    denom = 16.0 * p * p - 1.0
    if denom <= 0.0:
        raise DegenerateStateError(
            f"16 s11^2 s22^2 - 1 = {denom!r} <= 0: state at the "
            "minimal-uncertainty boundary"
        )
    num = (
        deriv.a1 * deriv.a2
        + 2.0 * cov.s11 * cov.s11 * deriv.a2 * deriv.a2
        + 2.0 * cov.s22 * cov.s22 * deriv.a1 * deriv.a1
    )
    return 4.0 * num / denom


QFI_COLUMNS = ("T", "beta", "sigma11", "sigma22", "qfi", "rel_error_M1")


@dataclass(frozen=True)
class QfiCurve:
    """Sampled (T, F_T) data with the single-shot relative error 1/(T sqrt(F)).

    Temperatures are strictly increasing; QFI values finite and >= 0.
    covariances, when given, holds the state at each temperature.
    """

    temperatures: tuple[float, ...]
    qfi: tuple[float, ...]
    covariances: tuple[SingleModeCovariance, ...] = ()

    def __post_init__(self) -> None:
        t = np.asarray(self.temperatures, dtype=float)
        f = np.asarray(self.qfi, dtype=float)
        if t.size != f.size:
            raise ValueError("temperatures and qfi must have equal length")
        if self.covariances and len(self.covariances) != t.size:
            raise ValueError("one covariance per temperature required")
        if t.size and not np.all(np.diff(t) > 0.0):
            raise ValueError("temperatures must be strictly increasing")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0):
            raise ValueError("qfi samples must be finite and non-negative")

    @classmethod
    def from_moments(cls, temperatures, moments) -> "QfiCurve":
        """Curve from one (covariance, derivatives) pair per temperature."""
        covs, qs = [], []
        for cov, der in moments:
            covs.append(cov)
            qs.append(qfi_from_derivatives(cov, der))
        return cls(tuple(float(t) for t in temperatures), tuple(qs), tuple(covs))

    def rows(self) -> list[list[float]]:
        """Table rows in QFI_COLUMNS order; needs the covariances."""
        if len(self.covariances) != len(self.temperatures):
            raise ValueError("rows need one covariance per temperature")
        cols = zip(self.temperatures, self.qfi, self.covariances, self.rel_error_single_shot())
        return [[t, 1.0 / t, c.s11, c.s22, f, float(r)] for t, f, c, r in cols]

    @property
    def t_array(self) -> np.ndarray:
        return np.asarray(self.temperatures, dtype=float)

    @property
    def qfi_array(self) -> np.ndarray:
        return np.asarray(self.qfi, dtype=float)

    def rel_error_single_shot(self) -> np.ndarray:
        """Best-case relative error dT/T = 1/(T sqrt(F)) for one shot (M = 1).

        inf where F = 0.
        """
        t = self.t_array
        f = self.qfi_array
        out = np.full_like(t, np.inf)
        ok = f > 0.0
        out[ok] = 1.0 / (t[ok] * np.sqrt(f[ok]))
        return out
