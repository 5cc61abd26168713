"""Scaling-law regression on QFI curves.

Power laws are fitted by least squares on (ln x, ln y); exponential gaps by
least squares on (beta, ln y) with the gap reported as minus the slope.
These formalize the guide lines superimposed on log-log and semilog
sensitivity plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import FitError
from .gaussian import QfiCurve

FitKind = Literal["power_law", "exponential_gap"]


@dataclass(frozen=True)
class ScalingFit:
    """Result of a scaling-law fit over a window.

    For power_law, exponent_or_gap is the log-log slope and the model is
    y = prefactor * x^exponent.  For exponential_gap it is the decay
    constant Delta of y = prefactor * exp(-Delta * beta).
    """

    kind: FitKind
    exponent_or_gap: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 4:
            raise FitError(f"fit needs at least 4 points, got {self.n_points}")
        if not -1e-9 <= self.r_squared <= 1.0 + 1e-9:
            raise FitError(f"r_squared {self.r_squared!r} outside [0, 1]")


def _r_squared(y: np.ndarray, resid: np.ndarray) -> float:
    """Coefficient of determination of a least-squares fit, clipped to [0, 1]."""
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return min(max(r2, 0.0), 1.0)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept, r^2."""
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(slope), float(intercept), _r_squared(y, y - (slope * x + intercept))


def _select_window(
    x: np.ndarray, y: np.ndarray, window: tuple[float, float] | None
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    if window is None:
        lo, hi = float(np.min(x)), float(np.max(x))
    else:
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise FitError(f"empty window [{lo!r}, {hi!r}]")
    mask = (x >= lo) & (x <= hi)
    if int(mask.sum()) < 4:
        raise FitError(f"only {int(mask.sum())} points inside window [{lo!r}, {hi!r}]")
    return x[mask], y[mask], (lo, hi)


def loglog_fit(x, y, window: tuple[float, float] | None = None) -> ScalingFit:
    """Power-law fit y = prefactor * x^exponent on arbitrary positive data."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xs, ys, win = _select_window(x, y, window)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise FitError("power-law fit requires strictly positive data")
    slope, intercept, r2 = _linear_fit(np.log(xs), np.log(ys))
    return ScalingFit(
        kind="power_law",
        exponent_or_gap=slope,
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
        window=win,
        n_points=int(xs.size),
    )


def fit_power_law(curve: QfiCurve, window: tuple[float, float] | None = None) -> ScalingFit:
    """Fit F = prefactor * T^exponent over a temperature window."""
    return loglog_fit(curve.t_array, curve.qfi_array, window)


def fit_exponential_gap(
    curve: QfiCurve, window: tuple[float, float] | None = None
) -> ScalingFit:
    """Fit F = prefactor * exp(-gap/T) over a temperature window.

    Least squares on (beta, ln F) with beta = 1/T; the window is given in
    temperature like fit_power_law.
    """
    t = curve.t_array
    f = curve.qfi_array
    ts, fs, win = _select_window(t, f, window)
    if np.any(fs <= 0.0):
        raise FitError("exponential fit requires strictly positive QFI values")
    slope, intercept, r2 = _linear_fit(1.0 / ts, np.log(fs))
    return ScalingFit(
        kind="exponential_gap",
        exponent_or_gap=-slope,
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
        window=win,
        n_points=int(ts.size),
    )
