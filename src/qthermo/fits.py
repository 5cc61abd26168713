"""Scaling-law regression on QFI curves.

Power laws are fitted by least squares on (ln x, ln y); exponential gaps by
least squares on (beta, ln y) with the gap reported as minus the slope.
These formalize the guide lines superimposed on log-log and semilog
sensitivity plots.  Every fit in qthermo, the star couplings' joint fit in
(ln n, ln N) and the free probe's extrapolation included, is one
least-squares solve in _linear_fit, which refuses a rank-deficient design
with FitError rather than return an arbitrary minimum-norm answer.
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


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[list[float], float, float]:
    """Least squares of y on the columns of x plus an intercept: (slopes, intercept, r^2).

    r^2 is clipped to [0, 1].  A design of lower rank than its parameter
    count (too few distinct x) has no unique fit and raises FitError.
    """
    design = np.column_stack((x, np.ones_like(y)))
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise FitError(f"degenerate design: rank {rank} below {design.shape[1]} parameters")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum((y - design @ coef) ** 2)) / ss_tot
    *slopes, intercept = coef.tolist()
    return slopes, intercept, min(max(r2, 0.0), 1.0)


def _fit(kind: FitKind, x, y, window: tuple[float, float] | None) -> ScalingFit:
    """The one scaling fit: a power law on (ln x, ln y), an exponential gap on (1/x, ln y)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise FitError(f"x and y must be 1-D of equal length, got shapes {x.shape} and {y.shape}")
    if window is None:
        lo, hi = float(np.min(x, initial=np.inf)), float(np.max(x, initial=-np.inf))
    else:
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise FitError(f"empty window [{lo!r}, {hi!r}]")
    mask = (x >= lo) & (x <= hi)
    if int(mask.sum()) < 4:
        raise FitError(f"only {int(mask.sum())} points inside window [{lo!r}, {hi!r}]")
    xs, ys = x[mask], y[mask]
    if kind == "power_law":
        if not np.all((xs > 0.0) & (ys > 0.0) & np.isfinite(xs) & np.isfinite(ys)):
            raise FitError("power-law fit requires strictly positive, finite data")
        (slope,), intercept, r2 = _linear_fit(np.log(xs), np.log(ys))
    else:
        if not np.all(ys > 0.0):
            raise FitError("exponential fit requires strictly positive QFI values")
        (slope,), intercept, r2 = _linear_fit(1.0 / xs, np.log(ys))
        slope = -slope
    return ScalingFit(kind, slope, float(np.exp(intercept)), r2, (lo, hi), int(xs.size))


def loglog_fit(x, y, window: tuple[float, float] | None = None) -> ScalingFit:
    """Power-law fit y = prefactor * x^exponent on arbitrary positive data."""
    return _fit("power_law", x, y, window)


def fit_power_law(curve: QfiCurve, window: tuple[float, float] | None = None) -> ScalingFit:
    """Fit F = prefactor * T^exponent over a temperature window."""
    return _fit("power_law", curve.temperatures, curve.qfi, window)


def fit_exponential_gap(
    curve: QfiCurve, window: tuple[float, float] | None = None
) -> ScalingFit:
    """Fit F = prefactor * exp(-gap/T) over a temperature window.

    Least squares on (beta, ln F) with beta = 1/T; the window is given in
    temperature like fit_power_law.
    """
    return _fit("exponential_gap", curve.temperatures, curve.qfi, window)
