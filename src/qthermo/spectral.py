"""Reservoir spectral densities, self-energy, and discretization.

Continuous Ohmic families (Lorentz-Drude, exponential cutoff with variable
Ohmicity s) plus discrete mode lists {(omega_n, g_n)}.  The renormalization
frequency and the principal-value self-energy follow the Hamiltonian-grounded
normalization

    omega_R^2 = (1/pi) int_0^inf J(w)/w dw,
    S(w)      = (1/pi) PV int_0^inf J(w') w' / (w'^2 - w^2) dw',

so that S(0) = omega_R^2 and the probe's susceptibility, alpha(w) = omega_0^2
+ omega_R^2 - w^2 - S(w) + i J(w), has Re alpha(0) = omega_0^2.  _alpha is its
one definition (rational in w^2 for Lorentz-Drude); Im alpha = J is an open
defect, as this Re alpha's Kramers-Kronig partner is J/2 (ROADMAP item 1).
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import IntegrationError

# Relative tolerance of every adaptive quadrature in the package.
QUAD_TOL = 1e-9

# A module by name, imported on first use: scipy takes ~0.5 s to import.
_module = functools.cache(importlib.import_module)


def quad(*args, **kwargs):
    return _module("scipy.integrate").quad(*args, **kwargs)


def _quad_value(out: tuple, what: str) -> float:
    """quad's value; with full_output, quad appends its message when ier > 0."""
    if len(out) > 3:
        raise IntegrationError(f"{what} quadrature failed: {out[3]}")
    return out[0]


def _integral(f, a: float, b: float, what: str, **kwargs) -> float:
    """quad's value at QUAD_TOL, raising IntegrationError when ier > 0.  Unlike
    clm's real axis it keeps epsabs = 1e-14: PV pieces and bins sum to ~ wR^2."""
    return _quad_value(quad(f, a, b, epsabs=1e-14, epsrel=QUAD_TOL, full_output=1, **kwargs), what)


@dataclass(frozen=True)
class LorentzDrude:
    """Ohmic spectral density with Lorentz-Drude cutoff.

    J(w) = 2 gamma w wc^2 / (w^2 + wc^2).  Low-frequency slope is 2 gamma.
    """

    gamma: float
    omega_c: float

    def __post_init__(self) -> None:
        if not all(0.0 < x < math.inf for x in (self.gamma, self.omega_c)):
            raise ValueError("LorentzDrude requires finite gamma > 0 and omega_c > 0")

    def j(self, omega):
        """J at a float omega >= 0 (float out) or on an ndarray (elementwise).
        No caller passes a list or omega < 0: `self_energy` rejects it and
        the quadratures start at 0."""
        return 2.0 * self.gamma * omega * self.omega_c**2 / (omega * omega + self.omega_c**2)


@dataclass(frozen=True)
class ExponentialCutoff:
    """Variable-Ohmicity family J_s(w) = (gamma pi/2) (w^s/wc^(s-1)) e^(-w/wc).

    s = 1 is Ohmic, s > 1 super-Ohmic, s < 1 sub-Ohmic.
    """

    gamma: float
    omega_c: float
    s: float

    def __post_init__(self) -> None:
        if not all(0.0 < x < math.inf for x in (self.gamma, self.omega_c, self.s)):
            raise ValueError("ExponentialCutoff requires finite gamma, omega_c, s > 0")

    def j(self, omega):
        """As LorentzDrude.j, but a float gives a NumPy float64: NumPy's power
        and exp keep a float and the same entry of an array bit-identical."""
        return (
            (self.gamma * np.pi / 2.0)
            * np.power(omega, self.s)
            / self.omega_c ** (self.s - 1.0)
            * np.exp(-omega / self.omega_c)
        )


@dataclass(frozen=True)
class DiscreteModes:
    """Finite reservoir: strictly increasing frequencies and couplings >= 0."""

    omegas: tuple[float, ...]
    gs: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.omegas, dtype=float)
        g = np.asarray(self.gs, dtype=float)
        if w.size == 0 or w.size != g.size:
            raise ValueError("DiscreteModes needs equal-length, non-empty lists")
        if not np.all(np.abs(np.concatenate((w, g))) < math.inf):
            raise ValueError("mode frequencies and couplings must be finite")
        if w[0] <= 0.0 or np.any(np.diff(w) <= 0.0):
            raise ValueError("mode frequencies must be positive and strictly increasing")
        if np.any(g < 0.0):
            raise ValueError("couplings must be non-negative")
        object.__setattr__(self, "omegas", tuple(w.tolist()))
        object.__setattr__(self, "gs", tuple(g.tolist()))

    @property
    def omega_array(self) -> np.ndarray:
        return np.asarray(self.omegas, dtype=float)

    @property
    def g_array(self) -> np.ndarray:
        return np.asarray(self.gs, dtype=float)


ContinuousSpectralDensity = Union[LorentzDrude, ExponentialCutoff]
SpectralDensityModel = Union[ContinuousSpectralDensity, DiscreteModes]


def renormalization_frequency_sq(sd: SpectralDensityModel) -> float:
    """omega_R^2 = sum g_n^2 / w_n^2, continuum form (1/pi) int_0^inf J/w dw.

    Closed forms: gamma*wc (Lorentz-Drude) and (gamma/2) Gamma(s) wc
    (exponential cutoff).
    """
    if isinstance(sd, DiscreteModes):
        return float(np.sum(sd.g_array**2 / sd.omega_array**2))
    if isinstance(sd, LorentzDrude):
        return sd.gamma * sd.omega_c
    return 0.5 * sd.gamma * math.gamma(sd.s) * sd.omega_c


def self_energy_pv(sd: ContinuousSpectralDensity, omega: float) -> float:
    """Numerical PV self-energy via singularity subtraction.

    S(w) = (1/pi) [ int_0^B (J(x)x - J(w)w)/(x^2 - w^2) dx
                    + J(w) w PV int_0^B dx/(x^2 - w^2)
                    + int_B^inf J(x)x/(x^2 - w^2) dx ],
    with the middle term in closed form, log((B-w)/(B+w))/(2w).
    """
    if omega < 0.0:
        raise ValueError("self_energy requires omega >= 0")
    if omega == 0.0:
        return renormalization_frequency_sq(sd)
    w = float(omega)
    jw = float(sd.j(w)) * w

    def subtracted(x: float) -> float:
        d = (x - w) * (x + w)
        if abs(d) < 1e-300:
            # removable point: L'Hopital value (J'(w) w + J(w)) / (2 w)
            h = 1e-6 * w
            return (sd.j(w + h) * (w + h) - sd.j(w - h) * (w - h)) / (2.0 * h) / (2.0 * w)
        return (sd.j(x) * x - jw) / d

    b = max(50.0 * sd.omega_c, 10.0 * w)
    pts = sorted({p for p in (0.5 * w, w, 2.0 * w, sd.omega_c, 10.0 * sd.omega_c) if 0.0 < p < b})
    v1 = _integral(subtracted, 0.0, b, "PV self-energy", points=pts, limit=400)
    v2 = _integral(
        lambda x: sd.j(x) * x / ((x - w) * (x + w)), b, np.inf, "PV self-energy", limit=200
    )
    pv_rest = math.log((b - w) / (b + w)) / (2.0 * w)
    total = (v1 + v2 + jw * pv_rest) / np.pi
    if not math.isfinite(total):
        raise IntegrationError(f"PV self-energy quadrature diverged at omega={w!r}")
    return total


def self_energy(sd: ContinuousSpectralDensity, omega: float) -> float:
    """Self-energy S(omega); closed form where known, PV quadrature otherwise."""
    if omega < 0.0:
        raise ValueError("self_energy requires omega >= 0")
    if isinstance(sd, DiscreteModes):
        raise TypeError("self_energy needs a continuous spectral density")
    if isinstance(sd, LorentzDrude):
        return sd.gamma * sd.omega_c**3 / (omega * omega + sd.omega_c**2)
    return self_energy_pv(sd, omega)


@dataclass(frozen=True)
class StarSpec:
    """Bare probe frequency omega_0^2 plus reservoir: the open-system picture.

    omega_R_sq, the counterterm sum g^2/w^2, is derived from the reservoir alone.
    """

    omega0_sq: float
    sd: SpectralDensityModel
    warnings: tuple[str, ...] = ()
    omega_R_sq: float = field(init=False)
    # clm's work on this star that does not depend on T; only clm fills it
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_R_sq", renormalization_frequency_sq(self.sd))
        if not all(0.0 <= x < math.inf for x in (self.omega0_sq, self.omega_R_sq)):
            raise ValueError("squared frequencies must be finite and non-negative")
        if self.omega0_sq + self.omega_R_sq <= 0.0:
            raise ValueError("total trapping omega_0^2 + omega_R^2 must be positive")


def make_star(sd: SpectralDensityModel, omega0_sq: float) -> StarSpec:
    """The StarSpec of a bare probe frequency and a reservoir."""
    return StarSpec(omega0_sq=omega0_sq, sd=sd)


def _rational_alpha(star: StarSpec) -> tuple[float, float, float, float]:
    """(r1, r2, wc^2, h) of a Lorentz-Drude star's alpha in u = w^2:
    Re alpha = R(u)/(u + wc^2), R(u) = (w0^2 - u)(u + wc^2) + gamma wc u
    = -u^2 + r1 u + r2, and Im alpha = h w/(u + wc^2), h = 2 gamma wc^2."""
    sd, k, wc2 = star.sd, star.omega0_sq, star.sd.omega_c**2
    return k - wc2 + sd.gamma * sd.omega_c, k * wc2, wc2, 2.0 * sd.gamma * wc2


def _alpha(star: StarSpec, w: float) -> tuple:
    """(Re alpha, Im alpha) of a continuous star at w: the rational form for
    Lorentz-Drude, w0^2 + wR^2 - w^2 - S(w) and J(w) for the other family."""
    if isinstance(star.sd, LorentzDrude):
        r1, r2, wc2, h = _rational_alpha(star)
        u = w * w
        return ((r1 - u) * u + r2) / (u + wc2), h * w / (u + wc2)
    return star.omega0_sq + star.omega_R_sq - w * w - self_energy(star.sd, w), star.sd.j(w)


def susceptibility_abs_sq(star: StarSpec, omega: float) -> float:
    """|alpha(omega)|^2 = (Re alpha)^2 + (Im alpha)^2; w0^4 at omega = 0."""
    if omega < 0.0:
        raise ValueError("susceptibility requires omega >= 0")
    if isinstance(star.sd, DiscreteModes):
        raise TypeError("susceptibility_abs_sq needs a continuous spectral density")
    re, im = _alpha(star, omega)
    return float(re * re + im * im)


def discretize_clm(
    sd: ContinuousSpectralDensity,
    n_modes: int,
    omega_max: float,
    omega0_sq: float = 0.0,
) -> StarSpec:
    """Discretize a continuous reservoir into n_modes uniform modes.

    w_n = n omega_max / N and g_n^2 = (w_n/pi) int_{bin} J dw over the bin
    ((n-1/2), (n+1/2)) omega_max / N.  Violating N >> omega_max/omega_c is
    flagged (not fatal) in the result's warnings.
    """
    if n_modes < 1:
        raise ValueError("need n_modes >= 1")
    if not sd.omega_c < omega_max < math.inf:
        raise ValueError("omega_max must be finite and exceed the cutoff frequency")
    n = np.arange(1, n_modes + 1, dtype=float)
    a = omega_max / n_modes
    wn = n * a
    lo = (n - 0.5) * a
    hi = (n + 0.5) * a
    if isinstance(sd, LorentzDrude):
        wc2 = sd.omega_c**2
        bin_int = sd.gamma * wc2 * np.log((hi * hi + wc2) / (lo * lo + wc2))
    else:
        bin_int = np.array(
            [_integral(sd.j, l, h, "discretization bin", limit=100) for l, h in zip(lo, hi)]
        )
    g2 = wn / np.pi * bin_int
    modes = DiscreteModes(tuple(wn), tuple(np.sqrt(g2)))
    warnings: tuple[str, ...] = ()
    if n_modes <= omega_max / sd.omega_c:
        warnings = (
            f"discretization regime violated: N={n_modes} <= omega_max/omega_c="
            f"{omega_max / sd.omega_c:.3g}; omega_R^2 will be biased",
        )
    return StarSpec(omega0_sq=omega0_sq, sd=modes, warnings=warnings)
