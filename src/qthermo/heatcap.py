"""Heat capacities of free-mode lattices and the transverse-field Ising chain.

Every free bosonic or fermionic lattice decomposes into non-interacting
normal modes, each thermal, so the total heat capacity is the sum of the
single-mode values

    C(eps, T) = (beta eps)^2 e^(-beta eps) / (1 -+ e^(-beta eps))^2

(minus: bosonic, plus: fermionic; a qubit coincides with the fermionic
case).  For a gapped system at beta*Delta >= 4 every mode value is bounded
by the gap-mode value, giving C_N <= N C(Delta, T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

Statistics = Literal["bosonic", "fermionic", "qubit"]

_EXP_FLOOR = 700.0  # beta*eps beyond which C underflows to exactly 0


@dataclass(frozen=True)
class ModeSystem:
    """Collection of free modes with energies sorted ascending; gap = min."""

    statistics: Statistics
    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.statistics not in ("bosonic", "fermionic", "qubit"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        e = np.asarray(self.energies, dtype=float)
        if e.size == 0 or not np.all((e > 0.0) & (e < np.inf)):
            raise ValueError("energies must be finite, positive and non-empty")
        object.__setattr__(self, "energies", tuple(float(x) for x in np.sort(e)))

    @property
    def gap(self) -> float:
        return self.energies[0]

    @property
    def energy_array(self) -> np.ndarray:
        return np.asarray(self.energies, dtype=float)


@dataclass(frozen=True)
class IsingSpec:
    """Transverse-field Ising chain; gap Delta = 2|h - J|, critical at h = J."""

    J: float
    h: float
    N: int

    def __post_init__(self) -> None:
        if not all(0.0 < x < math.inf for x in (self.J, self.h)):
            raise ValueError("IsingSpec requires finite J > 0 and h > 0")
        if self.N < 2:
            raise ValueError("IsingSpec requires N >= 2 sites")

    @property
    def gap(self) -> float:
        return 2.0 * abs(self.h - self.J)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only ising_spectrum(self), built once: it does not depend on T."""
        eps = ising_spectrum(self)
        eps.flags.writeable = False
        return eps


def _check_temperature(T: float) -> None:
    if not 0.0 < T < math.inf:
        raise ValueError("temperature must be positive and finite")


def _mode_c_array(statistics: Statistics, eps: np.ndarray, T: float) -> np.ndarray:
    x = eps / T
    out = np.zeros_like(x)
    ok = x < _EXP_FLOOR
    e = np.exp(-x[ok])
    sign = -1.0 if statistics == "bosonic" else 1.0
    out[ok] = x[ok] ** 2 * e / (1.0 + sign * e) ** 2
    return out


def mode_heat_capacity(statistics: Statistics, epsilon: float, T: float) -> float:
    """Heat capacity of a single thermal mode of energy epsilon."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError("mode_heat_capacity requires finite epsilon > 0")
    _check_temperature(T)
    return float(_mode_c_array(statistics, np.array([epsilon]), T)[0])


def lattice_heat_capacity(m: ModeSystem, T: float) -> float:
    """Total heat capacity: the modes are independent, so capacities add."""
    _check_temperature(T)
    return float(np.sum(_mode_c_array(m.statistics, m.energy_array, T)))


def low_temperature_bound(m: ModeSystem, T: float) -> float:
    """N-mode bound N C(Delta, T), valid once beta*Delta >= 4.

    Follows from the single-mode capacity decreasing in beta*eps there.
    """
    return len(m.energies) * mode_heat_capacity(m.statistics, m.gap, T)


def mean_thermal_energy(m: ModeSystem, T: float) -> float:
    """Thermal expectation sum_n eps_n nbar(eps_n) (zero-point part dropped)."""
    _check_temperature(T)
    x = m.energy_array / T
    occ = np.zeros_like(x)
    ok = x < _EXP_FLOOR
    sign = -1.0 if m.statistics == "bosonic" else 1.0
    occ[ok] = 1.0 / (np.exp(x[ok]) + sign)
    return float(np.sum(m.energy_array * occ))


def ising_spectrum(spec: IsingSpec) -> np.ndarray:
    """Free-fermion energies eps_k = 2 sqrt(J^2 + h^2 - 2hJ cos(2 pi k/N)).

    Momentum grid k in {-floor(N/2), ..., floor(N/2) - 1}; the minimum
    approaches the gap 2|h - J| up to O(1/N^2) discretization.
    """
    k = np.arange(-(spec.N // 2), spec.N - spec.N // 2)
    return 2.0 * np.sqrt(
        spec.J**2 + spec.h**2 - 2.0 * spec.h * spec.J * np.cos(2.0 * np.pi * k / spec.N)
    )


def ising_heat_capacity(
    spec: IsingSpec, T: float, mode: Literal["exact", "asymptotic"] = "exact"
) -> float:
    """Heat capacity of the Ising chain, exact sum or low-T asymptotic form.

    exact: sum of the qubit capacities over the free-fermion spectrum.
    asymptotic: N (beta Delta)^(3/2) e^(-beta Delta) sqrt(Delta^2/(8 pi h J)),
    valid only for N >> 1 and beta Delta >> 1 (enforced: beta Delta >= 5
    and a finite gap).
    """
    _check_temperature(T)
    if mode == "exact":
        return float(np.sum(_mode_c_array("qubit", spec.spectrum, T)))
    if mode != "asymptotic":
        raise ValueError(f"unknown mode {mode!r}")
    delta = spec.gap
    if delta == 0.0:
        raise ValueError("asymptotic form undefined at criticality (h = J)")
    bd = delta / T
    if bd < 5.0:
        raise ValueError(f"asymptotic form requires beta*Delta >= 5, got {bd!r}")
    if bd > _EXP_FLOOR:
        return 0.0
    return float(
        spec.N * bd**1.5 * np.exp(-bd) * np.sqrt(delta**2 / (8.0 * np.pi * spec.h * spec.J))
    )
