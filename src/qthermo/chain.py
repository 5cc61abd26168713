"""Translationally invariant harmonic chains (2N+1 nodes, periodic).

The interaction matrix is circulant, so the squared normal-mode
frequencies are exact cosine sums,

    Om_a^2 = Om^2 + 2 sum_k G_k cos(2 pi k a / (2N+1)),  a = 0..N,

with a = 1..N doubly degenerate.  Single-node covariances use the analytic
circulant weights (1/(2N+1) for a = 0, 2/(2N+1) otherwise; the sine
partner of each degenerate pair has no amplitude on the probe node), which
is exact, with no eigensolver: the spectrum once per sweep, O(N) per temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FitError, UnstableChainError, ZeroModeError
from .fits import ScalingFit, loglog_fit
from .gaussian import (
    CovarianceDerivatives,
    SingleModeCovariance,
    qfi_from_derivatives,
)

# Smallest mode kept in a "gapless" finite chain, as a fraction of Om_max.
# coth(0) is singular, so exact zero modes are clamped here when the caller
# opts into the regularized treatment.
GAP_FLOOR_SCALE = 1e-8


def _coth_vec(x: np.ndarray) -> np.ndarray:
    out = np.ones_like(x)
    small = x <= 350.0
    out[small] = 1.0 + 2.0 / np.expm1(2.0 * x[small])
    return out


def _csch2_vec(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    small = x <= 350.0
    out[small] = 1.0 / np.sinh(x[small]) ** 2
    return out


@dataclass(frozen=True)
class ChainSpec:
    """Chain of 2N+1 identical oscillators with distance-dependent couplings.

    omega_sq is the squared on-site frequency; couplings holds G_1..G_N.
    Periodic symmetry G_n = G_{2N+1-n} is implicit, never stored twice.
    """

    N: int
    omega_sq: float
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("chain half-size N must be >= 1")
        if len(self.couplings) != self.N:
            raise ValueError(f"need exactly N={self.N} couplings, got {len(self.couplings)}")
        object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))

    @property
    def n_nodes(self) -> int:
        return 2 * self.N + 1

    @property
    def coupling_array(self) -> np.ndarray:
        return np.asarray(self.couplings, dtype=float)

    @cached_property
    def spectrum(self) -> "ChainSpectrum":
        """chain_spectrum(self), built once: it does not depend on T."""
        return chain_spectrum(self)


def power_law_chain(N: int, omega_sq: float, G: float = 1.0, t: float = 2.5) -> ChainSpec:
    """ChainSpec with algebraic couplings G_n = G / n^t."""
    n = np.arange(1, N + 1, dtype=float)
    return ChainSpec(N=N, omega_sq=omega_sq, couplings=tuple(G / n**t))


def exponential_chain(N: int, omega_sq: float, G: float = 1.0, c: float = 1.0) -> ChainSpec:
    """ChainSpec with exponentially decaying couplings G_n = G e^{-c n}."""
    n = np.arange(1, N + 1, dtype=float)
    return ChainSpec(N=N, omega_sq=omega_sq, couplings=tuple(G * np.exp(-c * n)))


@dataclass(frozen=True)
class ChainSpectrum:
    """Non-repeated squared normal-mode frequencies Om_0^2 .. Om_N^2."""

    non_repeated: tuple[float, ...]

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.non_repeated, dtype=float)

    @property
    def gap(self) -> float:
        """Lowest normal-mode frequency Delta."""
        return float(np.sqrt(max(min(self.non_repeated), 0.0)))

    @property
    def max_freq(self) -> float:
        return float(np.sqrt(max(self.non_repeated)))

    def frequencies(self) -> np.ndarray:
        """Non-repeated frequencies (not squared), same ordering."""
        return np.sqrt(np.clip(self.array, 0.0, None))


def chain_spectrum(c: ChainSpec) -> ChainSpectrum:
    """Exact spectrum by trigonometric evaluation (no eigensolver)."""
    k = np.arange(1, c.N + 1, dtype=float)
    a = np.arange(0, c.N + 1, dtype=float)
    cos_table = np.cos(2.0 * np.pi * np.outer(k, a) / (2 * c.N + 1))
    vals = c.omega_sq + 2.0 * (c.coupling_array[:, None] * cos_table).sum(axis=0)
    floor = -1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if np.min(vals) < floor:
        raise UnstableChainError(
            f"spectrum not bounded below: min Om_a^2 = {float(np.min(vals))!r}"
        )
    return ChainSpectrum(tuple(float(v) for v in np.maximum(vals, 0.0)))


def gapless_frequency_sq(N: int, couplings) -> float:
    """On-site Om^2 that closes the gap of the finite chain exactly.

    Saturation of the boundedness condition:
    Om^2 = -2 sum_k G_k cos(2 pi k N / (2N+1)).  For large N this tends to
    the alternating series 2 sum (-1)^(n-1) G_n.
    """
    g = np.asarray(couplings, dtype=float)
    if g.size != N:
        raise ValueError("couplings length must equal N")
    k = np.arange(1, N + 1, dtype=float)
    return float(-2.0 * np.sum(g * np.cos(2.0 * np.pi * k * N / (2 * N + 1))))


def _node_mode_data(c: ChainSpec, regularize_gapless: bool) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, probe-node weights) with optional zero-mode clamping.

    A squared frequency below the cosine-sum rounding scale counts as an
    exact zero mode: coth(0) is singular, so it is either an error or, when
    the caller opts in, clamped up to the gap floor.
    """
    spec = c.spectrum
    om = spec.frequencies()
    zero_tol_sq = 1e-12 * max(1.0, spec.max_freq**2)
    floor = GAP_FLOOR_SCALE * spec.max_freq
    if float(np.min(spec.array)) < zero_tol_sq:
        if not regularize_gapless:
            raise ZeroModeError(
                f"chain has a zero mode (min Om^2 = {float(np.min(spec.array))!r}); "
                "pass regularize_gapless=True to clamp it to the gap floor"
            )
        om = np.maximum(om, floor)
    w = np.full(c.N + 1, 2.0 / (2 * c.N + 1))
    w[0] = 1.0 / (2 * c.N + 1)
    return om, w


def node_moments(
    c: ChainSpec, temperatures, regularize_gapless: bool = False
) -> list[tuple[SingleModeCovariance, CovarianceDerivatives]]:
    """Node covariance and its analytic T-derivatives at each temperature.

    The spectrum and the probe weights do not depend on T, so they are
    built once per chain (ChainSpec.spectrum); each temperature then costs
    one O(N) mode sum.
    """
    ts = [float(t) for t in temperatures]
    if not all(0.0 < t < math.inf for t in ts):
        raise ValueError("temperature must be positive and finite")
    om, w = _node_mode_data(c, regularize_gapless)
    out = []
    for T in ts:
        x = om / (2.0 * T)
        nu = _coth_vec(x)
        dnu = (om / (2.0 * T * T)) * _csch2_vec(x)
        s11, s22 = float(np.sum(w * nu / (2.0 * om))), float(np.sum(w * om * nu / 2.0))
        a1, a2 = float(np.sum(w * dnu / (2.0 * om))), float(np.sum(w * om * dnu / 2.0))
        out.append((SingleModeCovariance(s11, s22), CovarianceDerivatives(a1, a2)))
    return out


def node_covariances(
    c: ChainSpec, T: float, regularize_gapless: bool = False
) -> SingleModeCovariance:
    """Reduced covariance of one node of the thermal chain at temperature T."""
    return node_moments(c, [T], regularize_gapless)[0][0]


def node_covariance_derivatives(
    c: ChainSpec, T: float, regularize_gapless: bool = False
) -> CovarianceDerivatives:
    """Analytic temperature derivatives of the node covariance.

    Library code and tests take them from node_moments; this function stays
    only while BENCHMARK.json declares the per-layer metric
    chain.node_covariance_derivatives.self_s, which perfbench's tracer
    reports for an existing public function alone.
    """
    return node_moments(c, [T], regularize_gapless)[0][1]


def node_qfi(c: ChainSpec, T: float, regularize_gapless: bool = False) -> float:
    """Local thermometric QFI of a single chain node."""
    return qfi_from_derivatives(*node_moments(c, [T], regularize_gapless)[0])


def gap_error(N: int, s: float, G: float = 1.0) -> float:
    """Finite-chain gap error Xi(N) for the couplings G_n = G/n^s, n <= N.

    Xi(N) is the residual of the large-N gap formula evaluated with the
    couplings actually present in the length-N chain,
        Xi(N) = Delta^2(N) - [Om^2 - 2 sum_{n<=N} (-1)^(n-1) G_n]
              = 2 sum_{n<=N} (-1)^(n-1) G_n - gapless_frequency_sq(N, G),
    which is independent of Om^2.
    """
    n = np.arange(1, N + 1, dtype=float)
    g = G / n**s
    alt = 2.0 * float(np.sum(np.where(n % 2 == 1, g, -g)))
    return alt - gapless_frequency_sq(N, g)


def gap_error_scaling(s: float, G: float, N_list) -> ScalingFit:
    """Size scaling of the finite-chain gap error |Xi(N)| for G_n = G/n^s.

    |gap_error(N, s, G)| is fitted against N on log-log axes; expected
    exponents: -2 for s > 2 (log-degraded at s = 2) and -s for 1 < s < 2.
    """
    if s <= 1.0:
        raise ValueError("gap_error_scaling requires power-law decay s > 1")
    ns = sorted(int(n) for n in N_list)
    if len(ns) < 4:
        raise FitError("need at least 4 chain sizes to fit the gap error")
    xi = [abs(gap_error(N, s, G)) for N in ns]
    return loglog_fit(np.asarray(ns, dtype=float), np.asarray(xi), window=(ns[0], ns[-1]))

