"""Translationally invariant harmonic chains (2N+1 nodes, periodic).

The interaction matrix is circulant, so its squared normal-mode
frequencies are the real DFT of its first row (Om^2, G_1, .., G_N,
G_N, .., G_1),

    Om_a^2 = Om^2 + 2 sum_k G_k cos(2 pi k a / (2N+1)),  a = 0..N,

with a = 1..N doubly degenerate.  A node's state is gaussian's mode sum
over them with the circulant weights (1/(2N+1) for a = 0, 2/(2N+1) else;
the sine partner of a degenerate pair has no amplitude on the node): exact,
with no eigensolver, the spectrum once per sweep in O(N log N), O(N) per
temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FitError, UnstableChainError
from .fits import ScalingFit, loglog_fit
from .gaussian import (
    CovarianceDerivatives,
    SingleModeCovariance,
    _mode_frequencies,
    _mode_sums,
    qfi_from_derivatives,
)

@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Chain of 2N+1 identical oscillators with distance-dependent couplings.

    omega_sq is the squared on-site frequency; couplings holds G_1..G_N.
    Periodic symmetry G_n = G_{2N+1-n} is implicit, never stored twice.
    """

    N: int
    omega_sq: float
    couplings: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.couplings, dtype=float)
        if self.N < 1:
            raise ValueError("chain half-size N must be >= 1")
        if g.ndim != 1 or g.size != self.N:
            raise ValueError(f"need exactly N={self.N} couplings, got {g.size}")
        if not (abs(self.omega_sq) < math.inf and np.all(np.abs(g) < math.inf)):
            raise ValueError("omega_sq and the couplings must be finite")
        g.flags.writeable = False
        object.__setattr__(self, "couplings", g)

    @property
    def n_nodes(self) -> int:
        return 2 * self.N + 1

    @property
    def coupling_array(self) -> np.ndarray:
        return self.couplings

    @cached_property
    def spectrum(self) -> "ChainSpectrum":
        """chain_spectrum(self), built once: it does not depend on T."""
        return chain_spectrum(self)


def power_law_chain(N: int, omega_sq: float, G: float, t: float) -> ChainSpec:
    """ChainSpec with algebraic couplings G_n = G / n^t."""
    n = np.arange(1, N + 1, dtype=float)
    return ChainSpec(N=N, omega_sq=omega_sq, couplings=G / n**t)


def exponential_chain(N: int, omega_sq: float, G: float, c: float) -> ChainSpec:
    """ChainSpec with exponentially decaying couplings G_n = G e^{-c n}."""
    n = np.arange(1, N + 1, dtype=float)
    return ChainSpec(N=N, omega_sq=omega_sq, couplings=G * np.exp(-c * n))


@dataclass(frozen=True, eq=False)
class ChainSpectrum:
    """Non-repeated squared normal-mode frequencies Om_0^2 .. Om_N^2."""

    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.array, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def node_weights(self) -> np.ndarray:
        """Each mode's weight on one node: 1/(2N+1) for a = 0, 2/(2N+1) else."""
        n_nodes = 2 * self.array.size - 1
        w = np.full(self.array.size, 2.0 / n_nodes)
        w[0] = 1.0 / n_nodes
        return w

    @property
    def gap(self) -> float:
        """Lowest normal-mode frequency Delta."""
        return float(np.sqrt(max(self.array.min(), 0.0)))


def chain_spectrum(c: ChainSpec) -> ChainSpectrum:
    """Exact spectrum as one real DFT of the first row (no eigensolver).

    rfft of (0, G_1, .., G_N, G_N, .., G_1) gives the cosine sums
    2 sum_k G_k cos(2 pi k a / (2N+1)) for a = 0..N in O(N log N); Om^2 is
    added afterwards, not as the row's first entry, so the transform's
    rounding scales with the couplings alone.  This is the exact partner
    of star_to_chain's irfft.
    """
    g = c.couplings
    vals = c.omega_sq + np.fft.rfft(np.concatenate(([0.0], g, g[::-1]))).real
    floor = -1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if np.min(vals) < floor:
        raise UnstableChainError(
            f"spectrum not bounded below: min Om_a^2 = {float(np.min(vals))!r}"
        )
    return ChainSpectrum(np.maximum(vals, 0.0))


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


def node_moments(
    c: ChainSpec, temperatures, regularize_gapless: bool
) -> tuple[SingleModeCovariance, CovarianceDerivatives]:
    """Node covariance and its analytic T-derivatives, as columns over the
    temperatures (row i at temperatures[i]).

    The spectrum and the probe weights do not depend on T, so they are
    built once per chain (ChainSpec.spectrum); each temperature then costs
    one O(N) mode sum.
    """
    ts = np.asarray(temperatures, dtype=float)
    if not np.all((ts > 0.0) & (ts < math.inf)):
        raise ValueError("temperature must be positive and finite")
    hint = "pass regularize_gapless=True to clamp it to the gap floor"
    om = _mode_frequencies(c.spectrum.array, regularize_gapless, hint)
    return _mode_sums(om, c.spectrum.node_weights, ts)


def node_covariances(c: ChainSpec, T: float, regularize_gapless: bool = False) -> SingleModeCovariance:
    """Reduced covariance of one node of the thermal chain at temperature T."""
    return node_moments(c, [T], regularize_gapless)[0][0]


def node_covariance_derivatives(c: ChainSpec, T: float, regularize_gapless: bool) -> CovarianceDerivatives:
    """Analytic temperature derivatives of the node covariance.

    Library code and tests take them from node_moments; this function stays
    only while BENCHMARK.json declares the per-layer metric
    chain.node_covariance_derivatives.self_s, which perfbench's tracer
    reports for an existing public function alone.
    """
    return node_moments(c, [T], regularize_gapless)[1][0]


def node_qfi(c: ChainSpec, T: float, regularize_gapless: bool = False) -> float:
    """Local thermometric QFI of a single chain node."""
    return qfi_from_derivatives(*(m[0] for m in node_moments(c, [T], regularize_gapless)))


def gap_error(N: int, s: float, G: float) -> float:
    """Finite-chain gap error Xi(N) for the couplings G_n = G/n^s, n <= N.

    Xi(N) is the residual of the large-N gap formula evaluated with the
    couplings actually present in the length-N chain,
        Xi(N) = Delta^2(N) - [Om^2 - 2 sum_{n<=N} (-1)^(n-1) G_n]
              = 2 sum_{n<=N} (-1)^(n-1) G_n - gapless_frequency_sq(N, G),
    which is independent of Om^2.
    """
    if N < 1:
        raise ValueError(f"gap_error requires a chain size N >= 1, got N={N!r}")
    if not math.isfinite(s):
        raise ValueError(f"gap_error requires a finite decay exponent, got s={s!r}")
    if not math.isfinite(G):
        raise ValueError(f"gap_error requires a finite coupling scale, got G={G!r}")
    n = np.arange(1, N + 1, dtype=float)
    g = G / n**s
    alt = 2.0 * float(np.sum(np.where(n % 2 == 1, g, -g)))
    return alt - gapless_frequency_sq(N, g)


def gap_error_scaling(s: float, G: float, N_list) -> ScalingFit:
    """Size scaling of the finite-chain gap error |Xi(N)| for G_n = G/n^s.

    |gap_error(N, s, G)| is fitted against N on log-log axes; expected
    exponents: -2 for s > 2 (log-degraded at s = 2) and -s for 1 < s < 2.
    """
    return _gap_error_fit(s, G, N_list)[0]


def _gap_error_fit(s: float, G: float, N_list) -> tuple[ScalingFit, np.ndarray, np.ndarray]:
    """gap_error_scaling's fit with the sorted sizes and |Xi(N)| it fitted, each computed once."""
    if not 1.0 < s < math.inf:
        raise ValueError(f"gap_error_scaling requires power-law decay 1 < s < inf, got s={s!r}")
    ns = sorted(int(n) for n in N_list)
    if any(n < 1 for n in ns) or len(set(ns)) < len(ns):
        raise ValueError(f"N_list entries must be positive, distinct chain sizes, got {ns}")
    if len(ns) < 4:
        raise FitError("need at least 4 chain sizes to fit the gap error")
    x, xi = np.asarray(ns, dtype=float), np.array([abs(gap_error(N, s, G)) for N in ns])
    return loglog_fit(x, xi, window=(ns[0], ns[-1])), x, xi
