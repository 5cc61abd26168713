"""Translationally invariant harmonic chains (2N+1 nodes, periodic).

The interaction matrix is circulant, so the squared normal-mode
frequencies are exact cosine sums,

    Om_a^2 = Om^2 + 2 sum_k G_k cos(2 pi k a / (2N+1)),  a = 0..N,

with a = 1..N doubly degenerate.  A node's state is gaussian's mode sum
over them with the circulant weights (1/(2N+1) for a = 0, 2/(2N+1) else;
the sine partner of a degenerate pair has no amplitude on the node): exact,
with no eigensolver, the spectrum once per sweep, O(N) per temperature.
The cosine table is symmetric in k and a, so chain_spectrum computes each
cosine once, in row tiles, and still sums every mode over k in increasing
order (one-column updates by cumsum, since numpy sums a single column
pairwise): the values are those of the one-shot table, bit for bit.
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

# Rows k of the cosine table in one chain_spectrum tile.
_SPECTRUM_BLOCK = 32


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
        g = np.asarray(self.couplings, dtype=float)
        if not (abs(self.omega_sq) < math.inf and np.all(np.abs(g) < math.inf)):
            raise ValueError("omega_sq and the couplings must be finite")
        object.__setattr__(self, "couplings", tuple(g.tolist()))

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


def _add_rows(head: np.ndarray, g: np.ndarray, cos_rows: np.ndarray) -> np.ndarray:
    """head + g[0] cos_rows[0] + g[1] cos_rows[1] + ..., added in that order.

    The rows go into one C-contiguous buffer, which numpy reduces over axis 0
    row by row; a single column it would sum pairwise, so cumsum takes it.
    """
    buf = np.empty((g.size + 1, head.size))
    buf[0] = head
    np.multiply(g[:, None], cos_rows, out=buf[1:])
    return np.cumsum(buf)[-1:] if head.size == 1 else buf.sum(axis=0)


def chain_spectrum(c: ChainSpec) -> ChainSpectrum:
    """Exact spectrum by trigonometric evaluation (no eigensolver).

    Each Om_a^2 sums g_k cos(2 pi k a / (2N+1)) over k = 1..N in increasing
    order, bit for bit as a one-shot N x (N+1) table would.  The table is
    symmetric in k and a >= 1, so only its upper triangle is computed, in
    tiles of _SPECTRUM_BLOCK rows (memory O(N)).  A tile of rows k0..k1 and
    modes a >= k0 is used twice: its rows extend the running sums of the
    modes a > k1, and its transpose adds rows k >= k0 to the modes k0..k1,
    which completes them.  Running sums start at -0.0, which adds to any
    first term exactly; mode 0 (cos 0 = 1) is the running sum of g.
    """
    N = c.N
    k = np.arange(1, N + 1, dtype=float)
    g = c.coupling_array
    sums = np.full(N + 1, -0.0)
    sums[0] = np.cumsum(g)[-1]
    for r0 in range(0, N, _SPECTRUM_BLOCK):
        r1 = min(r0 + _SPECTRUM_BLOCK, N)
        t = np.outer(k[r0:r1], k[r0:])
        np.multiply(2.0 * np.pi, t, out=t)
        np.divide(t, 2 * N + 1, out=t)
        np.cos(t, out=t)
        sums[r1 + 1 :] = _add_rows(sums[r1 + 1 :], g[r0:r1], t[:, r1 - r0 :])
        sums[r0 + 1 : r1 + 1] = _add_rows(sums[r0 + 1 : r1 + 1], g[r0:], t.T)
    vals = c.omega_sq + 2.0 * sums
    floor = -1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if np.min(vals) < floor:
        raise UnstableChainError(
            f"spectrum not bounded below: min Om_a^2 = {float(np.min(vals))!r}"
        )
    return ChainSpectrum(tuple(np.maximum(vals, 0.0).tolist()))


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
    """(frequencies, probe-node weights), by gaussian's zero-mode rule."""
    hint = "pass regularize_gapless=True to clamp it to the gap floor"
    om = _mode_frequencies(c.spectrum.array, regularize_gapless, hint)
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
    return _mode_sums(*_node_mode_data(c, regularize_gapless), ts)


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
    if not 1.0 < s < math.inf:
        raise ValueError(f"gap_error_scaling requires power-law decay 1 < s < inf, got s={s!r}")
    ns = sorted(int(n) for n in N_list)
    if any(n < 1 for n in ns):
        raise ValueError(f"N_list entries must be positive chain sizes, got {ns}")
    if len(ns) < 4:
        raise FitError("need at least 4 chain sizes to fit the gap error")
    xi = [abs(gap_error(N, s, G)) for N in ns]
    return loglog_fit(np.asarray(ns, dtype=float), np.asarray(xi), window=(ns[0], ns[-1]))

