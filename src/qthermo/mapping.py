"""Mappings between harmonic chains and star (open-system) models.

chain -> star: remove the probe node from the circulant interaction matrix.
The rest is centrosymmetric, so reflection splits it exactly into a
mirror-antisymmetric half that never couples to the probe and an N x N
mirror-symmetric half bordered by sqrt(2) G; one eigh of that half gives
the effective mode frequencies and couplings.

star -> chain: the non-repeated chain frequencies are the cosine half of
the discrete Fourier transform of the circulant's first row
(Om^2, G_1, .., G_N, G_N, .., G_1), so a chain matching a given
(discretized) star is one inverse real DFT of its normal-mode spectrum.
That spectrum is the secular equation of the star's arrowhead potential,
solved root by root with LAPACK's dlasd4: O(N^2) time, O(N) memory and
no BLAS, so the same bits for any BLAS thread count.  The probe's weight
c^2 in each normal mode follows from the same roots in closed form.  Only
chain -> star uses a dense eigh (numpy's), of the N x N half.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainSpec, gapless_frequency_sq, power_law_chain
from .errors import ConvergenceError
from .fits import ScalingFit, _linear_fit
from .spectral import DiscreteModes, StarSpec, _module

# Star-mode indices n (ascending frequency) at which star_coupling_scaling
# fits g_n ~ n N^(-3/2).
COUPLING_FIT_INDICES = (3, 5, 8)


def eigh(*args, **kwargs):
    """numpy's dense symmetric eigensolver, named here so its calls can be traced."""
    return np.linalg.eigh(*args, **kwargs)


def dlasd4(*args, **kwargs):
    """LAPACK's dlasd4 secular-equation root: (delta, sigma, work, info), 0-based index."""
    return _module("scipy.linalg.lapack").dlasd4(*args, **kwargs)


@dataclass(frozen=True)
class EffectiveStar:
    """Star picture of one chain node against the rest of the chain."""

    omega0_sq: float
    coupled_modes: tuple[tuple[float, float], ...]
    decoupled_count: int

    @property
    def omega_array(self) -> np.ndarray:
        return np.array([w for w, _ in self.coupled_modes])

    @property
    def g_array(self) -> np.ndarray:
        return np.array([g for _, g in self.coupled_modes])


@dataclass(frozen=True)
class ChainReconstruction:
    """star_to_chain output: the chain and whether its couplings are physical."""

    chain: ChainSpec
    physical: bool


def chain_to_star(c: ChainSpec) -> EffectiveStar:
    """Diagonalize the inaccessible part of the chain into effective modes.

    The 2N non-probe nodes form a centrosymmetric block, so the mirror
    x_j -> x_{2N+1-j} splits it exactly: the antisymmetric half never
    touches the probe, and the symmetric half is the N x N block
    row[(i-j) % n] + row[(i+j) % n], i, j = 1..N, n = 2N+1, with border
    sqrt(2) G_j.  One eigh of it gives the modes in ascending order and
    g = |V^T sqrt(2) G|; only exact zeros count as decoupled.  The bare
    probe frequency is the Schur complement 1/G_00(0) = 1/sum_a p_a/Om_a^2
    over the chain's own spectrum, exact where Om^2 - sum g^2/w^2 would
    lose ~eps Om^2/Delta^2 relative on a small gap Delta.
    """
    n = c.n_nodes
    row = np.concatenate(([c.omega_sq], c.coupling_array, c.coupling_array[::-1]))
    idx = np.arange(1, c.N + 1)
    vals, vecs = eigh(row[(idx[:, None] - idx) % n] + row[(idx[:, None] + idx) % n])
    g = np.abs(vecs.T @ (np.sqrt(2.0) * c.coupling_array))
    coupled = g != 0.0
    omegas = np.sqrt(np.maximum(vals[coupled], 0.0))
    spec = c.spectrum
    with np.errstate(divide="ignore", over="ignore"):
        omega0_sq = 1.0 / float(np.sum(spec.node_weights / spec.array))
    return EffectiveStar(
        omega0_sq=omega0_sq,
        coupled_modes=tuple(zip(omegas.tolist(), g[coupled].tolist())),
        decoupled_count=2 * c.N - int(np.count_nonzero(coupled)),
    )


def star_to_chain(normal_freqs_sq) -> ChainReconstruction:
    """Chain whose non-repeated spectrum is the given one, by inverse real DFT.

    Input: the N+1 non-repeated squared frequencies in descending order;
    index a is assigned to the chain mode Om_a^2.  The circulant eigenvalues
    Om_a^2 = Om^2 + 2 sum_k G_k cos(2 pi k a/(2N+1)) are the DFT of the
    first row (Om^2, G_1, .., G_N, G_N, .., G_1), so irfft(Om_vec, 2N+1)
    returns that row exactly, in O(N log N).

    No conditioning guard is needed: the cosine matrix
    [A]_{ak} = cos(2 pi a k/(2N+1)) of the equivalent linear system satisfies
    (S A S)^2 = (2N+1) 1 with S = diag(1, sqrt 2, .., sqrt 2), so
    S A S/sqrt(2N+1) is an orthogonal involution and cond(A) <= cond(S)^2 = 2
    for every N.  Unphysical couplings (sign-mixed) are returned flagged,
    not rejected.
    """
    freqs = np.asarray(list(normal_freqs_sq), dtype=float)
    if freqs.size < 2:
        raise ValueError("need at least 2 frequencies")
    if not np.all((0.0 <= freqs) & (freqs < np.inf)):
        raise ValueError("squared frequencies must be finite and non-negative")
    if np.any(np.diff(freqs) >= 0.0):
        raise ValueError("frequencies must be strictly descending and distinct")
    n_half = freqs.size - 1
    row = np.fft.irfft(freqs, n=2 * n_half + 1)
    couplings = row[1 : n_half + 1]
    scale = float(np.max(np.abs(couplings)))
    physical = bool(np.all(couplings >= -1e-12 * max(scale, 1.0)))
    chain = ChainSpec(N=n_half, omega_sq=float(row[0]), couplings=tuple(couplings))
    return ChainReconstruction(chain=chain, physical=physical)


def _secular_system(star: StarSpec):
    """d, the mask of z != 0, and dlasd4's (d_live, u, rho) for D^2 + z z^T."""
    sd = star.sd
    if not isinstance(sd, DiscreteModes):
        raise TypeError("the star must have discrete modes")
    w = sd.omega_array
    d = np.concatenate(([0.0], w))
    z = np.concatenate(([np.sqrt(star.omega0_sq)], sd.g_array / w))
    live = z != 0.0
    rho = float(np.sum(z[live] ** 2))
    return d, live, d[live], z[live] / np.sqrt(rho), rho


def _roots(d_live: np.ndarray, u: np.ndarray, rho: float):
    """dlasd4's (delta, sigma, work) for each secular root, ascending.

    delta = d - sigma and work = d + sigma, except that for a single pole
    dlasd4 returns both as 1; there d - sigma = -rho u^2/(d + sigma).
    """
    for i in range(d_live.size):
        delta, sigma, work, info = dlasd4(i, d_live, u, rho)
        if info != 0:
            raise ConvergenceError(f"dlasd4 found no star normal mode {i} (info={info})")
        if d_live.size == 1:
            work = d_live + sigma
            delta = -rho * u * u / work
        yield delta, sigma, work


def clm_normal_modes(star: StarSpec) -> np.ndarray:
    """Squared normal-mode frequencies of the (N+1)-particle discrete star.

    The arrowhead potential V equals M M^T for the upper-arrow matrix
    M = [[w0, g_1/w_1, .., g_N/w_N], [0, diag(w)]]: its corner is
    w0^2 + sum g^2/w^2, the wR^2 StarSpec derives from the modes.  So V has the
    eigenvalues of M^T M = D^2 + z z^T with d = (0, w_1, .., w_N) and
    z = (w0, g/w).  Components with z_j = 0 (w0^2 = 0, or a decoupled
    mode) are exact eigenvalues d_j^2 and are set aside; dlasd4 solves the
    secular equation of the rest one root at a time, each to a relative
    error of O(N eps).  O(N^2) time and O(N) memory, no BLAS.  Returned in
    descending order; the output strictly interlaces the coupled reservoir
    frequencies.  ConvergenceError names a root dlasd4 could not find.
    """
    d, live, d_live, u, rho = _secular_system(star)
    sigma = np.array([s for _, s, _ in _roots(d_live, u, rho)])
    return np.sort(np.concatenate((sigma * sigma, d[~live] ** 2)))[::-1]


def _probe_column(star: StarSpec) -> tuple[np.ndarray, np.ndarray]:
    """clm_normal_modes' roots lam, descending, and the probe's weights c^2.

    V's eigenvector of root lam is along (1, y) with y_i = g_i/(lam - w_i^2),
    so c^2 = 1/(1 + sum y_i^2); lam - w_i^2 = -(d_i - sigma)(d_i + sigma)
    comes from dlasd4's delta and work, not by subtraction (Gu and
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)).  Of the roots set
    aside, a decoupled mode has c^2 = 0 and the free probe's lam = 0 has
    y = -g/w^2.
    """
    d, live, d_live, u, rho = _secular_system(star)
    g_live = star.sd.g_array[live[1:]]
    skip = int(live[0])  # dlasd4's component of the probe itself, if live
    lam = np.concatenate((np.empty(d_live.size), d[~live] ** 2))
    c2 = np.zeros(lam.size)
    for i, (delta, sigma, work) in enumerate(_roots(d_live, u, rho)):
        lam[i] = sigma * sigma
        c2[i] = 1.0 / (1.0 + np.sum((g_live / (delta[skip:] * work[skip:])) ** 2))
    if not live[0]:
        c2[d_live.size] = 1.0 / (1.0 + np.sum((g_live / d_live**2) ** 2))
    order = np.argsort(lam)[::-1]
    return lam[order], c2[order]


def star_coupling_scaling(s: float, N_list) -> tuple[ScalingFit, ScalingFit]:
    """Scaling g_n ~ n N^(-3/2) of star couplings for gapless power-law chains.

    Runs chain_to_star on gapless chains G_n = 1/n^s for each size in
    N_list, then fits ln g = c + p ln n + q ln N jointly over the mode
    indices n in COUPLING_FIT_INDICES (the N-exponent is taken at fixed
    absolute index n).  Returns the pair of ScalingFits (in n, in N).
    """
    sizes = sorted(int(x) for x in N_list)
    if len(sizes) < 2:
        raise ValueError("need at least two chain sizes")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"N_list repeats a chain size: {sizes}")
    if max(COUPLING_FIT_INDICES) >= min(sizes):
        raise ValueError(f"mode indices {COUPLING_FIT_INDICES} must lie below the smallest size")
    rows = []
    for size in sizes:
        g = power_law_chain(size, 0.0, G=1.0, t=s).couplings
        gs = chain_to_star(ChainSpec(size, gapless_frequency_sq(size, g), g)).g_array  # ascending
        rows += [(float(n), float(size), float(gs[n - 1])) for n in COUPLING_FIT_INDICES]
    pts = np.log(rows)
    (p, q), c, r2 = _linear_fit(pts[:, :2], pts[:, 2])
    n_window = (float(COUPLING_FIT_INDICES[0]), float(COUPLING_FIT_INDICES[-1]))
    n_fit = ScalingFit("power_law", p, float(np.exp(c)), r2, n_window, len(rows))
    size_fit = replace(n_fit, exponent_or_gap=q, window=(float(sizes[0]), float(sizes[-1])))
    return n_fit, size_fit
