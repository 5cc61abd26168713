"""Mappings between harmonic chains and star (open-system) models.

chain -> star: remove the probe node from the circulant interaction matrix,
diagonalize the remaining symmetric Toeplitz block, and read off effective
mode frequencies and couplings g_i = sum_j [O]_{ji} G_{1j}.  Reflection
symmetry decouples exactly half of the modes.

star -> chain: the non-repeated chain frequencies are the cosine half of
the discrete Fourier transform of the circulant's first row
(Om^2, G_1, .., G_N, G_N, .., G_1), so a chain matching a given
(discretized) star is one inverse real DFT of its normal-mode spectrum.
That spectrum is the secular equation of the star's arrowhead potential,
solved root by root with LAPACK's dlasd4: O(N^2) time, O(N) memory and
no BLAS, so the same bits for any BLAS thread count.  The probe's entry
of each normal mode follows from the same roots in closed form, and
probe_delocalization's profile is one more inverse real DFT.  Only
chain -> star uses a dense eigh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, chain_spectrum, gapless_frequency_sq, power_law_chain
from .errors import ConvergenceError, ModeMatchingError
from .fits import ScalingFit, _r_squared
from .spectral import DiscreteModes, StarSpec, renormalization_frequency_sq

# Eigenvalue clusters narrower than this relative width are treated as
# degenerate: eigensolvers rotate freely inside them, so only the summed
# squared coupling per cluster is well defined.
DEGENERACY_REL_WIDTH = 1e-8

# Couplings below this fraction of the largest one count as decoupled.
DECOUPLED_REL_THRESHOLD = 1e-10

# Star-mode indices n (ascending frequency) at which star_coupling_scaling
# fits g_n ~ n N^(-3/2).
COUPLING_FIT_INDICES = (3, 5, 8)


def eigh(*args, **kwargs):
    """scipy's eigh, imported on first call: scipy takes ~0.5 s to import."""
    from scipy.linalg import eigh

    return eigh(*args, **kwargs)


def dlasd4(*args, **kwargs):
    """LAPACK's dlasd4 secular-equation root, from scipy on first call.

    Returns (delta, sigma, work, info); the root index is 0-based.
    """
    from scipy.linalg.lapack import dlasd4

    return dlasd4(*args, **kwargs)


@dataclass(frozen=True)
class EffectiveStar:
    """Star picture of one chain node against the rest of the chain."""

    probe_omega_sq: float
    coupled_modes: tuple[tuple[float, float], ...]
    decoupled_count: int
    warnings: tuple[str, ...] = ()

    @property
    def omega_array(self) -> np.ndarray:
        return np.array([w for w, _ in self.coupled_modes])

    @property
    def g_array(self) -> np.ndarray:
        return np.array([g for _, g in self.coupled_modes])

    def to_star_spec(self) -> StarSpec:
        """StarSpec with the bare probe frequency w0^2 = Om^2 - wR^2."""
        sd = DiscreteModes(tuple(self.omega_array), tuple(self.g_array))
        wr2 = renormalization_frequency_sq(sd)
        omega0_sq = max(self.probe_omega_sq - wr2, 0.0)
        return StarSpec(omega0_sq=omega0_sq, omega_R_sq=wr2, sd=sd, warnings=self.warnings)


@dataclass(frozen=True)
class DelocalizationProfile:
    """Expansion q0 = sum_a d_a Q_a of the probe over the chain nodes."""

    coefficients: tuple[float, ...]

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)

    @property
    def normalization(self) -> float:
        return float(np.sum(self.array**2))


@dataclass(frozen=True)
class ChainReconstruction:
    """star_to_chain output: the chain and whether its couplings are physical."""

    chain: ChainSpec
    physical: bool


def chain_to_star(c: ChainSpec) -> EffectiveStar:
    """Diagonalize the inaccessible part of the chain into effective modes.

    Degenerate eigenvalue clusters carry one aggregated coupling
    sqrt(sum g^2); couplings below DECOUPLED_REL_THRESHOLD of the maximum
    count as decoupled (reflection antisymmetry gives exact zeros only in
    exact arithmetic).  A (2N+1)-node chain is expected to keep exactly N
    coupled modes.
    """
    # the Toeplitz block of the non-probe nodes, bordered by their couplings
    first_row = np.concatenate(([c.omega_sq], c.coupling_array, c.coupling_array[::-1]))
    idx = np.arange(1, 2 * c.N + 1)
    vals, vecs = eigh(first_row[(idx[:, None] - idx[None, :]) % (2 * c.N + 1)])
    g = vecs.T @ first_row[idx]
    gmax = float(np.max(np.abs(g))) if g.size else 0.0
    threshold = DECOUPLED_REL_THRESHOLD * gmax

    coupled: list[tuple[float, float]] = []
    decoupled = 0
    i = 0
    n_total = vals.size
    while i < n_total:
        j = i + 1
        while j < n_total and (vals[j] - vals[j - 1]) <= DEGENERACY_REL_WIDTH * max(
            abs(vals[j]), abs(vals[j - 1])
        ):
            j += 1
        cluster_g_sq = float(np.sum(g[i:j] ** 2))
        size = j - i
        if np.sqrt(cluster_g_sq) > threshold:
            w_sq = float(np.mean(vals[i:j]))
            coupled.append((float(np.sqrt(max(w_sq, 0.0))), float(np.sqrt(cluster_g_sq))))
            decoupled += size - 1
        else:
            decoupled += size
        i = j

    warnings: tuple[str, ...] = ()
    if decoupled != c.N:
        warnings = (
            f"reflection symmetry predicts {c.N} decoupled modes, found {decoupled}",
        )
    coupled.sort(key=lambda p: p[0])
    return EffectiveStar(
        probe_omega_sq=c.omega_sq,
        coupled_modes=tuple(coupled),
        decoupled_count=decoupled,
        warnings=warnings,
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


def clm_normal_modes(star: StarSpec) -> np.ndarray:
    """Squared normal-mode frequencies of the (N+1)-particle discrete star.

    The arrowhead potential V equals M M^T for the upper-arrow matrix
    M = [[w0, g_1/w_1, .., g_N/w_N], [0, diag(w)]]: its corner is
    w0^2 + sum g^2/w^2, the wR^2 StarSpec holds to 1e-10.  So V has the
    eigenvalues of M^T M = D^2 + z z^T with d = (0, w_1, .., w_N) and
    z = (w0, g/w).  Components with z_j = 0 (w0^2 = 0, or a decoupled
    mode) are exact eigenvalues d_j^2 and are set aside; dlasd4 solves the
    secular equation of the rest one root at a time, each to a relative
    error of O(N eps).  O(N^2) time and O(N) memory, no BLAS.  Returned in
    descending order; the output strictly interlaces the coupled reservoir
    frequencies.  ConvergenceError names a root dlasd4 could not find.
    """
    d, live, d_live, u, rho = _secular_system(star)
    sigma = np.empty(d_live.size)
    for i in range(d_live.size):
        _, sigma[i], _, info = dlasd4(i, d_live, u, rho)
        if info != 0:
            raise ConvergenceError(f"dlasd4 found no star normal mode {i} (info={info})")
    return np.sort(np.concatenate((sigma * sigma, d[~live] ** 2)))[::-1]


def _fix_sign(row: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(row)))
    return -row if row[k] < 0.0 else row


def _probe_entry(y: np.ndarray) -> float:
    """Probe entry of the unit eigenvector along (1, y), signed by _fix_sign."""
    x = np.concatenate(([1.0], y))
    return float(_fix_sign(x)[0]) / float(np.sqrt(np.dot(x, x)))


def _probe_column(star: StarSpec) -> tuple[np.ndarray, np.ndarray]:
    """clm_normal_modes' roots lam, descending, and the probe column c.

    V's eigenvector of root lam is along (1, g_i/(lam - w_i^2)), signed by
    _fix_sign's rule; lam - w_i^2 = -(d_i - sigma)(d_i + sigma) comes from
    dlasd4's delta and work, not by subtraction (Gu and Eisenstat, SIAM J.
    Matrix Anal. Appl. 16, 172 (1995)).  Of the roots set aside, a
    decoupled mode has c = 0 and the free probe's lam = 0 is (1, -g/w^2).
    """
    d, live, d_live, u, rho = _secular_system(star)
    g_live = star.sd.g_array[live[1:]]
    skip = int(live[0])  # dlasd4's component of the probe itself, if live
    lam = np.concatenate((np.empty(d_live.size), d[~live] ** 2))
    c = np.zeros(lam.size)
    for i in range(d_live.size):
        delta, sigma, work, info = dlasd4(i, d_live, u, rho)
        if info != 0:
            raise ConvergenceError(f"dlasd4 found no star normal mode {i} (info={info})")
        lam[i] = sigma * sigma
        c[i] = _probe_entry(g_live / -(delta[skip:] * work[skip:]))
    if not live[0]:
        c[d_live.size] = _probe_entry(-g_live / d_live**2)
    order = np.argsort(lam)[::-1]
    return lam[order], c[order]


def probe_delocalization(star: StarSpec) -> DelocalizationProfile:
    """Coefficients of the probe position over the matching chain's nodes.

    Builds the chain with star_to_chain of the star's normal modes, checks
    that its non-repeated modes reproduce them to 1e-6 of the largest mode
    (ModeMatchingError otherwise), and reads the probe row of
    (O_star^T oplus 1_N) O_chain, which sums to 1 in squares.  O(N^2) time
    and O(N) memory: no dense matrix.
    """
    ev, c = _probe_column(star)
    chain = star_to_chain(ev).chain
    spec = chain_spectrum(chain).array
    # chain_spectrum index a carries ev[a] by construction of star_to_chain;
    # the DFT round trip rounds at the scale of the largest mode, so a
    # nearly free probe's tiny lowest mode is matched on that scale too
    mismatch = np.abs(spec - ev) > 1e-6 * float(np.max(ev))
    if np.any(mismatch):
        bad = int(np.argmax(mismatch))
        raise ModeMatchingError(
            f"chain mode {bad} at {spec[bad]!r} does not match star mode {ev[bad]!r}"
        )

    # d_j = c_0/sqrt(n) + sqrt(2/n) sum_a c_a cos(2 pi a j/n), one inverse
    # real DFT: the sine modes carry no amplitude on the probe node
    n_nodes = 2 * chain.N + 1
    spectrum = c * np.sqrt(n_nodes / 2.0)
    spectrum[0] = c[0] * np.sqrt(n_nodes)
    profile = _fix_sign(np.fft.irfft(spectrum, n=n_nodes))
    return DelocalizationProfile(coefficients=tuple(float(x) for x in profile))


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
    if max(COUPLING_FIT_INDICES) >= min(sizes):
        raise ValueError(f"mode indices {COUPLING_FIT_INDICES} must lie below the smallest size")
    rows = []
    for size in sizes:
        chain = power_law_chain(size, 0.0, t=s)
        chain = ChainSpec(
            N=size,
            omega_sq=gapless_frequency_sq(size, chain.couplings),
            couplings=chain.couplings,
        )
        star = chain_to_star(chain)
        gs = star.g_array  # ascending frequency order
        for n in COUPLING_FIT_INDICES:
            rows.append((float(n), float(size), float(gs[n - 1])))
    pts = np.array(rows)
    design = np.column_stack([np.log(pts[:, 0]), np.log(pts[:, 1]), np.ones(len(pts))])
    target = np.log(pts[:, 2])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    r2 = _r_squared(target, target - design @ coef)
    n_fit = ScalingFit(
        kind="power_law",
        exponent_or_gap=float(coef[0]),
        prefactor=float(np.exp(coef[2])),
        r_squared=r2,
        window=(float(min(COUPLING_FIT_INDICES)), float(max(COUPLING_FIT_INDICES))),
        n_points=len(rows),
    )
    size_fit = ScalingFit(
        kind="power_law",
        exponent_or_gap=float(coef[1]),
        prefactor=float(np.exp(coef[2])),
        r_squared=r2,
        window=(float(sizes[0]), float(sizes[-1])),
        n_points=len(rows),
    )
    return n_fit, size_fit
