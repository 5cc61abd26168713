"""Tests for TIHC spectra, node thermometry, and gap-error scaling.

The dense-eigensolver oracle builds the full (2N+1)x(2N+1) circulant
matrix and evaluates the node covariance from eigenvectors, independent of
the analytic cosine weights used by the implementation.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

from qthermo import (
    ChainSpec,
    LorentzDrude,
    SteadyStateQuery,
    UnstableChainError,
    ZeroModeError,
    chain_spectrum,
    fit_exponential_gap,
    fit_power_law,
    gap_error_scaling,
    gapless_frequency_sq,
    make_star,
    node_covariances,
    node_moments,
    node_qfi,
    power_law_chain,
    thermal_mode_covariance,
    thermal_mode_derivatives,
)
from qthermo import chain as chain_mod
from qthermo.chain import gap_error
from qthermo.gaussian import QfiCurve, qfi_from_derivatives, qfi_from_fidelity


def dense_node_covariance(c: ChainSpec, T: float):
    """Oracle: diagonalize the full circulant matrix and read the probe-node
    eigenvector weights directly."""
    first_row = np.concatenate(([c.omega_sq], c.coupling_array, c.coupling_array[::-1]))
    n = 2 * c.N + 1
    idx = np.arange(n)
    v = first_row[(idx[:, None] - idx[None, :]) % n]
    vals, vecs = np.linalg.eigh(v)
    om = np.sqrt(np.clip(vals, 0.0, None))
    w = vecs[0, :] ** 2
    nu = 1.0 / np.tanh(om / (2.0 * T))
    s11 = float(np.sum(w * nu / (2.0 * om)))
    s22 = float(np.sum(w * om * nu / 2.0))
    return s11, s22


def exact_mode_sq(c: ChainSpec, a: int):
    """Oracle: Om_a^2 as the cosine sum, at mpmath's working precision."""
    n = c.n_nodes
    cos = (mpmath.cospi(mpmath.mpf(2 * (k * a % n)) / n) for k in range(1, c.N + 1))
    return c.omega_sq + 2 * mpmath.fsum(mpmath.mpf(g) * x for g, x in zip(c.couplings, cos))


def gapped_fig3_chain(N=100, delta=0.01, t=2.5):
    base = power_law_chain(N, 0.0, G=1.0, t=t)
    om2 = gapless_frequency_sq(N, base.couplings) + delta * delta
    return ChainSpec(N=N, omega_sq=om2, couplings=base.couplings)


def gapless_fig3_chain(N=100, t=2.5):
    base = power_law_chain(N, 0.0, G=1.0, t=t)
    om2 = gapless_frequency_sq(N, base.couplings)
    return ChainSpec(N=N, omega_sq=om2, couplings=base.couplings)


class TestChainSpectrum:
    def test_decoupled_chain_is_flat(self):
        c = ChainSpec(N=5, omega_sq=2.0, couplings=(0.0,) * 5)
        spec = chain_spectrum(c)
        assert np.allclose(spec.array, 2.0)
        assert spec.gap == pytest.approx(math.sqrt(2.0))
        assert math.sqrt(np.max(spec.array)) == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("n_half", [1, 31, 32, 33, 63, 64, 65, 255, 256, 257, 641, 2000])
    def test_blocked_table_matches_the_one_shot_table(self, n_half):
        # Sampled modes of a sign-mixed chain (Om^2 = 50) against 30-digit
        # cosine sums: each error within eps times |Om^2| + 2 sum |G_k|, the
        # size of the terms the transform adds.  (The name is the cosine-tile
        # route's; its bit-for-bit check became this oracle.)
        n = np.arange(1, n_half + 1)
        g = np.random.default_rng(n_half).standard_normal(n_half) / n**1.5
        c = ChainSpec(N=n_half, omega_sq=50.0, couplings=tuple(g))
        got = chain_spectrum(c).array
        bound = np.finfo(float).eps * (abs(c.omega_sq) + 2.0 * float(np.sum(np.abs(g))))
        with mpmath.workdps(30):
            for a in sorted({int(x) for x in np.linspace(0, n_half, 16).round()}):
                assert abs(got[a] - float(exact_mode_sq(c, a))) <= bound

    @pytest.mark.parametrize("gapped", [True, False], ids=["gap0.01", "gapless"])
    def test_low_end_matches_40_digit_sums(self, gapped):
        # Absolute rounding at the bottom of the spectrum becomes relative
        # error in the lowest modes, which fig3b's zero mode and a chain ->
        # star secular solve both read (the FFT measured 5.4e-16 here).
        c = gapped_fig3_chain(N=1000) if gapped else gapless_fig3_chain(N=1000)
        got = chain_spectrum(c).array
        with mpmath.workdps(40):
            for a in np.argsort(got)[:6].tolist():
                assert abs(got[a] - float(exact_mode_sq(c, a))) <= 1e-15

    def test_memory_grows_as_O_of_N(self):
        # The transform's working set is a few arrays of 2N+1 floats: its
        # peak at N = 2000 is 0.24 MB on a first call and 0.11 MB after, where
        # a cosine table would take 16 MB.
        c = power_law_chain(2000, 2.0, G=1.0, t=2.5)
        tracemalloc.start()
        try:
            chain_spectrum(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e5

    def test_nearest_neighbor_dispersion(self):
        g = 0.3
        c = ChainSpec(N=40, omega_sq=1.0, couplings=(g,) + (0.0,) * 39)
        spec = chain_spectrum(c)
        a = np.arange(0, 41)
        expected = 1.0 + 2.0 * g * np.cos(2.0 * np.pi * a / 81)
        assert np.allclose(spec.array, expected, atol=1e-14)
        # gap^2 -> Om^2 - 2g as N grows
        big = ChainSpec(N=2000, omega_sq=1.0, couplings=(g,) + (0.0,) * 1999)
        assert chain_spectrum(big).gap**2 == pytest.approx(1.0 - 2.0 * g, abs=1e-6)

    def test_matches_dense_eigensolver(self):
        c = gapped_fig3_chain(N=60)
        spec = chain_spectrum(c)
        first_row = np.concatenate(([c.omega_sq], c.coupling_array, c.coupling_array[::-1]))
        idx = np.arange(2 * c.N + 1)
        v = first_row[(idx[:, None] - idx[None, :]) % (2 * c.N + 1)]
        dense = np.linalg.eigvalsh(v)
        mine = np.sort(np.concatenate([spec.array, spec.array[1:]]))
        assert np.max(np.abs(np.sort(dense) - mine)) < 1e-10 * np.max(spec.array)

    def test_max_frequency_identity(self):
        c = gapped_fig3_chain(N=80)
        spec = chain_spectrum(c)
        assert spec.array[0] == pytest.approx(
            c.omega_sq + 2.0 * float(np.sum(c.coupling_array)), rel=1e-14
        )

    def test_unstable_chain_rejected(self):
        with pytest.raises(UnstableChainError):
            chain_spectrum(ChainSpec(N=10, omega_sq=-5.0, couplings=(0.1,) * 10))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_chain_is_rejected(self, x):
        # used to give an all-NaN or all-inf spectrum without error
        with pytest.raises(ValueError):
            ChainSpec(N=3, omega_sq=1.0, couplings=(0.1, x, 0.01))
        with pytest.raises(ValueError):
            ChainSpec(N=3, omega_sq=x, couplings=(0.1, 0.05, 0.01))


def test_exponential_chain_couplings():
    c = chain_mod.exponential_chain(6, 0.3, G=2.0, c=0.7)
    assert (c.N, c.omega_sq) == (6, 0.3)
    n = np.arange(1, 7)
    assert np.allclose(c.coupling_array, 2.0 * np.exp(-0.7 * n), rtol=1e-15, atol=0.0)


class TestGaplessTuning:
    def test_fig3_value_in_bracket(self):
        base = power_law_chain(100, 0.0, G=1.0, t=2.5)
        om2 = gapless_frequency_sq(100, base.couplings)
        assert 1.7342 <= om2 <= 1.7345
        assert om2 == pytest.approx(1.7342520082242414, rel=1e-12)

    def test_gapless_chain_has_zero_gap(self):
        c = gapless_fig3_chain()
        assert chain_spectrum(c).gap**2 < 1e-12

    def test_large_n_limit_is_alternating_series(self):
        # 2 sum (-1)^(n-1) n^(-2.5) = 2 (1 - 2^(-1.5)) zeta(2.5)
        limit = 2.0 * (1.0 - 2.0 ** (-1.5)) * zeta(2.5)
        base = power_law_chain(20000, 0.0, G=1.0, t=2.5)
        om2 = gapless_frequency_sq(20000, base.couplings)
        assert om2 == pytest.approx(limit, abs=1e-8)

    def test_single_coupling_limit(self):
        g = 0.4
        om2 = gapless_frequency_sq(3000, (g,) + (0.0,) * 2999)
        assert om2 == pytest.approx(2.0 * g, abs=1e-5)


class TestNodeCovariances:
    def test_decoupled_node_is_thermal(self):
        c = ChainSpec(N=8, omega_sq=1.44, couplings=(0.0,) * 8)
        cov = node_covariances(c, 0.7)
        ref = thermal_mode_covariance(1.2, 0.7)
        assert cov.s11 == pytest.approx(ref.s11, rel=1e-14)
        assert cov.s22 == pytest.approx(ref.s22, rel=1e-14)

    def test_zero_point_momentum_is_mean_frequency(self):
        c = gapped_fig3_chain(N=50)
        spec = chain_spectrum(c)
        cov = node_covariances(c, 1e-8)
        w = np.full(51, 2.0 / 101)
        w[0] = 1.0 / 101
        assert cov.s22 == pytest.approx(float(np.sum(w * np.sqrt(spec.array) / 2.0)), rel=1e-12)

    def test_matches_dense_eigensolver_oracle(self):
        c = gapped_fig3_chain(N=100)
        for t in (0.005, 0.05, 0.5):
            cov = node_covariances(c, t)
            s11_o, s22_o = dense_node_covariance(c, t)
            assert cov.s11 == pytest.approx(s11_o, rel=1e-10)
            assert cov.s22 == pytest.approx(s22_o, rel=1e-10)

    def test_zero_mode_requires_regularization(self):
        c = gapless_fig3_chain()
        with pytest.raises(ZeroModeError):
            node_covariances(c, 0.01)
        cov = node_covariances(c, 0.01, regularize_gapless=True)
        assert cov.s11 > 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="zero-mode threshold mismatch: a mode counts as zero below "
        "Om^2 = 1e-12 Om_max^2 but is clamped only below the frequency floor "
        "1e-8 Om_max, so a rounding residue between the two is used as the "
        "mode frequency and sigma11 follows the residue, not the chain",
    )
    def test_gapless_sigma11_ignores_zero_mode_residue(self):
        # fig3b chain at its lowest temperature; a 1e-15 shift of Om^2 moves
        # the zero-mode residue (~1.3e-15) but nothing physical
        c = gapless_fig3_chain()
        nudged = ChainSpec(N=c.N, omega_sq=c.omega_sq + 1e-15, couplings=c.couplings)
        t = 1e-3
        f, f_nudged = (node_qfi(x, t, regularize_gapless=True) for x in (c, nudged))
        assert f_nudged == pytest.approx(f, rel=1e-8)
        cov, cov_nudged = (
            node_covariances(x, t, regularize_gapless=True) for x in (c, nudged)
        )
        assert cov_nudged.s11 == pytest.approx(cov.s11, rel=1e-6)

    def test_derivatives_match_finite_differences(self):
        c = gapped_fig3_chain(N=40)
        t, h = 0.05, 1e-6
        der = node_moments(c, [t], regularize_gapless=False)[1][0]
        up = node_covariances(c, t + h)
        dn = node_covariances(c, t - h)
        assert der.a1 == pytest.approx((up.s11 - dn.s11) / (2 * h), rel=1e-6)
        assert der.a2 == pytest.approx((up.s22 - dn.s22) / (2 * h), rel=1e-6)


class TestNodeMoments:
    @pytest.mark.parametrize("gapless", [False, True])
    def test_sweep_equals_per_temperature_calls(self, monkeypatch, gapless):
        c = gapless_fig3_chain() if gapless else gapped_fig3_chain()
        ts = np.geomspace(1e-3, 1e-1, 9)
        built = []
        spectrum = chain_mod.chain_spectrum
        monkeypatch.setattr(chain_mod, "chain_spectrum", lambda x: built.append(x) or spectrum(x))
        covs, ders = node_moments(c, ts, regularize_gapless=gapless)
        assert len(built) == 1  # the spectrum is built once per sweep
        assert covs.s11.shape == covs.s22.shape == ders.a1.shape == ders.a2.shape == ts.shape
        qfis = qfi_from_derivatives(covs, ders)
        for i, t in enumerate(ts.tolist()):
            assert covs[i] == node_covariances(c, t, regularize_gapless=gapless)
            assert ders[i] == node_moments(c, [t], regularize_gapless=gapless)[1][0]
            assert qfis[i] == qfi_from_derivatives(covs[i], ders[i]) == node_qfi(c, t, regularize_gapless=gapless)


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
def test_bad_temperature_is_rejected(T):
    # a NaN used to pass as "large x" in coth and return the T = 0 state;
    # the gapless chain shows the temperature check comes before the
    # zero-mode check.  A thermal mode's omega takes the same bad values
    # (NaN and inf used to give NaN or inf moments).
    c = gapless_fig3_chain(N=10)
    star = make_star(LorentzDrude(0.1, 100.0), omega0_sq=1.0)
    calls = (
        lambda: node_moments(c, [0.1, T], regularize_gapless=False),
        lambda: node_covariances(c, T),
        lambda: node_moments(c, [T], regularize_gapless=False)[1][0],
        lambda: node_qfi(c, T),
        lambda: SteadyStateQuery(star=star, T=T),
        lambda: thermal_mode_covariance(1.0, T),
        lambda: thermal_mode_derivatives(1.0, T),
        lambda: thermal_mode_covariance(T, 1.0),
        lambda: thermal_mode_derivatives(T, 1.0),
        lambda: qfi_from_fidelity(lambda t: thermal_mode_covariance(1.0, 1.0), T, 1e-3),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ChainSpec(N=0, omega_sq=1.0, couplings=()), "N must be >= 1"),
        (lambda: ChainSpec(N=2, omega_sq=1.0, couplings=(1.0,)), "need exactly N=2 couplings"),
        (lambda: gapless_frequency_sq(3, [1.0]), "couplings length must equal N"),
    ],
    ids=["N=0", "ChainSpec-couplings", "gapless-couplings"],
)
def test_bad_chain_shape_is_rejected(call, match):
    # N = 0 with no couplings, and one coupling broadcast over N = 3, pass
    # every other check
    with pytest.raises(ValueError, match=match):
        call()


class TestNodeQfi:
    def test_decoupled_equals_thermal_qfi(self):
        c = ChainSpec(N=6, omega_sq=1.0, couplings=(0.0,) * 6)
        ref = qfi_from_derivatives(
            thermal_mode_covariance(1.0, 0.8), thermal_mode_derivatives(1.0, 0.8)
        )
        assert node_qfi(c, 0.8) == pytest.approx(ref, rel=1e-12)

    def test_gapless_inverse_square_low_t(self):
        # fig3b recipe: log-log slope -2 over T in [1e-3, 1e-2]; the prefactor
        # matches the free-probe law F = 1/(2 T^2)
        c = gapless_fig3_chain()
        ts = np.geomspace(1e-3, 1e-2, 25)
        fs = [node_qfi(c, float(t), regularize_gapless=True) for t in ts]
        fit = fit_power_law(QfiCurve(tuple(ts), tuple(fs)))
        assert fit.exponent_or_gap == pytest.approx(-2.0, abs=0.1)
        assert 2.0 * ts[0] ** 2 * fs[0] == pytest.approx(1.0, abs=0.05)

    def test_gapped_exponential_crossover_window(self):
        # in the crossover window beta*Delta in [2, 6.5] the semilog slope
        # tracks -Delta; much deeper the decay steepens toward -2*Delta
        # because the node marginal stays full rank (see decisions ledger)
        c = gapped_fig3_chain()
        ts = np.geomspace(1.0 / 650.0, 1.0 / 200.0, 25)
        fs = [node_qfi(c, float(t)) for t in ts]
        fit = fit_exponential_gap(QfiCurve(tuple(ts), tuple(fs)))
        assert fit.exponent_or_gap == pytest.approx(0.01, rel=0.1)

    def test_gapped_deep_tail_steepens(self):
        c = gapped_fig3_chain()
        ts = np.geomspace(1.0 / 1500.0, 1.0 / 200.0, 30)
        fs = [node_qfi(c, float(t)) for t in ts]
        fit = fit_exponential_gap(QfiCurve(tuple(ts), tuple(fs)))
        assert 0.013 <= fit.exponent_or_gap <= 0.016

    def test_gapped_deep_beta_asymptote(self):
        # ROADMAP item 13's oracle, criterion 6a's xfail reason as a formula:
        # as T -> 0 only the lowest mode, Delta with weight p0, enters the
        # derivatives, a1 = p0 e^(-Delta/T)/T^2 and a2 = Delta^2 a1, while the
        # covariance tends to its T = 0 value; the node's T = 0 state is
        # mixed, 16 s11(0)^2 s22(0)^2 > 1, so F ~ beta^4 e^(-2 Delta beta)
        c = gapped_fig3_chain()
        spec = c.spectrum
        om, p = np.sqrt(spec.array), spec.node_weights
        p0, delta = p[np.argmin(om)], spec.gap
        assert p0 == 2.0 / 201.0 and delta == pytest.approx(0.01, rel=1e-9)
        s11, s22 = np.sum(p / (2.0 * om)), np.sum(p * om / 2.0)
        errors = []
        for beta in (650.0, 1500.0, 3000.0, 6000.0):
            a1 = p0 * math.exp(-delta * beta) * beta**2
            a2 = delta**2 * a1
            num = a1 * a2 + 2.0 * s11**2 * a2**2 + 2.0 * s22**2 * a1**2
            f_asym = 4.0 * num / (16.0 * s11**2 * s22**2 - 1.0)
            errors.append(abs(node_qfi(c, 1.0 / beta) / f_asym - 1.0))
        assert all(b < a for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= 1e-12, errors

    def test_gapless_dominates_gapped(self):
        gapped = gapped_fig3_chain()
        gapless = gapless_fig3_chain()
        for t in np.geomspace(1e-4, 1e-2, 8):
            f_gapless = node_qfi(gapless, float(t), regularize_gapless=True)
            f_gapped = node_qfi(gapped, float(t))
            assert f_gapless >= f_gapped


class TestGapErrorScaling:
    @pytest.mark.parametrize("n_half,s", [(7, 3.0), (50, 2.5), (201, 1.5)])
    def test_gap_error_is_spectrum_residual(self, n_half, s):
        # Xi(N) = Delta^2(N) - [Om^2 - 2 sum (-1)^(n-1) G_n] for any Om^2
        c = gapped_fig3_chain(N=n_half, delta=0.3, t=s)
        alt = 2.0 * sum((-1) ** (n - 1) * g for n, g in enumerate(c.couplings, start=1))
        delta_sq = float(np.min(chain_spectrum(c).array))
        assert gap_error(n_half, s, G=1.0) == pytest.approx(delta_sq - c.omega_sq + alt, abs=1e-12)

    @pytest.mark.parametrize(
        "s,lo,hi",
        [
            (3.0, -2.1, -1.9),
            (2.5, -2.1, -1.9),
            (2.0, -2.2, -1.8),
            (1.5, -1.6, -1.4),
            (1.2, -1.3, -1.1),
        ],
    )
    def test_exponent_table(self, s, lo, hi):
        fit = gap_error_scaling(s, 1.0, [50, 100, 200, 400, 800])
        assert lo <= fit.exponent_or_gap <= hi

    @pytest.mark.parametrize("s", [math.nan, math.inf, 1.0, 0.5])
    def test_bad_decay_exponent_is_rejected(self, s):
        with pytest.raises(ValueError, match="s="):
            gap_error_scaling(s, 1.0, [50, 100, 200, 400])

    @pytest.mark.parametrize("n_list", [[-5, 10, 20, 40], [0, 10, 20, 40]])
    def test_non_positive_chain_size_is_rejected(self, n_list):
        with pytest.raises(ValueError, match="N_list"):
            gap_error_scaling(3.0, 1.0, n_list)

    @pytest.mark.parametrize(
        "N,s,G,name",
        [
            (0, 3.0, 1.0, "N="),
            (-5, 3.0, 1.0, "N="),
            (5, math.nan, 1.0, "s="),
            (5, math.inf, 1.0, "s="),
            (5, 3.0, math.nan, "G="),
            (5, 3.0, -math.inf, "G="),
        ],
    )
    def test_gap_error_rejects_bad_input(self, N, s, G, name):
        with pytest.raises(ValueError, match=name):
            gap_error(N, s, G)

    def test_needs_four_sizes(self):
        from qthermo import FitError

        with pytest.raises(FitError):
            gap_error_scaling(3.0, 1.0, [50, 100, 200])

