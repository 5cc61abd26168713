"""Tests for chain<->star mappings, discretized-reservoir reconstruction,
and the star's normal modes and probe weights."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from qthermo import (
    ChainSpec,
    ConvergenceError,
    DiscreteModes,
    LorentzDrude,
    StarSpec,
    UnstableChainError,
    chain_spectrum,
    chain_to_star,
    clm_normal_modes,
    discretize_clm,
    gapless_frequency_sq,
    make_star,
    power_law_chain,
    star_coupling_scaling,
    star_to_chain,
)
from qthermo import mapping


def gapless_chain(N=100, t=2.5, G=1.0):
    base = power_law_chain(N, 0.0, G=G, t=t)
    return ChainSpec(
        N=N, omega_sq=gapless_frequency_sq(N, base.couplings), couplings=base.couplings
    )


def gapped_chain(N=100, delta=0.5, t=2.5):
    base = power_law_chain(N, 0.0, G=1.0, t=t)
    om2 = gapless_frequency_sq(N, base.couplings) + delta * delta
    return ChainSpec(N=N, omega_sq=om2, couplings=base.couplings)


def star_spec(star):
    """The StarSpec of an EffectiveStar: its coupled modes and bare frequency."""
    return make_star(DiscreteModes(tuple(star.omega_array), tuple(star.g_array)), star.omega0_sq)


def random_bounded_chain(rng, max_half=100):
    # sign-mixed couplings: clear the true spectrum minimum, wherever it sits
    n = int(rng.integers(3, max_half + 1))
    g = rng.normal(0.0, 1.0, n) / np.arange(1, n + 1) ** 1.5
    k = np.arange(1, n + 1, dtype=float)
    a = np.arange(0, n + 1, dtype=float)
    base = 2.0 * (g[:, None] * np.cos(2.0 * np.pi * np.outer(k, a) / (2 * n + 1))).sum(axis=0)
    om2 = -float(np.min(base)) + float(np.abs(rng.normal(0.5, 0.5))) + 0.05
    return ChainSpec(N=n, omega_sq=om2, couplings=tuple(g))


class TestChainToStar:
    def test_decoupled_chain_decouples_everything(self):
        c = ChainSpec(N=12, omega_sq=1.0, couplings=(0.0,) * 12)
        star = chain_to_star(c)
        assert star.decoupled_count == 24
        assert len(star.coupled_modes) == 0

    def test_reflection_symmetry_count(self):
        star = chain_to_star(gapless_chain())
        assert len(star.coupled_modes) == 100
        assert star.decoupled_count == 100

    def test_gapless_renormalization_saturates_probe_frequency(self):
        c = gapless_chain()
        star = chain_to_star(c)
        assert star_spec(star).omega_R_sq == pytest.approx(c.omega_sq, rel=1e-6)
        # the star-picture bare probe frequency vanishes with the gap
        assert star_spec(star).omega0_sq <= 1e-6 * c.omega_sq

    def test_exact_zero_mode_gives_an_exactly_free_probe(self):
        # the uniform mode Om^2 + 2 G_1 is exactly 0: 1/G_00(0) = 0, no warning
        star = chain_to_star(ChainSpec(N=1, omega_sq=1.0, couplings=(-0.5,)))
        assert star.omega0_sq == 0.0
        assert star_spec(star).omega_R_sq == pytest.approx(1.0, rel=1e-15)

    def test_unbounded_chain_is_refused(self):
        # its star would need a mode below zero; the spectrum check refuses it
        with pytest.raises(UnstableChainError):
            chain_to_star(ChainSpec(N=3, omega_sq=0.1, couplings=(1.0, 0.0, 0.0)))

    def test_modes_are_the_zeros_of_the_node_green_function(self):
        # G_00(z) = sum_a p_a/(lam_a - z) over the circulant spectrum at 40
        # digits: one zero between each pair of modes, g^2 = 1/G_00'(zero)
        # and the bare probe frequency w0^2 = 1/G_00(0)
        c = gapped_chain(N=30)
        star = chain_to_star(c)
        with mpmath.workdps(40):
            n = c.n_nodes
            lam = [
                mpmath.mpf(c.omega_sq)
                + 2 * mpmath.fsum(
                    mpmath.mpf(g) * mpmath.cos(2 * mpmath.pi * k * a / n)
                    for k, g in enumerate(c.couplings, start=1)
                )
                for a in range(c.N + 1)
            ]
            p = [mpmath.mpf(1) / n] + [mpmath.mpf(2) / n] * c.N

            def g00(z, power=1):
                return mpmath.fsum(pa / (la - z) ** power for pa, la in zip(p, lam))

            inset = mpmath.mpf(10) ** -30
            zeros = []
            ordered = sorted(lam)
            for lo, hi in zip(ordered[:-1], ordered[1:]):
                bracket = (lo + inset * (hi - lo), hi - inset * (hi - lo))
                zeros.append(mpmath.findroot(g00, bracket, solver="anderson"))
                assert lo < zeros[-1] < hi
            w = np.array([float(mpmath.sqrt(z)) for z in zeros])
            g = np.array([float(1 / mpmath.sqrt(g00(z, 2))) for z in zeros])
            omega0_sq = float(1 / g00(0))
        assert star.decoupled_count == c.N
        assert np.max(np.abs(star.omega_array - w) / w) <= 1e-14
        assert np.max(np.abs(star.g_array - g) / g) <= 1e-12
        assert star.omega0_sq == pytest.approx(omega0_sq, rel=1e-14, abs=0.0)

    def test_schur_bound_on_random_chains(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 25:
            c = random_bounded_chain(rng, max_half=40)
            if c is None:
                continue
            found += 1
            star = chain_to_star(c)
            assert star_spec(star).omega_R_sq <= c.omega_sq + 1e-9

    def test_gapless_lowest_mode_closes_with_size(self):
        lo_50 = chain_to_star(gapless_chain(N=50)).coupled_modes[0][0]
        lo_100 = chain_to_star(gapless_chain(N=100)).coupled_modes[0][0]
        lo_200 = chain_to_star(gapless_chain(N=200)).coupled_modes[0][0]
        assert lo_100 < lo_50 / 1.8
        assert lo_200 < lo_100 / 1.8

    def test_gapless_effective_density_is_ohmic(self):
        star = chain_to_star(gapless_chain())
        w = star.omega_array
        g = star.g_array
        dw = np.empty_like(w)
        dw[1:-1] = (w[2:] - w[:-2]) / 2.0
        dw[0] = w[1] - w[0]
        dw[-1] = w[-1] - w[-2]
        slope = np.pi * g**2 / (w * w * dw)
        window = slope[1:10]  # low-frequency window past the edge mode
        assert np.max(window) / np.min(window) < 1.15

    def test_gapped_lowest_mode_stays_finite(self):
        star = chain_to_star(gapped_chain(delta=0.5))
        assert star.coupled_modes[0][0] > 0.4 * 0.5
        # and the effective density is not Ohmic: no weight below the gap
        assert star.coupled_modes[0][0] > 10 * chain_to_star(
            gapless_chain()
        ).coupled_modes[0][0]

    def test_cluster_couplings_stable_under_perturbation(self):
        c = gapless_chain(N=40)
        star_a = chain_to_star(c)
        nudged = ChainSpec(
            N=c.N,
            omega_sq=c.omega_sq * (1.0 + 1e-13),
            couplings=tuple(g * (1.0 + 1e-13) for g in c.couplings),
        )
        star_b = chain_to_star(nudged)
        ga = star_a.g_array**2
        gb = star_b.g_array**2
        assert ga.shape == gb.shape
        assert np.max(np.abs(ga - gb) / np.maximum(ga, 1e-300)) < 1e-8


class TestStarToChain:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 20:
            c = random_bounded_chain(rng, max_half=60)
            if c is None:
                continue
            done += 1
            spec = chain_spectrum(c).array
            rec = star_to_chain(np.sort(spec)[::-1])
            back = chain_spectrum(rec.chain).array
            scale = float(np.max(np.abs(spec)))
            assert np.max(np.abs(np.sort(back) - np.sort(spec))) < 1e-8 * scale

    @pytest.mark.parametrize("n_half", [1, 2, 3, 40, 400])
    def test_matches_dense_cosine_solve(self, n_half):
        # reference: Om_vec = A G_vec with [A]_{jk} = cos(2 pi j k/(2N+1)),
        # G_vec = (Om^2, 2 G_1, .., 2 G_N), solved by LU
        rng = np.random.default_rng(n_half)
        freqs = np.sort(rng.uniform(0.1, 10.0, n_half + 1))[::-1]
        j = np.arange(n_half + 1, dtype=float)
        a_mat = np.cos(2.0 * np.pi * np.outer(j, j) / (2 * n_half + 1))
        assert np.linalg.cond(a_mat) <= 2.0
        g_vec = np.linalg.solve(a_mat, freqs)
        dense_couplings = g_vec[1:] / 2.0
        chain = star_to_chain(freqs).chain
        assert chain.N == n_half
        assert abs(chain.omega_sq - g_vec[0]) <= 1e-12 * abs(g_vec[0])
        gap = np.max(np.abs(chain.coupling_array - dense_couplings))
        assert gap <= 1e-12 * np.max(np.abs(dense_couplings))

    def test_validation(self):
        with pytest.raises(ValueError):
            star_to_chain([1.0])  # too few
        with pytest.raises(ValueError):
            star_to_chain([1.0, 2.0, 3.0])  # ascending
        with pytest.raises(ValueError):
            star_to_chain([3.0, 2.0, -1.0])  # negative

    @pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_frequency_is_rejected(self, x):
        # used to return NaN or infinite couplings flagged physical=True
        with pytest.raises(ValueError):
            star_to_chain([x, 2.0, 1.0])

    def test_chain_to_star_maps_back_through_star_to_chain(self):
        # the two mappings compose: fig4_gapped's star, rebuilt as a chain,
        # gives back the couplings G_n = n^-2.5 and the node frequency
        c = gapped_chain()
        rec = star_to_chain(clm_normal_modes(star_spec(chain_to_star(c))))
        n = np.arange(1, rec.chain.N + 1)
        assert rec.chain.N == c.N
        assert np.max(np.abs(rec.chain.coupling_array - n**-2.5)) <= 1e-12
        assert rec.chain.omega_sq == pytest.approx(c.omega_sq, rel=1e-12)

    def test_desk_scale_lorentz_drude_reconstruction(self):
        # frozen desk-scale variant of the published N=2000 run
        star = discretize_clm(LorentzDrude(0.1, 2.0), 400, 40.0, omega0_sq=0.04)
        freqs = clm_normal_modes(star)
        rec = star_to_chain(freqs)
        assert rec.physical
        back = chain_spectrum(rec.chain).array
        assert np.max(np.abs(back - freqs)) <= 1e-12 * float(np.max(freqs))
        assert math.sqrt(rec.chain.omega_sq) == pytest.approx(23.0796, abs=0.01)
        n_idx = np.arange(1, rec.chain.N + 1, dtype=float)
        g = rec.chain.coupling_array
        mask = (n_idx >= 10) & (n_idx <= 100) & (g > 0)
        from qthermo import loglog_fit

        fit = loglog_fit(n_idx[mask], g[mask])
        assert -fit.exponent_or_gap == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize(
        "n_modes,omega_max,omega0_sq",
        [
            pytest.param(80, 20.0, 1e-8, id="80-1e-08"),
            pytest.param(80, 20.0, 1e-10, id="80-1e-10"),
            pytest.param(80, 20.0, 1e-12, id="80-1e-12"),
            pytest.param(400, 20.0, 1e-8, id="400-1e-08"),
            pytest.param(2000, 100.0, 0.04, id="fig5"),
        ],
    )
    def test_nearly_free_probe(self, n_modes, omega_max, omega0_sq):
        # the chain's cosine mode a carries the star's mode a: the DFT round
        # trip rounds at the scale of the largest mode, so a nearly free
        # probe's tiny lowest mode matches on that scale
        star = discretize_clm(LorentzDrude(0.1, 2.0), n_modes, omega_max, omega0_sq=omega0_sq)
        ev = clm_normal_modes(star)
        back = chain_spectrum(star_to_chain(ev).chain).array
        assert np.max(np.abs(back - ev)) <= 1e-12 * np.max(ev)


class TestClmNormalModes:
    def test_continuous_star_is_refused(self):
        with pytest.raises(TypeError, match="discrete modes"):
            clm_normal_modes(make_star(LorentzDrude(0.1, 2.0), 1.0))

    def test_zero_coupling_returns_inputs(self):
        modes = DiscreteModes((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
        star = StarSpec(omega0_sq=6.25, sd=modes)
        ev = clm_normal_modes(star)
        assert np.allclose(np.sort(ev), np.sort([6.25, 1.0, 4.0, 9.0]))

    def test_single_mode_quadratic_oracle(self):
        w1, g, w0sq = 1.0, 0.1, 1.0
        modes = DiscreteModes((w1,), (g,))
        star = StarSpec(omega0_sq=w0sq, sd=modes)
        ev = clm_normal_modes(star)
        a = w0sq + g * g / w1**2
        tr, det = a + w1 * w1, a * w1 * w1 - g * g
        disc = math.sqrt(tr * tr - 4.0 * det)
        oracle = [(tr + disc) / 2.0, (tr - disc) / 2.0]
        assert np.allclose(ev, oracle, rtol=1e-12)

    def test_cauchy_interlacing(self):
        rng = np.random.default_rng(2)
        w = np.sort(rng.uniform(0.5, 5.0, 12))
        g = rng.uniform(0.01, 0.3, 12)
        modes = DiscreteModes(tuple(w), tuple(g))
        star = StarSpec(omega0_sq=1.0, sd=modes)
        ev = np.sort(clm_normal_modes(star))  # ascending, length 13
        bath = w * w
        for i in range(12):
            assert ev[i] < bath[i] < ev[i + 1]

    def test_zero_bare_frequency_gives_an_exact_zero_mode(self):
        w = np.array([0.5, 1.0, 2.0])
        g = np.array([0.1, 0.2, 0.3])
        modes = DiscreteModes(tuple(w), tuple(g))
        star = StarSpec(omega0_sq=0.0, sd=modes)
        ev = clm_normal_modes(star)
        assert ev[-1] == 0.0
        assert np.all(ev[:-1] > 0.0)

    def test_decoupled_mode_is_an_exact_mode(self):
        w = np.array([0.5, 1.0, 2.0, 3.0])
        g = np.array([0.1, 0.0, 0.3, 0.2])
        modes = DiscreteModes(tuple(w), tuple(g))
        star = StarSpec(omega0_sq=1.0, sd=modes)
        ev = clm_normal_modes(star)
        assert ev.size == 5 and np.all(np.diff(ev) < 0.0)
        assert np.count_nonzero(ev == 1.0) == 1  # w_2^2, exactly

    def test_solver_failure_raises(self, monkeypatch):
        star = discretize_clm(LorentzDrude(0.1, 2.0), 20, 10.0, omega0_sq=0.04)
        solve = mapping.dlasd4

        def failing(i, *args):
            delta, sigma, work, info = solve(i, *args)
            return delta, math.nan, work, 1 if i == 7 else info

        monkeypatch.setattr(mapping, "dlasd4", failing)
        with pytest.raises(ConvergenceError, match="mode 7 "):
            clm_normal_modes(star)

    def test_extreme_modes_match_mpmath_secular_roots(self):
        # fig5_desk's star; the roots of w0^2 + wR^2 - lam - sum g^2/(w^2 - lam)
        # at 30 digits, each bracketed by its neighbouring bath poles
        star = discretize_clm(LorentzDrude(0.1, 2.0), 400, 40.0, omega0_sq=0.04)
        ev = clm_normal_modes(star)
        with mpmath.workdps(30):
            w2 = [mpmath.mpf(x) ** 2 for x in star.sd.omegas]
            g2 = [mpmath.mpf(x) ** 2 for x in star.sd.gs]
            top = mpmath.mpf(star.omega0_sq) + mpmath.fsum(a / b for a, b in zip(g2, w2))

            def secular(lam):
                return top - lam - mpmath.fsum(a / (b - lam) for a, b in zip(g2, w2))

            inset = mpmath.mpf(10) ** -25
            brackets = {
                -1: (inset, w2[0]),
                -2: (w2[0], w2[1]),
                -3: (w2[1], w2[2]),
                0: (w2[-1], w2[-1] + top),
            }
            for k, (lo, hi) in brackets.items():
                root = mpmath.findroot(
                    secular, (lo * (1 + inset), hi * (1 - inset)), solver="anderson"
                )
                assert lo < root < hi
                assert abs(ev[k] - root) <= 1e-14 * root


def dense_weights(star):
    """The probe's weights by the dense route, as a reference: squares of
    the first row of the arrowhead's eigh, its columns descending."""
    w, g = star.sd.omega_array, star.sd.g_array
    arrowhead = np.diag(np.concatenate(([star.omega0_sq + star.omega_R_sq], w * w)))
    arrowhead[0, 1:] = arrowhead[1:, 0] = g
    return scipy.linalg.eigh(arrowhead)[1][0, ::-1] ** 2


class TestProbeDelocalization:
    def test_normalization_on_random_stars(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(4, 30))
            w = np.sort(rng.uniform(0.3, 4.0, n))
            w += np.arange(n) * 1e-6  # enforce distinctness
            g = rng.uniform(0.005, 0.2, n)
            modes = DiscreteModes(tuple(w), tuple(g))
            star = StarSpec(omega0_sq=0.7, sd=modes)
            ev, c2 = mapping._probe_column(star)
            assert np.sum(c2) == pytest.approx(1.0, abs=1e-13)
            assert ev.size == c2.size == n + 1
            assert np.all(c2 > 0.0)


class TestProbeDelocalizationSecular:
    @pytest.mark.parametrize("omega0_sq", [0.04, 0.0])
    def test_matches_the_dense_route_on_fig5_desk_star(self, omega0_sq):
        star = discretize_clm(LorentzDrude(0.1, 2.0), 400, 40.0, omega0_sq=omega0_sq)
        dense = dense_weights(star)
        ev, c2 = mapping._probe_column(star)
        assert np.array_equal(ev, clm_normal_modes(star))
        assert abs(np.sum(c2) - 1.0) <= 1e-13
        assert np.max(np.abs(c2 - dense)) <= 1e-10 * np.max(dense)

    def test_exact_zero_couplings_match_the_dense_route(self):
        w = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        g = np.array([0.2, 0.0, 0.3, 0.0, 0.1])
        modes = DiscreteModes(tuple(w), tuple(g))
        for omega0_sq in (0.7, 0.0):
            star = StarSpec(omega0_sq, modes)
            ev, c2 = mapping._probe_column(star)
            assert np.max(np.abs(c2 - dense_weights(star))) <= 1e-13
            # a decoupled mode carries none of the probe
            assert np.count_nonzero(c2 == 0.0) == 2

    def test_needs_no_dense_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the probe weights called eigh")

        monkeypatch.setattr(mapping, "eigh", refuse)
        star = discretize_clm(LorentzDrude(0.1, 2.0), 150, 20.0, omega0_sq=0.04)
        assert np.sum(mapping._probe_column(star)[1]) == pytest.approx(1.0, abs=1e-13)

    def test_solver_failure_raises(self, monkeypatch):
        star = discretize_clm(LorentzDrude(0.1, 2.0), 20, 10.0, omega0_sq=0.04)
        solve = mapping.dlasd4

        def failing(i, *args):
            delta, sigma, work, info = solve(i, *args)
            return delta, sigma, work, 1 if i == 7 else info

        monkeypatch.setattr(mapping, "dlasd4", failing)
        with pytest.raises(ConvergenceError, match="mode 7 "):
            mapping._probe_column(star)


class TestStarCouplingScaling:
    @pytest.mark.parametrize(
        "sizes, match",
        [([20], "at least two"), ([8, 20], "must lie below"), ([50, 50], "N_list")],
        ids=["one", "8", "repeated"],
    )
    def test_bad_sizes_are_rejected(self, sizes, match):
        # the fit takes modes 3, 5 and 8 of each size, and a slope in N
        with pytest.raises(ValueError, match=match):
            star_coupling_scaling(2.5, sizes)

    @pytest.mark.parametrize("s", [2.5, 1.0])
    def test_coupling_scaling_exponents(self, s):
        n_fit, size_fit = star_coupling_scaling(s, [50, 100, 200])
        assert n_fit.exponent_or_gap == pytest.approx(1.0, abs=0.15)
        assert size_fit.exponent_or_gap == pytest.approx(-1.5, abs=0.15)
