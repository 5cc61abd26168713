"""Tests for the Brownian-probe steady state and its QFI.

The low-temperature asymptotics are written in terms of the effective
dissipation rate g_eff = dJ/dw at w -> 0, which is 2*gamma for the
Lorentz-Drude form.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from qthermo import (
    ConvergenceError,
    DiscreteModes,
    DivergenceError,
    ExponentialCutoff,
    IntegrationError,
    InvalidStateError,
    LorentzDrude,
    SteadyStateQuery,
    ZeroModeError,
    clm_qfi,
    clm_qfi_fidelity,
    covariance_T_derivatives,
    discretize_clm,
    fit_power_law,
    free_probe_qfi_limit,
    make_star,
    qfi_curve,
    steady_covariances,
    thermal_mode_covariance,
)
from qthermo import clm, mapping, spectral
from qthermo.cli import parse_config_text, run_experiment
from qthermo.gaussian import CovarianceDerivatives, SingleModeCovariance, qfi_from_derivatives


def fig2_star(omega0_sq, gamma=0.1, omega_c=100.0):
    return make_star(LorentzDrude(gamma, omega_c), omega0_sq=omega0_sq)


def thermal_qfi_oracle(omega, T):
    x = omega / T
    return x * x / (4.0 * T * T * math.sinh(x / 2.0) ** 2)


class TestSteadyCovariances:
    def test_weak_coupling_gibbs_limit(self):
        star = make_star(LorentzDrude(1e-6, 100.0), omega0_sq=1.0)
        cov = steady_covariances(SteadyStateQuery(star=star, T=1.0))
        gibbs = thermal_mode_covariance(1.0, 1.0)
        assert cov.s11 == pytest.approx(gibbs.s11, rel=1e-3)
        assert cov.s22 == pytest.approx(gibbs.s22, rel=1e-3)

    def test_low_temperature_quadratic_rise(self):
        # s11(T) - s11(0+) = (pi g_eff / 3 w0^4) T^2 (1 + o(1)), any w0
        star = fig2_star(1.0)
        g_eff = 2.0 * 0.1
        t_hi, t_lo = 1e-3, 1e-4
        s_hi = steady_covariances(SteadyStateQuery(star=star, T=t_hi)).s11
        s_lo = steady_covariances(SteadyStateQuery(star=star, T=t_lo)).s11
        predicted = (np.pi * g_eff / 3.0) * (t_hi**2 - t_lo**2)
        assert s_hi - s_lo == pytest.approx(predicted, rel=2e-3)

    def test_physicality_across_grid(self):
        for w0sq in (0.25, 1.0, 4.0):
            for gamma in (0.05, 0.5):
                star = make_star(LorentzDrude(gamma, 50.0), omega0_sq=w0sq)
                for t in (0.01, 0.3, 2.0):
                    cov = steady_covariances(SteadyStateQuery(star=star, T=t))
                    assert cov.det() >= 0.25 - 1e-9

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Im alpha = J, twice J/2")
    def test_classical_limit(self):
        # ROADMAP item 13's oracle: the Gibbs state of any reservoir has
        # s11 = T/w0^2 + 1/(12 T) + O(T^-3) and s22/T -> 1; today both are off
        # by 7.0e-3 and -2.9e-2 on the first star, flat in T
        for sd, w0sq in ((LorentzDrude(0.1, 2.0), 1.0), (LorentzDrude(0.1, 100.0), 0.04)):
            curve = qfi_curve(make_star(sd, w0sq), [1e7, 1e9])
            for t, cov in zip(curve.temperatures, curve.covariances):
                assert abs(cov.s11 * w0sq / t - 1.0 - w0sq / (12.0 * t * t)) <= 1e-13
                assert abs(cov.s22 / t - 1.0) <= 1e-13

    def test_free_probe_needs_infrared_cutoff(self):
        star = fig2_star(0.0)
        with pytest.raises(DivergenceError, match="free_probe_qfi_limit"):
            SteadyStateQuery(star=star, T=1e-3)


class TestDerivatives:
    def test_low_temperature_asymptotes(self):
        # a1 -> (2 pi g_eff/3 w0^4) T and a2 -> (8 pi^3 g_eff/15 w0^4) T^3
        star = fig2_star(1.0)
        g_eff = 2.0 * 0.1
        t = 1e-3
        der = covariance_T_derivatives(SteadyStateQuery(star=star, T=t))
        assert der.a1 == pytest.approx(2.0 * np.pi * g_eff / 3.0 * t, rel=1e-3)
        assert der.a2 == pytest.approx(8.0 * np.pi**3 * g_eff / 15.0 * t**3, rel=1e-2)

    def test_finite_difference_cross_check(self):
        star = fig2_star(1.0)
        t = 0.1
        der = covariance_T_derivatives(SteadyStateQuery(star=star, T=t))
        h = 1e-4 * t
        up = steady_covariances(SteadyStateQuery(star=star, T=t + h))
        dn = steady_covariances(SteadyStateQuery(star=star, T=t - h))
        assert der.a1 == pytest.approx((up.s11 - dn.s11) / (2 * h), rel=1e-5)
        assert der.a2 == pytest.approx((up.s22 - dn.s22) / (2 * h), rel=1e-5)

    def test_non_negative(self):
        star = fig2_star(0.5, gamma=0.3)
        for t in (0.01, 0.1, 1.0):
            der = covariance_T_derivatives(SteadyStateQuery(star=star, T=t))
            assert der.a1 >= 0.0 and der.a2 >= 0.0


class TestClmQfi:
    def test_gibbs_limit_matches_thermal_qfi(self):
        star = make_star(LorentzDrude(1e-6, 100.0), omega0_sq=1.0)
        f = clm_qfi(SteadyStateQuery(star=star, T=1.0))
        assert f == pytest.approx(0.9207, abs=1e-2)
        assert f == pytest.approx(thermal_qfi_oracle(1.0, 1.0), rel=1e-2)

    def test_trapped_probe_low_t_scaling(self):
        # fig2a parameters: slope +2 over T in [1e-3, 1e-2]
        star = fig2_star(1.0)
        curve = qfi_curve(star, np.geomspace(1e-3, 1e-2, 12))
        fit = fit_power_law(curve)
        assert fit.exponent_or_gap == pytest.approx(2.0, abs=0.05)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Im alpha = J, so F/T^2 reads 4x")
    def test_fig2a_t_squared_coefficient(self):
        # ROADMAP item 13's oracle: a1 -> (2 pi gamma/3 w0^4) T while a2 = O(T^3)
        # and s tends to s(0), so F/T^2 -> 8 s22(0)^2 (2 pi gamma/3 w0^4)^2
        # / (16 s11(0)^2 s22(0)^2 - 1); s(0) is taken at T = 1e-9
        ts = (1e-9, 1e-5, 1e-4, 1e-3, 1e-2)
        curve = qfi_curve(fig2_star(1.0), ts)
        s0 = curve.covariances[0]
        slope = 2.0 * np.pi * 0.1 / 3.0
        f_asym = 8.0 * s0.s22**2 * slope**2 / (16.0 * s0.s11**2 * s0.s22**2 - 1.0)
        errors = [abs(f / (t * t * f_asym) - 1.0) for t, f in zip(ts[1:], curve.qfi[1:])]
        assert all(a < b for a, b in zip(errors, errors[1:])), errors
        assert errors[0] <= 1e-8, errors

    def test_soft_probe_inverse_square_scaling(self):
        # fig2b parameters: slope -2 over two decades above the w0 knee
        star = fig2_star(1e-6)
        curve = qfi_curve(star, np.geomspace(1e-3, 1e-1, 12))
        fit = fit_power_law(curve)
        assert fit.exponent_or_gap == pytest.approx(-2.0, abs=0.05)
        rel = curve.rel_error_single_shot()
        spread = (rel.max() - rel.min()) / rel.mean()
        assert spread < 0.05

    def test_route_agreement_on_grid(self):
        # step 1e-2 keeps the quadratic fidelity drop well above the
        # binary64 rounding floor even where F ~ 1e-5; Richardson makes the
        # truncation error O(step^4)
        for w0sq in (0.25, 1.0, 4.0):
            for gamma in (0.05, 0.3):
                star = make_star(LorentzDrude(gamma, 50.0), omega0_sq=w0sq)
                for t in (0.05, 0.2, 1.0, 5.0):
                    q = SteadyStateQuery(star=star, T=t)
                    f_d = clm_qfi(q)
                    f_f = clm_qfi_fidelity(q, step_fraction=1e-2)
                    assert f_f == pytest.approx(f_d, rel=1e-3), (w0sq, gamma, t)


class TestFreeProbeLimit:
    def test_limit_reaches_half_inverse_t_squared(self):
        star = fig2_star(0.0)
        t = 1e-3
        limit, samples = free_probe_qfi_limit(star, t)
        assert 0.9 <= 2.0 * t * t * limit <= 1.1
        # sequence monotone increasing toward the limit
        fs = [f for _, f in samples]
        assert all(a < b for a, b in zip(fs, fs[1:]))

    def test_s11_diverges_like_inverse_omega_min(self):
        star = fig2_star(0.0)
        t = 1e-3
        products = []
        for wm in (1e-5, 1e-6, 1e-7):
            s11, _ = real_axis(star, t, lo=wm)
            products.append(s11 * wm)
        assert max(products) / min(products) < 1.02

    def test_s22_is_omega_min_independent(self):
        star = fig2_star(0.0)
        vals = [real_axis(star, 1e-3, lo=wm)[1] for wm in (1e-4, 1e-6, 1e-7)]
        assert (max(vals) - min(vals)) / vals[-1] < 1e-4

    def test_relative_error_plateau(self):
        # with the cutoff held fixed, 1/(T sqrt(F)) stays near sqrt(2); F at
        # 1e-7 is the last sample of a ladder that ends there
        star = fig2_star(0.0)
        rels = []
        for t in np.geomspace(1e-3, 1e-2, 6):
            _, samples = free_probe_qfi_limit(star, float(t), [1e-5, 1e-6, 1e-7])
            rels.append(1.0 / (t * math.sqrt(samples[-1][1])))
        spread = (max(rels) - min(rels)) / (sum(rels) / len(rels))
        assert spread < 0.05
        assert rels[0] == pytest.approx(math.sqrt(2.0), rel=0.05)

    def test_sequence_validation(self):
        star = fig2_star(0.0)
        with pytest.raises(ValueError):
            free_probe_qfi_limit(star, 1e-3, [1e-4, 1e-4, 1e-5])
        with pytest.raises(ValueError):
            free_probe_qfi_limit(make_star(LorentzDrude(0.1, 100.0), 1.0), 1e-3)

    @pytest.mark.parametrize(
        "omega_min_sequence",
        [[1e-4, math.nan, 1e-6], [math.inf, 1e-4, 1e-5], [1e-4, 1e-5, -1.0], [1e-4, 1e-5, 0.0]],
        ids=["nan", "inf", "-1.0", "0.0"],
    )
    def test_bad_infrared_cutoff_is_rejected(self, omega_min_sequence):
        # each passes the decreasing test alone: a NaN fails every comparison,
        # and inf first or a last cutoff <= 0 still decreases
        with pytest.raises(ValueError, match="omega_min_sequence"):
            free_probe_qfi_limit(fig2_star(0.0), 1e-3, omega_min_sequence)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
    def test_bad_temperature_is_rejected(self, T):
        with pytest.raises(ValueError, match="temperature"):
            free_probe_qfi_limit(fig2_star(0.0), T, [1e-4, 1e-5, 1e-6])


class TestCliTable:
    def test_clm_qfi_csv_round_trips_to_library(self, tmp_path):
        # every CLI row holds clm_qfi and steady_covariances at its grid
        # temperature exactly: floats are written with repr
        cfg = parse_config_text(
            "experiment = clm-qfi\ngamma = 0.1\nomega_c = 100\nomega0_sq = 1.0\n"
            "T_min = 0.5\nT_max = 1.0\npoints = 3\n"
        )
        path = tmp_path / "curve.csv"
        run_experiment(cfg, out=str(path), slow_ok=False)
        lines = path.read_text().splitlines()
        assert lines[0] == "T,beta,sigma11,sigma22,qfi,rel_error_M1"
        grid = np.geomspace(0.5, 1.0, 3)
        assert len(lines) == 1 + grid.size
        star = fig2_star(1.0)
        for t, line in zip(grid, lines[1:]):
            T, beta, s11, s22, f, rel = (float(x) for x in line.split(","))
            q = SteadyStateQuery(star=star, T=float(t))
            cov = steady_covariances(q)
            assert (T, beta) == (t, 1.0 / t)
            assert (s11, s22) == (cov.s11, cov.s22)
            assert f == clm_qfi(q)
            assert rel == 1.0 / (t * math.sqrt(f))

    def test_qfi_curve_keeps_covariances(self):
        star = fig2_star(1.0)
        ts = (0.5, 1.0)
        curve = qfi_curve(star, ts)
        for t, f, cov in zip(ts, curve.qfi, curve.covariances):
            q = SteadyStateQuery(star=star, T=t)
            assert cov == steady_covariances(q)
            assert f == clm_qfi(q)

    def test_quadrature_sweep_matches_each_point(self, monkeypatch):
        # with the pole sums off, qfi_curve takes the real axis at each T and
        # shares the star's skeleton and tails; a fresh star per T has none
        monkeypatch.setattr(clm, "_EXACT", (DiscreteModes,))
        ts = (0.5, 0.7, 1.0)
        curve = qfi_curve(fig2_star(1.0), ts)
        for t, f, cov in zip(ts, curve.qfi, curve.covariances):
            q = SteadyStateQuery(star=fig2_star(1.0), T=t)
            assert cov == steady_covariances(q)
            assert f == clm_qfi(q)


def real_axis(star, T, derivative=False, lo=1e-3):
    """(s11, s22), or (a1, a2) when derivative, on the private real axis from
    lo: a query of a Lorentz-Drude star takes the pole sums instead."""
    return clm._weighted_moments(star, float(T), lo, math.inf, derivative)


def real_axis_qfi(star, T, lo=1e-3):
    """The QFI of real_axis' four moments, as clm_qfi takes it."""
    cov, der = (real_axis(star, T, derivative, lo) for derivative in (False, True))
    return qfi_from_derivatives(SingleModeCovariance(*cov), CovarianceDerivatives(*der))


def count_weight_calls(monkeypatch):
    """Count J and S calls in total and at quadrature nodes."""
    total = dict.fromkeys(("j", "self_energy"), 0)
    at_nodes = dict.fromkeys(total, 0)
    nodes = []

    def counted(name, fn):
        def wrapper(*args):
            total[name] += 1
            return fn(*args)

        return wrapper

    real_integrate = clm._integrate

    def integrate(f, *args):
        # counts quad's nodes and the direct tail probe f(B) alike
        def node(w):
            nodes.append(w)
            before = dict(total)
            value = f(w)
            for name in total:
                at_nodes[name] += total[name] - before[name]
            return value

        return real_integrate(node, *args)

    for family in (LorentzDrude, ExponentialCutoff):
        monkeypatch.setattr(family, "j", counted("j", family.j))
    monkeypatch.setattr(spectral, "self_energy", counted("self_energy", spectral.self_energy))
    monkeypatch.setattr(clm, "_integrate", integrate)
    return total, at_nodes, nodes


class TestWeightEvaluations:
    @pytest.mark.parametrize(
        "derivative", [False, True], ids=["steady_covariances", "covariance_T_derivatives"]
    )
    def test_lorentz_drude_nodes_call_no_library_function(self, monkeypatch, derivative):
        # a Lorentz-Drude node evaluates J and S inline (clm._weight); off
        # the nodes J runs only for the low-frequency slope and the
        # resonance width
        total, at_nodes, nodes = count_weight_calls(monkeypatch)
        real_axis(fig2_star(1.0), 1e-2, derivative)
        assert len(nodes) > 100
        assert total["j"] - at_nodes["j"] <= 2
        assert at_nodes == {"j": 0, "self_energy": 0}

    @pytest.mark.parametrize("moments", [steady_covariances, covariance_T_derivatives])
    def test_other_families_compose_one_self_energy_per_node(self, monkeypatch, moments):
        # the composed branch: Re alpha takes S once per node (its PV
        # quadrature calls J many times)
        _, at_nodes, nodes = count_weight_calls(monkeypatch)
        moments(SteadyStateQuery(star=make_star(ExponentialCutoff(0.1, 2.0, 1.0), 1.0), T=0.05))
        assert len(nodes) > 100
        assert at_nodes["self_energy"] == len(nodes)

    def test_free_probe_sweep_integrates_the_shared_axis_once(self, monkeypatch):
        # [1e-4, inf) is integrated for the largest cutoff only, and each
        # smaller cutoff adds only its segment: 9570 nodes when every cutoff
        # integrated from its own omega_min
        spans, real_quad = [], clm.quad

        def quad(f, a, b, **kwargs):
            spans.append((a, b))
            return real_quad(f, a, b, **kwargs)

        monkeypatch.setattr(clm, "quad", quad)
        _, _, nodes = count_weight_calls(monkeypatch)
        free_probe_qfi_limit(fig2_star(0.0), 1e-3)
        wm = [1e-4 / 10.0**k for k in range(4)]
        assert len(spans) == 18
        segments = [(wm[k], wm[k - 1]) for k in (1, 2, 3) for _ in range(4)]
        assert [s for s in spans if s[1] <= wm[0]] == segments
        assert len(nodes) <= 4000

    def test_sweep_finds_the_resonance_once(self, monkeypatch):
        # the root of Re alpha does not depend on T: one brentq per star,
        # and the kept star still gives the fresh star's result exactly
        roots, real_brentq = [], clm.brentq

        def brentq(*args, **kwargs):
            roots.append(args)
            return real_brentq(*args, **kwargs)

        monkeypatch.setattr(clm, "brentq", brentq)
        star = fig2_star(1.0)
        ts = np.geomspace(1e-3, 1e-1, 6)
        sweep = [(real_axis(star, t), real_axis_qfi(star, t)) for t in ts]
        assert len(roots) == 1
        fresh = fig2_star(1.0)
        for t, (cov, f) in zip(ts, sweep):
            assert cov == real_axis(fresh, t)
            assert f == real_axis_qfi(fresh, t)
        assert len(roots) == 2


class TestOncePerReservoir:
    """The tails beyond B and the breakpoint skeleton do not depend on T:
    a star integrates each tail once per B and builds its skeleton once."""

    @staticmethod
    def count_tails(monkeypatch):
        tails, real_quad = [], clm.quad

        def quad(f, a, b, **kwargs):
            if b == math.inf:
                tails.append(a)
            return real_quad(f, a, b, **kwargs)

        monkeypatch.setattr(clm, "quad", quad)
        return tails

    def test_sweep_integrates_each_tail_once(self, monkeypatch):
        # B = 50 wc at every temperature of the grid: one tail for s11, one
        # for s22, and none for the derivative moments
        tails = self.count_tails(monkeypatch)
        star = fig2_star(1.0)
        for t in np.geomspace(1e-3, 1e-1, 6):
            real_axis_qfi(star, t)
        assert tails == [5000.0, 5000.0]

    def test_derivative_moments_integrate_no_tail(self, monkeypatch):
        tails = self.count_tails(monkeypatch)
        real_axis(fig2_star(1.0), 1e-2, derivative=True)
        assert tails == []

    def test_sweep_builds_the_skeleton_once(self, monkeypatch):
        # off the integrand nodes, J runs for the low-frequency slope and the
        # resonance width only
        total, at_nodes, _ = count_weight_calls(monkeypatch)
        star = fig2_star(1.0)
        for t in np.geomspace(1e-3, 1e-1, 6):
            real_axis_qfi(star, t)
        assert total["j"] - at_nodes["j"] == 2

    def test_failed_quad_is_not_kept(self, monkeypatch):
        # a tail quad that raises is retried by the next query on the star
        real_quad = clm.quad

        def quad(f, a, b, **kwargs):
            if b == math.inf:
                raise ValueError("no tail today")
            return real_quad(f, a, b, **kwargs)

        star = fig2_star(1.0)
        monkeypatch.setattr(clm, "quad", quad)
        with pytest.raises(IntegrationError, match="no tail today"):
            real_axis(star, 1e-2)
        monkeypatch.setattr(clm, "quad", real_quad)
        assert real_axis(star, 1e-2) == real_axis(fig2_star(1.0), 1e-2)

    def test_kept_failed_tail_is_judged_at_every_temperature(self, monkeypatch):
        # the kept output of a failed tail is still refused where it matters;
        # s11 raises first, so only its tail is ever integrated
        failing_quad(monkeypatch, "tail", value=1.0)
        tails = self.count_tails(monkeypatch)
        star = fig2_star(1.0)
        for t in (1e-2, 2e-2):
            with pytest.raises(IntegrationError, match="failed: The integral is probably"):
                real_axis(star, t)
        assert tails == [5000.0]

    def test_exponential_cutoff_reuses_its_tails(self, monkeypatch):
        # the composed integrands of the other families share the tails too
        tails = self.count_tails(monkeypatch)
        sd = ExponentialCutoff(0.1, 2.0, 1.0)
        star = make_star(sd, 1.0)
        steady_covariances(SteadyStateQuery(star=star, T=0.05))
        cov = steady_covariances(SteadyStateQuery(star=star, T=0.08))
        assert tails == [100.0, 100.0]
        assert cov == steady_covariances(SteadyStateQuery(star=make_star(sd, 1.0), T=0.08))


class TestPoleSums:
    """A Lorentz-Drude star takes the pole sums: no quadrature, every
    temperature of a sweep in one pass."""

    def test_sweep_equals_per_temperature_calls(self):
        star = fig2_star(1e-6)
        ts = np.geomspace(1e-5, 1e3, 41)
        curve = qfi_curve(star, ts)
        fresh = fig2_star(1e-6)
        for t, cov, f in zip(ts, curve.covariances, curve.qfi):
            q = SteadyStateQuery(star=fresh, T=float(t))
            assert cov == steady_covariances(q)
            assert f == qfi_from_derivatives(cov, covariance_T_derivatives(q)) == clm_qfi(q)

    def test_clm_qfi_sweep_makes_no_quadrature(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("no quadrature or root-find on the pole route")

        monkeypatch.setattr(clm, "quad", refuse)
        monkeypatch.setattr(clm, "brentq", refuse)
        cfg = parse_config_text(
            "experiment = clm-qfi\ngamma = 0.1\nomega_c = 100\nomega0_sq = 1e-6\n"
            "T_min = 1e-3\nT_max = 1e-1\n"
        )
        run_experiment(cfg, out=str(tmp_path / "fig2b.csv"), slow_ok=False)
        clm_qfi_fidelity(SteadyStateQuery(star=fig2_star(1.0), T=1e-2), step_fraction=1e-3)

    def test_unphysical_state_is_refused(self):
        # ROADMAP item 1's factor makes this weakly damped star's state
        # unphysical, det - 1/4 = -3.3e-4 at T = 0.03255 and -7.4e-10 at
        # T = 0.1159; both entry points refuse it, at the one tolerance
        star = make_star(LorentzDrude(0.01, 1.0), 1.0)
        with pytest.raises(InvalidStateError, match="violates uncertainty relation"):
            steady_covariances(SteadyStateQuery(star=star, T=0.03255))
        with pytest.raises(InvalidStateError, match="violates uncertainty relation"):
            qfi_curve(star, [0.03, 0.03255])
        with pytest.raises(InvalidStateError, match="violates uncertainty relation"):
            steady_covariances(SteadyStateQuery(star=star, T=0.11589551762719849))


class TestMpmathOracle:
    """The four moments against mpmath quadrature of the same integrals."""

    @staticmethod
    def moments(star, T, lo, dps=30):
        mp = pytest.importorskip("mpmath")
        sd = star.sd
        with mp.workdps(dps):
            g, c, w0, T = (mp.mpf(x) for x in (sd.gamma, sd.omega_c, star.omega0_sq, T))
            memo = {}

            def re_alpha(w):
                return w0 + g * c - w**2 - g * c**3 / (w**2 + c**2)

            def terms(w):
                # weight x (coth kernel, T-derivative kernel), shared by the
                # four quadratures, which visit the same nodes
                if w not in memo:
                    jw = 2 * g * w * c**2 / (w**2 + c**2)
                    weight, x = jw / (re_alpha(w) ** 2 + jw**2), w / (2 * T)
                    sh = mp.sinh(x)
                    memo[w] = (weight * mp.cosh(x) / sh, weight * w / (2 * T**2) / sh**2)
                return memo[w]

            # the thermal scale, the cutoff c, the knee w0^2/J'(0) when w0^2 > 0,
            # the resonance when Re alpha has a root (the positive root u = w^2
            # of u^2 - (w0^2 + g c - c^2) u - w0^2 c^2), and a ladder above wmin
            lo, b = mp.mpf(lo), w0 + g * c - c**2
            res_sq = (b + mp.sqrt(b**2 + 4 * w0 * c**2)) / 2
            scales = {T, 10 * T, 100 * T, c} | ({w0 / (2 * g)} if w0 > 0 else set())
            scales |= {mp.sqrt(res_sq)} if res_sq > 0 else set()
            ladder = {lo * 10**k for k in range(1, 20) if lo * 10**k < 10 * c}
            pts = [lo, *sorted(p for p in scales | ladder if p > lo), mp.inf]
            return [
                mp.quad(lambda w: w**p * terms(w)[k], pts) / mp.pi
                for k in (0, 1)
                for p in (0, 2)
            ]

    def check(self, q, dps):
        # abs=0: approx's default abs=1e-12 would pass any a2 below 1e-12
        cov, der = steady_covariances(q), covariance_T_derivatives(q)
        s11, s22, a1, a2 = (float(m) for m in self.moments(q.star, q.T, 0.0, dps))
        assert cov.s11 == pytest.approx(s11, rel=1e-9, abs=0.0)
        assert cov.s22 == pytest.approx(s22, rel=1e-9, abs=0.0)
        assert der.a1 == pytest.approx(a1, rel=1e-9, abs=0.0)
        assert der.a2 == pytest.approx(a2, rel=1e-9, abs=0.0)

    @staticmethod
    def qfi(star, T, lo, dps):
        """F from the moments, in mpmath: qfi_from_derivatives' formula."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(dps):
            s11, s22, a1, a2 = TestMpmathOracle.moments(star, T, lo, dps)
            num = a1 * a2 + 2 * s11**2 * a2**2 + 2 * s22**2 * a1**2
            return float(4 * num / (16 * (s11 * s22) ** 2 - 1))

    @pytest.mark.parametrize("t", [1e-3, 1e-2])
    def test_fig2a_moments(self, t):
        self.check(SteadyStateQuery(star=fig2_star(1.0), T=t), dps=30)

    @pytest.mark.parametrize("t", [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 1000.0])
    @pytest.mark.parametrize("omega0_sq", [1.0, 1e-6], ids=["fig2a", "fig2b"])
    def test_pole_sums_at_40_digits(self, omega0_sq, t):
        # where every lam_k/2 pi T is large the derivative moments are the
        # summed series: the per-pole sums lost 4.2e-7 in a2 at T = 1e-5
        self.check(SteadyStateQuery(star=fig2_star(omega0_sq), T=t), dps=40)

    def test_free_probe_sweep_at_30_digits(self):
        # each cutoff adds its segment to the running sums of the larger one;
        # the oracle integrates every cutoff from omega_min to inf on its own
        _, samples = free_probe_qfi_limit(fig2_star(0.0), 1e-3)
        assert len(samples) == 4
        for wm, f in samples:
            assert f == pytest.approx(self.qfi(fig2_star(0.0), 1e-3, wm, dps=30), rel=1e-12, abs=0.0)

    def test_free_probe_moments_past_near_duplicate_breakpoints(self):
        # the x10 ladder from 1e-4/10**3 lands one ulp above the decades that
        # T and wc set (0.1 and 0.10000000000000002, 1.0 and
        # 1.0000000000000002, ...); unless such points are merged, QUADPACK
        # refuses the a1 moment as "extremely bad integrand behavior"
        star, t, lo = make_star(LorentzDrude(0.5, 1.0), 0.0), 0.0017782794100389228, 1e-4 / 10**3
        moments = [*real_axis(star, t, False, lo), *real_axis(star, t, True, lo)]
        for m, oracle in zip(moments, self.moments(star, t, lo, dps=30)):
            assert m == pytest.approx(float(oracle), rel=1e-12, abs=0.0)
        _, samples = free_probe_qfi_limit(star, t, [lo, lo / 10.0, lo / 100.0])
        assert samples[0][1] == pytest.approx(self.qfi(star, t, lo, dps=30), rel=1e-12, abs=0.0)

    def test_pole_sums_below_the_real_axis_floor(self):
        # a2 = 7.198e-13: with an absolute floor epsabs = 1e-14, the real axis
        # from 1e-12 read 7.19823516422e-13 here, 4.4e-11 off; with none, the
        # pole sums' value to the last bit
        star = make_star(LorentzDrude(0.1383589461461454, 48.98309055123789), 3.726171153296188)
        self.check(SteadyStateQuery(star=star, T=1.2974440670251866e-4), dps=40)


class TestDiscreteStar:
    """A discrete star's probe is the mode sum over the star's normal modes."""

    modes = DiscreteModes((0.5, 1.0, 1.5, 2.0), (0.1, 0.0, 0.2, 0.3))

    @staticmethod
    def count_dlasd4(monkeypatch):
        calls, real_dlasd4 = [], mapping.dlasd4

        def dlasd4(*args):
            calls.append(args[0])
            return real_dlasd4(*args)

        monkeypatch.setattr(mapping, "dlasd4", dlasd4)
        return calls

    def test_qfi_curve_solves_the_secular_equation_once(self, monkeypatch):
        # the normal modes do not depend on T: one dlasd4 call per live root
        # (w0 and the three coupled modes; the decoupled mode is exact)
        calls = self.count_dlasd4(monkeypatch)
        star = make_star(self.modes, omega0_sq=1.0)
        ts = np.geomspace(0.01, 10.0, 80)
        curve = qfi_curve(star, ts)
        assert sorted(calls) == [0, 1, 2, 3]
        assert len(curve.qfi) == 80
        for t, cov, f in zip(ts[::20], curve.covariances[::20], curve.qfi[::20]):
            q = SteadyStateQuery(star=star, T=float(t))
            assert cov == steady_covariances(q)
            assert f == clm_qfi(q)

    def test_star_keeps_its_normal_modes(self, monkeypatch):
        # the fidelity route takes four steady states and clm_qfi two calls;
        # the star solves its secular equation for the first of them only
        calls = self.count_dlasd4(monkeypatch)
        q = SteadyStateQuery(star=make_star(self.modes, omega0_sq=1.0), T=0.5)
        clm_qfi_fidelity(q, step_fraction=1e-3)
        clm_qfi(q)
        assert sorted(calls) == [0, 1, 2, 3]

    def test_infrared_cutoff_is_rejected(self):
        # a free probe in a discrete star is a zero mode, with no cutoff limit
        star = make_star(DiscreteModes((1.0,), (0.5,)), omega0_sq=0.0)
        with pytest.raises(ValueError, match="continuous star"):
            free_probe_qfi_limit(star, 0.1, [1e-3, 1e-4, 1e-5])

    @pytest.mark.parametrize("omega0_sq", [0.0, 1e-14])
    def test_free_probe_is_a_zero_mode(self, omega0_sq):
        # the one zero-mode rule: lam = 0, or below the rounding scale of the
        # secular solve, has no thermal state
        star = make_star(DiscreteModes((1.0, 2.0), (0.5, 0.5)), omega0_sq=omega0_sq)
        q = SteadyStateQuery(star=star, T=0.1)
        for call in (steady_covariances, covariance_T_derivatives, clm_qfi):
            with pytest.raises(ZeroModeError):
                call(q)
        with pytest.raises(ZeroModeError):
            qfi_curve(star, [0.1, 1.0])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_continuum_limit_of_discretized_stars(self):
        # the Gibbs state of the discretized reservoir, extrapolated in 1/N
        # from N = 2000 and 4000, is the probe state of the continuous one;
        # this oracle shares no formula with clm's quadrature
        sd = LorentzDrude(0.1, 2.0)
        q2000, q4000 = (
            SteadyStateQuery(star=discretize_clm(sd, n, 100.0, omega0_sq=0.04), T=0.05)
            for n in (2000, 4000)
        )
        c2000, c4000 = steady_covariances(q2000), steady_covariances(q4000)
        cov = steady_covariances(SteadyStateQuery(star=make_star(sd, 0.04), T=0.05))
        assert cov.s11 == pytest.approx(2.0 * c4000.s11 - c2000.s11, rel=1e-4)
        assert cov.s22 == pytest.approx(2.0 * c4000.s22 - c2000.s22, rel=1e-4)


class TestErrors:
    def test_non_cauchy_tail_raises_convergence_error(self, monkeypatch):
        values = iter([1.0, 1.1, 1.3, 2.0])
        monkeypatch.setattr(clm, "qfi_from_derivatives", lambda cov, der: next(values))
        with pytest.raises(ConvergenceError, match="non-Cauchy"):
            free_probe_qfi_limit(fig2_star(0.0), 1e-3)

    def test_non_finite_quadrature_raises_integration_error(self, monkeypatch):
        monkeypatch.setattr(clm, "quad", lambda *args, **kw: (math.nan, 0.0))
        with pytest.raises(IntegrationError, match="returned nan"):
            real_axis(fig2_star(1.0), 1e-2)

    def test_quadrature_failure_raises_without_a_warnings_filter(self, monkeypatch, recwarn):
        # quad's ier > 0 is read from its full output, not from a warning
        failing_quad(monkeypatch, "head")
        with pytest.raises(IntegrationError, match="quadrature failed: The integral is probably"):
            real_axis(fig2_star(1e-6), 1000.0)
        assert not [w for w in recwarn if issubclass(w.category, IntegrationWarning)]

    def test_soft_probe_integration_warning_raises_integration_error(self, monkeypatch):
        # a failed head surfaces typed, also where quad's warnings are errors
        failing_quad(monkeypatch, "head")
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            with pytest.raises(IntegrationError, match="quadrature failed"):
                real_axis(fig2_star(1e-6), 1000.0)

    def test_failed_tail_that_matters_raises(self, monkeypatch):
        # a failed tail as large as the head is not negligible
        failing_quad(monkeypatch, "tail", value=1.0)
        with pytest.raises(IntegrationError, match="quadrature failed: The integral is probably"):
            real_axis(fig2_star(1.0), 1e-2)

    def test_failed_negligible_tail_is_accepted(self, monkeypatch):
        # QUADPACK reports a tail beyond B as probably divergent (ier = 5),
        # but |tail| + abserr is ~3e-14 of the head: the state is kept
        failed, real_quad = [], clm.quad

        def quad(f, a, b, **kwargs):
            out = real_quad(f, a, b, **kwargs)
            if b == math.inf and len(out) > 3:
                failed.append(a)
            return out

        monkeypatch.setattr(clm, "quad", quad)
        star = make_star(LorentzDrude(0.38351724040439156, 1.2084992817599587), 4.509333221142534)
        t = 277.38314292695895
        assert SingleModeCovariance(*real_axis(star, t)).det() >= 0.25
        assert real_axis(star, t, derivative=True)[0] > 0.0
        assert failed

    def test_soft_probe_at_high_temperature_is_classical(self):
        # its tail beyond B fails (ier = 5) but is negligible; equipartition
        # gives s22 = T for the unit-mass probe
        assert real_axis(fig2_star(1e-6), 1000.0)[1] == pytest.approx(1000.0, rel=1e-2)


def failing_quad(monkeypatch, part, value=None):
    """Patch clm.quad so the head [lo, B] or the tail [B, inf] reports
    QUADPACK's ier = 5, optionally with a given value."""
    real = clm.quad

    def quad(f, a, b, **kwargs):
        out = real(f, a, b, **kwargs)
        if (b == math.inf) == (part == "tail"):
            v = out[0] if value is None else value
            return v, out[1], out[2], "The integral is probably divergent, or slowly convergent."
        return out

    monkeypatch.setattr(clm, "quad", quad)
