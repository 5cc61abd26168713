"""Tests for spectral density models, self-energy, and discretization."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qthermo import (
    DiscreteModes,
    ExponentialCutoff,
    IntegrationError,
    LorentzDrude,
    StarSpec,
    discretize_clm,
    make_star,
    renormalization_frequency_sq,
    self_energy,
    self_energy_pv,
    susceptibility_abs_sq,
)
from qthermo import cli, spectral


def ld_self_energy_closed(gamma, wc, w):
    return gamma * wc**3 / (w * w + wc * wc)


class TestEvaluate:
    def test_lorentz_drude_at_cutoff(self):
        sd = LorentzDrude(gamma=0.1, omega_c=100.0)
        assert sd.j(100.0) == pytest.approx(10.0, rel=1e-14)

    def test_exponential_cutoff_origin_and_slope(self):
        sd = ExponentialCutoff(gamma=1.0, omega_c=1.0, s=1.0)
        assert sd.j(0.0) == 0.0
        h = 1e-7
        slope = (sd.j(h) - sd.j(0.0)) / h
        assert slope == pytest.approx(math.pi / 2.0, rel=1e-6)

    @pytest.mark.parametrize(
        "sd",
        [
            LorentzDrude(gamma=0.1, omega_c=100.0),
            ExponentialCutoff(gamma=0.2, omega_c=5.0, s=1.0),
            ExponentialCutoff(gamma=0.2, omega_c=5.0, s=0.5),
            ExponentialCutoff(gamma=0.2, omega_c=5.0, s=2.3),
        ],
        ids=["ld", "exp-s1", "exp-s0.5", "exp-s2.3"],
    )
    def test_scalar_and_array_j_agree_bitwise(self, sd):
        # j is one formula for floats and arrays: a float gives a float (a
        # NumPy float64 for the exponential cutoff, whose exp is NumPy's)
        # and an array gives the same bits entry by entry
        v = sd.j(0.7)
        if isinstance(sd, LorentzDrude):
            assert type(v) is float
        else:
            assert isinstance(v, float)
        w = np.concatenate(([0.0], np.geomspace(1e-9, 1e4, 257)))
        out = sd.j(w)
        assert isinstance(out, np.ndarray) and out.shape == w.shape
        assert out.tobytes() == np.array([sd.j(float(x)) for x in w]).tobytes()

    def test_discrete_estimate_recovers_continuum(self):
        sd = LorentzDrude(gamma=0.1, omega_c=2.0)
        star = discretize_clm(sd, 500, 40.0)
        modes = star.sd
        w = modes.omega_array
        window = (w >= 0.2) & (w <= 10.0)  # [wc/10, 5 wc]
        # binned estimate pi g^2 / (w dw), dw the central mode spacing
        jhat = (np.pi * modes.g_array**2 / (w * np.gradient(w)))[window]
        jcont = sd.j(w[window])
        assert np.max(np.abs(jhat - jcont) / jcont) < 0.02


class TestRenormalizationFrequency:
    def test_lorentz_drude_closed_form(self):
        assert renormalization_frequency_sq(LorentzDrude(0.1, 2.0)) == pytest.approx(0.2)

    def test_exponential_cutoff_vs_quadrature(self):
        sd = ExponentialCutoff(gamma=0.4, omega_c=3.0, s=1.7)
        oracle = quad(lambda w: sd.j(w) / w, 0.0, np.inf, limit=200)[0] / np.pi
        assert renormalization_frequency_sq(sd) == pytest.approx(oracle, rel=1e-9)

    def test_discrete_single_mode(self):
        modes = DiscreteModes((2.0,), (1.0,))
        assert renormalization_frequency_sq(modes) == pytest.approx(0.25, rel=1e-14)

    def test_discretized_reference_value(self):
        star = discretize_clm(LorentzDrude(0.1, 2.0), 2000, 100.0)
        assert star.omega_R_sq == pytest.approx(0.195853, abs=2e-6)


class TestSelfEnergy:
    def test_lorentz_drude_pv_matches_closed_form(self):
        sd = LorentzDrude(gamma=0.1, omega_c=2.0)
        for w in np.linspace(0.0, 20.0, 21):
            closed = ld_self_energy_closed(0.1, 2.0, w)
            assert self_energy_pv(sd, w) == pytest.approx(closed, rel=1e-6)
            assert self_energy(sd, w) == pytest.approx(closed, rel=1e-12)

    def test_zero_frequency_is_renormalization(self):
        for sd in (LorentzDrude(0.1, 2.0), ExponentialCutoff(0.5, 1.5, 1.0)):
            assert self_energy(sd, 0.0) == pytest.approx(
                renormalization_frequency_sq(sd), rel=1e-10
            )

    def test_exponential_cutoff_pv_vs_cauchy_weight_quadrature(self):
        # independent PV oracle: scipy 'cauchy' weight on the factored pole
        sd = ExponentialCutoff(gamma=0.5, omega_c=1.5, s=1.0)
        w = 2.3
        inner = quad(
            lambda x: sd.j(x) * x / (x + w), 0.0, 20.0, weight="cauchy", wvar=w, limit=200
        )[0]
        tail = quad(lambda x: sd.j(x) * x / (x * x - w * w), 20.0, np.inf, limit=200)[0]
        oracle = (inner + tail) / np.pi
        assert self_energy_pv(sd, w) == pytest.approx(oracle, rel=1e-7)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.3])
    def test_exponential_cutoff_against_mpmath(self, s):
        # s = 1 has a closed form in Ei and E1; otherwise a 30-digit PV
        # integral, folded about the pole: PV int_0^2w h(x)/(x - w) dx is
        # int_0^w (h(w + u) - h(w - u))/u du, with h = J x/(x + w)
        mp = pytest.importorskip("mpmath")
        gamma, wc = 0.3, 2.0
        sd = ExponentialCutoff(gamma, wc, s)
        for w in (0.05, 0.7, 2.0, 9.0):
            with mp.workdps(30):
                g, c, sm, wm = mp.mpf(gamma), mp.mpf(wc), mp.mpf(s), mp.mpf(w)
                if s == 1.0:
                    x = wm / c
                    pv = mp.exp(-x) * mp.ei(x) + mp.exp(x) * mp.e1(x)
                    oracle = g / 2 * (c - wm / 2 * pv)
                else:

                    def h(x):
                        j = g * mp.pi / 2 * x**sm / c ** (sm - 1) * mp.exp(-x / c)
                        return j * x / (x + wm)

                    near = mp.quad(lambda u: (h(wm + u) - h(wm - u)) / u, [0, wm])
                    far = mp.quad(lambda x: h(x) / (x - wm), [2 * wm, mp.inf])
                    oracle = (near + far) / mp.pi
            assert self_energy(sd, w) == pytest.approx(float(oracle), rel=1e-8), w

    def test_discrete_modes_are_refused(self):
        # a discrete star takes the normal-mode route, never the self-energy
        with pytest.raises(TypeError, match="continuous spectral density"):
            self_energy(DiscreteModes((2.0,), (1.0,)), 1.0)


class TestSusceptibility:
    @pytest.mark.parametrize(
        "sd", [LorentzDrude(0.1, 100.0), ExponentialCutoff(0.5, 1.5, 1.0)]
    )
    def test_static_cancellation(self, sd):
        star = make_star(sd, omega0_sq=1.0)
        assert susceptibility_abs_sq(star, 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_lorentz_drude_real_part_closed_form(self):
        gamma, wc, w0sq = 0.1, 2.0, 1.5
        star = make_star(LorentzDrude(gamma, wc), omega0_sq=w0sq)
        for w in (0.3, 1.0, 2.7, 9.0):
            re = w0sq - w * w + gamma * wc * w * w / (w * w + wc * wc)
            im = star.sd.j(w)
            assert susceptibility_abs_sq(star, w) == pytest.approx(
                re * re + im * im, rel=1e-12
            )

    def test_free_probe_low_frequency_is_j_squared(self):
        star = make_star(LorentzDrude(0.1, 100.0), omega0_sq=0.0)
        for w in (1e-4, 1e-3, 1e-2):
            ratio = susceptibility_abs_sq(star, w) / star.sd.j(w) ** 2
            assert ratio == pytest.approx(1.0, abs=5e-3)


class TestDiscretize:
    def test_bin_couplings_match_quadrature(self):
        sd = LorentzDrude(0.1, 2.0)
        star = discretize_clm(sd, 50, 20.0)
        modes = star.sd
        a = 20.0 / 50
        for n in (1, 7, 25, 50):
            lo, hi = (n - 0.5) * a, (n + 0.5) * a
            oracle = n * a / np.pi * quad(sd.j, lo, hi)[0]
            assert modes.gs[n - 1] ** 2 == pytest.approx(oracle, rel=1e-10)

    def test_star_renormalization_consistency(self):
        star = discretize_clm(LorentzDrude(0.1, 2.0), 200, 40.0)
        ref = float(np.sum(star.sd.g_array**2 / star.sd.omega_array**2))
        assert star.omega_R_sq == pytest.approx(ref, rel=1e-14)

    def test_single_mode_degenerate_case(self):
        star = discretize_clm(LorentzDrude(0.1, 2.0), 1, 10.0)
        assert len(star.sd.omegas) == 1
        assert star.sd.omegas[0] == pytest.approx(10.0)

    def test_regime_warning(self):
        star = discretize_clm(LorentzDrude(0.1, 2.0), 10, 100.0)  # N <= wmax/wc
        assert star.warnings
        ok = discretize_clm(LorentzDrude(0.1, 2.0), 400, 40.0)
        assert not ok.warnings

    def test_generic_model_quadrature_path(self):
        sd = ExponentialCutoff(gamma=0.2, omega_c=2.0, s=1.0)
        star = discretize_clm(sd, 300, 30.0)
        cont = renormalization_frequency_sq(sd)
        assert star.omega_R_sq == pytest.approx(cont, rel=0.03)


def discretization_residual(sd, n_modes, omega_max):
    """(deficit, predicted leading term) of the discretized omega_R^2, as the
    discretize experiment reports them: deficit = gamma wc - sum g_n^2/w_n^2,
    and the leading prediction gamma omega_max/(pi N), valid for
    N >> omega_max/wc >> 1."""
    raw = {
        "experiment": "discretize",
        "gamma": repr(sd.gamma),
        "omega_c": repr(sd.omega_c),
        "n_modes": str(n_modes),
        "omega_max": repr(omega_max),
    }
    *_, extra = cli._run_discretize(cli._Config(raw))
    return extra["deficit"], extra["predicted_leading"]


class TestDiscretizationResidual:
    def test_reference_values(self):
        sd = LorentzDrude(0.1, 2.0)
        deficit, predicted = discretization_residual(sd, 2000, 100.0)
        assert deficit == pytest.approx(0.2 - 0.195853, abs=5e-6)
        assert predicted == pytest.approx(0.1 * 100.0 / (np.pi * 2000), rel=1e-12)
        # leading term under-predicts; the rest is the O(wc/wmax) piece
        assert 0.0 < predicted < deficit

    def test_doubling_n_halves_leading_term(self):
        sd = LorentzDrude(0.1, 2.0)
        _, p1 = discretization_residual(sd, 1000, 100.0)
        _, p2 = discretization_residual(sd, 2000, 100.0)
        assert p1 / p2 == pytest.approx(2.0, rel=1e-12)

    def test_larger_omega_max_shrinks_subleading_piece(self):
        # at fixed a = wmax/(N wc), the deficit minus the leading term is
        # O(wc/wmax) and should fall ~2x when wmax doubles
        sd = LorentzDrude(0.1, 2.0)
        d1, p1 = discretization_residual(sd, 1000, 50.0)
        d2, p2 = discretization_residual(sd, 2000, 100.0)
        assert (d1 - p1) / (d2 - p2) == pytest.approx(2.0, rel=0.1)

    def test_monotone_in_n(self):
        sd = LorentzDrude(0.1, 2.0)
        deficits = [discretization_residual(sd, n, 100.0)[0] for n in (200, 400, 800, 1600)]
        assert all(a > b for a, b in zip(deficits, deficits[1:]))



@pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_model_parameter_is_rejected(x):
    # these used to pass the positivity checks (nan <= 0 and inf <= 0 are
    # False) and give NaN couplings or infinite modes downstream
    ld = LorentzDrude(0.1, 2.0)
    calls = (
        lambda: LorentzDrude(gamma=x, omega_c=2.0),
        lambda: LorentzDrude(gamma=0.1, omega_c=x),
        lambda: ExponentialCutoff(gamma=x, omega_c=2.0, s=1.0),
        lambda: ExponentialCutoff(gamma=0.1, omega_c=x, s=1.0),
        lambda: ExponentialCutoff(gamma=0.1, omega_c=2.0, s=x),
        lambda: discretize_clm(ld, 50, x),
        lambda: StarSpec(omega0_sq=x, sd=ld),
        lambda: DiscreteModes((1.0, x), (0.1, 0.1)),
        lambda: DiscreteModes((1.0, 2.0), (0.1, x)),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


class TestQuadratureFailures:
    """QUADPACK's ier > 0 raises IntegrationError with quad's message."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: self_energy_pv(ExponentialCutoff(0.2, 2.0, 1.0), 1.0),
            lambda: discretize_clm(ExponentialCutoff(0.2, 2.0, 1.0), 4, 8.0),
        ],
        ids=["self-energy", "discretization"],
    )
    def test_failure_raises(self, monkeypatch, call):
        def quad(f, a, b, **kwargs):
            assert kwargs["full_output"]
            return 1.0, 1.0, {}, "The maximum number of subdivisions has been achieved."

        monkeypatch.setattr(spectral, "quad", quad)
        with pytest.raises(IntegrationError, match="quadrature failed: The maximum number"):
            call()
