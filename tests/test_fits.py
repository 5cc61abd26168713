"""Tests for scaling-law regression."""

import numpy as np
import pytest

from qthermo import (
    FitError,
    QfiCurve,
    fit_exponential_gap,
    fit_power_law,
    loglog_fit,
)


def make_curve(ts, fs):
    return QfiCurve(tuple(float(t) for t in ts), tuple(float(f) for f in fs))


class TestPowerLawFit:
    def test_exact_quadratic(self):
        ts = np.geomspace(0.1, 10.0, 20)
        fit = fit_power_law(make_curve(ts, 7.0 * ts**2))
        assert fit.exponent_or_gap == pytest.approx(2.0, abs=1e-6)
        assert fit.prefactor == pytest.approx(7.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 20

    def test_exact_inverse_square(self):
        ts = np.geomspace(0.01, 1.0, 15)
        fit = fit_power_law(make_curve(ts, 0.5 / ts**2))
        assert fit.exponent_or_gap == pytest.approx(-2.0, abs=1e-6)
        assert fit.prefactor == pytest.approx(0.5, rel=1e-6)

    def test_window_selection(self):
        ts = np.geomspace(0.01, 10.0, 40)
        fs = 3.0 * ts**2
        fs[ts > 1.0] *= 100.0  # corrupt outside the window
        fit = fit_power_law(make_curve(ts, fs), window=(0.01, 1.0))
        assert fit.exponent_or_gap == pytest.approx(2.0, abs=1e-6)
        assert fit.window == (0.01, 1.0)

    def test_errors(self):
        ts = np.geomspace(0.1, 1.0, 10)
        curve = make_curve(ts, 1.0 * ts)
        with pytest.raises(FitError):
            fit_power_law(curve, window=(5.0, 10.0))  # empty
        with pytest.raises(FitError, match="empty window"):
            fit_power_law(curve, window=(0.5, 0.5))
        with pytest.raises(FitError):
            fit_power_law(make_curve([1, 2, 3], [1, 1, 1]))  # too few
        with pytest.raises(FitError):
            fit_power_law(make_curve(ts, np.zeros_like(ts)))  # non-positive
        with pytest.raises(FitError, match="equal length"):
            loglog_fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        with pytest.raises(FitError, match="degenerate"):
            loglog_fit([2.0] * 4, [1.0, 2.0, 3.0, 4.0], window=(1.0, 3.0))  # one x in the window


class TestExponentialGapFit:
    def test_exact_synthetic_gap(self):
        betas = np.linspace(100.0, 1000.0, 25)
        ts = np.sort(1.0 / betas)
        fs = 3.0 * np.exp(-0.01 / ts)
        fit = fit_exponential_gap(make_curve(ts, fs))
        assert fit.exponent_or_gap == pytest.approx(0.01, abs=1e-6)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-6)
        assert fit.kind == "exponential_gap"

    def test_rejects_non_positive_qfi(self):
        ts = np.geomspace(0.1, 1.0, 6)
        with pytest.raises(FitError, match="strictly positive QFI"):
            fit_exponential_gap(make_curve(ts, np.where(ts < 0.5, 0.0, ts)))

    def test_growing_signal_gives_negative_gap(self):
        betas = np.linspace(10.0, 100.0, 10)
        ts = np.sort(1.0 / betas)
        fs = np.exp(0.05 / ts)
        fit = fit_exponential_gap(make_curve(ts, fs))
        assert fit.exponent_or_gap == pytest.approx(-0.05, abs=1e-6)


class TestLogLogFit:
    def test_arbitrary_positive_data(self):
        x = np.geomspace(1.0, 100.0, 12)
        fit = loglog_fit(x, 2.0 * x**-1.5)
        assert fit.exponent_or_gap == pytest.approx(-1.5, abs=1e-9)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(FitError):
            loglog_fit([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(FitError, match="strictly positive, finite"):
                loglog_fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 4.0])
        with pytest.raises(FitError, match="strictly positive, finite"):
            loglog_fit([1.0, 2.0, 3.0, float("inf")], [1.0, 2.0, 3.0, 4.0])

    def test_empty_data_is_a_fit_error(self):
        # the default window of no points used to raise numpy's zero-size reduction error
        with pytest.raises(FitError, match="only 0 points inside window"):
            loglog_fit([], [])
        with pytest.raises(FitError, match="only 0 points inside window"):
            fit_power_law(make_curve([], []))


class TestChainGapRecovery:
    def test_wide_gap_chain_fit(self):
        # Delta = 0.5 chain over the crossover window beta in [3, 10]:
        # stronger signal than the Delta = 0.01 case, same -Delta slope
        import qthermo as qt

        base = qt.power_law_chain(100, 0.0, G=1.0, t=2.5)
        om2 = qt.gapless_frequency_sq(100, base.couplings) + 0.25
        chain = qt.ChainSpec(N=100, omega_sq=om2, couplings=base.couplings)
        ts = np.geomspace(0.1, 1.0 / 3.0, 25)
        fs = [qt.node_qfi(chain, float(t)) for t in ts]
        fit = fit_exponential_gap(make_curve(ts, fs))
        assert fit.exponent_or_gap == pytest.approx(0.5, rel=0.05)
