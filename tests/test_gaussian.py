"""Tests for single-mode Gaussian metrology.

Oracles used here and nowhere else:
* truncated-Fock-space fidelity for thermal states (diagonal states, so
  F = (sum_n sqrt(p_n q_n))^2 with geometric populations),
* the analytic thermal-mode QFI (beta w)^2 / (4 T^2 sinh^2(beta w / 2)).
"""

import math

import mpmath
import numpy as np
import pytest

from qthermo import (
    CovarianceDerivatives,
    DegenerateStateError,
    InvalidStateError,
    QfiCurve,
    SingleModeCovariance,
    StepTooSmallError,
    qfi_from_derivatives,
    qfi_from_fidelity,
    thermal_mode_covariance,
    thermal_mode_derivatives,
    uhlmann_fidelity,
)
from qthermo.gaussian import _mode_sums


def fock_thermal_fidelity(omega, T_a, T_b, n_max=200):
    """Brute-force fidelity between two thermal states on a truncated basis."""
    n = np.arange(n_max + 1)

    def populations(T):
        x = omega / T
        return (1.0 - np.exp(-x)) * np.exp(-x * n)

    return float(np.sum(np.sqrt(populations(T_a) * populations(T_b))) ** 2)


def bures_distance_sq(a, b):
    """Squared Bures distance 2(1 - sqrt(F)), zero iff a == b."""
    return 2.0 * (1.0 - math.sqrt(uhlmann_fidelity(a, b)))


def thermal_qfi_oracle(omega, T):
    x = omega / T
    return x * x / (4.0 * T * T * math.sinh(x / 2.0) ** 2)


class TestThermalCovariance:
    def test_vacuum_limit(self):
        cov = thermal_mode_covariance(1.0, 1e-6)
        assert abs(cov.s11 - 0.5) < 1e-12
        assert abs(cov.s22 - 0.5) < 1e-12

    def test_unit_frequency_unit_temperature(self):
        cov = thermal_mode_covariance(1.0, 1.0)
        expected = (1.0 / math.tanh(0.5)) / 2.0  # coth(1/2)/2 ~ 1.08198
        assert abs(cov.s11 - expected) < 1e-14
        assert abs(cov.s22 - expected) < 1e-14

    def test_momentum_position_ratio_is_omega_sq(self):
        cov = thermal_mode_covariance(2.0, 1.0)
        assert cov.s22 / cov.s11 == pytest.approx(4.0, rel=1e-14)

    def test_determinant_is_quarter_coth_sq(self):
        cov = thermal_mode_covariance(0.7, 0.3)
        nu = 1.0 / math.tanh(0.7 / 0.6)
        assert cov.det() == pytest.approx(nu * nu / 4.0, rel=1e-13)


class TestUhlmannFidelity:
    def test_identity(self):
        a = thermal_mode_covariance(1.0, 1.0)
        assert uhlmann_fidelity(a, a) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry(self):
        a = thermal_mode_covariance(1.0, 0.5)
        b = thermal_mode_covariance(2.0, 1.5)
        assert uhlmann_fidelity(a, b) == pytest.approx(uhlmann_fidelity(b, a), rel=1e-14)

    def test_quadratic_departure_in_delta(self):
        a = thermal_mode_covariance(1.0, 1.0)
        d1 = 1.0 - uhlmann_fidelity(a, thermal_mode_covariance(1.0, 1.0 + 0.01))
        d2 = 1.0 - uhlmann_fidelity(a, thermal_mode_covariance(1.0, 1.0 + 0.005))
        assert d1 / d2 == pytest.approx(4.0, rel=0.02)

    @pytest.mark.parametrize(
        "ta,tb",
        [(0.5, 0.6), (0.3, 0.35), (1.0, 1.7), (2.0, 2.5)],
    )
    def test_against_fock_space_oracle(self, ta, tb):
        omega = 1.0
        a = thermal_mode_covariance(omega, ta)
        b = thermal_mode_covariance(omega, tb)
        oracle = fock_thermal_fidelity(omega, ta, tb)
        assert uhlmann_fidelity(a, b) == pytest.approx(oracle, rel=1e-8)

    def test_bounds_on_random_physical_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w1, w2 = np.exp(rng.uniform(-1, 1, 2))
            t1, t2 = np.exp(rng.uniform(-1, 1, 2))
            f = uhlmann_fidelity(
                thermal_mode_covariance(w1, t1), thermal_mode_covariance(w2, t2)
            )
            assert 0.0 < f <= 1.0

    def test_rejects_unphysical_state(self):
        with pytest.raises(InvalidStateError):
            uhlmann_fidelity(
                SingleModeCovariance(0.1, 0.1),
                thermal_mode_covariance(1.0, 1.0),
            )

    def test_near_vacuum_tolerance(self):
        # quadrature-level noise below det = 1/4 must not be rejected
        eps = 1e-13
        a = SingleModeCovariance(0.5 - eps, 0.5 - eps)
        assert uhlmann_fidelity(a, a) == pytest.approx(1.0, abs=1e-9)


class TestBuresDistance:
    def test_zero_iff_equal(self):
        a = thermal_mode_covariance(1.0, 1.0)
        assert bures_distance_sq(a, a) == pytest.approx(0.0, abs=1e-14)
        b = thermal_mode_covariance(1.0, 1.2)
        assert bures_distance_sq(a, b) > 0.0

    def test_small_delta_expansion_matches_qfi(self):
        # d_B^2(rho_T, rho_{T+d}) = (1/4) F_T d^2 + O(d^3)
        omega, T = 1.3, 0.8
        qfi = qfi_from_derivatives(
            thermal_mode_covariance(omega, T), thermal_mode_derivatives(omega, T)
        )
        delta = 1e-4
        db2 = bures_distance_sq(
            thermal_mode_covariance(omega, T), thermal_mode_covariance(omega, T + delta)
        )
        assert db2 == pytest.approx(0.25 * qfi * delta * delta, rel=1e-3)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t1, t2, t3 = np.exp(rng.uniform(-1, 1, 3))
            a = thermal_mode_covariance(1.0, t1)
            b = thermal_mode_covariance(1.0, t2)
            c = thermal_mode_covariance(1.0, t3)
            dab = math.sqrt(bures_distance_sq(a, b))
            dac = math.sqrt(bures_distance_sq(a, c))
            dcb = math.sqrt(bures_distance_sq(c, b))
            assert dab <= dac + dcb + 1e-12


class TestQfiFromFidelity:
    def test_thermal_unit_point(self):
        f = qfi_from_fidelity(lambda T: thermal_mode_covariance(1.0, T), 1.0, step_fraction=1e-3)
        assert f == pytest.approx(thermal_qfi_oracle(1.0, 1.0), rel=1e-6)
        assert f == pytest.approx(0.9207, abs=2e-4)

    def test_high_temperature_equipartition(self):
        # T^2 * F -> 1 as the bosonic mode approaches its classical limit
        T = 1e3
        f = qfi_from_fidelity(lambda t: thermal_mode_covariance(1.0, t), T, step_fraction=1e-3)
        assert T * T * f == pytest.approx(1.0, abs=1e-4)

    def test_constant_family_gives_zero(self):
        frozen = thermal_mode_covariance(1.0, 1.0)
        f = qfi_from_fidelity(lambda T: frozen, 1.0, step_fraction=1e-3)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_fourth_order_convergence(self):
        # the Richardson step removes the d^2 term of the central difference,
        # so halving the step cuts the error ~16x
        oracle = thermal_qfi_oracle(1.0, 1.0)
        cov_at = lambda T: thermal_mode_covariance(1.0, T)
        e1 = abs(qfi_from_fidelity(cov_at, 1.0, 0.08) - oracle)
        e2 = abs(qfi_from_fidelity(cov_at, 1.0, 0.04) - oracle)
        assert e1 / e2 == pytest.approx(16.0, rel=0.1)

    def test_step_validation(self):
        cov_at = lambda T: thermal_mode_covariance(1.0, T)
        with pytest.raises(ValueError):
            qfi_from_fidelity(cov_at, 1.0, step_fraction=0.5)
        with pytest.raises(StepTooSmallError):
            qfi_from_fidelity(cov_at, 1.0, step_fraction=1e-14)


class TestQfiFromDerivatives:
    def test_thermal_unit_point(self):
        f = qfi_from_derivatives(
            thermal_mode_covariance(1.0, 1.0), thermal_mode_derivatives(1.0, 1.0)
        )
        assert f == pytest.approx(thermal_qfi_oracle(1.0, 1.0), rel=1e-12)

    def test_zero_derivatives_give_zero(self):
        cov = thermal_mode_covariance(1.0, 1.0)
        assert qfi_from_derivatives(cov, CovarianceDerivatives(0.0, 0.0)) == 0.0

    def test_free_probe_limit(self):
        # s11 -> inf with a1/s11 = 1/T reproduces the free-particle 1/(2T^2)
        T = 0.7
        s11 = 1e8
        cov = SingleModeCovariance(s11=s11, s22=thermal_mode_covariance(1.0, T).s22)
        der = CovarianceDerivatives(a1=s11 / T, a2=0.0)
        assert qfi_from_derivatives(cov, der) == pytest.approx(
            1.0 / (2.0 * T * T), rel=1e-6
        )

    @pytest.mark.parametrize("a1", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_derivatives(self, a1):
        cov = thermal_mode_covariance(1.0, 1.0)
        with pytest.raises(ValueError, match="derivatives must be finite"):
            qfi_from_derivatives(cov, CovarianceDerivatives(a1, 1.0))

    def test_rejects_pure_state(self):
        vacuum = SingleModeCovariance(0.5, 0.5)
        with pytest.raises(DegenerateStateError):
            qfi_from_derivatives(vacuum, CovarianceDerivatives(1.0, 1.0))


class TestColumns:
    """A sweep's states are columns over T: one check, one QFI evaluation."""

    s11 = np.array([1.0, 0.6, 0.1, 2.0, 0.2])
    s22 = np.array([1.0, 0.5, 0.1, 0.2, 0.2])

    def test_unphysical_row_is_named(self):
        # rows 2 and 4 have det < 1/4: the error names the first
        with pytest.raises(InvalidStateError, match=r"at row 2: s11=0\.1 s22=0\.1 det="):
            SingleModeCovariance(self.s11, self.s22)
        with pytest.raises(InvalidStateError, match=r"relation det >= 1/4: s11=0\.1 s22=0\.1 det="):
            SingleModeCovariance(0.1, 0.1)  # a state has no row

    def test_non_positive_variance_row_is_named(self):
        with pytest.raises(InvalidStateError, match="at row 1: s11=-1.0"):
            SingleModeCovariance(np.array([1.0, -1.0]), np.array([1.0, -1.0]))
        with pytest.raises(InvalidStateError, match="at row 0: s11=0.1 s22=0.1"):
            SingleModeCovariance(np.array([0.1, 1.0]), 0.1)  # a float broadcasts over the column

    def test_rows_are_float_states(self):
        cov = SingleModeCovariance(self.s11[:2], self.s22[:2])
        assert [cov[0], cov[1]] == list(cov) == [SingleModeCovariance(1.0, 1.0), SingleModeCovariance(0.6, 0.5)]
        assert type(cov[1].s11) is float
        with pytest.raises(IndexError):
            cov[2]

    def test_equal_columns_compare_equal(self):
        cov = SingleModeCovariance(self.s11[:2], self.s22[:2])
        der = CovarianceDerivatives(self.s11, self.s22)
        assert cov == SingleModeCovariance(self.s11[:2].copy(), self.s22[:2].copy())
        assert der == CovarianceDerivatives(self.s11.copy(), self.s22.copy())
        assert der != CovarianceDerivatives(self.s22, self.s11)

    def test_one_row_difference_breaks_equality(self):
        s22 = self.s22[:2].copy()
        s22[1] = np.nextafter(s22[1], 1.0)
        assert SingleModeCovariance(self.s11[:2], self.s22[:2]) != SingleModeCovariance(self.s11[:2], s22)
        assert SingleModeCovariance(self.s11[:2], self.s22[:2]) != SingleModeCovariance(self.s11[:1], self.s22[:1])

    def test_float_states_compare_by_value_and_do_not_hash(self):
        assert SingleModeCovariance(1.0, 0.5) == SingleModeCovariance(1.0, 0.5)
        assert SingleModeCovariance(1.0, 0.5) != SingleModeCovariance(1.0, 0.6)
        assert CovarianceDerivatives(1.0, 0.5) != SingleModeCovariance(1.0, 0.5)  # another class
        with pytest.raises(TypeError, match="unhashable"):
            hash(SingleModeCovariance(1.0, 0.5))

    def test_qfi_column_is_each_row_bit_for_bit(self):
        omegas, ts = (0.3, 1.0, 4.0), np.geomspace(0.2, 20.0, 7)
        for omega in omegas:
            states = [(thermal_mode_covariance(omega, t), thermal_mode_derivatives(omega, t)) for t in ts]
            cov = SingleModeCovariance(*np.array([(c.s11, c.s22) for c, _ in states]).T)
            der = CovarianceDerivatives(*np.array([(d.a1, d.a2) for _, d in states]).T)
            column = qfi_from_derivatives(cov, der)
            assert column.tolist() == [qfi_from_derivatives(c, d) for c, d in states]
            assert type(qfi_from_derivatives(*states[0])) is float

    def test_bad_rows_are_named_by_the_qfi(self):
        cov = SingleModeCovariance(np.array([1.0, 1.0, 0.5]), np.array([1.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match="derivatives must be finite at row 1: a1=nan"):
            qfi_from_derivatives(cov, CovarianceDerivatives(np.array([1.0, math.nan, 1.0]), np.ones(3)))
        with pytest.raises(DegenerateStateError, match="at row 2: denom=0.0"):
            qfi_from_derivatives(cov, CovarianceDerivatives(np.ones(3), np.ones(3)))


class TestModeSums:
    """One expm1 per mode: coth x = 1 + r and csch^2 x = r(2 + r), r = 2/expm1(2x)."""

    @pytest.mark.parametrize("x", [1e-8, 1e-3, 1.0, 349.9, 350.0])
    def test_matches_closed_form_coth_and_csch_sq(self, x):
        # om = x at T = 1/2 makes x = om/2T exact; d coth x/dT = 2x csch^2 x there
        cov, der = _mode_sums(np.array([x]), np.ones(1), [0.5])
        with mpmath.workdps(30):
            coth, csch_sq = mpmath.coth(x), mpmath.csch(x) ** 2
            expected = (coth / (2 * x), x * coth / 2, csch_sq, x * x * csch_sq)
        for got, want in zip((cov.s11, cov.s22, der.a1, der.a2), expected):
            assert float(got[0]) == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("x", [350.1, 1e4])
    def test_coth_and_csch_sq_are_exactly_one_and_zero_past_350(self, x):
        cov, der = _mode_sums(np.array([x]), np.ones(1), [0.5])
        assert cov.s11[0] == 1.0 / (2.0 * x) and cov.s22[0] == x / 2.0
        assert der.a1[0] == 0.0 and der.a2[0] == 0.0


class TestRouteAgreement:
    def test_thermal_families_agree(self):
        # grid spans T in [1e-3, 1e2], w in [1e-2, 1e2]; points with
        # beta*omega > 14 are excluded: there 1 - F underflows in binary64
        # and neither route resolves the (exponentially small) QFI
        for omega in np.geomspace(1e-2, 1e2, 9):
            for x in np.geomspace(0.1, 14.0, 9):  # x = beta*omega
                T = omega / x
                if not 1e-3 <= T <= 1e2:
                    continue
                f_d = qfi_from_derivatives(
                    thermal_mode_covariance(omega, T),
                    thermal_mode_derivatives(omega, T),
                )
                f_f = qfi_from_fidelity(
                    lambda t, w=omega: thermal_mode_covariance(w, t), T, step_fraction=1e-3
                )
                assert f_f == pytest.approx(f_d, rel=1e-4)

    def test_oracle_agreement_everywhere_representable(self):
        for omega in np.geomspace(1e-2, 1e2, 12):
            for x in np.geomspace(0.1, 15.0, 12):
                T = omega / x
                f = qfi_from_derivatives(
                    thermal_mode_covariance(omega, T),
                    thermal_mode_derivatives(omega, T),
                )
                assert f == pytest.approx(thermal_qfi_oracle(omega, T), rel=1e-8)


class TestQfiCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            QfiCurve((1.0, 0.5), (1.0, 1.0))  # not increasing
        with pytest.raises(ValueError):
            QfiCurve((0.5, 1.0), (1.0, -1.0))  # negative qfi
        with pytest.raises(ValueError, match="equal length"):
            QfiCurve((0.5, 1.0), (1.0,))
        # a temperature <= 0 used to give a negative or infinite error (and a
        # RuntimeWarning), and NaN or inf passed
        for ts in ((-1.0, 1.0), (0.0, 1.0), (math.nan,), (1.0, math.inf)):
            with pytest.raises(ValueError, match="positive and finite"):
                QfiCurve(ts, (1.0,) * len(ts))

    def test_covariance_count_must_match(self):
        with pytest.raises(ValueError, match="one covariance per temperature"):
            QfiCurve((0.5, 1.0), (1.0, 1.0), SingleModeCovariance(np.ones(1), np.ones(1)))
        with pytest.raises(ValueError, match="one covariance per temperature"):
            QfiCurve((0.5,), (1.0,), thermal_mode_covariance(1.0, 0.5))  # a state, not a column

    def test_from_moments_and_rows(self):
        ts = (0.5, 1.0)
        moments = [(thermal_mode_covariance(1.0, t), thermal_mode_derivatives(1.0, t)) for t in ts]
        cov = SingleModeCovariance(*np.array([(c.s11, c.s22) for c, _ in moments]).T)
        der = CovarianceDerivatives(*np.array([(d.a1, d.a2) for _, d in moments]).T)
        curve = QfiCurve.from_moments(np.array(ts), (cov, der))
        assert curve.covariances is cov
        assert np.array_equal(curve.temperatures, ts)
        assert np.array_equal(curve.qfi, [qfi_from_derivatives(*m) for m in moments])
        assert not curve.temperatures.flags.writeable and not curve.qfi.flags.writeable
        rows = curve.rows()
        for row, t, f, (c, _) in zip(rows, ts, curve.qfi, moments):
            assert row == [t, 1.0 / t, c.s11, c.s22, f, 1.0 / (t * math.sqrt(f))]
        with pytest.raises(ValueError):
            QfiCurve(ts, curve.qfi).rows()  # no covariances to tabulate

    def test_rel_error(self):
        curve = QfiCurve((0.5, 1.0), (4.0, 0.0))
        rel = curve.rel_error_single_shot()
        assert rel[0] == pytest.approx(1.0 / (0.5 * 2.0))
        assert np.isinf(rel[1])
