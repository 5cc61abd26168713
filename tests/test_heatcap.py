"""Tests for free-mode and Ising heat capacities.

The thermodynamic-identity oracle differentiates the exact mean energy by
central finite differences; the global-thermometry cross-link checks
F = C/T^2 against the per-mode Gaussian QFI machinery.
"""

import math

import numpy as np
import pytest

from qthermo import (
    ChainSpec,
    IsingSpec,
    ModeSystem,
    chain_spectrum,
    gapless_frequency_sq,
    ising_heat_capacity,
    ising_spectrum,
    lattice_heat_capacity,
    low_temperature_bound,
    mode_heat_capacity,
    power_law_chain,
    qfi_from_derivatives,
    thermal_mode_covariance,
    thermal_mode_derivatives,
)


def mean_energy(m, T):
    """Thermal energy sum_n eps_n/(e^(eps_n/T) -+ 1), zero-point part dropped."""
    sign = -1.0 if m.statistics == "bosonic" else 1.0
    return float(np.sum(m.energies / (np.exp(m.energies / T) + sign)))


class TestModeHeatCapacity:
    def test_bosonic_equipartition_limit(self):
        assert mode_heat_capacity("bosonic", 1.0, 1e3) == pytest.approx(1.0, abs=1e-5)

    def test_fermionic_unit_ratio(self):
        expected = math.e / (1.0 + math.e) ** 2  # ~0.19661
        assert mode_heat_capacity("fermionic", 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_exponential_suppression(self):
        for stat in ("bosonic", "fermionic"):
            assert mode_heat_capacity(stat, 50.0, 1.0) < 1e-18

    def test_overflow_guard(self):
        assert mode_heat_capacity("bosonic", 800.0, 1.0) == 0.0

    def test_fermionic_below_bosonic(self):
        for x in (0.5, 1.0, 3.0):
            assert mode_heat_capacity("fermionic", x, 1.0) < mode_heat_capacity(
                "bosonic", x, 1.0
            )


class TestLatticeHeatCapacity:
    def test_additivity_for_identical_modes(self):
        m = ModeSystem("bosonic", (1.3,) * 7)
        single = mode_heat_capacity("bosonic", 1.3, 0.4)
        assert lattice_heat_capacity(m, 0.4) == pytest.approx(7 * single, rel=1e-14)

    def test_extensivity_doubling(self):
        energies = (0.5, 1.0, 2.0)
        m1 = ModeSystem("fermionic", energies)
        m2 = ModeSystem("fermionic", energies + energies)
        assert lattice_heat_capacity(m2, 0.3) == pytest.approx(
            2.0 * lattice_heat_capacity(m1, 0.3), rel=1e-14
        )

    def test_vanishes_at_low_t_for_gapped_systems(self):
        m = ModeSystem("bosonic", (0.5, 1.0, 1.5))
        assert lattice_heat_capacity(m, 0.005) < 1e-39  # ~(bD)^2 e^(-bD), bD = 100

    def test_thermodynamic_identity(self):
        # C = d<H>/dT by central differences on the exact mean energy
        rng = np.random.default_rng(4)
        for stat in ("bosonic", "fermionic"):
            energies = tuple(np.sort(rng.uniform(0.2, 3.0, 12)))
            m = ModeSystem(stat, energies)
            t = 0.7
            h = 1e-5 * t
            fd = (mean_energy(m, t + h) - mean_energy(m, t - h)) / (2 * h)
            assert lattice_heat_capacity(m, t) == pytest.approx(fd, rel=1e-6)

    def test_low_temperature_bound_randomized(self):
        # C_N <= N (beta Delta)^2 e^(-beta Delta)/(1 -+ e^(-beta Delta))^2
        # for every gapped system once beta*Delta >= 4
        rng = np.random.default_rng(123)
        for _ in range(1000):
            stat = "bosonic" if rng.random() < 0.5 else "fermionic"
            n_modes = int(rng.integers(1, 30))
            gap = float(rng.uniform(0.1, 2.0))
            energies = np.concatenate(([gap], gap + rng.exponential(1.0, n_modes - 1)))
            m = ModeSystem(stat, tuple(energies))
            bd = float(rng.uniform(4.0, 40.0))
            t = gap / bd
            assert lattice_heat_capacity(m, t) <= low_temperature_bound(m, t) * (1 + 1e-12)

    def test_low_temperature_bound_refuses_beta_gap_below_4(self):
        # at beta*Delta = 1 the fermionic N C(Delta, T) is 0.393, under the
        # capacity 0.617 it would bound; beta*Delta = 4 is still in its domain
        m = ModeSystem("fermionic", (1.0, 2.0))
        assert lattice_heat_capacity(m, 1.0) == pytest.approx(0.617, abs=1e-3)
        with pytest.raises(ValueError, match=r"beta\*Delta >= 4"):
            low_temperature_bound(m, 1.0)
        assert low_temperature_bound(m, 0.25) == 2.0 * mode_heat_capacity("fermionic", 1.0, 0.25)

    def test_global_chain_thermometry_cross_link(self):
        # thermal TIHC: sum of per-mode QFIs equals C_total / T^2
        base = power_law_chain(30, 0.0, G=1.0, t=2.5)
        c = ChainSpec(
            N=30,
            omega_sq=gapless_frequency_sq(30, base.couplings) + 0.25,
            couplings=base.couplings,
        )
        f = np.sqrt(chain_spectrum(c).array)
        freqs = np.concatenate([f, f[1:]])  # the 2N+1 modes, degeneracy unfolded
        t = 0.5
        f_sum = sum(
            qfi_from_derivatives(
                thermal_mode_covariance(w, t), thermal_mode_derivatives(w, t)
            )
            for w in freqs
        )
        c_total = lattice_heat_capacity(ModeSystem("bosonic", tuple(freqs)), t)
        assert f_sum == pytest.approx(c_total / t**2, rel=1e-8)


class TestIsingSpectrum:
    def test_gap_at_k_zero(self):
        spec = IsingSpec(J=0.5, h=1.0, N=10**4)
        eps = ising_spectrum(spec)
        assert eps.min() == pytest.approx(1.0, rel=1e-12)  # Delta = 2|h-J|
        assert eps.size == 10**4

    def test_band_edges(self):
        spec = IsingSpec(J=0.5, h=1.0, N=1000)
        eps = ising_spectrum(spec)
        assert eps.max() == pytest.approx(2.0 * 1.5, rel=1e-12)
        assert np.all(eps >= 1.0 - 1e-12)

    def test_critical_point_closes(self):
        eps = ising_spectrum(IsingSpec(J=1.0, h=1.0, N=10**4))
        assert eps.min() == pytest.approx(0.0, abs=1e-12)

    def test_spec_keeps_one_read_only_spectrum(self):
        spec = IsingSpec(J=0.5, h=1.0, N=100)
        assert spec.spectrum is spec.spectrum
        assert np.array_equal(spec.spectrum, ising_spectrum(spec))
        with pytest.raises(ValueError):
            spec.spectrum[0] = 0.0


class TestIsingHeatCapacity:
    def test_exact_vs_asymptotic_at_bd_20(self):
        spec = IsingSpec(J=0.5, h=1.0, N=10**4)
        t = spec.gap / 20.0
        exact = ising_heat_capacity(spec, t, "exact")
        asym = ising_heat_capacity(spec, t, "asymptotic")
        assert 0.9 <= exact / asym <= 1.1

    def test_error_shrinks_with_bd(self):
        spec = IsingSpec(J=0.5, h=1.0, N=10**4)
        errs = []
        for bd in (10.0, 20.0):
            t = spec.gap / bd
            ratio = ising_heat_capacity(spec, t, "exact") / ising_heat_capacity(
                spec, t, "asymptotic"
            )
            errs.append(abs(ratio - 1.0))
        assert 1.5 <= errs[0] / errs[1] <= 3.0  # ~2x per doubling, O(1/bD)

    def test_asymptotic_gate(self):
        spec = IsingSpec(J=0.5, h=1.0, N=100)
        with pytest.raises(ValueError):
            ising_heat_capacity(spec, spec.gap / 3.0, "asymptotic")

    def test_asymptotic_rejected_at_criticality(self):
        spec = IsingSpec(J=1.0, h=1.0, N=100)
        with pytest.raises(ValueError):
            ising_heat_capacity(spec, 0.01, "asymptotic")

    def test_exact_matches_direct_qubit_sum(self):
        spec = IsingSpec(J=0.7, h=1.1, N=500)
        t = 0.3
        direct = sum(mode_heat_capacity("fermionic", e, t) for e in ising_spectrum(spec))
        assert ising_heat_capacity(spec, t, "exact") == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 100, 101, 10**4, 10**4 + 1])
    def test_levels_of_k_and_minus_k_are_equal_bit_for_bit(self, N):
        # the exact sum takes each +-k pair once, from the levels of k <= 0
        eps = IsingSpec(J=0.7, h=1.1, N=N).spectrum
        k0 = N // 2  # index of k = 0
        assert np.array_equal(eps[k0 + 1:], eps[k0 - 1::-1][: N - k0 - 1])

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 101, 10**4])
    @pytest.mark.parametrize("J, h", [(0.7, 1.1), (1.0, 0.999), (1.3, 0.2)])
    def test_level_sum_equals_the_sum_over_every_mode(self, N, J, h):
        spec = IsingSpec(J=J, h=h, N=N)
        for t in (0.05, 0.3, 1.0, 10.0):
            full = math.fsum(mode_heat_capacity("fermionic", float(e), t) for e in spec.spectrum)
            assert ising_heat_capacity(spec, t, "exact") == pytest.approx(full, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
def test_bad_temperature_is_rejected(T):
    # a NaN used to fail every exp-floor comparison and return C = 0
    spec = IsingSpec(J=1.0, h=0.5, N=100)
    m = ModeSystem("bosonic", (0.5, 1.0))
    calls = (
        lambda: ising_heat_capacity(spec, T, "exact"),
        lambda: ising_heat_capacity(spec, T, "asymptotic"),
        lambda: mode_heat_capacity("bosonic", 1.0, T),
        lambda: lattice_heat_capacity(m, T),
        lambda: low_temperature_bound(m, T),
    )
    for call in calls:
        with pytest.raises(ValueError, match="temperature"):
            call()


@pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_energy_scale_is_rejected(x):
    # a NaN energy used to fall out of the exp-floor mask: C read 0 for the
    # mode, and a ModeSystem with a NaN mode summed only the others
    calls = (
        lambda: IsingSpec(J=x, h=0.5, N=100),
        lambda: IsingSpec(J=1.0, h=x, N=100),
        lambda: ModeSystem("bosonic", (x, 1.0)),
        lambda: mode_heat_capacity("bosonic", x, 1.0),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_ising_input_is_checked():
    spec = IsingSpec(J=1.0, h=0.5, N=100)
    with pytest.raises(ValueError, match="N >= 2"):
        IsingSpec(J=1.0, h=0.5, N=1)
    with pytest.raises(ValueError, match="unknown mode 'approx'"):
        ising_heat_capacity(spec, 1.0, "approx")
    # beyond beta*Delta = 700 the capacity is exactly 0.0, where the formula's
    # (beta*Delta)^(3/2) would overflow at beta*Delta = 1e300
    assert ising_heat_capacity(spec, 1e-300, "asymptotic") == 0.0


def test_unknown_statistics_is_rejected():
    # "qubit" was a synonym of "fermionic"; the Ising chain's modes are fermionic
    with pytest.raises(ValueError, match="unknown statistics 'qubit'"):
        ModeSystem("qubit", (0.5, 1.0))
