"""qthermo: low-temperature quantum thermometry at desk scale.

Gaussian single-mode metrology (fidelity, QFI), exact Brownian-probe
steady states over Ohmic reservoirs, translationally invariant
harmonic-chain spectra and local thermometry, chain/star mappings with
reservoir discretization, and free-mode / Ising heat capacities, plus
scaling-law fits and a config-driven CLI.
"""

from .chain import (
    ChainSpec,
    ChainSpectrum,
    chain_spectrum,
    exponential_chain,
    gap_error_scaling,
    gapless_frequency_sq,
    node_covariances,
    node_moments,
    node_qfi,
    power_law_chain,
)
from .clm import (
    SteadyStateQuery,
    clm_qfi,
    clm_qfi_fidelity,
    covariance_T_derivatives,
    free_probe_qfi_limit,
    qfi_curve,
    steady_covariances,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateStateError,
    DivergenceError,
    FitError,
    IntegrationError,
    InvalidStateError,
    ModeMatchingError,
    PoleError,
    QThermoError,
    StepTooSmallError,
    UnstableChainError,
    ZeroModeError,
)
from .fits import ScalingFit, fit_exponential_gap, fit_power_law, loglog_fit
from .gaussian import (
    CovarianceDerivatives,
    QfiCurve,
    SingleModeCovariance,
    coth,
    csch2,
    qfi_from_derivatives,
    qfi_from_fidelity,
    thermal_mode_covariance,
    thermal_mode_derivatives,
    uhlmann_fidelity,
)
from .heatcap import (
    IsingSpec,
    ModeSystem,
    ising_heat_capacity,
    ising_spectrum,
    lattice_heat_capacity,
    low_temperature_bound,
    mean_thermal_energy,
    mode_heat_capacity,
)
from .mapping import (
    ChainReconstruction,
    DelocalizationProfile,
    EffectiveStar,
    chain_to_star,
    clm_normal_modes,
    probe_delocalization,
    star_coupling_scaling,
    star_to_chain,
)
from .spectral import (
    DiscreteModes,
    ExponentialCutoff,
    GenericOhmic,
    LorentzDrude,
    StarSpec,
    discretization_residual,
    discretize_clm,
    low_frequency_slope,
    make_star,
    renormalization_frequency_sq,
    self_energy,
    self_energy_pv,
    susceptibility_abs_sq,
)

__version__ = "0.1.0"
