"""Property-based checks of the chain and star mappings, the node state, and
the Brownian probe's integrands and steady state.

Examples are derandomized, so every run draws the same ones.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from qthermo import (
    ChainSpec,
    DiscreteModes,
    IntegrationError,
    LorentzDrude,
    StarSpec,
    SteadyStateQuery,
    chain_to_star,
    clm_qfi,
    clm_qfi_fidelity,
    clm_normal_modes,
    gapless_frequency_sq,
    make_star,
    node_covariances,
    power_law_chain,
    star_to_chain,
    steady_covariances,
)
from qthermo.clm import _integrands
from qthermo.gaussian import PHYSICALITY_TOL, coth, csch2
from qthermo.mapping import _probe_column
from qthermo.spectral import susceptibility_real

FIXED = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def physical_chains(draw, max_half=300):
    """Gapped power-law chains G_n = G/n^t: non-negative couplings, and a
    spectrum that falls strictly with the mode index for t >= 1."""
    n = draw(st.integers(1, max_half))
    t = draw(st.floats(1.0, 5.0))
    g = draw(st.floats(0.1, 10.0))
    gap = draw(st.floats(1e-3, 3.0))
    base = power_law_chain(n, 0.0, G=g, t=t)
    return ChainSpec(n, gapless_frequency_sq(n, base.couplings) + gap * gap, base.couplings)


@FIXED
@given(physical_chains())
def test_star_to_chain_round_trips_the_couplings(chain):
    spec = chain.spectrum.array
    assert np.all(np.diff(spec) < 0.0)
    rec = star_to_chain(spec)
    scale = float(np.max(spec))
    assert rec.physical
    assert rec.chain.N == chain.N
    assert abs(rec.chain.omega_sq - chain.omega_sq) <= 1e-13 * scale
    assert np.max(np.abs(rec.chain.coupling_array - chain.coupling_array)) <= 1e-13 * scale


@st.composite
def discrete_stars(draw):
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    w = np.cumsum(gaps)
    g = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    omega0_sq = draw(st.floats(0.01, 10.0))
    return StarSpec(
        omega0_sq=omega0_sq,
        omega_R_sq=float(np.sum(g**2 / w**2)),
        sd=DiscreteModes(tuple(w), tuple(g)),
    )


@FIXED
@given(discrete_stars())
def test_star_normal_modes_strictly_interlace_the_reservoir(star):
    ev = np.sort(clm_normal_modes(star))
    bath = star.sd.omega_array**2
    assert ev.size == bath.size + 1
    assert np.all(ev[:-1] < bath) and np.all(bath < ev[1:])


@FIXED
@given(
    physical_chains(max_half=400),
    st.lists(st.floats(-4.0, 2.0), min_size=1, max_size=5),
)
def test_node_covariances_satisfy_the_uncertainty_bound(chain, log10_temperatures):
    for log10_t in log10_temperatures:
        cov = node_covariances(chain, 10.0**log10_t)
        assert cov.det() >= 0.25 - PHYSICALITY_TOL


@st.composite
def sparse_discrete_stars(draw):
    """Discrete stars with some couplings, and sometimes w0^2, exactly 0."""
    n = draw(st.integers(1, 60))
    w = np.cumsum(draw(st.lists(st.floats(1e-3, 2.0), min_size=n, max_size=n)))
    coupling = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    g = np.array(draw(st.lists(coupling, min_size=n, max_size=n)))
    omega0_sq = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    assume(omega0_sq > 0.0 or np.any(g > 0.0))
    return StarSpec(
        omega0_sq=omega0_sq,
        omega_R_sq=float(np.sum(g**2 / w**2)),
        sd=DiscreteModes(tuple(w), tuple(g)),
    )


def dense_arrowhead(star):
    w = star.sd.omega_array
    g = star.sd.g_array
    arrowhead = np.diag(np.concatenate(([star.omega0_sq + star.omega_R_sq], w * w)))
    arrowhead[0, 1:] = arrowhead[1:, 0] = g
    return arrowhead


@FIXED
@given(sparse_discrete_stars())
def test_star_normal_modes_match_the_dense_arrowhead(star):
    dense = np.linalg.eigvalsh(dense_arrowhead(star))[::-1]
    ev = clm_normal_modes(star)
    assert np.all(np.diff(ev) <= 0.0)
    assert np.max(np.abs(ev - dense)) <= 1e-12 * dense[0]


@FIXED
@given(sparse_discrete_stars())
def test_star_probe_column_matches_the_dense_eigenvectors(star):
    # columns of the dense eigh, descending, each signed so that its
    # largest entry is positive: the sign rule probe_delocalization uses
    vals, vecs = scipy.linalg.eigh(dense_arrowhead(star))
    vecs = vecs[:, ::-1]
    top = np.argmax(np.abs(vecs), axis=0)
    dense = vecs[0] * np.sign(vecs[top, np.arange(vals.size)])
    ev, c = _probe_column(star)
    assert np.array_equal(ev, clm_normal_modes(star))
    assert abs(np.sum(c * c) - 1.0) <= 1e-13
    assert np.max(np.abs(c - dense)) <= 1e-10 * np.max(np.abs(c))


@FIXED
@given(physical_chains(max_half=100))
def test_chain_node_is_the_probe_of_its_effective_star(chain):
    # the paper's mapping: the star of one node against the rest of the
    # chain has the chain's non-repeated modes, and the probe's weight in
    # each is the node's circulant weight, 1/(2N+1) for the uniform mode
    # and 2/(2N+1) for each cosine mode
    star = chain_to_star(chain).to_star_spec()
    spec = chain.spectrum.array
    ev, c = _probe_column(star)
    # rounding is on the scale of the largest mode, as in any dense eigh
    assert np.max(np.abs(ev - spec)) <= 1e-12 * spec[0]
    weights = np.full(spec.size, 2.0 / (2 * chain.N + 1))
    weights[0] /= 2.0
    assert np.max(np.abs(c * c - weights)) <= 1e-12


small = st.floats(1e-8, 1e-3)
order_one = st.floats(0.1, 10.0)


@st.composite
def ld_stars_and_frequencies(draw):
    """A Lorentz-Drude star, a frequency near 0, near the resonance of
    Re alpha, or far above the cutoff, and a temperature that puts
    x = w/2T below 1, between 1 and 350, or beyond the x > 350 branch."""
    sd = LorentzDrude(draw(st.one_of(small, order_one)), draw(st.one_of(small, order_one)))
    star = make_star(sd, draw(st.one_of(st.just(0.0), small, order_one)))
    near_zero = st.floats(1e-12, 1e-6).map(lambda x: x * sd.omega_c)
    res = star._resonance or math.sqrt(star.omega0_sq + star.omega_R_sq)
    near_res = st.floats(-1e-3, 1e-3).map(lambda d: res * (1.0 + d))
    far = st.floats(1.0, 6.0).map(lambda k: sd.omega_c * 10.0**k)
    w = draw(st.one_of(near_zero, near_res, far))
    x = draw(st.one_of(st.floats(1e-8, 1.0), st.floats(1.0, 350.0), st.floats(351.0, 1e8)))
    return star, w, w / (2.0 * x)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ld_stars_and_frequencies())
def test_fused_lorentz_drude_weight_is_the_composed_one(star_w_t):
    # the fused Lorentz-Drude integrands against the functions they inline
    star, w, T = star_w_t
    j = star.sd.j(w)
    re = susceptibility_real(star, w)
    weight = j / (re * re + j * j)
    heat = coth(w / (2.0 * T))
    dheat = (w / (2.0 * T * T)) * csch2(w / (2.0 * T))
    s11, s22 = _integrands(star, T, derivative=False)
    a1, a2 = _integrands(star, T, derivative=True)
    assert s11(w) == weight * heat
    assert s22(w) == w * w * weight * heat
    assert a1(w) == weight * dheat
    assert a2(w) == w * w * weight * dheat


@st.composite
def ld_probe_queries(draw):
    """A trapped probe in a Lorentz-Drude reservoir, from weak to strong
    damping and from a cutoff at the probe's frequency to far above it,
    and a temperature from 0.03 to 5."""
    sd = LorentzDrude(draw(st.floats(0.01, 0.5)), draw(st.floats(1.0, 100.0)))
    star = make_star(sd, draw(st.floats(0.1, 10.0)))
    return SteadyStateQuery(star=star, T=10.0 ** draw(st.floats(-1.5, 0.7)))


def refused(exc):
    # the steady state is refused, never returned wrong, when a quadrature
    # fails or the moments are unphysical (ROADMAP item 1 makes some draws
    # unphysical: det < 1/4 at weak damping with the cutoff near the probe)
    message = str(exc)
    return "quadrature failed" in message or "unphysical steady covariance" in message


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ld_probe_queries())
def test_steady_covariance_is_physical_or_refused(q):
    try:
        cov = steady_covariances(q)
    except IntegrationError as exc:
        assert refused(exc)
        return
    assert cov.det() >= 0.25


@settings(derandomize=True, max_examples=50, deadline=None)
@given(ld_probe_queries())
def test_derivative_and_fidelity_routes_agree(q):
    try:
        f_d = clm_qfi(q)
        f_f = clm_qfi_fidelity(q, step_fraction=1e-2)
    except IntegrationError as exc:
        assert refused(exc)
        reject()
    # the fidelity drop F (step T)^2 / 8 must clear binary64 rounding of the
    # fidelity for the finite difference to resolve F
    assume(f_d * (1e-2 * q.T) ** 2 > 1e-10)
    assert f_f == pytest.approx(f_d, rel=1e-3)
