"""Property-based checks of the chain and star mappings, the node state, and
the Brownian probe's weight.

Examples are derandomized, so every run draws the same ones.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qthermo import (
    ChainSpec,
    DiscreteModes,
    LorentzDrude,
    StarSpec,
    clm_normal_modes,
    gapless_frequency_sq,
    make_star,
    node_covariances,
    power_law_chain,
    star_to_chain,
)
from qthermo.gaussian import PHYSICALITY_TOL
from qthermo.spectral import _probe_weight, susceptibility_real

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


@FIXED
@given(sparse_discrete_stars())
def test_star_normal_modes_match_the_dense_arrowhead(star):
    w = star.sd.omega_array
    g = star.sd.g_array
    arrowhead = np.diag(np.concatenate(([star.omega0_sq + star.omega_R_sq], w * w)))
    arrowhead[0, 1:] = arrowhead[1:, 0] = g
    dense = np.linalg.eigvalsh(arrowhead)[::-1]
    ev = clm_normal_modes(star)
    assert np.all(np.diff(ev) <= 0.0)
    assert np.max(np.abs(ev - dense)) <= 1e-12 * dense[0]


small = st.floats(1e-8, 1e-3)
order_one = st.floats(0.1, 10.0)


@st.composite
def ld_stars_and_frequencies(draw):
    """A Lorentz-Drude star and a frequency near 0, near the resonance of
    Re alpha, or far above the cutoff."""
    sd = LorentzDrude(draw(st.one_of(small, order_one)), draw(st.one_of(small, order_one)))
    star = make_star(sd, draw(st.one_of(st.just(0.0), small, order_one)))
    near_zero = st.floats(1e-12, 1e-6).map(lambda x: x * sd.omega_c)
    res = star._resonance or math.sqrt(star.omega0_sq + star.omega_R_sq)
    near_res = st.floats(-1e-3, 1e-3).map(lambda d: res * (1.0 + d))
    far = st.floats(1.0, 6.0).map(lambda k: sd.omega_c * 10.0**k)
    return star, draw(st.one_of(near_zero, near_res, far))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ld_stars_and_frequencies())
def test_fused_lorentz_drude_weight_is_the_composed_one(star_and_omega):
    star, w = star_and_omega
    j = star.sd.j(w)
    re = susceptibility_real(star, w)
    assert _probe_weight(star)(w) == j / (re * re + j * j)
