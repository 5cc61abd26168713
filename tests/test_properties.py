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
    QfiCurve,
    StarSpec,
    SteadyStateQuery,
    ZeroModeError,
    chain_to_star,
    clm_qfi,
    clm_qfi_fidelity,
    clm_normal_modes,
    covariance_T_derivatives,
    fit_exponential_gap,
    gapless_frequency_sq,
    loglog_fit,
    make_star,
    node_covariances,
    node_moments,
    power_law_chain,
    qfi_curve,
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


def dense_gibbs_state(star, T):
    """The probe's (s11, s22) in the Gibbs state of a trapped discrete star.

    V = M M^T with M = [[w0, g/w], [0, diag(w)]], so the normal modes are
    the singular values s_j of M and the probe's amplitudes the first row
    of its left singular vectors.  A dense eigh of [[0, M], [M^T, 0]]
    (eigenvalues +-s_j) finds s_j to eps * max s, not eps * max s^2 as an
    eigh of V would find s_j^2: a well-conditioned oracle for the lowest
    mode, which carries s11.
    """
    w, g = star.sd.omega_array, star.sd.g_array
    n = w.size + 1
    m = np.diag(np.concatenate(([math.sqrt(star.omega0_sq)], w)))
    m[0, 1:] = g / w
    block = np.zeros((2 * n, 2 * n))
    block[:n, n:], block[n:, :n] = m, m.T
    vals, vecs = scipy.linalg.eigh(block)
    om, c2 = vals[n:], 2.0 * vecs[0, n:] ** 2
    nu = 1.0 / np.tanh(om / (2.0 * T))
    return float(np.sum(c2 * nu / (2.0 * om))), float(np.sum(c2 * om * nu / 2.0))


@FIXED
@given(sparse_discrete_stars(), st.floats(-1.5, 1.0))
def test_discrete_star_probe_is_its_gibbs_state(star, log10_t):
    assume(star.omega0_sq > 0.0)
    q = SteadyStateQuery(star=star, T=10.0**log10_t)
    cov = steady_covariances(q)
    s11, s22 = dense_gibbs_state(star, q.T)
    assert cov.s11 == pytest.approx(s11, rel=1e-12)
    assert cov.s22 == pytest.approx(s22, rel=1e-12)
    assert cov.det() >= 0.25 - PHYSICALITY_TOL
    f_d = clm_qfi(q)
    # as in test_derivative_and_fidelity_routes_agree: the fidelity drop must
    # clear binary64 rounding for the finite difference to resolve F
    if f_d * (1e-2 * q.T) ** 2 > 1e-10:
        assert clm_qfi_fidelity(q, step_fraction=1e-2) == pytest.approx(f_d, rel=1e-3)


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
    # so the node's state is the probe's steady state; a mode's rounding of
    # 1e-12 * spec[0] is relative 1e-12 * spec[0] / spec[-1] on the lowest
    ts = [0.01, 0.1, 1.0]
    rel = 1e-12 * spec[0] / spec[-1]
    for t, (cov, der) in zip(ts, node_moments(chain, ts)):
        q = SteadyStateQuery(star=star, T=t)
        probe = steady_covariances(q), covariance_T_derivatives(q)
        assert (cov.s11, cov.s22) == pytest.approx((probe[0].s11, probe[0].s22), rel=rel)
        assert (der.a1, der.a2) == pytest.approx((probe[1].a1, probe[1].a2), rel=rel)
    # and the gapless chain's zero mode is the nearly free probe's: the one
    # zero-mode rule refuses both
    gapless = ChainSpec(chain.N, gapless_frequency_sq(chain.N, chain.couplings), chain.couplings)
    free = SteadyStateQuery(star=chain_to_star(gapless).to_star_spec(), T=0.1)
    with pytest.raises(ZeroModeError):
        node_moments(gapless, [0.1])
    with pytest.raises(ZeroModeError):
        steady_covariances(free)


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


@st.composite
def ld_sweeps(draw):
    """A Lorentz-Drude reservoir and probe frequency, an infrared cutoff
    (0 when the probe is trapped), and temperatures from 0.03 to 100, so
    that B = max(B0, 1000 T) is shared by some and not by others; the first
    temperature comes again at the end."""
    sd = LorentzDrude(draw(st.floats(0.01, 0.5)), draw(st.floats(1.0, 100.0)))
    omega0_sq = draw(st.one_of(st.just(0.0), st.floats(0.1, 10.0)))
    omega_min = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)))
    assume(omega0_sq > 0.0 or omega_min > 0.0)
    ts = draw(st.lists(st.floats(-1.5, 2.0).map(lambda x: 10.0**x), min_size=1, max_size=4))
    return sd, omega0_sq, omega_min, ts + ts[:1]


def moments_or_refusal(star, T, omega_min):
    q = SteadyStateQuery(star=star, T=T, omega_min=omega_min)
    out = []
    for moments in (steady_covariances, covariance_T_derivatives):
        try:
            out.append(moments(q))
        except IntegrationError as exc:
            out.append(str(exc))
    return out


@FIXED
@given(ld_sweeps())
def test_reservoir_work_kept_on_the_star_changes_no_result(sweep):
    # the tails beyond B and the breakpoint skeleton kept on one star give,
    # bit for bit, what a fresh star computes for each query
    sd, omega0_sq, omega_min, ts = sweep
    star = make_star(sd, omega0_sq)
    for t in ts:
        fresh = moments_or_refusal(make_star(sd, omega0_sq), t, omega_min)
        assert moments_or_refusal(star, t, omega_min) == fresh
    if omega_min > 0.0:
        return
    grid = sorted(set(ts))
    try:
        curve = qfi_curve(star, grid)
    except IntegrationError:
        return
    fresh = [qfi_curve(make_star(sd, omega0_sq), [t]) for t in grid]
    assert list(curve.qfi) == [c.qfi[0] for c in fresh]
    assert list(curve.covariances) == [c.covariances[0] for c in fresh]


@FIXED
@given(
    st.floats(-4.0, 4.0),
    st.floats(-3.0, 3.0),
    st.floats(-4.0, 1.0),
    st.floats(0.5, 3.0),
    st.integers(4, 40),
)
def test_loglog_fit_recovers_a_power_law(p, log10_a, log10_lo, decades, n):
    x = np.geomspace(10.0**log10_lo, 10.0 ** (log10_lo + decades), n)
    fit = loglog_fit(x, 10.0**log10_a * x**p)
    assert fit.exponent_or_gap == pytest.approx(p, abs=1e-9)
    assert fit.prefactor == pytest.approx(10.0**log10_a, rel=1e-9)
    assert fit.r_squared >= 1.0 - 1e-12


@FIXED
@given(
    st.floats(-2.0, 1.0),
    st.floats(-3.0, 3.0),
    st.floats(1.0, 50.0),
    st.floats(0.3, 2.0),
    st.integers(4, 40),
)
def test_exponential_gap_fit_recovers_the_gap(log10_gap, log10_a, gap_over_t, decades, n):
    # gap / T runs from gap_over_t down by 10^decades, so F >= a e^-50
    gap = 10.0**log10_gap
    ts = np.geomspace(gap / gap_over_t, gap / gap_over_t * 10.0**decades, n)
    curve = QfiCurve(tuple(ts), tuple(10.0**log10_a * np.exp(-gap / ts)))
    fit = fit_exponential_gap(curve)
    assert fit.exponent_or_gap == pytest.approx(gap, rel=1e-9)
    assert fit.prefactor == pytest.approx(10.0**log10_a, rel=1e-9)
    assert fit.r_squared >= 1.0 - 1e-12
