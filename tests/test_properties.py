"""Property-based checks of the chain and star mappings, the node state, and
the Brownian probe's pole sums and steady state.

Examples are derandomized, so every run of the same source draws the same
ones.  Hypothesis also draws from the literals in the package's source, so
an edit there can change them.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from qthermo import (
    ChainSpec,
    ConvergenceError,
    DiscreteModes,
    IntegrationError,
    InvalidStateError,
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
    free_probe_qfi_limit,
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
from qthermo import clm
from qthermo.gaussian import (
    PHYSICALITY_TOL,
    CovarianceDerivatives,
    SingleModeCovariance,
    qfi_from_derivatives,
)
from qthermo.mapping import _probe_column
from qthermo.spectral import _alpha

FIXED = settings(derandomize=True, max_examples=30, deadline=None)


def star_spec(star):
    """The StarSpec of an EffectiveStar: its coupled modes and bare frequency."""
    return make_star(DiscreteModes(tuple(star.omega_array), tuple(star.g_array)), star.omega0_sq)


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
    return StarSpec(omega0_sq=omega0_sq, sd=DiscreteModes(tuple(w), tuple(g)))


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
    return StarSpec(omega0_sq=omega0_sq, sd=DiscreteModes(tuple(w), tuple(g)))


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
# a free probe with one coupled mode: dlasd4 solves a single pole, and
# returns its delta and work as 1, not as d - sigma and d + sigma
@example(StarSpec(0.0, DiscreteModes((2.0,), (1.0,))))
def test_star_probe_column_matches_the_dense_eigenvectors(star):
    # the probe's weights: squares of the first row of the dense eigh,
    # its columns descending
    dense = scipy.linalg.eigh(dense_arrowhead(star))[1][0, ::-1] ** 2
    ev, c2 = _probe_column(star)
    assert np.array_equal(ev, clm_normal_modes(star))
    assert abs(np.sum(c2) - 1.0) <= 1e-13
    assert np.max(np.abs(c2 - dense)) <= 1e-10 * np.max(c2)


def dense_gibbs_state(star, T):
    """The probe's (s11, s22) in the Gibbs state of a trapped discrete star.

    V = M M^T with M = [[w0, g/w], [0, diag(w)]], so the normal modes are
    the singular values s_j of M and the probe's amplitudes the first row
    of its left singular vectors.  LAPACK's preconditioned Jacobi SVD
    (dgejsv; Drmac and Veselic) finds the lowest s_j, which carries s11, to
    a few eps relative; a dense eigh of [[0, M], [M^T, 0]] finds it only to
    eps * max s, which missed rel 1e-12 by 6x at w0^2 = 1e-3, w = 60.
    """
    w, g = star.sd.omega_array, star.sd.g_array
    m = np.diag(np.concatenate(([math.sqrt(star.omega0_sq)], w)))
    m[0, 1:] = g / w
    sva, u, _, work, _, info = scipy.linalg.lapack.dgejsv(m)
    assert info == 0
    om, c2 = sva * (work[0] / work[1]), u[0] ** 2
    nu = 1.0 / np.tanh(om / (2.0 * T))
    return float(np.sum(c2 * nu / (2.0 * om))), float(np.sum(c2 * om * nu / 2.0))


@FIXED
@given(sparse_discrete_stars(), st.floats(-1.5, 1.0))
@example(StarSpec(1e-3, DiscreteModes((60.0,), (0.5,))), 0.0)
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
    star = star_spec(chain_to_star(chain))
    spec = chain.spectrum.array
    ev, c2 = _probe_column(star)
    # rounding is on the scale of the largest mode, as in any dense eigh
    assert np.max(np.abs(ev - spec)) <= 1e-12 * spec[0]
    weights = np.full(spec.size, 2.0 / (2 * chain.N + 1))
    weights[0] /= 2.0
    assert np.max(np.abs(c2 - weights)) <= 1e-12
    # so the node's state is the probe's steady state; a mode's rounding of
    # 1e-12 * spec[0] is relative 1e-12 * spec[0] / spec[-1] on the lowest,
    # and no absolute floor lets tiny derivatives pass unchecked
    ts = [0.01, 0.1, 1.0]
    rel = min(1e-10, 1e-12 * spec[0] / spec[-1])
    for t, cov, der in zip(ts, *node_moments(chain, ts, regularize_gapless=False)):
        q = SteadyStateQuery(star=star, T=t)
        probe = steady_covariances(q), covariance_T_derivatives(q)
        assert (cov.s11, cov.s22) == pytest.approx(
            (probe[0].s11, probe[0].s22), rel=rel, abs=0.0
        )
        assert (der.a1, der.a2) == pytest.approx((probe[1].a1, probe[1].a2), rel=rel, abs=0.0)
    # and the gapless chain's zero mode is the nearly free probe's: the one
    # zero-mode rule refuses both
    gapless = ChainSpec(chain.N, gapless_frequency_sq(chain.N, chain.couplings), chain.couplings)
    free = SteadyStateQuery(star=star_spec(chain_to_star(gapless)), T=0.1)
    with pytest.raises(ZeroModeError):
        node_moments(gapless, [0.1], regularize_gapless=False)
    with pytest.raises(ZeroModeError):
        steady_covariances(free)


def decades(lo, hi):
    """A float in [10^lo, 10^hi): a decade 10^k, k from lo to hi - 1, times a
    mantissa in [1, 10), so that no one value takes a large share of draws."""
    mantissa = st.floats(1.0, 10.0, exclude_max=True)
    return st.builds(lambda k, m: m * 10.0**k, st.integers(lo, hi - 1), mantissa)


@st.composite
def ld_pole_queries(draw):
    """A Lorentz-Drude star from a nearly free to a stiff probe, and a
    temperature from 1e-4 to 10."""
    sd = LorentzDrude(draw(st.floats(0.01, 0.5)), draw(st.floats(1.0, 100.0)))
    star = make_star(sd, draw(decades(-6, 1)))
    return SteadyStateQuery(star=star, T=draw(decades(-4, 1)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ld_pole_queries())
# wR^2 = 5e7 w0^2, where a subtracted Re alpha = (w0^2 + wR^2) - w^2 - S costs 4e-9
@example(SteadyStateQuery(make_star(LorentzDrude(0.5, 100.0), 1e-6), T=1e-2))
# a2 = 4.1e-14, where an absolute floor epsabs = 1e-14 cost 1.3e-3 relative
@example(SteadyStateQuery(make_star(LorentzDrude(0.125, 1.0), 10.0), T=1e-4))
def test_pole_sums_are_the_real_axis_integrals(q):
    # the closed form against the quadrature from 0 that it replaces
    (s11, s22), (a1, a2) = clm._pole_sums(*clm._poles(q.star), [q.T])
    try:
        axis = [m for d in (False, True) for m in real_axis(q.star, q.T, 0.0, d)]
    except IntegrationError as exc:
        assert refused(exc)
        reject()
    for pole, real in zip((s11[0], s22[0], a1[0], a2[0]), axis):
        assert pole == pytest.approx(real, rel=1e-8, abs=0.0)


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
    return isinstance(exc, InvalidStateError) or "quadrature failed" in str(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ld_probe_queries())
def test_steady_covariance_is_physical_or_refused(q):
    try:
        cov = steady_covariances(q)
    except (IntegrationError, InvalidStateError) as exc:
        assert refused(exc)
        return
    assert cov.det() >= 0.25


@settings(derandomize=True, max_examples=50, deadline=None)
@given(ld_probe_queries())
def test_derivative_and_fidelity_routes_agree(q):
    try:
        f_d = clm_qfi(q)
        f_f = clm_qfi_fidelity(q, step_fraction=1e-2)
    except (IntegrationError, InvalidStateError) as exc:
        assert refused(exc)
        reject()
    # the fidelity drop F (step T)^2 / 8 must clear binary64 rounding of the
    # fidelity for the finite difference to resolve F
    assume(f_d * (1e-2 * q.T) ** 2 > 1e-10)
    assert f_f == pytest.approx(f_d, rel=1e-3)


@st.composite
def ld_sweeps(draw):
    """A Lorentz-Drude reservoir and probe frequency, a lower limit of the
    real axis (0 when the probe is trapped), and temperatures from 0.03 to 100, so
    that B = max(B0, 1000 T) is shared by some and not by others; the first
    temperature comes again at the end."""
    sd = LorentzDrude(draw(st.floats(0.01, 0.5)), draw(st.floats(1.0, 100.0)))
    omega0_sq = draw(st.one_of(st.just(0.0), st.floats(0.1, 10.0)))
    omega_min = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)))
    assume(omega0_sq > 0.0 or omega_min > 0.0)
    ts = draw(st.lists(st.floats(-1.5, 2.0).map(lambda x: 10.0**x), min_size=1, max_size=4))
    return sd, omega0_sq, omega_min, ts + ts[:1]


def real_axis(star, T, lo, derivative):
    """(s11, s22), or (a1, a2) when derivative, on clm's private real axis
    from lo: a query of a Lorentz-Drude star takes the pole sums instead."""
    return clm._weighted_moments(star, T, lo, math.inf, derivative)


def moments_or_refusal(star, T, omega_min, derivatives=(False, True)):
    out = []
    for derivative in derivatives:
        try:
            out.append(real_axis(star, T, omega_min, derivative))
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
    except (IntegrationError, InvalidStateError):
        return
    fresh = [qfi_curve(make_star(sd, omega0_sq), [t]) for t in grid]
    assert list(curve.qfi) == [c.qfi[0] for c in fresh]
    assert list(curve.covariances) == [c.covariances[0] for c in fresh]


def mp_weight(star, w):
    """J/|alpha|^2 of a Lorentz-Drude star at 40 digits, with Im alpha = J and
    Re alpha = w0^2 + gamma wc - w^2 - gamma wc^3/(w^2 + wc^2), the closed-form
    S, and its condition number |d ln W/d ln w|."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, c, w0, x = (mp.mpf(v) for v in (star.sd.gamma, star.sd.omega_c, star.omega0_sq, w))

        def weight(y):
            jw = 2 * g * y * c**2 / (y**2 + c**2)
            re = w0 + g * c - y**2 - g * c**3 / (y**2 + c**2)
            return jw / (re**2 + jw**2)

        value = weight(x)
        return float(value), float(abs(x * mp.diff(weight, x) / value))


def composed_kernel(T, derivative):
    """coth(w/2T), or (w/2T^2) csch^2(w/2T), through the scalar coth and
    csch2 that the real axis called before clm._kernel inlined them."""

    def coth(x):
        return 1.0 if x > 350.0 else 1.0 + 2.0 / math.expm1(2.0 * x)

    def csch2(x):
        return 0.0 if x > 350.0 else 1.0 / (math.sinh(x) * math.sinh(x))

    def kernel(w):
        return (w / (2.0 * T * T)) * csch2(w / (2.0 * T)) if derivative else coth(w / (2.0 * T))

    return kernel


@st.composite
def ld_real_axis_queries(draw):
    """(star, T, lo): a Lorentz-Drude star, free (omega_0 = 0) or trapped, a
    temperature from 1e-3 to 5 and a lower limit lo = omega_min from 1e-7 to
    1e-3: x = w/2T runs from below 1 at lo to beyond 350 at B >= 1000 T."""
    sd = LorentzDrude(draw(st.floats(0.01, 0.5)), draw(st.floats(1.0, 200.0)))
    star = make_star(sd, draw(st.one_of(st.just(0.0), st.floats(1e-6, 10.0))))
    omega_min = 10.0 ** draw(st.floats(-7.0, -3.0))
    return star, 10.0 ** draw(st.floats(-3.0, 0.7)), omega_min


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ld_real_axis_queries(), st.floats(1e-9, 1e5))
# the free_probe recipe's star at its smallest cutoff
@example((make_star(LorentzDrude(0.1, 100.0), 0.0), 1e-3, 1e-7), 1.0)
def test_real_axis_weight_is_the_40_digit_one(axis, w):
    # the real axis's node, Im alpha/|alpha|^2 from spectral's alpha, takes the
    # rational Re alpha, with no subtraction: (w0^2 + wR^2) - w^2 - S(w) lost
    # ~eps wR^2/w0^2 near w = 0 (3.1e-8 on these draws).  Rounding w^2 alone
    # moves W by cond eps/2, which near a sharp resonance exceeds 1e-14, so
    # the bound scales with cond.
    star, _, lo = axis
    for v in (w, *np.geomspace(lo, 1e5, 60)):
        expected, cond = mp_weight(star, float(v))
        re, im = _alpha(star, float(v))
        tol = 1e-14 * max(1.0, cond)
        assert im / (re * re + im * im) == pytest.approx(expected, rel=tol, abs=0.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ld_real_axis_queries())
@example((make_star(LorentzDrude(0.1, 100.0), 0.0), 1e-3, 1e-7))
def test_inline_real_axis_is_the_composed_one_bit_for_bit(axis):
    # the inline kernel against the scalar coth and csch^2, on one weight
    star, T, lo = axis
    for derivative in (False, True):
        # a fresh star each, so neither side reads the other's kept tails; a
        # refusal must be the same refusal
        fresh = make_star(star.sd, star.omega0_sq)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clm, "_kernel", composed_kernel)
            expected = moments_or_refusal(fresh, T, lo, [derivative])
        assert moments_or_refusal(star, T, lo, [derivative]) == expected


@st.composite
def free_probe_sweeps(draw):
    """A free (omega_0 = 0) Lorentz-Drude probe, a temperature from 1e-3 to 5
    and a ratio-10 sequence of 3 to 5 cutoffs from 1e-4 to 1e-2 down."""
    star = make_star(LorentzDrude(draw(st.floats(0.01, 0.5)), draw(st.floats(1.0, 200.0))), 0.0)
    first = 10.0 ** draw(st.floats(-4.0, -2.0))
    seq = [first / 10.0**k for k in range(draw(st.integers(3, 5)))]
    return star, 10.0 ** draw(st.floats(-3.0, math.log10(5.0))), seq


@settings(derandomize=True, max_examples=100, deadline=None)
@given(free_probe_sweeps())
# the free_probe recipe's star, temperature and cutoffs
@example((make_star(LorentzDrude(0.1, 100.0), 0.0), 1e-3, [1e-4 / 10.0**k for k in range(4)]))
def test_free_probe_sweep_is_the_per_query_qfi(sweep):
    # the sweep integrates [omega_1, inf) once and adds each smaller cutoff's
    # segment; every sample is the QFI of its own query from omega_min up,
    # within perfbench's tolerance
    star, T, seq = sweep
    try:
        _, samples = free_probe_qfi_limit(star, T, seq)
    except ConvergenceError:  # cutoffs above T are short of their Cauchy tail
        reject()
    except (IntegrationError, InvalidStateError) as exc:
        assert refused(exc)
        reject()
    assert [wm for wm, _ in samples] == seq
    for wm, f in samples:
        fresh = make_star(star.sd, 0.0)
        try:
            cov, der = (real_axis(fresh, T, wm, derivative) for derivative in (False, True))
        except IntegrationError as exc:  # a lone cutoff's [wm, inf) may fail
            assert refused(exc)
            continue
        per_query = qfi_from_derivatives(SingleModeCovariance(*cov), CovarianceDerivatives(*der))
        assert f == pytest.approx(per_query, rel=1e-8, abs=0.0)


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
