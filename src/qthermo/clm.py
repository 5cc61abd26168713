"""Exact steady state of a Brownian probe in an Ohmic reservoir.

The stationary covariances of the probe are frequency integrals weighted by
the susceptibility alpha(w) = w0^2 + wR^2 - w^2 - S(w) + i J(w), defined once
in spectral; Im alpha = J is an open defect (ROADMAP item 1):

    s11 = (1/pi) int_{wmin}^inf  J(w)/|alpha(w)|^2 coth(w/2T) dw,
    s22 = (1/pi) int_{wmin}^inf  w^2 J(w)/|alpha(w)|^2 coth(w/2T) dw,

their temperature derivatives follow by differentiating under the integral
(d coth(w/2T)/dT = (w/2T^2)/sinh^2(w/2T)), and the QFI follows from the
derivative formula, the fidelity route being a cross-check.  A steady state
has wmin = 0; a free probe (omega_0 = 0) of a continuous reservoir has none,
and free_probe_qfi_limit takes its QFI at cutoffs wmin > 0 to wmin -> 0.  The
reservoir family picks the route, each doing its T-independent work once per
star; on every route the state is a gaussian.SingleModeCovariance, which
refuses det < 1/4 with InvalidStateError:

* poles (Lorentz-Drude): the weight is rational in w^2, so each
  moment is a digamma sum over a quartic's roots (Grabert, Weiss and
  Talkner, Z. Phys. B 55, 87 (1984)), every T of a sweep in one numpy pass;
* normal modes (a discrete star): gaussian's mode sum over sqrt(lam_j) with
  the probe's weights c_j^2, which mapping._probe_column returns;
* the real axis (ExponentialCutoff, and the free probe's cutoffs): adaptive
  quadrature at spectral.QUAD_TOL, with no absolute floor, of _weight
  (J/|alpha|^2) times _kernel (coth or csch^2), with the breakpoints but T
  and wmin (_skeleton) and the s11 and s22 tails beyond B >= 1000 T (_tail)
  kept in the star's memo.  A ladder of cutoffs integrates [wmin_1, inf)
  once, and each smaller cutoff adds its own segment; a failed QUADPACK call
  raises IntegrationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ConvergenceError, DivergenceError, IntegrationError
from .fits import _linear_fit
from .gaussian import (
    CovarianceDerivatives,
    QfiCurve,
    SingleModeCovariance,
    _mode_frequencies,
    _mode_sums,
    qfi_from_derivatives,
    qfi_from_fidelity,
)
from .mapping import _probe_column
from .spectral import QUAD_TOL, DiscreteModes, LorentzDrude, StarSpec, _alpha, _quad_value, _rational_alpha

# B_2j, j = 1..12, of the asymptotic series of psi and psi' (DLMF 5.11.2,
# 5.15.8): from |x| = 10 on, 12 terms leave < 1e-17 of the first
_B2J = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
                 43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730])
_SERIES_FROM = 10.0
_ULPS = 8.0 * np.finfo(float).eps  # breakpoints closer than this, relative, are merged
_EXACT = (DiscreteModes, LorentzDrude)  # the families whose moments need no quadrature


def quad(*args, **kwargs):
    """scipy's quad, imported on first call: scipy takes ~0.5 s to import."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


def brentq(*args, **kwargs):
    """scipy's brentq, imported on first call: scipy takes ~0.5 s to import."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


@dataclass(frozen=True)
class SteadyStateQuery:
    """One steady-state evaluation point: a star and a temperature.  A free
    probe of a continuous reservoir has none; see free_probe_qfi_limit."""

    star: StarSpec
    T: float

    def __post_init__(self) -> None:
        if not 0.0 < self.T < math.inf:
            raise ValueError("temperature must be positive and finite")
        if self.star.omega0_sq == 0.0 and not isinstance(self.star.sd, DiscreteModes):
            raise DivergenceError(
                "omega_0 = 0: s11 diverges; free_probe_qfi_limit takes the infrared-cutoff limit"
            )


def _kept(star: StarSpec, build):
    """build(star), run once per star and kept in its memo under build."""
    if build not in star._memo:
        star._memo[build] = build(star)
    return star._memo[build]


def _skeleton(star: StarSpec) -> tuple[frozenset[float], float]:
    """The T-independent interior points and cap B0 of _breakpoints, with the
    root of Re alpha found by bracketed root finding; _kept runs it."""
    sd, wc = star.sd, star.sd.omega_c
    pts = {0.1 * wc, wc, 10.0 * wc}
    eps = 1e-8 * wc
    slope = max(float(sd.j(eps)) / eps, 1e-300)
    if star.omega0_sq > 0.0:
        knee = star.omega0_sq / slope
        pts.update((0.1 * knee, knee, 10.0 * knee, 100.0 * knee))
    lo, hi = 1e-9 * wc, 10.0 * math.sqrt(star.omega0_sq + star.omega_R_sq) + 10.0 * wc
    B0 = 50.0 * wc
    if _alpha(star, lo)[0] > 0.0 > _alpha(star, hi)[0]:
        res = float(brentq(lambda w: _alpha(star, w)[0], lo, hi, rtol=1e-14))
        width = max(float(sd.j(res)) / (2.0 * res), 1e-14 * res)
        pts.add(res)
        for k in (1.0, 10.0, 100.0, 1000.0):
            pts.update((res - k * width, res + k * width))
        B0 = max(B0, 10.0 * res)
    return frozenset(pts), B0


def _breakpoints(star: StarSpec, T: float, lo: float) -> tuple[list[float], float]:
    """(interior quad points, finite cap B) for the integrals from lo.

    Seeds every scale the integrand can have: the thermal scale T, the
    cutoff wc, the low-frequency knee w* = w0^2/J'(0) of 1/|alpha|^2, the
    resonance peak with its width, and a geometric ladder above a cutoff
    lo = omega_min > 0 for the 1/w^2-divergent free-probe integrands.  All but
    T and lo come from the star's skeleton; B = max(B0, 1000 T).  The
    ladder's x10 steps round, so a point within 8 eps of lo, of B or of the
    point below it is dropped: QUADPACK refuses so short a subinterval as
    bad integrand behavior.
    """
    skeleton, B0 = _kept(star, _skeleton)
    pts = set(skeleton)
    pts.update((0.1 * T, T, 10.0 * T))
    B = max(B0, 1000.0 * T)
    if lo > 0.0:
        x = 10.0 * lo
        while x < B:
            pts.add(x)
            x *= 10.0
    kept = [lo]
    for p in sorted(pts):
        if kept[-1] + _ULPS * p < p < (1.0 - _ULPS) * B:
            kept.append(p)
    return kept[1:], B


def _tail(f, B: float, tails: dict, p: int) -> tuple:
    """quad's full output for int f from B to inf, or (0.0, 0.0) when f(B)
    is negligible.  For s11 and s22 only: B >= 1000 T puts w/2T >= 500 on
    [B, inf), where the coth kernel is exactly 1.0, so the tail of the w^p
    moment depends on the star and B alone.  It is integrated once and kept
    in tails under (B, p); a quad exception is not kept."""
    key = (B, p)
    if key not in tails:
        out = (0.0, 0.0)
        if abs(f(B)) > 1e-280:
            out = quad(f, B, np.inf, limit=200, epsabs=0.0, epsrel=QUAD_TOL, full_output=1)
        tails[key] = out
    return tails[key]


def _integrate(f, lo: float, pts: list[float], B: float, tails: dict | None, p: int) -> float:
    """int f from lo to inf: [lo, B] with the interior points pts, plus the
    w^p moment's tail beyond B from _tail, or none when tails is None (the
    derivative moments: beyond B the csch^2 kernel is exactly 0.0).  quad
    reports a failure (ier > 0) in its full output, not as a warning, and it
    raises here unless the failed tail's |value| + abserr is within QUAD_TOL
    of the head."""
    try:
        head = quad(f, lo, B, points=pts, limit=800, epsabs=0.0, epsrel=QUAD_TOL, full_output=1)
        tail = (0.0, 0.0) if tails is None else _tail(f, B, tails, p)
    except Exception as exc:
        raise IntegrationError(f"steady-state quadrature failed: {exc}") from exc
    total = _quad_value(head, "steady-state")
    negligible = abs(tail[0]) + tail[1] <= QUAD_TOL * abs(total)
    total += tail[0] if negligible else _quad_value(tail, "steady-state")
    if not math.isfinite(total):
        raise IntegrationError(f"steady-state quadrature returned {total!r}")
    return total


def _weight(star: StarSpec):
    """w -> J/|alpha|^2 = Im alpha/|alpha|^2 from spectral's alpha.  A
    Lorentz-Drude node is one frame: h w (u + wc^2)/(R^2 + h^2 u), u = w^2."""
    if not isinstance(star.sd, LorentzDrude):
        def weight(w: float) -> float:
            re, im = _alpha(star, w)
            return im / (re * re + im * im)

        return weight
    r1, r2, wc2, h = _rational_alpha(star)
    h2 = h * h

    def weight(w: float) -> float:
        u = w * w
        re = (r1 - u) * u + r2
        return h * w * (u + wc2) / (re * re + h2 * u)

    return weight


def _kernel(T: float, derivative: bool):
    """w -> coth(w/2T) = 1 + 2/expm1(w/T), or its T-derivative (w/2T^2)
    csch^2(w/2T) when derivative; beyond w/2T = 350 exactly 1.0 and 0.0."""
    t2, tt2 = 2.0 * T, 2.0 * T * T

    def kernel(w: float) -> float:
        x = w / t2
        if x > 350.0:
            return 0.0 if derivative else 1.0
        if derivative:
            s = math.sinh(x)
            return (w / tt2) * (1.0 / (s * s))
        return 1.0 + 2.0 / math.expm1(2.0 * x)

    return kernel


def _weighted_moments(star: StarSpec, T: float, lo: float, hi: float, derivative: bool) -> tuple:
    """(1/pi) int w^p _weight _kernel dw, p = 0 and 2, over [lo, inf), or over
    [lo, hi] for any finite hi (the breakpoints below hi, no tail)."""
    weight, kernel = _weight(star), _kernel(T, derivative)
    pts, B = _breakpoints(star, T, lo)
    if hi < math.inf:
        pts, B = [p for p in pts if p < hi], hi
    tails = None if derivative or hi < math.inf else star._memo.setdefault(_tail, {})
    m0 = _integrate(lambda w: weight(w) * kernel(w), lo, pts, B, tails, 0) / np.pi
    m2 = _integrate(lambda w: w * w * weight(w) * kernel(w), lo, pts, B, tails, 2) / np.pi
    return m0, m2


def _poles(star: StarSpec) -> tuple:
    """A Lorentz-Drude star's T-independent data for _pole_moments.

    J/|alpha|^2 = h w N(u)/P(u) in u = w^2, with P = R^2 + h^2 u from
    spectral._rational_alpha and N = u + wc^2 (w^0 moments) or u (u + wc^2) (w^2).
    Gives P's roots u_k (np.roots, then Newton), A_k = (h/pi) N(u_k)/P'(u_k),
    sigma = min |u_k| and the derivative series' 4 pi^2 |B_2j| M_j sigma^(j-1):
    M_j = sum_k A_k (-u_k)^-j, a Taylor coefficient of N/P at 0 by series division.
    """
    r1, r2, wc2, h = _rational_alpha(star)
    r, g4 = np.array([-1.0, r1, r2]), h**2
    dr, p = np.polyder(r), np.polyadd(np.polymul(r, r), [g4, 0.0])
    u = np.roots(p).astype(complex)
    for _ in range(3):  # Newton on P = R^2 + g4 u, evaluated through R
        ru = np.polyval(r, u)
        u = u - (ru * ru + g4 * u) / (2.0 * ru * np.polyval(dr, u) + g4)
    c = h / np.pi
    dp = 2.0 * np.polyval(r, u) * np.polyval(dr, u) + g4  # P' through R: 1e-12 better in s22
    amps = c * np.stack((u + wc2, u * (u + wc2))) / dp
    sigma = float(np.min(np.abs(u)))
    scale = sigma ** np.arange(_B2J.size)
    n_up = np.pad(c * np.array([[wc2, 1.0, 0.0], [0.0, wc2, 1.0]]), ((0, 0), (0, _B2J.size - 3)))
    p_up, taylor = p[::-1] * scale[:5], np.zeros((2, _B2J.size + 4))  # 4 leading zeros
    for m in range(_B2J.size):
        taylor[:, m + 4] = (n_up[:, m] * scale[m] - taylor[:, m : m + 4] @ p_up[4:0:-1]) / p_up[0]
    return u, amps, [(4.0 * np.pi**2 * np.abs(_B2J) * row[4:])[::-1] for row in taylor], sigma


def _pole_moments(u, amps, series, sigma, temperatures) -> list[tuple]:
    """A Lorentz-Drude probe's moments from _poles, one numpy pass over every T.

    With lam_k = sqrt(-u_k) (principal branch) and x_k = lam_k/2 pi T, a moment
    is -sum_k A_k [ln lam_k + Q(x_k)] and its T-derivative sum_k A_k R(x_k)/T,
    with Q(x) = psi(1 + x) - ln x - 1/2x and R(x) = x psi'(1 + x) - 1 + 1/2x:
    sum_k A_k = 0 cancels the ln x and 1/2x.  Q and R are their series from
    |x| = 10 on; the psi recurrence shifts a smaller x by 10.  Where every |x_k|
    is large, the sum over R cancels between poles, so the derivatives sum R's
    series over all poles at once, sum_j B_2j (2 pi T)^2j M_j: a1 ~ T, a2 ~ T^3.
    """
    lam, t = np.sqrt(-u), np.asarray(temperatures, dtype=float)
    x = lam / (2.0 * np.pi * t[:, None])
    big = np.abs(x) >= _SERIES_FROM
    z = np.where(big, x, x + _SERIES_FROM)
    q = np.polyval(np.append((-_B2J / np.arange(2, 25, 2))[::-1], 0.0), z**-2)
    r = np.polyval(np.append(_B2J[::-1], 0.0), z**-2)
    shifted = x[..., None] + np.arange(1.0, _SERIES_FROM + 1.0)
    psi = np.log(2.0 * np.pi * t[:, None] * z) + 0.5 / z + q - np.sum(1.0 / shifted, axis=-1)
    dpsi = (1.0 - 0.5 / z + r) / z + np.sum(shifted**-2, axis=-1)
    lq = np.where(big, np.log(lam) + q, psi - 0.5 / x)
    rx = np.where(big, r, x * dpsi - 1.0 + 0.5 / x)
    s11, s22 = (-np.sum(lq * a, axis=1).real for a in amps)
    a1, a2 = (np.sum(rx * a, axis=1).real / t for a in amps)
    every = np.all(big, axis=1)
    y = np.where(every, (2.0 * np.pi * t) ** 2 / sigma, 0.0)
    a1, a2 = (np.where(every, t * np.polyval(c, y), a) for c, a in zip(series, (a1, a2)))
    covs = [SingleModeCovariance(float(v), float(w)) for v, w in zip(s11, s22)]
    return list(zip(covs, [CovarianceDerivatives(float(v), float(w)) for v, w in zip(a1, a2)]))


def _exact_kernel(star: StarSpec):
    """temperatures -> moments of a quadrature-free star, kept by _kept: the
    pole sums over _poles, or the mode sum over the star's normal modes."""
    if isinstance(star.sd, LorentzDrude):
        return partial(_pole_moments, *_poles(star))
    lam, c2 = _probe_column(star)
    return partial(_mode_sums, _mode_frequencies(lam, False, "the probe is free or nearly so"), c2)


def steady_covariances(q: SteadyStateQuery) -> SingleModeCovariance:
    """Stationary probe covariance for the query's reservoir and temperature."""
    if isinstance(q.star.sd, _EXACT):
        return _kept(q.star, _exact_kernel)([q.T])[0][0]
    return SingleModeCovariance(*_weighted_moments(q.star, q.T, 0.0, math.inf, False))


def covariance_T_derivatives(q: SteadyStateQuery) -> CovarianceDerivatives:
    """d(s11)/dT and d(s22)/dT by differentiating under the integral."""
    if isinstance(q.star.sd, _EXACT):
        return _kept(q.star, _exact_kernel)([q.T])[0][1]
    return CovarianceDerivatives(*_weighted_moments(q.star, q.T, 0.0, math.inf, True))


def clm_qfi(q: SteadyStateQuery) -> float:
    """Thermometric QFI of the steady probe (derivative route, the default)."""
    return qfi_from_derivatives(steady_covariances(q), covariance_T_derivatives(q))


def clm_qfi_fidelity(q: SteadyStateQuery, step_fraction: float) -> float:
    """Cross-check route: finite-difference fidelity on the steady family."""
    return qfi_from_fidelity(lambda t: steady_covariances(replace(q, T=t)), q.T, step_fraction)


def qfi_curve(star: StarSpec, temperatures) -> QfiCurve:
    """Sweep the derivative-route QFI over a temperature grid (sorted ascending).

    The curve keeps the steady covariance at each temperature.
    """
    ts = sorted(float(t) for t in temperatures)
    qs = [SteadyStateQuery(star=star, T=t) for t in ts]  # checks every T first
    if isinstance(star.sd, _EXACT):
        moments = _kept(star, _exact_kernel)(ts)
    else:
        moments = ((steady_covariances(q), covariance_T_derivatives(q)) for q in qs)
    return QfiCurve.from_moments(ts, moments)


def free_probe_qfi_limit(
    star: StarSpec, T: float, omega_min_sequence=None
) -> tuple[float, list[tuple[float, float]]]:
    """QFI of the omega_0 = 0 probe in the infrared-cutoff limit.

    Evaluates F(T, wmin), the probe trapped by omega_R alone, along a
    decreasing sequence (default geometric, ratio 10, from 1e-4 to 1e-7):
    the moments over [wmin_1, inf) once, then each smaller cutoff adds its
    segment [wmin_k, wmin_(k-1)] to running sums.  A linear fit F = F_inf
    + c*wmin over the last three points extrapolates wmin -> 0.
    """
    if not 0.0 < T < math.inf:
        raise ValueError("temperature must be positive and finite")
    if isinstance(star.sd, DiscreteModes) or star.omega0_sq != 0.0:
        raise ValueError("free_probe_qfi_limit requires a continuous star with omega0_sq = 0")
    if omega_min_sequence is None:
        omega_min_sequence = [1e-4 / 10.0**k for k in range(4)]
    seq = [float(w) for w in omega_min_sequence]
    if len(seq) < 3 or not all(0.0 < b < a for a, b in zip([math.inf, *seq], seq)):
        raise ValueError("omega_min_sequence must be >= 3 finite cutoffs > 0, strictly decreasing")
    sums, hi, samples = [0.0] * 4, math.inf, []
    for wm in seq:
        segment = [m for d in (False, True) for m in _weighted_moments(star, T, wm, hi, d)]
        sums, hi = [s + m for s, m in zip(sums, segment)], wm
        cov, der = SingleModeCovariance(*sums[:2]), CovarianceDerivatives(*sums[2:])
        samples.append((wm, qfi_from_derivatives(cov, der)))
    diffs = [abs(b[1] - a[1]) for a, b in zip(samples, samples[1:])]
    if diffs[-1] > 2.0 * diffs[-2] + 1e-12 * abs(samples[-1][1]):
        raise ConvergenceError(f"non-Cauchy tail in omega_min sequence: |dF| = {diffs!r}")
    _, intercept, _ = _linear_fit(*np.array(samples[-3:]).T)
    return intercept, samples
