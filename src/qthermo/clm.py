"""Exact steady state of a Brownian probe in an Ohmic reservoir.

The stationary covariances of the probe are frequency integrals weighted by
the susceptibility,

    s11 = (1/pi) int_{wmin}^inf  J(w)/|alpha(w)|^2 coth(w/2T) dw,
    s22 = (1/pi) int_{wmin}^inf  w^2 J(w)/|alpha(w)|^2 coth(w/2T) dw,

their temperature derivatives follow by differentiating under the integral
(d coth(w/2T)/dT = (w/2T^2)/sinh^2(w/2T)), and the QFI follows from the
derivative formula, the fidelity route being a cross-check.  A free probe
(omega_0 = 0) needs an infrared cutoff wmin > 0, and its QFI is the wmin -> 0
limit.  Three routes give the moments, each doing its T-independent work
once per star and refusing an unphysical state, det < 1/4, in _physical:

* poles (Lorentz-Drude, wmin = 0): the weight is rational in w^2, so each
  moment is a digamma sum over a quartic's roots (Grabert, Weiss and
  Talkner, Z. Phys. B 55, 87 (1984)), every T of a sweep in one numpy pass;
* normal modes (a discrete star): gaussian's mode sum over sqrt(lam_j) with
  the probe's weights c_j^2, which mapping._probe_column returns;
* the real axis (ExponentialCutoff, or wmin > 0): adaptive quadrature at
  spectral.QUAD_TOL of _weight (J/|alpha|^2, inline for Lorentz-Drude,
  sd.j and susceptibility_real otherwise) times _kernel (coth or csch^2),
  with the breakpoints but T and omega_min (StarSpec._skeleton) and the s11
  and s22 tails beyond B >= 1000 T (StarSpec._tails) kept on the star.  A
  ladder of cutoffs integrates [wmin_1, inf) once, and each smaller cutoff
  adds its own segment; a failed QUADPACK call raises IntegrationError.
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
from .spectral import QUAD_TOL, DiscreteModes, LorentzDrude, StarSpec, _quad_value, susceptibility_real

# B_2j, j = 1..12, of the asymptotic series of psi and psi' (DLMF 5.11.2,
# 5.15.8): from |x| = 10 on, 12 terms leave < 1e-17 of the first
_B2J = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
                 43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730])
_SERIES_FROM = 10.0
_EXACT = (DiscreteModes, LorentzDrude)  # no quadrature at omega_min = 0


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
    """One steady-state evaluation point.

    omega_min is the finite infrared cutoff (0 means none); it must be positive
    when the probe of a continuous reservoir has no bare trapping, otherwise
    s11 diverges.  A discrete star takes no cutoff.
    """

    star: StarSpec
    T: float
    omega_min: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.T < math.inf:
            raise ValueError("temperature must be positive and finite")
        if not 0.0 <= self.omega_min < math.inf:
            raise ValueError("omega_min must be finite and >= 0")
        if isinstance(self.star.sd, DiscreteModes):
            if self.omega_min > 0.0:
                raise ValueError("a discrete star takes no infrared cutoff omega_min")
        elif self.star.omega0_sq == 0.0 and self.omega_min <= 0.0:
            raise DivergenceError(
                "a probe with omega_0 = 0 requires an infrared cutoff omega_min > 0 "
                "(s11 diverges otherwise)"
            )


def _skeleton(star: StarSpec) -> tuple[frozenset[float], float]:
    """The T-independent interior points and cap B0 of _breakpoints, with the
    root of Re alpha found by bracketed root finding.  Callers read it as
    StarSpec._skeleton, which runs this once per star."""
    sd, wc = star.sd, star.sd.omega_c
    pts = {0.1 * wc, wc, 10.0 * wc}
    eps = 1e-8 * wc
    slope = max(float(sd.j(eps)) / eps, 1e-300)
    if star.omega0_sq > 0.0:
        knee = star.omega0_sq / slope
        pts.update((0.1 * knee, knee, 10.0 * knee, 100.0 * knee))
    re_alpha = partial(susceptibility_real, star)
    lo, hi = 1e-9 * wc, 10.0 * math.sqrt(star.omega0_sq + star.omega_R_sq) + 10.0 * wc
    B0 = 50.0 * wc
    if re_alpha(lo) > 0.0 > re_alpha(hi):
        res = float(brentq(re_alpha, lo, hi, rtol=1e-14))
        width = max(float(sd.j(res)) / (2.0 * res), 1e-14 * res)
        pts.add(res)
        for k in (1.0, 10.0, 100.0, 1000.0):
            pts.update((res - k * width, res + k * width))
        B0 = max(B0, 10.0 * res)
    return frozenset(pts), B0


def _breakpoints(q: SteadyStateQuery) -> tuple[float, list[float], float]:
    """(lower limit, interior quad points, finite cap B) for the integrals.

    Seeds every scale the integrand can have: the thermal scale T, the
    cutoff wc, the low-frequency knee w* = w0^2/J'(0) of 1/|alpha|^2, the
    resonance peak with its width, and a geometric ladder above omega_min
    for the 1/w^2-divergent free-probe integrands.  All but T and omega_min
    come from the star's skeleton; B = max(B0, 1000 T).
    """
    skeleton, B0 = q.star._skeleton
    T, lo = q.T, q.omega_min
    pts = set(skeleton)
    pts.update((0.1 * T, T, 10.0 * T))
    B = max(B0, 1000.0 * T)
    if lo > 0.0:
        x = 10.0 * lo
        while x < B:
            pts.add(x)
            x *= 10.0
    return lo, sorted(p for p in pts if lo < p < B), B


def _tail(f, B: float, tails: dict, p: int) -> tuple:
    """quad's full output for int f from B to inf, or (0.0, 0.0) when f(B)
    is negligible.  For s11 and s22 only: B >= 1000 T puts w/2T >= 500 on
    [B, inf), where the coth kernel is exactly 1.0, so the tail of the w^p
    moment depends on the star and B alone.  It is integrated once and kept
    in the star's cache tails under (B, p); a quad exception is not kept."""
    key = (B, p)
    if key not in tails:
        out = (0.0, 0.0)
        if abs(f(B)) > 1e-280:
            out = quad(f, B, np.inf, limit=200, epsabs=1e-14, epsrel=QUAD_TOL, full_output=1)
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
        head = quad(f, lo, B, points=pts, limit=800, epsabs=1e-14, epsrel=QUAD_TOL, full_output=1)
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
    """w -> J/|alpha|^2, Im alpha = J: this Re alpha's Kramers-Kronig partner
    is J/2 (ROADMAP item 1; _poles' P as well).  Lorentz-Drude inlines
    LorentzDrude.j and susceptibility_real, bit for bit."""
    sd, trap = star.sd, star.omega0_sq + star.omega_R_sq
    if not isinstance(sd, LorentzDrude):
        def weight(w: float) -> float:
            jw, re = sd.j(w), susceptibility_real(star, w)
            return jw / (re * re + jw * jw)

        return weight
    g2, wc2, gwc3 = 2.0 * sd.gamma, sd.omega_c**2, sd.gamma * sd.omega_c**3

    def weight(w: float) -> float:
        d = w * w + wc2
        jw, re = g2 * w * wc2 / d, trap - w * w - gwc3 / d
        return jw / (re * re + jw * jw)

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


def _weighted_moments(q: SteadyStateQuery, derivative: bool, hi: float) -> tuple:
    """(1/pi) int w^p _weight _kernel dw, p = 0 and 2, over [lo, inf), or over
    [lo, hi] for any finite hi (the breakpoints below hi, no tail), and (lo, B or hi)."""
    weight, kernel = _weight(q.star), _kernel(q.T, derivative)
    lo, pts, B = _breakpoints(q)
    if hi < math.inf:
        pts, B = [p for p in pts if p < hi], hi
    tails = None if derivative or hi < math.inf else q.star._tails
    m0 = _integrate(lambda w: weight(w) * kernel(w), lo, pts, B, tails, 0) / np.pi
    m2 = _integrate(lambda w: w * w * weight(w) * kernel(w), lo, pts, B, tails, 2) / np.pi
    return m0, m2, lo, B


def _poles(star: StarSpec) -> tuple:
    """A Lorentz-Drude star's T-independent data for _pole_moments.

    J/|alpha|^2 = 2 gamma wc^2 w N(u)/P(u) in u = w^2, P = R^2 + 4 gamma^2 wc^4 u,
    R = (k - u)(u + wc^2) + gamma wc u, k = Re alpha(0) = w0^2, N = u + wc^2 (w^0
    moments) or u (u + wc^2) (w^2).  Gives P's roots u_k (np.roots, then Newton),
    A_k = (2 gamma wc^2/pi) N(u_k)/P'(u_k), sigma = min |u_k| and the derivative
    series' 4 pi^2 |B_2j| M_j sigma^(j-1): M_j = sum_k A_k (-u_k)^-j is a Taylor
    coefficient of N/P at 0, found exactly by series division.
    """
    sd = star.sd
    wc2, g4 = sd.omega_c**2, (2.0 * sd.gamma * sd.omega_c**2) ** 2
    k = star.omega0_sq
    r = np.array([-1.0, k - wc2 + sd.gamma * sd.omega_c, k * wc2])
    dr, p = np.polyder(r), np.polyadd(np.polymul(r, r), [g4, 0.0])
    u = np.roots(p).astype(complex)
    for _ in range(3):  # Newton on P = R^2 + g4 u, evaluated through R
        ru = np.polyval(r, u)
        u = u - (ru * ru + g4 * u) / (2.0 * ru * np.polyval(dr, u) + g4)
    c = 2.0 * sd.gamma * wc2 / np.pi
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


def _exact_data(star: StarSpec) -> tuple:
    """StarSpec._exact: a discrete star's normal modes and weights, or _poles."""
    if isinstance(star.sd, LorentzDrude):
        return _poles(star)
    lam, c2 = _probe_column(star)
    return _mode_frequencies(lam, False, "the probe is free or nearly so"), c2


def _exact_moments(star: StarSpec, temperatures) -> list[tuple]:
    """Per T, the physical (covariance, derivatives) of a quadrature-free star."""
    kernel = _pole_moments if isinstance(star.sd, LorentzDrude) else _mode_sums
    moments = kernel(*star._exact, temperatures)
    return [(_physical(c, f"exact at T={t!r}"), d) for t, (c, d) in zip(temperatures, moments)]


def _physical(cov: SingleModeCovariance, diagnostics: str) -> SingleModeCovariance:
    """cov, refused with IntegrationError when det < 1/4 on either route."""
    if cov.det() < 0.25 - 1e-9:
        raise IntegrationError(
            f"unphysical steady covariance det={cov.det()!r} < 1/4 "
            f"(s11={cov.s11!r}, s22={cov.s22!r}); {diagnostics}"
        )
    return cov


def steady_covariances(q: SteadyStateQuery) -> SingleModeCovariance:
    """Stationary probe covariance for the query's reservoir and temperature."""
    if q.omega_min == 0.0 and isinstance(q.star.sd, _EXACT):
        return _exact_moments(q.star, [q.T])[0][0]
    s11, s22, lo, B = _weighted_moments(q, False, math.inf)
    return _physical(SingleModeCovariance(s11, s22), f"quadrature diagnostics: lo={lo!r} B={B!r}")


def covariance_T_derivatives(q: SteadyStateQuery) -> CovarianceDerivatives:
    """d(s11)/dT and d(s22)/dT by differentiating under the integral."""
    if q.omega_min == 0.0 and isinstance(q.star.sd, _EXACT):
        return _exact_moments(q.star, [q.T])[0][1]
    a1, a2, _, _ = _weighted_moments(q, True, math.inf)
    return CovarianceDerivatives(a1=a1, a2=a2)


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
        moments = _exact_moments(star, ts)
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
    if star.omega0_sq != 0.0:
        raise ValueError("free_probe_qfi_limit requires omega0_sq = 0")
    if omega_min_sequence is None:
        omega_min_sequence = [1e-4 / 10.0**k for k in range(4)]
    seq = [float(w) for w in omega_min_sequence]
    if len(seq) < 3 or any(b >= a for a, b in zip(seq, seq[1:])):
        raise ValueError("omega_min_sequence must be decreasing with >= 3 entries")
    sums, hi, samples = [0.0] * 4, math.inf, []
    for wm in seq:
        q = SteadyStateQuery(star=star, T=T, omega_min=wm)
        segment = _weighted_moments(q, False, hi)[:2] + _weighted_moments(q, True, hi)[:2]
        sums, hi = [s + m for s, m in zip(sums, segment)], wm
        cov = _physical(SingleModeCovariance(*sums[:2]), f"free probe at omega_min={wm!r}")
        samples.append((wm, qfi_from_derivatives(cov, CovarianceDerivatives(*sums[2:]))))
    diffs = [abs(b[1] - a[1]) for a, b in zip(samples, samples[1:])]
    if diffs[-1] > 2.0 * diffs[-2] + 1e-12 * abs(samples[-1][1]):
        raise ConvergenceError(f"non-Cauchy tail in omega_min sequence: |dF| = {diffs!r}")
    _, intercept, _ = _linear_fit(*np.array(samples[-3:]).T)
    return intercept, samples
