"""Exact steady state of a Brownian probe in an Ohmic reservoir.

The stationary covariances of the probe are frequency integrals weighted by
the susceptibility alpha(w) = w0^2 + wR^2 - w^2 - S(w) + i J(w), defined once
in spectral; Im alpha = J is an open defect (ROADMAP item 1):

    s11 = (1/pi) int_{wmin}^inf  J(w)/|alpha(w)|^2 coth(w/2T) dw,
    s22 = (1/pi) int_{wmin}^inf  w^2 J(w)/|alpha(w)|^2 coth(w/2T) dw,

their T-derivatives follow under the integral, and the QFI from the
derivative formula, the fidelity route being a cross-check.  A steady state
has wmin = 0; free_probe_qfi_limit takes a free probe (omega_0 = 0) of a
continuous reservoir to wmin -> 0.  _route picks a star's route once, from
its family, and keeps it in the star's memo: the pole sums of a Lorentz-Drude
weight, rational in w^2 (digamma sums over a quartic's roots, Grabert, Weiss
and Talkner, Z. Phys. B 55, 87 (1984); a free probe's cutoffs add closed
forms and a Gauss-Legendre sum over [0, wmin]), a discrete star's normal
modes (gaussian's mode sum), or QUADPACK on the real axis (ExponentialCutoff).
Every state, and a sweep's column of them over T, is a gaussian.SingleModeCovariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial, reduce

import numpy as np

from .errors import ConvergenceError, DivergenceError, IntegrationError
from .fits import _linear_fit
from .gaussian import (CovarianceDerivatives, QfiCurve, SingleModeCovariance, _mode_frequencies, _mode_sums,
                       qfi_from_derivatives, qfi_from_fidelity)
from .mapping import _probe_column
from .spectral import (QUAD_TOL, DiscreteModes, LorentzDrude, StarSpec, _alpha, _module, _quad_value,
                       _rational_alpha)

# B_2j, j = 1..12, of the asymptotic series of psi and psi' (DLMF 5.11.2,
# 5.15.8): from |x| = 10 on, 12 terms leave < 1e-17 of the first
_B2J = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
                 43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730])
_SERIES_FROM = 10.0
# Q's and R's series in x^-2 (_pole_sums), highest power first, then their constant 0
_PSI = np.vstack((np.stack((-_B2J / np.arange(2, 25, 2), _B2J), 1)[::-1], [0.0, 0.0]))[..., None, None]
_PAIR = (SingleModeCovariance, CovarianceDerivatives)  # a route's columns, in order
_ULPS = 8.0 * np.finfo(float).eps  # breakpoints closer than this, relative, are merged
# (x coth x - 1)/x^2 and (x^2 csch^2 x - 1)/x^2 in x^2, highest power first:
# c_j and (1 - 2j) c_j, c_j = 4^j B_2j/(2j)!; below x = 1/2, < 1e-19 left
_XCOTH = ((1 - np.outer([0, 2], np.arange(1, 13))) * 4.0 ** np.arange(1, 13) * _B2J
          / np.cumprod(np.arange(1.0, 25))[1::2])[:, ::-1]


def quad(*args, **kwargs):
    return _module("scipy.integrate").quad(*args, **kwargs)


def brentq(*args, **kwargs):
    return _module("scipy.optimize").brentq(*args, **kwargs)


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
            raise DivergenceError("omega_0 = 0: s11 diverges; free_probe_qfi_limit takes the"
                                  " infrared-cutoff limit")


def _kept(star: StarSpec, build):
    """build(star), run once per star and kept in its memo under build."""
    if build not in star._memo:
        star._memo[build] = build(star)
    return star._memo[build]


def _skeleton(star: StarSpec) -> tuple[frozenset[float], float]:
    """The T-independent points of _breakpoints (wc, the knee w0^2/J'(0) of
    1/|alpha|^2, the root of Re alpha by brentq and its width) and cap B0."""
    sd, wc = star.sd, star.sd.omega_c
    pts = {0.1 * wc, wc, 10.0 * wc}
    if star.omega0_sq > 0.0:  # the knee w0^2/J'(0)
        eps = 1e-8 * wc
        knee = star.omega0_sq / max(float(sd.j(eps)) / eps, 1e-300)
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
    """(interior quad points, finite cap B) for the integrals from lo: T, the
    scales of _skeleton, and a x10 ladder above a cutoff lo > 0 for the
    1/w^2-divergent free probe; B = max(B0, 1000 T).  A point within 8 eps of
    lo, of B or of the point below it is dropped: QUADPACK refuses so short a
    subinterval as bad integrand behavior."""
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
    """quad's full output for int f from B to inf, or (0.0, 0.0) when f(B) is
    negligible.  s11 and s22 only: coth is 1.0 on [B, inf) (w/2T >= 500), so the
    tail depends on the star and B alone; kept in tails, a quad exception not."""
    if (B, p) not in tails:
        kw = dict(limit=200, epsabs=0.0, epsrel=QUAD_TOL, full_output=1)
        tails[B, p] = quad(f, B, np.inf, **kw) if abs(f(B)) > 1e-280 else (0.0, 0.0)
    return tails[B, p]


def _integrate(f, lo: float, pts: list[float], B: float, tails: dict | None, p: int) -> float:
    """int f from lo to inf: [lo, B] with the interior points pts, plus the w^p
    moment's tail from _tail, or none when tails is None (beyond B csch^2 is
    0.0).  quad's ier > 0 (in its full output, not a warning) raises unless a
    failed tail's |value| + abserr is within QUAD_TOL of the head."""
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
    """(1/pi) int w^p J/|alpha|^2 _kernel dw, p = 0 and 2, over [lo, inf), or
    over [lo, hi] for a finite hi (the breakpoints 8 eps below hi, no tail)."""
    kernel = _kernel(T, derivative)

    def weight(w: float) -> float:
        re, im = _alpha(star, w)
        return im / (re * re + im * im)

    pts, B = _breakpoints(star, T, lo)
    if hi < math.inf:
        pts, B = [p for p in pts if p < (1.0 - _ULPS) * hi], hi
    tails = None if derivative or hi < math.inf else star._memo.setdefault(_tail, {})
    m0 = _integrate(lambda w: weight(w) * kernel(w), lo, pts, B, tails, 0) / np.pi
    m2 = _integrate(lambda w: w * w * weight(w) * kernel(w), lo, pts, B, tails, 2) / np.pi
    return m0, m2


def _poles(star: StarSpec) -> tuple:
    """A Lorentz-Drude star's T-independent data for _pole_sums: J/|alpha|^2 =
    h w N(u)/P(u) in u = w^2, with P = R^2 + h^2 u from spectral._rational_alpha
    and N = u + wc^2 (w^0 moments) or u (u + wc^2) (w^2).  Gives P's roots u_k
    (companion eigenvalues and Newton, ConvergenceError if it does not settle or
    leaves a root on u > 0, where P > 0), A_k = (h/pi) N(u_k)/P'(u_k), sigma =
    min |u_k| and per row the derivative series' 4 pi^2 |B_2j| M_j sigma^(j-1):
    M_j = sum_k A_k (-u_k)^-j, a Taylor coefficient of N/P at 0 by series
    division.  A free probe has P = u Q: u_k are Q's roots, its w^2 row's N/P is
    (u + wc^2)/Q, and its w^0 row (the pole u = 0 left out) has no series."""
    r1, r2, wc2, h = _rational_alpha(star)
    z, g4, c = int(r2 == 0.0), h**2, h / np.pi  # z: P's roots at u = 0
    p = [1.0, -r1 - r1, (-r2 + r1 * r1) - r2, (r1 * r2 + r2 * r1) + g4, r2 * r2]  # P, as np.polymul sums
    u = np.linalg.eigvals(np.vstack((np.negative(p[1 : 5 - z]), np.eye(3 - z, 4 - z)))).astype(complex)
    for k in range(13):  # Newton through R: 3 steps, then until a step is within rounding
        ru, au = (r1 - u) * u + r2, abs(u)
        dp = 2.0 * ru * (r1 - 2 * u) + g4  # P' through R
        if k >= 3:  # within 4 ulps of |u|, or within P's rounding error over |P'|
            bound = _ULPS * (2.0 * abs(ru) * ((abs(r1) + au) * au + abs(r2)) + g4 * au) / abs(dp)
            if done := np.all(abs(step) <= np.maximum(4.0 * np.spacing(au), bound)):
                break
        u = u - (step := (ru * ru + g4 * u) / dp)
    if not done or np.any((u.imag == 0.0) & (u.real > 0.0)):
        raise ConvergenceError(f"quartic R^2 + h^2 u: Newton did not settle off u > 0, roots {u.tolist()}")
    amps, sigma = c * np.array((u + wc2, u * (u + wc2))) / dp, float(abs(u).min())
    scale, series = (sigma ** np.arange(_B2J.size)).tolist(), [None] * z
    p0, p1, p2, p3, p4 = (x * s for x, s in zip(p[4 - z :: -1] + [0.0] * z, scale))  # P's (Q's), rising
    for row in ([wc2, 1.0], [0.0, wc2, 1.0])[z:]:  # N's (N/u's) coefficients, rising
        t, row = [0.0] * 4, [c * x for x in row[z:]] + [0.0] * 10
        for m, s in enumerate(scale):  # series division, summed in numpy's (2, 4) @ (4,) order
            t.append((row[m] * s - (t[m] * p4 + t[m + 1] * p3 + t[m + 2] * p2 + t[m + 3] * p1)) / p0)
        series.append((4.0 * np.pi**2 * np.abs(_B2J) * t[4:])[::-1])
    return u, amps, series, sigma


def _pole_sums(u, amps, series, sigma, temperatures) -> tuple:
    """Per row of _poles' amplitudes, a moment and its T-derivative at every T
    in one numpy pass: with lam_k = sqrt(-u_k) (principal branch) and x_k =
    lam_k/2 pi T, -sum_k A_k [ln lam_k + Q(x_k)] and sum_k A_k R(x_k)/T, where
    Q(x) = psi(1 + x) - ln x - 1/2x, R(x) = x psi'(1 + x) - 1 + 1/2x, and
    sum_k A_k = 0 cancels the ln x and 1/2x.  Q and R are their series from
    |x| = 10 on; the psi recurrence shifts a smaller x by 10, and is skipped when
    no x needs it.  Where every |x_k| is large, the sum over R cancels between
    poles, so a row with a series sums R's series over all poles at once,
    sum_j B_2j (2 pi T)^2j M_j: a1 ~ T, a2 ~ T^3; with no such T, no series."""
    lam, t = np.sqrt(-u), np.asarray(temperatures, dtype=float)
    x = lam / (2.0 * np.pi * t[:, None])
    big = np.abs(x) >= _SERIES_FROM
    shift = not big.all()
    z = np.where(big, x, x + _SERIES_FROM) if shift else x
    z2 = z**-2
    q, r = reduce(lambda y, c: y * z2 + c, _PSI, 0.0)  # Horner, both series at once
    lq, rx = np.log(lam) + q, r
    if shift:
        inv = 1.0 / (x[..., None] + np.arange(1.0, _SERIES_FROM + 1.0))
        psi = np.log(2.0 * np.pi * t[:, None] * z) + 0.5 / z + q - np.sum(inv, axis=-1)
        dpsi = (1.0 - 0.5 / z + r) / z + np.sum(inv * inv, axis=-1)
        lq, rx = np.where(big, lq, psi - 0.5 / x), np.where(big, r, x * dpsi - 1.0 + 0.5 / x)
    moments = -np.sum(lq * amps[:, None], axis=-1).real
    derivs = np.sum(rx * amps[:, None], axis=-1).real / t
    every = np.all(big, axis=1)
    if not every.any():
        return moments, derivs
    y = np.where(every, (2.0 * np.pi * t) ** 2 / sigma, 0.0)
    return moments, [d if c is None else np.where(every, t * np.polyval(c, y), d)
                     for c, d in zip(series, derivs)]


@cache
def _gauss_legendre() -> tuple:
    """20 Gauss-Legendre nodes and weights on [-1, 1]; numpy.polynomial takes ~5 ms to import."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(20)


def _free_pole_moments(star: StarSpec, T: float, seq: list[float]) -> np.ndarray:
    """(s11, s22, a1, a2) of a free Lorentz-Drude probe from each cutoff of seq
    up, a row per cutoff (README derives it).  Over Q's roots, (1/pi) W = A_0/w
    + w sum_k A_k/(w^2 + lam_k^2), W = J/|alpha|^2, A_0 = wc^2/(pi h); (m, d)
    are _pole_sums' rows and S = sum_k A_k arctan(wmin/lam_k)/lam_k:
      s11 = m_0 + A_0 (gamma_E - ln 2 pi T + 2T/wmin) - 2T S - int_0^wmin (1/pi) W K,
      a1 = d_0 + A_0 (2/wmin - 1/T) - 2 S - int_0^wmin (1/pi) W dK/dT,
    K = coth(w/2T) - 2T/w, and s22, a2 = m_1, d_1 - their integrals over [0, wmin],
    each smooth (_XCOTH below w/2T = 1/2): 20-node Gauss-Legendre on each
    interval of the ladder.  Above 10 T, where a1 and a2 fall like
    e^(-wmin/T), or min Re lam_k, where s11's 1/w part cancels, a cutoff is
    refused; below both, no pole enters an interval's Bernstein ellipse rho = 3."""
    u, amps, series, sigma = _kept(star, _poles)
    lam, (_, _, wc2, h), (xi, wi) = np.sqrt(-u), _rational_alpha(star), _gauss_legendre()
    if seq[0] > min(10.0 * T, float(np.min(lam.real))) * (1.0 + _ULPS):
        raise ValueError("omega_min_sequence: the pole sums need cutoffs <= 10 T and the nearest pole")
    edges = np.array([0.0, *seq[::-1]])
    half = np.diff(edges)[:, None] / 2.0
    nodes = (edges[:-1, None] + half * (1.0 + xi)).ravel()
    x, (re, im) = nodes / (2.0 * T), _alpha(star, nodes)
    ends = np.stack((x * (1.0 + 2.0 / np.expm1(2.0 * x)), (x / np.sinh(x)) ** 2))  # x coth x, x^2 csch^2 x
    diff = np.where(x < 0.5, [np.polyval(c, x * x) for c in _XCOTH], (ends - 1) / np.maximum(x, 0.5) ** 2)
    kernels = np.stack((diff[0] / (2.0 * T), 2.0 * T * ends[0], diff[1] / (2.0 * T * T), 2.0 * ends[1]))
    terms = kernels * (nodes * im / (re * re + im * im) / np.pi * (half * wi).ravel())
    low = np.cumsum(terms.reshape(4, -1, xi.size).sum(axis=-1), axis=1)[:, ::-1]
    (m0, m1), (d0, d1) = _pole_sums(u, amps, series, sigma, [T])
    wm, a0 = np.array(seq), wc2 / (np.pi * h)
    s = (np.arctan(wm[:, None] / lam) / lam @ amps[0]).real
    s11 = m0 + a0 * (np.euler_gamma - math.log(2.0 * np.pi * T) + 2.0 * T / wm) - 2.0 * T * s
    a1 = d0 + a0 * (2.0 / wm - 1.0 / T) - 2.0 * s
    return (np.stack(np.broadcast_arrays(s11, m1, a1, d1)) - low).T


def _real_axis(star: StarSpec) -> tuple:
    """_route's quadrature: the parts asked for at each T, and a free ladder's segments summed."""
    axis = partial(_weighted_moments, star)
    return (lambda ts, cov, der: tuple(k(*np.reshape([axis(t, 0.0, math.inf, d) for t in ts], (-1, 2)).T)
                                       if want else None for k, d, want in zip(_PAIR, (False, True), (cov, der))),
            lambda T, seq: np.cumsum([[m for d in (False, True) for m in axis(T, *b, d)]
                                      for b in zip(seq, [math.inf, *seq])], axis=0))


def _route(star: StarSpec) -> tuple:
    """The star's route, chosen by its family once (_kept): states(ts, cov=, der=), the (cov, der)
    columns over ts, None where the real axis was not asked; ladder(T, seq), a free probe's rows or None."""
    if isinstance(star.sd, DiscreteModes):
        lam, c2 = _probe_column(star)
        modes = partial(_mode_sums, _mode_frequencies(lam, False, "the probe is free or nearly so"), c2)
        return lambda ts, **_: modes(ts), None
    if isinstance(star.sd, LorentzDrude):
        poles = _kept(star, _poles)
        return (lambda ts, **_: tuple(k(*m) for k, m in zip(_PAIR, _pole_sums(*poles, ts))),
                partial(_free_pole_moments, star))
    return _real_axis(star)


def steady_covariances(q: SteadyStateQuery) -> SingleModeCovariance:
    """Stationary probe covariance for the query's reservoir and temperature."""
    return _kept(q.star, _route)[0]([q.T], cov=True, der=False)[0][0]


def covariance_T_derivatives(q: SteadyStateQuery) -> CovarianceDerivatives:
    """d(s11)/dT and d(s22)/dT by differentiating under the integral."""
    return _kept(q.star, _route)[0]([q.T], cov=False, der=True)[1][0]


def clm_qfi(q: SteadyStateQuery) -> float:
    """Thermometric QFI of the steady probe (derivative route, the default)."""
    return qfi_from_derivatives(steady_covariances(q), covariance_T_derivatives(q))


def clm_qfi_fidelity(q: SteadyStateQuery, step_fraction: float) -> float:
    """Cross-check route: finite-difference fidelity on the steady family."""
    return qfi_from_fidelity(lambda t: steady_covariances(replace(q, T=t)), q.T, step_fraction)


def qfi_curve(star: StarSpec, temperatures) -> QfiCurve:
    """The derivative-route QFI over sorted temperatures, with the column of steady covariances."""
    ts = np.asarray(sorted(temperatures), dtype=float)
    for t in (ts.min(), ts.max()) if ts.size else ():  # every T before any work: a NaN is both
        SteadyStateQuery(star=star, T=float(t))
    return QfiCurve.from_moments(ts, _kept(star, _route)[0](ts, cov=True, der=True))


def free_probe_qfi_limit(
    star: StarSpec, T: float, omega_min_sequence=None
) -> tuple[float, list[tuple[float, float]]]:
    """QFI of the omega_0 = 0 probe in the infrared-cutoff limit: F(T, wmin), the
    probe trapped by omega_R alone, along a decreasing sequence (default: four
    cutoffs in ratio 10 from min(1e-4, T/10)), by the ladder of the star's _route
    (the pole sums or the real axis); a linear fit F = F_inf + c*wmin over the
    last three points extrapolates wmin -> 0."""
    if not 0.0 < T < math.inf:
        raise ValueError("temperature must be positive and finite")
    if isinstance(star.sd, DiscreteModes) or star.omega0_sq != 0.0:
        raise ValueError("free_probe_qfi_limit requires a continuous star with omega0_sq = 0")
    if omega_min_sequence is None:
        omega_min_sequence = [min(1e-4, T / 10.0) / 10.0**k for k in range(4)]
    seq = [float(w) for w in omega_min_sequence]
    if len(seq) < 3 or not all(0.0 < b < a for a, b in zip([math.inf, *seq], seq)):
        raise ValueError("omega_min_sequence must be >= 3 finite cutoffs > 0, strictly decreasing")
    r = _kept(star, _route)[1](T, seq).T  # s11, s22, a1, a2 over the cutoffs
    f = qfi_from_derivatives(SingleModeCovariance(*r[:2]), CovarianceDerivatives(*r[2:]))
    samples = list(zip(seq, f.tolist()))
    diffs = [abs(b[1] - a[1]) for a, b in zip(samples, samples[1:])]
    if diffs[-1] > 2.0 * diffs[-2] + 1e-12 * abs(samples[-1][1]):
        raise ConvergenceError(f"non-Cauchy tail in omega_min sequence: |dF| = {diffs!r}")
    _, intercept, _ = _linear_fit(*np.array(samples[-3:]).T)
    return intercept, samples
