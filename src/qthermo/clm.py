"""Exact steady state of a Brownian probe in an Ohmic reservoir.

The stationary covariances of the probe are frequency integrals weighted by
the susceptibility,

    s11 = (1/pi) int_{wmin}^inf  J(w)/|alpha(w)|^2 coth(w/2T) dw,
    s22 = (1/pi) int_{wmin}^inf  w^2 J(w)/|alpha(w)|^2 coth(w/2T) dw,

their temperature derivatives follow by differentiating under the integral
(d coth(w/2T)/dT = (w/2T^2)/sinh^2(w/2T)), and the QFI is assembled through
the derivative formula with the finite-difference fidelity route retained
as a cross-check.  A probe with zero bare frequency needs an infrared
cutoff wmin > 0; its QFI is defined by the wmin -> 0 limit.  Every integral
is an adaptive quadrature at the package's one relative tolerance,
spectral.QUAD_TOL.

A discrete star needs no integral: its probe's state is gaussian's mode sum
over the normal modes sqrt(lam_j) with weights c_j^2 from
mapping._probe_column, solved once per qfi_curve sweep.

The weight J/|alpha|^2 and the resonance of Re alpha do not depend on T.
For a Lorentz-Drude reservoir each moment's integrand is one closure per
star and temperature (_integrands) that evaluates J, S, Re alpha, the
weight and the kernel in closed form: one Python frame per quadrature
node.  Other families compose sd.j, susceptibility_real and coth or
csch2.  The T-independent work is done once per star and kept on it: the
resonance (StarSpec._resonance), the breakpoint skeleton of every scale
but T and omega_min (StarSpec._skeleton), and the tails of s11 and s22
beyond the cap B >= 1000 T, where the coth kernel is exactly 1.0
(StarSpec._tails, one per B).  Beyond B the csch^2 kernel is exactly 0.0,
so the derivative moments have no tail.  A quadrature that QUADPACK
reports as failed raises IntegrationError.
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
    coth,
    csch2,
    qfi_from_derivatives,
    qfi_from_fidelity,
)
from .mapping import _probe_column
from .spectral import (
    QUAD_TOL,
    DiscreteModes,
    LorentzDrude,
    StarSpec,
    _quad_value,
    susceptibility_real,
)


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


def _find_resonance(star: StarSpec) -> float | None:
    """Root of Re alpha(w) = 0, located by bracketed root finding.

    Callers read it as StarSpec._resonance, which runs this once per star.
    """
    re_alpha = partial(susceptibility_real, star)
    lo = 1e-9 * star.sd.omega_c
    hi = 10.0 * math.sqrt(star.omega0_sq + star.omega_R_sq) + 10.0 * star.sd.omega_c
    if re_alpha(lo) > 0.0 > re_alpha(hi):
        return float(brentq(re_alpha, lo, hi, rtol=1e-14))
    return None


def _skeleton(star: StarSpec) -> tuple[frozenset[float], float]:
    """The T-independent interior points and cap B0 of _breakpoints.

    Callers read it as StarSpec._skeleton, which runs this once per star.
    """
    sd = star.sd
    wc = sd.omega_c
    pts = {0.1 * wc, wc, 10.0 * wc}
    eps = 1e-8 * wc
    slope = max(float(sd.j(eps)) / eps, 1e-300)
    if star.omega0_sq > 0.0:
        knee = star.omega0_sq / slope
        pts.update((0.1 * knee, knee, 10.0 * knee, 100.0 * knee))
    res = star._resonance
    B0 = 50.0 * wc
    if res is not None:
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


def _integrands(star: StarSpec, T: float, derivative: bool) -> tuple:
    """The w^0 and w^2 integrands of (1/pi) int J/|alpha|^2 kernel dw.

    The kernel is coth(w/2T) for s11 and s22, and its T-derivative
    (w/2T^2) csch^2(w/2T) for a1 and a2 (derivative=True).  |alpha|^2 is
    (Re alpha)^2 + J^2.  For Lorentz-Drude each integrand is one closure
    that evaluates J, the closed-form S, Re alpha, the weight and the
    kernel inline, one Python frame per quadrature node, with the
    operations and their order of LorentzDrude.j, self_energy,
    susceptibility_real, coth and csch2: every node value is bit for bit
    what those functions compose to, as they still do for the other
    families.  Im alpha enters as J in both branches; the Kramers-Kronig
    partner of this Re alpha is J/2 (ROADMAP, "damped twice as hard"),
    and that fix is the factor on J here.
    """
    sd = star.sd
    t2, tt2 = 2.0 * T, 2.0 * T * T
    if not isinstance(sd, LorentzDrude):

        def weight(w: float) -> float:
            jw = sd.j(w)
            re = susceptibility_real(star, w)
            return jw / (re * re + jw * jw)

        def kernel(w: float) -> float:
            return (w / tt2) * csch2(w / t2) if derivative else coth(w / t2)

        return (lambda w: weight(w) * kernel(w)), (lambda w: w * w * weight(w) * kernel(w))

    g2, wc2 = 2.0 * sd.gamma, sd.omega_c**2
    gwc3, trap = sd.gamma * sd.omega_c**3, star.omega0_sq + star.omega_R_sq

    def s11(w: float) -> float:
        ww = w * w
        d = ww + wc2
        jw = g2 * w * wc2 / d
        re = trap - ww - gwc3 / d
        x = w / t2
        k = 1.0 if x > 350.0 else 1.0 + 2.0 / math.expm1(2.0 * x)
        return jw / (re * re + jw * jw) * k

    def s22(w: float) -> float:
        ww = w * w
        d = ww + wc2
        jw = g2 * w * wc2 / d
        re = trap - ww - gwc3 / d
        x = w / t2
        k = 1.0 if x > 350.0 else 1.0 + 2.0 / math.expm1(2.0 * x)
        return ww * (jw / (re * re + jw * jw)) * k

    def a1(w: float) -> float:
        x = w / t2
        if x > 350.0:
            return 0.0
        ww = w * w
        d = ww + wc2
        jw = g2 * w * wc2 / d
        re = trap - ww - gwc3 / d
        s = math.sinh(x)
        return jw / (re * re + jw * jw) * (w / tt2 * (1.0 / (s * s)))

    def a2(w: float) -> float:
        x = w / t2
        if x > 350.0:
            return 0.0
        ww = w * w
        d = ww + wc2
        jw = g2 * w * wc2 / d
        re = trap - ww - gwc3 / d
        s = math.sinh(x)
        return ww * (jw / (re * re + jw * jw)) * (w / tt2 * (1.0 / (s * s)))

    return (a1, a2) if derivative else (s11, s22)


def _weighted_moments(q: SteadyStateQuery, derivative: bool) -> tuple[float, float, float, float]:
    """The w^0 and w^2 moments of _integrands, plus (lo, B)."""
    lo, pts, B = _breakpoints(q)
    f0, f2 = _integrands(q.star, q.T, derivative)
    tails = None if derivative else q.star._tails
    m0 = _integrate(f0, lo, pts, B, tails, 0) / np.pi
    m2 = _integrate(f2, lo, pts, B, tails, 2) / np.pi
    return m0, m2, lo, B


def _normal_mode_moments(star: StarSpec, temperatures) -> list[tuple]:
    """A discrete star's probe moments: the mode sum over (sqrt(lam), c^2)."""
    lam, c = _probe_column(star)
    om = _mode_frequencies(lam, False, "the probe is free or nearly so")
    return _mode_sums(om, c * c, temperatures)


def steady_covariances(q: SteadyStateQuery) -> SingleModeCovariance:
    """Stationary probe covariance for the query's reservoir and temperature."""
    if isinstance(q.star.sd, DiscreteModes):
        return _normal_mode_moments(q.star, [q.T])[0][0]
    s11, s22, lo, B = _weighted_moments(q, derivative=False)
    cov = SingleModeCovariance(s11=s11, s22=s22)
    if cov.det() < 0.25 - 1e-9:
        raise IntegrationError(
            f"unphysical steady covariance det={cov.det()!r} < 1/4 "
            f"(s11={s11!r}, s22={s22!r}); quadrature diagnostics: "
            f"lo={lo!r} B={B!r}"
        )
    return cov


def covariance_T_derivatives(q: SteadyStateQuery) -> CovarianceDerivatives:
    """d(s11)/dT and d(s22)/dT by differentiating under the integral."""
    if isinstance(q.star.sd, DiscreteModes):
        return _normal_mode_moments(q.star, [q.T])[0][1]
    a1, a2, _, _ = _weighted_moments(q, derivative=True)
    return CovarianceDerivatives(a1=a1, a2=a2)


def clm_qfi(q: SteadyStateQuery) -> float:
    """Thermometric QFI of the steady probe (derivative route, the default)."""
    return qfi_from_derivatives(steady_covariances(q), covariance_T_derivatives(q))


def clm_qfi_fidelity(q: SteadyStateQuery, step_fraction: float = 1e-3) -> float:
    """Cross-check route: finite-difference fidelity on the steady family."""

    def cov_at(temp: float) -> SingleModeCovariance:
        return steady_covariances(replace(q, T=temp))

    return qfi_from_fidelity(cov_at, q.T, step_fraction=step_fraction)


def qfi_curve(star: StarSpec, temperatures) -> QfiCurve:
    """Sweep the derivative-route QFI over a temperature grid (sorted ascending).

    The curve keeps the steady covariance at each temperature.
    """
    ts = sorted(float(t) for t in temperatures)
    qs = [SteadyStateQuery(star=star, T=t) for t in ts]  # checks every T first
    if isinstance(star.sd, DiscreteModes):
        return QfiCurve.from_moments(ts, _normal_mode_moments(star, ts))
    moments = ((steady_covariances(q), covariance_T_derivatives(q)) for q in qs)
    return QfiCurve.from_moments(ts, moments)


def free_probe_qfi_limit(
    star: StarSpec, T: float, omega_min_sequence=None
) -> tuple[float, list[tuple[float, float]]]:
    """QFI of the omega_0 = 0 probe in the infrared-cutoff limit.

    Evaluates F(T, wmin) along a decreasing sequence (default geometric,
    ratio 10, from 1e-4 to 1e-7) and extrapolates wmin -> 0 with a linear
    fit F = F_inf + c*wmin over the last three points.  The trapping is
    provided entirely by omega_R.
    """
    if star.omega0_sq != 0.0:
        raise ValueError("free_probe_qfi_limit requires omega0_sq = 0")
    if omega_min_sequence is None:
        omega_min_sequence = [1e-4 / 10.0**k for k in range(4)]
    seq = [float(w) for w in omega_min_sequence]
    if len(seq) < 3 or any(b >= a for a, b in zip(seq, seq[1:])):
        raise ValueError("omega_min_sequence must be decreasing with >= 3 entries")
    samples: list[tuple[float, float]] = []
    for wm in seq:
        f = clm_qfi(SteadyStateQuery(star=star, T=T, omega_min=wm))
        samples.append((wm, f))
    diffs = [abs(b[1] - a[1]) for a, b in zip(samples, samples[1:])]
    if diffs[-1] > 2.0 * diffs[-2] + 1e-12 * abs(samples[-1][1]):
        raise ConvergenceError(
            f"non-Cauchy tail in omega_min sequence: |dF| = {diffs!r}"
        )
    wm3 = np.array([s[0] for s in samples[-3:]])
    f3 = np.array([s[1] for s in samples[-3:]])
    _, intercept, _ = _linear_fit(wm3, f3)
    return intercept, samples
