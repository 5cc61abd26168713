"""Correctness gate of the benchmark: reference tables and input-free oracles.

Every pass is compared column by column with a reference table: the
committed table at the default seed, the run's own first pass otherwise.
An entry's deviation is |got - ref| over max(|ref|, SMALL * column max), so
entries far below their column's magnitude (the tail of fig5's couplings)
are judged against the column scale and round-off of a different but
equally exact route does not fail them.  RTOL is the ROADMAP's agreement
tolerance for quadrature-derived columns and is applied to every column.

The oracles hold for any input a seed can produce and run once per run on
the first pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

RTOL = 1e-8
SMALL = 1e-3

# Acceptance tolerances of the fitted exponents (tests/test_acceptance.py).
EXPONENTS = {"fig2a": (2.0, 0.05), "fig2b": (-2.0, 0.05), "fig3b": (-2.0, 0.1)}
# Finite-difference fidelity route against the derivative route.
ROUTE_RTOL = 1e-3
ROUTE_STEP = 1e-2


Table = tuple[list[str], np.ndarray]


def read_table(path: Path) -> Table:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:] if line]
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def max_rel_diff(got: Table, ref: Table) -> float:
    """Largest scaled deviation of got from ref; inf on a shape mismatch."""
    (gh, a), (rh, b) = got, ref
    if gh != rh or a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    finite = np.isfinite(b)
    colmax = np.max(np.where(finite, np.abs(b), 0.0), axis=0)
    scale = np.maximum(np.abs(b), SMALL * colmax)
    with np.errstate(invalid="ignore", divide="ignore"):
        dev = np.abs(a - b) / scale
    dev = np.where(same, 0.0, np.where(np.isfinite(dev), dev, math.inf))
    return float(np.max(dev))


def _col(table: Table, name: str) -> np.ndarray:
    header, data = table
    return data[:, header.index(name)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _route_gap(qt, cov_at, qfi: float, T: float) -> float:
    """Relative gap between the fidelity route and a derivative-route QFI."""
    return _rel(qt.qfi_from_fidelity(cov_at, T, step_fraction=ROUTE_STEP), qfi)


def _power_law_chain(qt, raw: dict[str, str], omega_sq: float):
    n = int(raw["N"])
    base = qt.power_law_chain(n, 0.0, G=float(raw.get("G", 1.0)), t=float(raw.get("t", 2.5)))
    return qt.ChainSpec(N=n, omega_sq=omega_sq, couplings=base.couplings)


def _check_reconstruction(qt, raw, summary, table, problems, name, round_trip):
    """Chain rebuilt from a discretized star: moments, interlacing, round trip."""
    sd = qt.LorentzDrude(float(raw["gamma"]), float(raw["omega_c"]))
    star = qt.discretize_clm(
        sd, int(raw["n_modes"]), float(raw["omega_max"]), float(raw.get("omega0_sq", 0.0))
    )
    w2 = star.sd.omega_array ** 2
    g2 = star.sd.g_array ** 2
    top = star.omega0_sq + star.omega_R_sq
    chain = qt.ChainSpec(
        N=table[1].shape[0], omega_sq=summary["omega_sq"], couplings=tuple(_col(table, "G"))
    )
    lam = np.sort(qt.chain_spectrum(chain).array)[::-1]
    # spectrum of the bordered star matrix: trace and Frobenius norm
    trace_gap = _rel(float(np.sum(lam)), top + float(np.sum(w2)))
    frob_gap = _rel(float(np.sum(lam**2)), top * top + float(np.sum(w2**2) + 2.0 * np.sum(g2)))
    if max(trace_gap, frob_gap) > 1e-9:
        problems.append(f"{name}: chain spectrum moments off by {max(trace_gap, frob_gap):.2e}")
    # lam_0 >= w_N^2 >= lam_1 >= ... >= w_1^2 >= lam_N
    slack = 1e-9 * float(lam[0])
    w2_desc = w2[::-1]
    if np.any(lam[:-1] < w2_desc - slack) or np.any(w2_desc < lam[1:] - slack):
        problems.append(f"{name}: star normal modes do not interlace the reservoir modes")
    if round_trip:
        ev = qt.clm_normal_modes(star)
        gap = float(np.max(np.abs(qt.chain_spectrum(chain).array - ev)) / np.max(ev))
        if gap > 1e-9:
            problems.append(f"{name}: chain_spectrum(star_to_chain) round trip off by {gap:.2e}")


def oracles(
    qt, workload: str, raws: dict, summaries: dict, tables: dict[str, Table]
) -> list[str]:
    """Checks that hold for any seed; returns the violations found."""
    problems: list[str] = []
    for name, table in tables.items():
        if "sigma11" in table[0]:
            det = _col(table, "sigma11") * _col(table, "sigma22")
            if float(np.min(det)) < 0.25 - 1e-9:
                problems.append(f"{name}: det sigma = {float(np.min(det))!r} < 1/4")
        if name in EXPONENTS:
            want, tol = EXPONENTS[name]
            got = summaries[name]["fits"][0]["exponent_or_gap"]
            if abs(got - want) > tol:
                problems.append(f"{name}: fitted exponent {got:.4f} not within {want} +- {tol}")

    if workload == "probe_ohmic":
        raw, table = raws["fig2b"], tables["fig2b"]
        star = qt.make_star(
            qt.LorentzDrude(float(raw["gamma"]), float(raw["omega_c"])),
            omega0_sq=float(raw["omega0_sq"]),
        )
        i = table[1].shape[0] // 2
        T = float(_col(table, "T")[i])
        q = qt.SteadyStateQuery(star=star, T=T)
        gap = _rel(qt.clm_qfi_fidelity(q, step_fraction=ROUTE_STEP), float(_col(table, "qfi")[i]))
        if gap > ROUTE_RTOL:
            problems.append(f"fig2b: fidelity and derivative QFI differ by {gap:.2e} at T={T!r}")
    elif workload == "chain_map":
        _check_reconstruction(qt, raws["fig5"], summaries["fig5"], tables["fig5"], problems, "fig5", False)
        _check_reconstruction(
            qt, raws["fig5_desk"], summaries["fig5_desk"], tables["fig5_desk"], problems, "fig5_desk", True
        )
        for name in ("fig4_gapless", "fig4_gapped"):
            n = int(raws[name]["N"])
            omega, g = _col(tables[name], "omega"), _col(tables[name], "g")
            if summaries[name]["decoupled_count"] != n or omega.size != n:
                problems.append(f"{name}: expected {n} coupled and {n} decoupled modes")
            if np.any(np.diff(omega) <= 0.0) or np.any(g <= 0.0):
                problems.append(f"{name}: coupled modes not ascending with positive couplings")
        raw = raws["fig4_gapped"]
        chain = _power_law_chain(qt, raw, summaries["fig4_gapped"]["probe_omega_sq"])
        T = float(raw["gap"])
        gap = _route_gap(qt, lambda t: qt.node_covariances(chain, t), qt.node_qfi(chain, T), T)
        if gap > ROUTE_RTOL:
            problems.append(f"fig4_gapped: fidelity and derivative QFI differ by {gap:.2e}")
    elif workload == "chain_local":
        raw, table = raws["fig3b"], tables["fig3b"]
        chain = _power_law_chain(qt, raw, summaries["fig3b"]["omega_sq"])
        i = table[1].shape[0] // 2
        T = float(_col(table, "T")[i])
        gap = _route_gap(
            qt,
            lambda t: qt.node_covariances(chain, t, regularize_gapless=True),
            float(_col(table, "qfi")[i]),
            T,
        )
        if gap > ROUTE_RTOL:
            problems.append(f"fig3b: fidelity and derivative QFI differ by {gap:.2e} at T={T!r}")
    return problems
