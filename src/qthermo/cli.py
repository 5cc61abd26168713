"""Configuration-driven experiment runner (the qthermo command).

Configs are flat key = value text files with an `experiment` discriminator;
see configs/ in the repository for the figure-reproduction recipes.  Every
run writes a CSV data table plus a JSON summary holding the fitted scaling
laws, warnings, wall time, and the versions behind the run.  Outputs are
deterministic for a fixed BLAS thread count (chain-to-star's dense eigh
rounds per thread count; star-to-chain tables are the same for any count):
rows sorted by the sweep variable, floats as repr.  The omega,g mode tables
and n,G coupling tables the CLI writes are also the inputs it reads
(modes_csv, couplings_csv).

Exit codes: 0 success, 2 config validation (including a malformed input
table), 3 computation, 4 I/O (the config, an input file it names, or an
output); failures emit a machine-readable JSON payload on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from . import chain as chain_mod
from . import clm as clm_mod
from . import fits as fits_mod
from . import heatcap as heatcap_mod
from . import mapping as mapping_mod
from . import spectral as spectral_mod
from .errors import ConfigError, QThermoError
from .gaussian import QFI_COLUMNS, QfiCurve

POINTS_PER_DECADE = 40
MODES_COLUMNS = ("omega", "g")
COUPLINGS_COLUMNS = ("n", "G")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key = value lines; # starts a comment."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value
    if "experiment" not in cfg:
        raise ConfigError("config is missing the 'experiment' key")
    if cfg["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg['experiment']!r}; choose from {EXPERIMENTS}"
        )
    return cfg


_REQUIRED = object()


class _Config:
    """Typed accessor over the flat key-value dict that tracks used keys."""

    def __init__(self, raw: dict[str, str]):
        self.raw = raw
        self._used = {"experiment", "out", "requires_slow"}

    def _fetch(self, key: str, default):
        self._used.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def str_(self, key: str, default=None) -> str:
        return self._fetch(key, default)

    def _parsed(self, key: str, default, parse, what: str):
        v = self._fetch(key, default)
        if isinstance(v, str):
            try:
                return parse(v)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {v!r} is not {what}") from exc
        return v

    def float_(self, key: str, default=None) -> float:
        return self._parsed(key, default, float, "a float")

    def int_(self, key: str, default=None) -> int:
        return self._parsed(key, default, int, "an int")

    def bool_(self, key: str, default=False) -> bool:
        v = self._fetch(key, default)
        if isinstance(v, bool):
            return v
        if v.lower() in ("true", "yes", "1"):
            return True
        if v.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"key {key!r}: {v!r} is not a boolean")

    def int_list(self, key: str, default=None) -> list[int]:
        def parse(v: str) -> list[int]:
            return [int(tok) for tok in v.split(",") if tok.strip()]

        return self._parsed(key, default, parse, "an int list")

    def reject_unknown(self) -> None:
        unknown = set(self.raw) - self._used
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _temperature_grid(cfg: _Config) -> np.ndarray:
    t_min = cfg.float_("T_min", _REQUIRED)
    t_max = cfg.float_("T_max", _REQUIRED)
    if not 0.0 < t_min < t_max < math.inf:
        raise ConfigError("need 0 < T_min < T_max, with T_max finite")
    decades = np.log10(t_max / t_min)
    default_points = max(4, int(round(POINTS_PER_DECADE * decades)))
    points = cfg.int_("points", default_points)
    if points < 2:
        raise ConfigError("points must be >= 2")
    return np.geomspace(t_min, t_max, points)


def _window(key: str, parse) -> tuple | None:
    """(lo, hi) from the keys <key>_lo and <key>_hi, read by the _Config
    accessor parse: both or neither, and lo < hi."""
    lo = parse(f"{key}_lo", None)
    hi = parse(f"{key}_hi", None)
    if (lo is None) != (hi is None):
        raise ConfigError(f"{key}_lo and {key}_hi must be given together")
    if lo is not None and not lo < hi:
        raise ConfigError(f"need {key}_lo < {key}_hi")
    return None if lo is None else (lo, hi)


def _fit_window(cfg: _Config, grid: np.ndarray) -> tuple[float, float] | None:
    window = _window("fit_window", cfg.float_)
    if window and (window[0] < grid[0] * (1 - 1e-12) or window[1] > grid[-1] * (1 + 1e-12)):
        raise ConfigError("fit window must lie inside [T_min, T_max]")
    return window


def _read_columns(path: str, header: Sequence[str]) -> list[list[float]]:
    """Columns of a CSV table in the format _write_outputs writes.

    A table that is not UTF-8, lacks the exact header, has no rows, or has a
    row that is not len(header) finite numbers is a ConfigError naming the
    file and line; a missing file stays an OSError.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"input table {path} is not UTF-8 text: {exc}") from exc
    want = ",".join(header)
    if not lines or lines[0].strip() != want:
        got = lines[0] if lines else ""
        raise ConfigError(f"{path} line 1: expected header {want!r}, got {got!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            row = []
        if len(row) != len(header) or not all(math.isfinite(v) for v in row):
            raise ConfigError(
                f"{path} line {lineno}: expected {len(header)} finite numbers, got {line!r}"
            )
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no rows under the header {want!r}")
    return [list(col) for col in zip(*rows)]


def _spectral_density(cfg: _Config) -> spectral_mod.ContinuousSpectralDensity:
    family = cfg.str_("family", "lorentz_drude")
    gamma = cfg.float_("gamma", _REQUIRED)
    omega_c = cfg.float_("omega_c", _REQUIRED)
    if family == "lorentz_drude":
        return spectral_mod.LorentzDrude(gamma=gamma, omega_c=omega_c)
    if family == "exponential":
        return spectral_mod.ExponentialCutoff(gamma=gamma, omega_c=omega_c, s=cfg.float_("s", 1.0))
    raise ConfigError(f"unknown spectral family {family!r}")


def _chain_spec(cfg: _Config) -> tuple[chain_mod.ChainSpec, bool]:
    """(chain, regularize_gapless) from a config."""
    n_half = cfg.int_("N", _REQUIRED)
    family = cfg.str_("coupling_family", "power_law")
    if family == "power_law":
        base = chain_mod.power_law_chain(n_half, 0.0, G=cfg.float_("G", 1.0), t=cfg.float_("t", 2.5))
    elif family == "exponential":
        base = chain_mod.exponential_chain(n_half, 0.0, G=cfg.float_("G", 1.0), c=cfg.float_("c", 1.0))
    elif family == "csv":
        _, gs = _read_columns(cfg.str_("couplings_csv", _REQUIRED), COUPLINGS_COLUMNS)
        if len(gs) != n_half:
            raise ConfigError(f"couplings CSV holds N={len(gs)}, config says N={n_half}")
        base = chain_mod.ChainSpec(N=n_half, omega_sq=0.0, couplings=tuple(gs))
    else:
        raise ConfigError(f"unknown coupling family {family!r}")
    gapless = cfg.bool_("gapless", False)
    gap = cfg.float_("gap", None)
    omega_sq = cfg.float_("omega_sq", None)
    given = sum(x is not None and x is not False for x in (gapless or None, gap, omega_sq))
    if given != 1:
        raise ConfigError("give exactly one of gapless=true, gap=<Delta>, omega_sq=<value>")
    base_sq = chain_mod.gapless_frequency_sq(n_half, base.couplings)
    if gapless:
        omega_sq = base_sq
    elif gap is not None:
        omega_sq = base_sq + gap * gap
    chain = chain_mod.ChainSpec(N=n_half, omega_sq=float(omega_sq), couplings=base.couplings)
    return chain, bool(gapless)


Rows = list[list[float]]
ExperimentResult = tuple[Sequence[str], Rows, list[fits_mod.ScalingFit], list[str], dict]


def _run_clm_qfi(cfg: _Config) -> ExperimentResult:
    sd = _spectral_density(cfg)
    star = spectral_mod.make_star(sd, omega0_sq=cfg.float_("omega0_sq", _REQUIRED))
    ts = _temperature_grid(cfg)
    window = _fit_window(cfg, ts)
    cfg.reject_unknown()
    curve = clm_mod.qfi_curve(star, ts)
    fit = [fits_mod.fit_power_law(curve, window)] if window else []
    return QFI_COLUMNS, curve.rows(), fit, list(star.warnings), {}


def _run_free_probe(cfg: _Config) -> ExperimentResult:
    sd = _spectral_density(cfg)
    star = spectral_mod.make_star(sd, omega0_sq=0.0)
    t = cfg.float_("T", _REQUIRED)
    cfg.reject_unknown()
    limit, samples = clm_mod.free_probe_qfi_limit(star, t)
    rows = [[wm, f, 2.0 * t * t * f] for wm, f in samples]
    extra = {"limit_estimate": limit, "two_T_sq_F": 2.0 * t * t * limit, "T": t}
    return ["omega_min", "qfi", "two_T_sq_F"], rows, [], list(star.warnings), extra


def _run_tihc_qfi(cfg: _Config) -> ExperimentResult:
    chain, regularize = _chain_spec(cfg)
    ts = _temperature_grid(cfg)
    fit_kind = cfg.str_("fit", "none")
    window = _fit_window(cfg, ts)
    cfg.reject_unknown()
    fits = {
        "none": None,
        "power_law": fits_mod.fit_power_law,
        "exponential_gap": fits_mod.fit_exponential_gap,
    }
    if fit_kind not in fits:
        raise ConfigError(f"unknown fit kind {fit_kind!r}; choose from {tuple(fits)}")
    fit = fits[fit_kind]
    moments = chain_mod.node_moments(chain, ts, regularize_gapless=regularize)
    curve = QfiCurve.from_moments(ts, moments)
    fit_list = [fit(curve, window)] if fit else []
    extra = {"omega_sq": chain.omega_sq, "gap": chain.spectrum.gap}
    return QFI_COLUMNS, curve.rows(), fit_list, [], extra


def _run_chain_to_star(cfg: _Config) -> ExperimentResult:
    chain, _ = _chain_spec(cfg)
    cfg.reject_unknown()
    star = mapping_mod.chain_to_star(chain)
    rows = [[w, g] for w, g in star.coupled_modes]
    extra = {
        "probe_omega_sq": star.probe_omega_sq,
        "decoupled_count": star.decoupled_count,
        "renormalization_sq": star.to_star_spec().omega_R_sq if star.coupled_modes else 0.0,
    }
    return MODES_COLUMNS, rows, [], list(star.warnings), extra


def _star_from_cfg(cfg: _Config) -> spectral_mod.StarSpec:
    modes_csv = cfg.str_("modes_csv", None)
    omega0_sq = cfg.float_("omega0_sq", 0.0)
    if modes_csv is not None:
        omegas, gs = _read_columns(modes_csv, MODES_COLUMNS)
        modes = spectral_mod.DiscreteModes(tuple(omegas), tuple(gs))
        return spectral_mod.make_star(modes, omega0_sq=omega0_sq)
    sd = _spectral_density(cfg)
    return spectral_mod.discretize_clm(
        sd,
        n_modes=cfg.int_("n_modes", _REQUIRED),
        omega_max=cfg.float_("omega_max", _REQUIRED),
        omega0_sq=omega0_sq,
    )


def _run_star_to_chain(cfg: _Config) -> ExperimentResult:
    star = _star_from_cfg(cfg)
    window = _window("fit_n", cfg.int_)
    if window and window[0] < 1:
        raise ConfigError("fit_n_lo must be >= 1")
    n_couplings = len(star.sd.omegas)  # the chain has one coupling per reservoir mode
    if window and window[1] > n_couplings:
        raise ConfigError(f"fit_n_hi = {window[1]} exceeds the chain's {n_couplings} couplings")
    cfg.reject_unknown()
    freqs = mapping_mod.clm_normal_modes(star)
    rec = mapping_mod.star_to_chain(freqs)
    rows = [[float(i + 1), float(g)] for i, g in enumerate(rec.chain.couplings)]
    fit_list = []
    if window:
        n_idx = np.arange(1, rec.chain.N + 1, dtype=float)
        g = rec.chain.coupling_array
        fit_list = [fits_mod.loglog_fit(n_idx[g > 0.0], g[g > 0.0], window=window)]
    extra = {
        "omega_sq": rec.chain.omega_sq,
        "Omega": float(np.sqrt(rec.chain.omega_sq)),
        "physical": rec.physical,
        "omega_R_sq": star.omega_R_sq,
    }
    return COUPLINGS_COLUMNS, rows, fit_list, list(star.warnings), extra


def _run_discretize(cfg: _Config) -> ExperimentResult:
    sd = _spectral_density(cfg)
    n_modes = cfg.int_("n_modes", _REQUIRED)
    omega_max = cfg.float_("omega_max", _REQUIRED)
    omega0_sq = cfg.float_("omega0_sq", 0.0)
    cfg.reject_unknown()
    star = spectral_mod.discretize_clm(sd, n_modes, omega_max, omega0_sq=omega0_sq)
    modes = star.sd
    rows = [[w, g] for w, g in zip(modes.omegas, modes.gs)]
    extra = {"omega_R_sq": star.omega_R_sq}
    if isinstance(sd, spectral_mod.LorentzDrude):
        deficit, predicted = spectral_mod.discretization_residual(sd, n_modes, omega_max)
        extra.update({"deficit": deficit, "predicted_leading": predicted})
    return MODES_COLUMNS, rows, [], list(star.warnings), extra


def _run_heatcap(cfg: _Config) -> ExperimentResult:
    spec = heatcap_mod.IsingSpec(
        J=cfg.float_("J", _REQUIRED), h=cfg.float_("h", _REQUIRED), N=cfg.int_("N", _REQUIRED)
    )
    ts = _temperature_grid(cfg)
    cfg.reject_unknown()
    rows: Rows = []
    for t in ts:
        c_exact = heatcap_mod.ising_heat_capacity(spec, float(t), "exact")
        try:  # the asymptotic form refuses beta*Delta < 5 and criticality
            c_asym = heatcap_mod.ising_heat_capacity(spec, float(t), "asymptotic")
        except ValueError:
            c_asym = np.nan
        ratio = c_exact / c_asym if c_asym > 0 else np.nan
        rows.append([float(t), 1.0 / t, c_exact, float(c_asym), float(ratio)])
    extra = {"gap": spec.gap}
    return ["T", "beta", "C_exact", "C_asymptotic", "ratio"], rows, [], [], extra


def _run_gap_error(cfg: _Config) -> ExperimentResult:
    s = cfg.float_("s", _REQUIRED)
    g = cfg.float_("G", 1.0)
    n_list = cfg.int_list("N_list", _REQUIRED)
    cfg.reject_unknown()
    fit = chain_mod.gap_error_scaling(s, g, n_list)
    rows = [[float(n), abs(chain_mod.gap_error(n, s, g))] for n in sorted(n_list)]
    return ["N", "abs_gap_error"], rows, [fit], [], {"s": s}


_RUNNERS: dict[str, Callable[[_Config], ExperimentResult]] = {
    "clm-qfi": _run_clm_qfi,
    "free-probe-limit": _run_free_probe,
    "tihc-qfi": _run_tihc_qfi,
    "chain-to-star": _run_chain_to_star,
    "star-to-chain": _run_star_to_chain,
    "discretize": _run_discretize,
    "heatcap": _run_heatcap,
    "gap-error": _run_gap_error,
}
EXPERIMENTS = tuple(_RUNNERS)


def _write_outputs(out_path: Path, columns: Sequence[str], rows: Rows, summary: dict) -> None:
    lines = [",".join(columns)]
    lines += [",".join(map(repr, map(float, row))) for row in rows]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary_path = out_path.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=1, default=str) + "\n", encoding="utf-8")


def _environment() -> dict[str, str | None]:
    """Versions behind a run, read without importing anything; scipy is
    None unless this process has loaded it (chain experiments never do)."""
    scipy = sys.modules.get("scipy")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "qthermo": __version__,
        "scipy": scipy.__version__ if scipy is not None else None,
    }


def run_experiment(
    raw_cfg: dict[str, str],
    out: str | None = None,
    slow_ok: bool = False,
) -> dict:
    """Validate, compute, and write one experiment; returns the summary."""
    cfg = _Config(raw_cfg)
    experiment = raw_cfg["experiment"]
    if cfg.bool_("requires_slow", False) and not slow_ok:
        raise ConfigError(
            f"experiment {experiment!r} is marked slow; re-run with --slow to confirm"
        )
    out_path = Path(out if out is not None else cfg.str_("out", f"{experiment}.csv"))

    start = time.perf_counter()
    columns, rows, fit_list, warnings, extra = _RUNNERS[experiment](cfg)
    wall = time.perf_counter() - start

    summary = {
        "experiment": experiment,
        "params": dict(raw_cfg),
        "fits": [dataclasses.asdict(f) for f in fit_list],
        "warnings": list(warnings),
        "wall_time_s": wall,
        **extra,
        "env": _environment(),
    }
    _write_outputs(out_path, columns, rows, summary)
    return summary


def _fail(exit_code: int, error: str, message: str) -> int:
    payload = {"error": error, "message": message, "exit_code": exit_code}
    print(json.dumps(payload), file=sys.stderr)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qthermo",
        description="Run a low-temperature thermometry experiment from a config file.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output data path (overrides config)")
    parser.add_argument("--slow", action="store_true", help="allow slow-marked recipes")
    args = parser.parse_args(argv)

    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config} is not UTF-8 text: {exc}") from exc
        cfg = parse_config_text(text)
        if cfg["experiment"] != args.experiment:
            raise ConfigError(
                f"config declares experiment {cfg['experiment']!r}, "
                f"command line says {args.experiment!r}"
            )
        run_experiment(cfg, out=args.out, slow_ok=args.slow)
    except ConfigError as exc:
        return _fail(2, "config-error", str(exc))
    except OSError as exc:
        return _fail(4, "io-error", str(exc))
    except (QThermoError, ValueError, ArithmeticError) as exc:
        return _fail(3, "computation-error", f"{type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
