"""Configuration-driven experiment runner (the qthermo command).

Configs are flat key = value text files with an `experiment` discriminator;
see configs/ in the repository for the figure-reproduction recipes.  Every
run writes a CSV data table plus a JSON summary holding the fitted scaling
laws, warnings, wall time, and the versions behind the run.  Outputs are
deterministic for a fixed BLAS thread count (chain-to-star's dense eigh
may round per thread count, though fig4's 100-mode half block does not;
star-to-chain tables are the same for any count):
rows sorted by the sweep variable, floats as repr.  The config is the only
file a run reads; a rerun writes its outputs over their old bytes.

Exit codes: 0 success, 2 config validation, 3 computation, 4 I/O (reading
the config, or writing the table or the summary); failures emit a
machine-readable JSON payload on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
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
        raise ConfigError(f"unknown experiment {cfg['experiment']!r}; choose from {EXPERIMENTS}")
    return cfg


_REQUIRED = object()


class _Config:
    """Typed accessor over the flat key-value dict that tracks used keys."""

    def __init__(self, raw: dict[str, str]):
        self.raw = raw
        self._used = {"experiment", "out", "requires_slow"}

    def str_(self, key: str, default) -> str:
        """The raw value of key, or default (_REQUIRED: a missing key raises)."""
        self._used.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def _parsed(self, key: str, default, parse, what: str):
        v = self.str_(key, default)
        if isinstance(v, str):
            try:
                return parse(v)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {v!r} is not {what}") from exc
        return v

    def float_(self, key: str, default) -> float:
        return self._parsed(key, default, float, "a float")

    def int_(self, key: str, default) -> int:
        return self._parsed(key, default, int, "an int")

    def bool_(self, key: str, default) -> bool:
        v = self.str_(key, default)
        if isinstance(v, bool):
            return v
        if v.lower() in ("true", "yes", "1"):
            return True
        if v.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"key {key!r}: {v!r} is not a boolean")

    def int_list(self, key: str, default) -> list[int]:
        return self._parsed(key, default, lambda v: [int(tok) for tok in v.split(",") if tok.strip()],
                            "an int list")

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
    else:
        raise ConfigError(f"unknown coupling family {family!r}")
    gapless = cfg.bool_("gapless", False)
    gap = cfg.float_("gap", None)
    omega_sq = cfg.float_("omega_sq", None)
    if sum((gapless, gap is not None, omega_sq is not None)) != 1:
        raise ConfigError("give exactly one of gapless=true, gap=<Delta>, omega_sq=<value>")
    if gap is not None and gap <= 0.0:
        raise ConfigError(f"need gap > 0, got gap={gap!r}; a gapless chain takes gapless = true")
    base_sq = chain_mod.gapless_frequency_sq(n_half, base.couplings)
    if gapless:
        omega_sq = base_sq
    elif gap is not None:
        omega_sq = base_sq + gap * gap
    chain = chain_mod.ChainSpec(N=n_half, omega_sq=float(omega_sq), couplings=base.couplings)
    return chain, gapless


Rows = list[Sequence[float]]
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
    if window and fit_kind == "none":
        raise ConfigError("fit_window_lo and fit_window_hi need fit = power_law or exponential_gap")
    cfg.reject_unknown()
    fits = {"none": None, "power_law": fits_mod.fit_power_law,
            "exponential_gap": fits_mod.fit_exponential_gap}
    if fit_kind not in fits:
        raise ConfigError(f"unknown fit kind {fit_kind!r}; choose from {tuple(fits)}")
    fit = fits[fit_kind]
    curve = QfiCurve.from_moments(ts, chain_mod.node_moments(chain, ts, regularize_gapless=regularize))
    fit_list = [fit(curve, window)] if fit else []
    extra = {"omega_sq": chain.omega_sq, "gap": chain.spectrum.gap}
    return QFI_COLUMNS, curve.rows(), fit_list, [], extra


def _run_chain_to_star(cfg: _Config) -> ExperimentResult:
    chain, _ = _chain_spec(cfg)
    cfg.reject_unknown()
    star = mapping_mod.chain_to_star(chain)
    rows = list(zip(star.omega_array.tolist(), star.g_array.tolist()))
    extra = {
        "probe_omega_sq": chain.omega_sq,
        "omega0_sq": star.omega0_sq,
        "decoupled_count": star.decoupled_count,
        "renormalization_sq": float(np.sum(star.g_array**2 / star.omega_array**2)),
    }
    return MODES_COLUMNS, rows, [], [], extra


def _run_star_to_chain(cfg: _Config) -> ExperimentResult:
    star = spectral_mod.discretize_clm(
        _spectral_density(cfg),
        n_modes=cfg.int_("n_modes", _REQUIRED),
        omega_max=cfg.float_("omega_max", _REQUIRED),
        omega0_sq=cfg.float_("omega0_sq", 0.0),
    )
    window = _window("fit_n", cfg.int_)
    if window and window[0] < 1:
        raise ConfigError("fit_n_lo must be >= 1")
    n_couplings = star.sd.omega_array.size  # the chain has one coupling per reservoir mode
    if window and window[1] > n_couplings:
        raise ConfigError(f"fit_n_hi = {window[1]} exceeds the chain's {n_couplings} couplings")
    cfg.reject_unknown()
    freqs = mapping_mod.clm_normal_modes(star)
    rec = mapping_mod.star_to_chain(freqs)
    n_idx, g = np.arange(1, rec.chain.N + 1, dtype=float), rec.chain.couplings
    rows = list(zip(n_idx.tolist(), g.tolist()))
    fit_list = []
    if window:
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
    cfg.reject_unknown()
    star = spectral_mod.discretize_clm(sd, n_modes, omega_max)
    modes = star.sd
    rows = list(zip(modes.omega_array.tolist(), modes.g_array.tolist()))
    extra = {"omega_R_sq": star.omega_R_sq}
    if isinstance(sd, spectral_mod.LorentzDrude):
        # omega_R^2's deficit and its leading term (N >> omega_max/omega_c >> 1)
        extra["deficit"] = sd.gamma * sd.omega_c - star.omega_R_sq
        extra["predicted_leading"] = sd.gamma * omega_max / (np.pi * n_modes)
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
        rows.append([t, 1.0 / t, c_exact, c_asym, c_exact / c_asym if c_asym > 0 else np.nan])
    extra = {"gap": spec.gap}
    return ["T", "beta", "C_exact", "C_asymptotic", "ratio"], rows, [], [], extra


def _run_gap_error(cfg: _Config) -> ExperimentResult:
    s = cfg.float_("s", _REQUIRED)
    g = cfg.float_("G", 1.0)
    n_list = cfg.int_list("N_list", _REQUIRED)
    cfg.reject_unknown()
    fit, ns, xi = chain_mod._gap_error_fit(s, g, n_list)
    return ["N", "abs_gap_error"], np.column_stack((ns, xi)).tolist(), [fit], [], {"s": s}


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
    """Write the table, then the summary beside it, each over its old bytes.

    A file is cut only when its new text is shorter: truncating a non-empty
    file on open frees its blocks and forces their reallocation at close,
    which costs more than the rest of the write.  Like a truncating write,
    this is not atomic: a kill mid-write leaves new text over old bytes, and
    one between the write and the cut leaves the old tail after the new text.
    The table is one %r pass over every entry as a float (%r of an np.float64 is
    not its repr); a ragged row raises ValueError first, as it would shift entries.
    """
    if set(map(len, rows)) - {len(columns)}:
        raise ValueError(f"every row needs {len(columns)} entries, one per column")
    values = tuple(map(float, itertools.chain.from_iterable(rows)))
    table = ",".join(columns) + ("\n" + ",".join(["%r"] * len(columns))) * len(rows) % values
    texts = (table, json.dumps(summary, indent=1, default=str))
    for path, text in zip((out_path, out_path.with_suffix(".summary.json")), texts):
        data = (text + "\n").encode("utf-8")
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            old_size = os.fstat(f.fileno()).st_size  # 0 for /dev/null and FIFOs
            f.write(data)
            f.flush()
            if len(data) < old_size:
                os.ftruncate(f.fileno(), len(data))


@functools.cache
def _environment() -> dict[str, str | None]:
    """Versions behind a run, once per process; scipy's from its metadata (None
    without scipy): most runs never import it, and sys.modules tells what ran."""
    from importlib import metadata

    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "qthermo": __version__,
        "scipy": scipy,
    }


def run_experiment(raw_cfg: dict[str, str], out: str | None, slow_ok: bool) -> dict:
    """Validate, compute, and write one experiment; returns the summary.

    out is the table's path; None takes the config's out key, or
    <experiment>.csv.  slow_ok admits a recipe that sets requires_slow.
    """
    cfg = _Config(raw_cfg)
    experiment = raw_cfg["experiment"]
    if cfg.bool_("requires_slow", False) and not slow_ok:
        raise ConfigError(f"experiment {experiment!r} is marked slow; re-run with --slow to confirm")
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
        "env": dict(_environment()),
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
            raise ConfigError(f"config declares experiment {cfg['experiment']!r}, "
                              f"command line says {args.experiment!r}")
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
