"""Workloads of the qthermo benchmark and the seeded inputs they run on.

A workload is an ordered list of recipes; one pass runs every recipe of
the workload once through ``qthermo.cli.run_experiment``.  Recipes are the
repository's own ``configs/*.cfg`` files, plus one kept in
``perfbench/configs`` (chain_n1000, fig3a's sweep on a longer chain).

Seed 0 (the default) runs the recipes exactly as written, which is what
the committed reference tables hold.  Any other seed perturbs each recipe
inside its physical regime: temperature endpoints, couplings and cutoffs
move by a few to twenty percent, and only the cheap recipes change their
sizes (grid points, chain lengths, mode counts).  The recipes that carry
a workload's cost keep their sizes, so a pass does about the same work on
every seed and seed-to-seed spread in the timings stays small.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0

Raw = dict[str, str]
Jitter = Callable[[Raw, np.random.Generator], None]


@dataclass(frozen=True)
class Recipe:
    """One experiment of a pass: a config file and how a seed perturbs it."""

    name: str
    config: Path
    jitter: Jitter


def _scale(raw: Raw, key: str, rng: np.random.Generator, spread: float) -> float:
    """Multiply a float entry by a factor drawn from [1 - spread, 1 + spread]."""
    factor = float(rng.uniform(1.0 - spread, 1.0 + spread))
    raw[key] = repr(float(raw[key]) * factor)
    return factor


def _resize(raw: Raw, key: str, rng: np.random.Generator, spread: float) -> None:
    """Move an integer size by up to +-spread of its value."""
    n = int(raw[key])
    step = max(1, int(round(spread * n)))
    raw[key] = str(n + int(rng.integers(-step, step + 1)))


def _temperatures(raw: Raw, rng: np.random.Generator, spread: float = 0.1) -> None:
    """Jitter the grid endpoints; pin the point count the grid had.

    A fit window moves with the endpoint it starts or ends on, so it stays
    inside the new grid.
    """
    from qthermo.cli import POINTS_PER_DECADE

    if "points" not in raw:
        decades = np.log10(float(raw["T_max"]) / float(raw["T_min"]))
        raw["points"] = str(max(4, int(round(POINTS_PER_DECADE * decades))))
    lo = _scale(raw, "T_min", rng, spread)
    hi = _scale(raw, "T_max", rng, spread)
    if "fit_window_lo" in raw:
        raw["fit_window_lo"] = repr(float(raw["fit_window_lo"]) * lo)
        raw["fit_window_hi"] = repr(float(raw["fit_window_hi"]) * hi)


def _probe(raw: Raw, rng: np.random.Generator) -> None:
    _temperatures(raw, rng)
    _scale(raw, "gamma", rng, 0.1)
    _scale(raw, "omega_c", rng, 0.1)


def _free_probe(raw: Raw, rng: np.random.Generator) -> None:
    _scale(raw, "T", rng, 0.2)
    _scale(raw, "gamma", rng, 0.1)


def _reservoir(raw: Raw, rng: np.random.Generator) -> None:
    for key in ("gamma", "omega_c", "omega_max"):
        _scale(raw, key, rng, 0.1)
    if "omega0_sq" in raw:
        _scale(raw, "omega0_sq", rng, 0.2)


def _reservoir_resized(raw: Raw, rng: np.random.Generator) -> None:
    _reservoir(raw, rng)
    _resize(raw, "n_modes", rng, 0.1)


def _chain(raw: Raw, rng: np.random.Generator) -> None:
    _scale(raw, "t", rng, 0.05)
    if "gap" in raw:
        _scale(raw, "gap", rng, 0.1)


def _chain_resized(raw: Raw, rng: np.random.Generator) -> None:
    _chain(raw, rng)
    _resize(raw, "N", rng, 0.2)


def _chain_sweep(raw: Raw, rng: np.random.Generator) -> None:
    _chain(raw, rng)
    _temperatures(raw, rng)


def _chain_sweep_resized(raw: Raw, rng: np.random.Generator) -> None:
    _chain_sweep(raw, rng)
    _resize(raw, "N", rng, 0.2)
    _resize(raw, "points", rng, 0.1)


def _gap_error(raw: Raw, rng: np.random.Generator) -> None:
    _scale(raw, "s", rng, 0.05)
    sizes = sorted({int(round(int(n) * rng.uniform(0.9, 1.1))) for n in raw["N_list"].split(",")})
    raw["N_list"] = ",".join(str(n) for n in sizes)


def _heatcap(raw: Raw, rng: np.random.Generator) -> None:
    _scale(raw, "J", rng, 0.05)
    _scale(raw, "h", rng, 0.05)
    _resize(raw, "N", rng, 0.1)
    _temperatures(raw, rng)
    _resize(raw, "points", rng, 0.1)


def _config(name: str) -> Path:
    return ROOT / "configs" / f"{name}.cfg"


def _own_config(name: str) -> Path:
    return BENCH_DIR / "configs" / f"{name}.cfg"


WORKLOADS: dict[str, tuple[Recipe, ...]] = {
    "probe_ohmic": (
        Recipe("fig2a", _config("fig2a"), _probe),
        Recipe("fig2b", _config("fig2b"), _probe),
        Recipe("free_probe", _config("free_probe"), _free_probe),
    ),
    "chain_map": (
        Recipe("fig5", _config("fig5"), _reservoir),
        Recipe("fig5_desk", _config("fig5_desk"), _reservoir_resized),
        Recipe("fig4_gapless", _config("fig4_gapless"), _chain_resized),
        Recipe("fig4_gapped", _config("fig4_gapped"), _chain_resized),
    ),
    "chain_local": (
        Recipe("fig3a", _config("fig3a"), _chain_sweep_resized),
        Recipe("fig3b", _config("fig3b"), _chain_sweep_resized),
        Recipe("chain_n1000", _own_config("chain_n1000"), _chain_sweep),
        Recipe("gap_error", _config("gap_error"), _gap_error),
        Recipe("heatcap_ising", _config("heatcap_ising"), _heatcap),
        Recipe("discretize_residual", _config("discretize_residual"), _reservoir_resized),
    ),
}


def build(workload: str, seed: int) -> list[tuple[str, Raw]]:
    """Parsed (and, off the default seed, perturbed) configs of a workload."""
    from qthermo.cli import parse_config_text

    recipes = []
    for index, recipe in enumerate(WORKLOADS[workload]):
        raw = parse_config_text(recipe.config.read_text(encoding="utf-8"))
        if seed != DEFAULT_SEED:
            recipe.jitter(raw, np.random.default_rng([seed, index]))
            parse_config_text("\n".join(f"{k} = {v}" for k, v in raw.items()))
        recipes.append((recipe.name, raw))
    return recipes
