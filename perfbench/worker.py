"""Runs one workload in a fresh interpreter; started by run.py.

It imports qthermo from the checkout's ``src``, parses the workload's
configs and prints ``ready`` -- the end of set-up.  With ``--setup-only``
it stops there.  Otherwise it runs passes in a closed loop, one caller and
one pass at a time: a cold first pass, then warm passes for ``--seconds``.
Each pass runs every recipe through ``qthermo.cli.run_experiment`` and
writes its outputs into a scratch directory under ``perfbench/out``; the
timed region is the run_experiment calls, serialization included.  After
each pass the data tables are checked (check.py).  The last stdout line is
one JSON object for run.py.

Untraced, every warm pass is paired: each recipe also runs through
``qthermo_frozen`` -- a byte-identical copy of the package as it was when
the benchmark was defined -- right before or after it, alternating from
pass to pass.  Both copies then see the same host speed, so the ratio of
their times holds still where the seconds do not (run.py says how much).

With ``--trace 1`` warm passes alternate between traced (tracer.py
installed) and untraced ones, and the per-layer numbers are the mean over
the traced passes.

``--write-reference`` runs one pass at the default seed and stores its
data tables as the committed references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import check
import workloads
from tracer import BYTES_IN, Tracer
from workloads import DEFAULT_SEED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"
MODULES = ("spectral", "clm", "gaussian", "chain", "mapping", "heatcap", "fits", "cli")


def run_pass(cli, recipes, outdir: Path, after_recipe=None) -> tuple[float, dict]:
    summaries = {}
    start = time.perf_counter()
    for name, raw in recipes:
        summaries[name] = cli.run_experiment(
            dict(raw), out=str(outdir / f"{name}.csv"), slow_ok=True
        )
        if after_recipe is not None:
            after_recipe(name)
    return time.perf_counter() - start, summaries


def run_paired_pass(cli, frozen_cli, recipes, outdir: Path, frozen_dir: Path, frozen_first: bool):
    """A pass whose every recipe is also run by the frozen copy right before
    or after it; returns (pass seconds, frozen copy's seconds, summaries)."""
    seconds = {cli: 0.0, frozen_cli: 0.0}
    summaries = {}
    for name, raw in recipes:
        for impl in (frozen_cli, cli) if frozen_first else (cli, frozen_cli):
            where = outdir if impl is cli else frozen_dir
            start = time.perf_counter()
            summary = impl.run_experiment(dict(raw), out=str(where / f"{name}.csv"), slow_ok=True)
            seconds[impl] += time.perf_counter() - start
            if impl is cli:
                summaries[name] = summary
    return seconds[cli], seconds[frozen_cli], summaries


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir())


class Runner:
    """Runs and checks passes of one workload; counts attempts and failures."""

    def __init__(self, qt, cli, workload: str, seed: int, recipes, outdir: Path):
        self.qt, self.cli = qt, cli
        self.workload, self.recipes, self.outdir = workload, recipes, outdir
        self.default_seed = seed == DEFAULT_SEED
        self.reference = None
        if self.default_seed:
            try:
                self.reference = {
                    name: check.read_table(REFERENCE_DIR / f"{name}.csv") for name, _ in recipes
                }
            except FileNotFoundError:
                pass
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ref_diff: dict[str, float] = {}
        # run_experiment's own wall_time_s per recipe, every completed pass
        self.recipe_s: dict[str, list[float]] = {name: [] for name, _ in recipes}

    def attempt(self, after_recipe=None, run=None) -> float | None:
        """One checked pass; its time, or None if it raised.

        run, if given, runs the pass instead of run_pass and returns
        (seconds, summaries).
        """
        self.attempted += 1
        label = f"pass {self.attempted}"
        try:
            if run is None:
                elapsed, summaries = run_pass(self.cli, self.recipes, self.outdir, after_recipe)
            else:
                elapsed, summaries = run()
        except Exception as exc:  # a pass that raises is counted, not fatal
            self._fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        for name, summary in summaries.items():
            self.recipe_s[name].append(summary["wall_time_s"])
        tables = {name: check.read_table(self.outdir / f"{name}.csv") for name, _ in self.recipes}
        problems = []
        if self.attempted == 1 or self.reference is None:
            problems += check.oracles(self.qt, self.workload, dict(self.recipes), summaries, tables)
        if self.reference is None:
            if self.default_seed:
                problems.append(f"no reference tables in {REFERENCE_DIR}")
            else:
                # off the default seed the first completed pass is the reference
                self.reference = tables
        for name, table in tables.items():
            if self.reference is None:
                break
            diff = check.max_rel_diff(table, self.reference[name])
            self.ref_diff[name] = max(self.ref_diff.get(name, 0.0), diff)
            if diff > check.RTOL:
                problems.append(f"{name} deviates {diff:.3e} from its reference")
        if problems:
            self._fail(f"{label}: " + "; ".join(problems))
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def untraced(runner: Runner, frozen_cli, frozen_dir: Path, seconds: float) -> dict:
    """A cold pass, then paired warm passes while the next should end within
    the budget; which copy runs first alternates from pass to pass."""
    cold = runner.attempt()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the frozen copy runs
    warm: list[float] = []
    frozen: list[float] = []
    start = time.perf_counter()
    while True:
        pending: list[float] = []

        def paired():
            own, other, summaries = run_paired_pass(
                runner.cli, frozen_cli, runner.recipes, runner.outdir, frozen_dir, len(warm) % 2 == 1
            )
            pending.append(other)
            return own, summaries

        t = runner.attempt(run=paired)
        if t is not None:
            warm.append(t)
            frozen.append(pending[0])
        expected = statistics.median(a + b for a, b in zip(warm, frozen)) if warm else 2.0 * (cold or 0.0)
        if time.perf_counter() - start + expected > seconds:
            break
    return {"cold_s": cold, "pass_s": warm, "frozen_pass_s": frozen, "peak_rss_mb": rss_kb / 1024.0}


def traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternate traced and untraced warm passes; per-layer means over traced ones."""
    from scipy.integrate import IntegrationWarning

    runner.attempt()
    tracer = Tracer()
    passes: list[dict] = []
    untraced_s: list[float] = []
    recipe_calls: dict[str, dict[str, int]] = {}
    start = time.perf_counter()
    while True:
        tracer.reset()
        seen: dict[str, int] = {}

        def snapshot(name: str) -> None:
            now = tracer.calls()
            recipe_calls[name] = {k: v - seen.get(k, 0) for k, v in now.items() if v > seen.get(k, 0)}
            seen.update(now)

        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t = runner.attempt(after_recipe=snapshot)
        finally:
            tracer.uninstall()
        u = runner.attempt()
        if t is None or u is None:
            break
        untraced_s.append(u)
        passes.append(
            {
                "pass_s": t,
                "stats": {k: (s.calls, s.self_s, s.bytes_in) for k, s in tracer.stats.items()},
                "unattributed_s": t - tracer.traced_s,
                "warnings": sum(issubclass(w.category, IntegrationWarning) for w in caught),
                "output_bytes": output_bytes(runner.outdir),
                "spans": len(tracer.cols["id"]) + tracer.dropped,
                "spans_dropped": tracer.dropped,
            }
        )
        pair = statistics.median(p["pass_s"] for p in passes) + statistics.median(untraced_s)
        if time.perf_counter() - start + pair > seconds:
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    if not passes:
        return {"layers": {}}
    rows = {
        name: check.read_table(runner.outdir / f"{name}.csv")[1].shape[0]
        for name, _ in runner.recipes
    }
    return {
        "layers": layer_metrics(passes, untraced_s, recipe_calls, rows, runner.ref_diff),
        "recipe_calls": recipe_calls,
        "rows": rows,
        "traced_passes": len(passes),
        "counts_repeat": all(
            {k: v[0] for k, v in p["stats"].items()} == {k: v[0] for k, v in passes[0]["stats"].items()}
            for p in passes
        ),
        "traced_pass_s": [p["pass_s"] for p in passes],
        "untraced_pass_s": untraced_s,
    }


def layer_metrics(passes, untraced_s, recipe_calls, rows, ref_diff) -> dict[str, list]:
    """Per-layer metrics as name -> [value, unit]; counts from the first
    traced pass, times and sizes the mean over the traced passes.

    The module self times plus trace.unattributed_s add up to trace.pass_s.
    """
    n = len(passes)

    def mean(key: str) -> float:
        return sum(p[key] for p in passes) / n

    layers: dict[str, list] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, (calls, _, bytes_in) in passes[0]["stats"].items():
        self_s = sum(p["stats"][name][1] for p in passes) / n
        used_rows = sum(rows[r] for r, c in recipe_calls.items() if c.get(name))
        layers[f"{name}.calls"] = [calls, "count"]
        layers[f"{name}.calls_per_row"] = [calls / used_rows if used_rows else 0.0, "calls/row"]
        layers[f"{name}.self_s"] = [self_s, "s"]
        if name in BYTES_IN:
            layers[f"{name}.bytes_in"] = [bytes_in, "bytes"]
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + self_s
    for module, self_s in module_self.items():
        layers[f"{module}.self_s"] = [self_s, "s"]
    layers.update(
        {
            "cli.output_bytes": [mean("output_bytes"), "bytes"],
            "scipy.integration_warnings": [mean("warnings"), "count"],
            "ref_max_rel_diff": [max(ref_diff.values(), default=0.0), "ratio"],
            "trace.pass_s": [mean("pass_s"), "s"],
            "trace.overhead_ratio": [mean("pass_s") / statistics.mean(untraced_s), "ratio"],
            "trace.unattributed_s": [mean("unattributed_s"), "s"],
            "trace.spans": [mean("spans"), "count"],
            "trace.spans_dropped": [mean("spans_dropped"), "count"],
        }
    )
    return layers


def provenance(qt) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qthermo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_config = " ".join(blas.get("openblas configuration", "").split())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qthermo": qt.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas_config})",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import qthermo
    from qthermo import cli

    if not Path(qthermo.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qthermo imported from {qthermo.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    recipes = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    outdir = OUT_DIR / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(qthermo, cli, args.workload, args.seed, recipes, outdir)
        if args.write_reference:
            if args.seed != DEFAULT_SEED:
                print("references are written at the default seed only", file=sys.stderr)
                return 2
            run_pass(cli, recipes, outdir)
            REFERENCE_DIR.mkdir(exist_ok=True)
            for name, _ in recipes:
                shutil.copyfile(outdir / f"{name}.csv", REFERENCE_DIR / f"{name}.csv")
            return 0
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            result = traced(runner, args.seconds, spans)
        else:
            from qthermo_frozen import cli as frozen_cli

            frozen_dir = outdir / "frozen"
            frozen_dir.mkdir()
            result = untraced(runner, frozen_cli, frozen_dir, args.seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        ref_max_rel_diff=runner.ref_diff,
        recipe_s=runner.recipe_s,
        provenance=provenance(qthermo),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
