"""qthermo benchmark: figure recipes end to end, and a traced per-module breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads and metrics are declared in BENCHMARK.json; workloads.py says
which recipes each workload runs.  The loop is closed with one caller in
one process: a fresh interpreter (worker.py) imports qthermo, parses the
workload's configs, runs a cold pass and then warm passes for S seconds,
each pass checked against reference outputs (check.py).

Set-up is measured SETUP_PROBES + 1 times per untraced run: each probe is
a fresh interpreter that stops after parsing the configs, and the worker's
own set-up is the last sample; setup_s is their median.  BLAS runs pinned
to BLAS_THREADS threads in every child, so dense linear algebra uses the
same resources in every run.

The gated pass metric is pass_rel.p50: the median over warm passes of the
pass time over the time the frozen copy of the package (qthermo_frozen,
the code as it was when the benchmark was defined) took for the same
recipes, run recipe by recipe right beside it.  On the 2-vCPU virtual
machine this was written on, plain Python runs at one of two speeds about
1.5x apart, switching within seconds, in proportions that drift from run
to run: over 10 runs of probe_ohmic the mean, the median and the cold
pass in seconds spread by 15-32% (interquartile range over median), the
paired ratio by under 10%.  The seconds -- cold pass, mean, median, tail
-- are printed with their sample counts but not gated.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of the traced passes (tracer.py).  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the lines above it are a
readable report, and the full report (provenance, every sample, failure
messages, per-recipe call counts) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 4
BLAS_THREADS = 1
DEADLINE_S = 170.0


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported and labelled as such.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], f"max of {n} (fewer than 11 samples)"
    k = n - 11
    return s[k], f"p{100.0 * k / (n - 1):.0f} of {n}"


class Child:
    """A worker process whose first stdout line marks the end of set-up."""

    def __init__(self, cmd: list[str], env: dict[str, str], deadline: float):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self.proc.kill)
        self.timer.start()

    def finish(self) -> tuple[float | None, list[str]]:
        """(set-up seconds or None, remaining stdout lines); reaps the child."""
        try:
            first = self.proc.stdout.readline()
            setup = time.perf_counter() - self.start if first.strip() == "ready" else None
            rest = self.proc.stdout.read().splitlines()
            self.proc.wait()
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            return None, rest
        return setup, rest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/qthermo/__init__.py", "configs", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a qthermo checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared_names = {m["name"] for m in declared}

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    setup: list[float] = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        t, _ = Child(cmd + ["--setup-only"], env, deadline).finish()
        if t is None:
            print("perfbench: set-up probe failed", file=sys.stderr)
            return 3
        setup.append(t)
    t, lines = Child(cmd, env, deadline).finish()
    if t is None or not lines:
        print("perfbench: worker failed", file=sys.stderr)
        return 3
    setup.append(t)
    result = json.loads(lines[-1])
    attempted, failed, failures = result["attempted"], result["failed"], result["failures"]

    # name -> (value, unit, samples, note)
    metrics: dict[str, tuple[float, str, int, str]] = {}
    if args.trace:
        for name, (value, unit) in result["layers"].items():
            metrics[name] = (value, unit, result["traced_passes"], "per traced pass")
        if "mapping.eigh.bytes_in" in metrics:
            value, unit, n, _ = metrics["mapping.eigh.bytes_in"]
            metrics["mapping.eigh.bytes_in"] = (value, unit, n, "computed as 8 n^2 per call")
    else:
        warm = result["pass_s"]
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup), "median over fresh interpreters")
        if result["cold_s"] is not None:
            metrics["cold_s"] = (result["cold_s"], "s", 1, "first pass of the worker")
        if warm:
            ratios = [a / b for a, b in zip(warm, result["frozen_pass_s"])]
            value, label = tail(warm)
            metrics["pass_rel.p50"] = (statistics.median(ratios), "ratio", len(ratios), "median of pass / frozen pass")
            metrics["pass_rel.mean"] = (statistics.mean(ratios), "ratio", len(ratios), "mean of pass / frozen pass")
            metrics["pass_s.mean"] = (statistics.mean(warm), "s", len(warm), "mean of warm passes")
            metrics["pass_s.p50"] = (statistics.median(warm), "s", len(warm), "median of warm passes")
            metrics["pass_s.tail"] = (value, "s", len(warm), label)
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1, "ru_maxrss after the cold pass")
        metrics["failed_ratio"] = (failed / attempted, "ratio", attempted, "failed / attempted passes")

    absent = [n for n in declared_names if n not in metrics or not math.isfinite(metrics[n][0])]
    wrong_unit = [m["name"] for m in declared if m["name"] in metrics and metrics[m["name"]][1] != m["unit"]]
    problems = failures + [f"metric not measured: {n}" for n in absent]
    problems += [f"unit differs from BENCHMARK.json: {n}" for n in wrong_unit]

    prov = result["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"  qthermo {prov['qthermo']} commit={prov['git_commit']} src={prov['source_sha256'][:12]} "
        f"python {prov['python']} numpy {prov['numpy']} scipy {prov['scipy']}"
    )
    print(f"  {prov['blas']}; nproc={prov['nproc']} blas_threads={prov['blas_threads']}")
    shown = [m["name"] for m in declared]
    if not args.trace:
        shown += [n for n in metrics if n not in declared_names]
    for name in shown:
        if name in metrics:
            value, unit, n, note = metrics[name]
            print(f"  {name:42s} {value:>14.6g} {unit:9s} n={n:<4d} {note}")
    if args.trace and "trace.pass_s" in metrics:
        layer_sum = sum(v[0] for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
        print(
            f"  module self times {layer_sum:.6g} s + unattributed {metrics['trace.unattributed_s'][0]:.6g} s"
            f" = traced pass {metrics['trace.pass_s'][0]:.6g} s"
        )
    for name, diff in sorted(result["ref_max_rel_diff"].items()):
        print(f"  ref_max_rel_diff[{name}] = {diff:.3e}")
    for message in problems:
        print(f"  FAIL {message}")

    OUT_DIR.mkdir(exist_ok=True)
    report = dict(result, setup_s=setup, problems=problems)
    report["metrics"] = {k: list(v) for k, v in metrics.items()}
    path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    final = {
        m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
        for m in declared
        if m["name"] not in absent
    }
    print(
        json.dumps(
            {
                "correct": failed == 0 and not absent and not wrong_unit,
                "attempted": attempted,
                "failed": failed,
                "metrics": final,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
