"""Self-test of the benchmark itself; about a minute.

    python3 perfbench/selftest.py

Checks that
1. run.py prints every metric BENCHMARK.json declares, with its unit, in
   both the untraced and the traced run, and the raw end-to-end figures
   with their sample counts;
2. a corrupted reference table makes a pass fail (failed_ratio > 0);
3. traced and untraced passes write identical outputs, and the tracer
   restores every binding it replaced.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as run.py pins it

import qthermo  # noqa: E402
import workloads  # noqa: E402
from qthermo import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import OUT_DIR, Runner, run_pass  # noqa: E402

QUICK = "chain_local"
# End-to-end figures printed above the result line besides the gated ones.
REPORTED = ("setup_s", "cold_s", "pass_s.p50", "pass_s.tail", "peak_rss_mb", "failed_ratio")


def printed_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", QUICK, "--seconds", "1"]
        proc = subprocess.run(cmd + ["--trace", str(trace)], capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"trace={trace}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        final = json.loads(lines[-1])
        if not final["correct"] or final["failed"]:
            problems.append(f"trace={trace}: run not correct: {final}")
        for m in declared:
            got = final["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"trace={trace}: {m['name']} [{m['unit']}] missing or wrong unit: {got}")
            elif not any(line.split()[:1] == [m["name"]] and m["unit"] in line for line in lines[:-1]):
                problems.append(f"trace={trace}: {m['name']} not in the readable report")
        for name in REPORTED if trace == 0 else ():
            if not any(line.split()[:1] == [name] and " n=" in line for line in lines[:-1]):
                problems.append(f"{name} not in the readable report with its sample count")
    return problems


def corrupted_reference(outdir: Path) -> list[str]:
    recipes = workloads.build(QUICK, workloads.DEFAULT_SEED)
    runner = Runner(qthermo, cli, QUICK, workloads.DEFAULT_SEED, recipes, outdir)
    header, data = runner.reference["fig3b"]
    data = data.copy()
    data[0, header.index("qfi")] *= 1.0 + 1e-6
    runner.reference["fig3b"] = (header, data)
    runner.attempt()
    if runner.failed / runner.attempted > 0.0:
        return []
    return ["a reference corrupted by 1e-6 did not fail the pass"]


def bindings() -> dict[tuple[int, str], object]:
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "qthermo" or name.startswith("qthermo."):
            for attr, obj in vars(module).items():
                found[(id(module), attr)] = obj
                if isinstance(obj, type):
                    for key, value in vars(obj).items():
                        if isinstance(value, types.FunctionType):
                            found[(id(obj), key)] = value
    return found


def traced_identical(outdir: Path) -> list[str]:
    problems = []
    for workload in ("probe_ohmic", QUICK):
        recipes = workloads.build(workload, 1)
        plain, traced = outdir / "plain", outdir / "traced"
        plain.mkdir(parents=True)
        traced.mkdir()
        _, want = run_pass(cli, recipes, plain)
        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            _, got = run_pass(cli, recipes, traced)
        finally:
            tracer.uninstall()
        if bindings() != before:
            problems.append(f"{workload}: tracer left bindings changed")
        if not tracer.stats["cli.run_experiment"].calls:
            problems.append(f"{workload}: tracer recorded nothing")
        for name, _ in recipes:
            if (plain / f"{name}.csv").read_bytes() != (traced / f"{name}.csv").read_bytes():
                problems.append(f"{workload}/{name}: traced output differs")
            for summary in (want[name], got[name]):
                summary.pop("wall_time_s")
            if want[name] != got[name]:
                problems.append(f"{workload}/{name}: traced summary differs")
        shutil.rmtree(plain)
        shutil.rmtree(traced)
    return problems


def main() -> int:
    outdir = OUT_DIR / "selftest"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    failed = False
    try:
        for label, test in (
            ("every declared metric printed with its unit", printed_metrics),
            ("corrupted reference fails the pass", lambda: corrupted_reference(outdir)),
            ("traced and untraced outputs identical", lambda: traced_identical(outdir)),
        ):
            problems = test()
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {label}")
            for problem in problems:
                print(f"  {problem}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
