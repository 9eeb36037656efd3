"""Smoke test of the benchmark at minimal run length.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second, untraced and traced,
and checks that each run is correct and prints every metric by name with
its unit: the JSON metrics of BENCHMARK.json and the per-workload report
metrics listed below.  It also checks that the benchmark fails cleanly in
a directory that holds only BENCHMARK.json and perfbench/.  Exits 1 on the
first problem it finds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

COMMON = {"setup_s": "s", "setup_raw_s": "s", "setup_reference_s": "s",
          "failed_share": "ratio", "peak_rss_mb": "MB", "ms_per_unit": "ms",
          "cpu_ms_per_unit": "ms", "reference_ms": "ms", "unit_cost_rel": "ratio",
          "op_cost_rel": "ratio"}
TRIALS = {"trials_per_s": "1/s", "cpu_ms_per_trial": "ms", "mean_evm_m": "m"}
REPORTED = {
    "ref6": {**COMMON, **TRIALS},
    "large": {**COMMON, **TRIALS},
    "signal8": {**COMMON, **TRIALS, "trial_p50_ms": "ms", "trial_tail_ms": "ms"},
    "completable": {**COMMON, "checks_per_s": "1/s", "cpu_ms_per_check": "ms",
                    "check_p50_ms": "ms", "check_tail_ms": "ms"},
}
METRIC_LINE = re.compile(r"^metric (\S+) ([\w.]+)=(\S+) (\S+)")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    expected = spec["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        problems.append(f"{where}: JSON metrics {got} differ from BENCHMARK.json {want}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
        elif trace == 0 and not metric["value"] > 0:
            problems.append(f"{where}: end-to-end {name} is {metric['value']}")
    printed = {m.group(2): m.group(4) for m in map(METRIC_LINE.match, proc.stdout.splitlines()) if m}
    names = REPORTED[workload] if trace == 0 else want
    for name, unit in names.items():
        if printed.get(name) != unit:
            problems.append(f"{where}: report line for {name} [{unit}] missing or wrong: "
                            f"{printed.get(name)}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench-out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "ref6", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        return ["bare directory: benchmark did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
