"""arrayloc benchmark: one closed-loop, single-process run of one workload.

    python3 perfbench/run.py --workload ref6 --seed 1 --seconds 16 --trace 0

Run from a checkout of the repository; arrayloc is imported from ``src/``.
The report lines name every metric with its unit; the last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see perfbench/README.md).
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

# Pinned before NumPy is first imported (in main), here and in the set-up
# probes, which inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"

# Fresh processes timed for setup_s, each right after a fresh process that
# only runs REFERENCE_IMPORT; the first DET_PROBES probes also run the
# determinism sweep, whose digests must agree.  A process still running
# after PROBE_TIMEOUT_S is killed and the run fails.
PROBES = 3
DET_PROBES = 2
PROBE_TIMEOUT_S = 60
REFERENCE_IMPORT = "import numpy, scipy.signal; print('ready', flush=True)"
# setup_s is the median probe / reference-import ratio times this: about
# what the reference import took on the machine the benchmark was built on
# (2-core Xeon VM, Python 3.11, SciPy 1.17).
SETUP_REFERENCE_S = 1.5

# While a round runs, the reference kernel is timed every SAMPLE_PERIOD_S.
SAMPLE_PERIOD_S = 0.1


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it.

    Never below the median: with fewer than 20 samples this is p50.
    """
    return max(50, math.floor(100 * (1 - 10 / n)))


def percentile_ms(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo, hi = math.floor(pos), math.ceil(pos)
    return 1e3 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def environment(np, scipy) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = ",".join(f"{v}={os.environ[v]}" for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    return (
        f"env nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} blas={blas} {threads}"
    )


def time_to_ready(cmd: list[str]) -> tuple[float, str]:
    """Seconds from starting cmd to its 'ready' line, and what it printed after."""
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{' '.join(cmd[1:])[:100]} failed with exit code {code}")
    return elapsed, rest


def run_probes(workload: str, seed: int, run_dir: Path) -> tuple[list[float], list[float],
                                                                  list[str]]:
    """Time PROBES reference/probe pairs of fresh processes; collect digests."""
    reference_s, setup_s, digests = [], [], []
    for i in range(PROBES):
        reference_s.append(time_to_ready([sys.executable, "-c", REFERENCE_IMPORT])[0])
        cmd = [sys.executable, str(BENCH / "probe.py"), "--workload", workload,
               "--seed", str(seed)]
        if i < DET_PROBES:
            cmd += ["--det-out", str(run_dir / f"probe{i}")]
        elapsed, rest = time_to_ready(cmd)
        setup_s.append(elapsed)
        digests += [line.split()[1] for line in rest.splitlines() if line.startswith("digest ")]
    return reference_s, setup_s, digests


class Round(NamedTuple):
    res: object  # workloads.RoundResult
    wall_s: float
    cpu_s: float
    ref_s: float = 0.0  # median reference-kernel time sampled during the round


class ReferenceKernel:
    """Fixed work owned by the benchmark, timed to gauge the machine's speed.

    On a shared machine identical work takes 25% longer or shorter from one
    second to the next.  The kernel mixes what arrayloc spends its time on
    (batched small ``eigh``, a stable ``argsort``, interpreted loops) and
    never calls arrayloc, so a change to arrayloc cannot move it.  While a
    round runs, a SIGALRM timer interrupts it every SAMPLE_PERIOD_S to time
    the kernel once (well under 1 ms on a 2-core Xeon VM, about 1% of the
    round), so the samples see the machine's speed during the round.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        stack = rng.random((40, 6, 6))
        self.np = np
        self.gram = stack + stack.transpose(0, 2, 1)
        self.keys = rng.random((60, 100))
        self.samples: list[float] = []

    def once(self) -> float:
        started = time.perf_counter()
        self.np.linalg.eigh(self.gram)
        self.np.argsort(self.keys, axis=1, kind="stable")
        total = 0
        for i in range(600):
            total += i * i % 7
        return time.perf_counter() - started

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.once())

    @contextmanager
    def sampling(self):
        """Sample the kernel while the block runs; yields the sample list."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S / 2, SAMPLE_PERIOD_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_round(workloads, workload: str, seed: int, index: int, run_dir: Path,
              tracer=None) -> Round:
    started, cpu_started = time.perf_counter(), time.process_time()
    if workload == "completable":
        res = workloads.run_check_round(seed, index, tracer)
    else:
        res = workloads.run_trial_round(workload, seed, index, run_dir / "round")
    return Round(res, time.perf_counter() - started, time.process_time() - cpu_started)


def per_unit(rounds: list[Round]) -> dict[str, float]:
    """Wall ms, CPU ms and reference-relative cost per unit and per operation.

    A unit is one DE generation on the trial workloads, whose trial time
    grows with a generation count that differs from seed to seed, and one
    full seed enumeration (a non-completable mask) on ``completable``.  An
    operation is one trial, or one ``is_completable`` call on
    ``completable``; its cost also moves with the work done per operation,
    such as the generations a trial takes.  Each array size gives total
    time over total units (operations), and the sizes are combined by
    geometric mean, so each weighs the same in relative terms and the
    seed's mix of sizes does not move the figure.  The ``*_rel`` figures
    divide each round's time by the median time of the reference kernel
    sampled during that round.
    """
    units: dict = {}
    ops: dict = {}
    for r in rounds:
        scale = 1 / r.ref_s if r.ref_s else math.nan
        for key, (wall, cpu, n) in r.res.strata.items():
            acc = units.setdefault(key, [0.0, 0.0, 0.0, 0])
            acc[0] += wall
            acc[1] += cpu
            acc[2] += wall * scale
            acc[3] += n
        for key, (wall, n) in r.res.op_strata.items():
            acc = ops.setdefault(key, [0.0, 0])
            acc[0] += wall * scale
            acc[1] += n

    def gmean(values) -> float:
        values = list(values)
        return statistics.geometric_mean(values) if values else math.nan

    per = [(w / n, c / n, rel / n) for w, c, rel, n in units.values() if n]
    return {
        "ms_per_unit": 1e3 * gmean(w for w, _, _ in per),
        "cpu_ms_per_unit": 1e3 * gmean(c for _, c, _ in per),
        "unit_cost_rel": gmean(rel for _, _, rel in per),
        "op_cost_rel": gmean(rel / n for rel, n in ops.values() if n),
    }


def end_to_end(workload, rounds: list[Round], reference_s, setup_s, report) -> dict[str, float]:
    attempted = sum(r.res.attempted for r in rounds)
    failed = sum(r.res.failed for r in rounds)
    metrics = {
        "setup_s": SETUP_REFERENCE_S * statistics.median(
            s / r for s, r in zip(setup_s, reference_s)),
        **per_unit(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report("setup_s", metrics["setup_s"], "s", len(setup_s),
           f"median probe / reference-import ratio x {SETUP_REFERENCE_S} s")
    report("setup_raw_s", statistics.median(setup_s), "s", len(setup_s),
           "median of fresh processes")
    report("setup_reference_s", statistics.median(reference_s), "s", len(reference_s),
           "median of reference-import processes")
    if workload == "completable":
        checks = [t for r in rounds for ts in r.res.check_s.values() for t in ts]
        report("checks_per_s", len(checks) / sum(checks), "1/s", len(checks))
        report("cpu_ms_per_check", 1e3 * sum(r.res.check_cpu_s for r in rounds) / len(checks),
               "ms", len(checks))
        report("check_p50_ms", percentile_ms(checks, 50), "ms", len(checks))
        p = tail_percentile(len(checks))
        report("check_tail_ms", percentile_ms(checks, p), "ms", len(checks), f"p{p}")
        for n, completable in sorted({key for r in rounds for key in r.res.check_s}):
            times = [t for r in rounds for t in r.res.check_s.get((n, completable), [])]
            kind = "completable" if completable else "noncompletable"
            report(f"check_p50_ms_n{n}_{kind}", percentile_ms(times, 50), "ms", len(times))
    else:
        trials = sum(len(r.res.generations) for r in rounds)
        report("trials_per_s", trials / sum(r.wall_s for r in rounds), "1/s", trials)
        report("cpu_ms_per_trial", 1e3 * sum(r.cpu_s for r in rounds) / max(trials, 1),
               "ms", trials)
        if workload == "signal8":
            times = [t for r in rounds for t in r.res.trial_s]
            report("trial_p50_ms", percentile_ms(times, 50), "ms", len(times))
            p = tail_percentile(len(times))
            report("trial_tail_ms", percentile_ms(times, p), "ms", len(times), f"p{p}")
    report("failed_share", failed / max(attempted, 1), "ratio", attempted)
    units = sum(u for r in rounds for _, _, u in r.res.strata.values())
    report("ms_per_unit", metrics["ms_per_unit"], "ms", units)
    report("cpu_ms_per_unit", metrics["cpu_ms_per_unit"], "ms", units)
    report("reference_ms", 1e3 * statistics.median(r.ref_s for r in rounds), "ms",
           len(rounds), "median over rounds")
    report("unit_cost_rel", metrics["unit_cost_rel"], "ratio", units)
    ops = sum(n for r in rounds for _, n in r.res.op_strata.values())
    report("op_cost_rel", metrics["op_cost_rel"], "ratio", ops)
    report("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "arrayloc" / "__init__.py").is_file():
        print(f"perfbench: no arrayloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np
    import scipy

    import tracing
    import workloads

    names = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    problems: list[str] = []

    def report(name, value, unit, n=None, note=""):
        samples = f" n={n}" if n is not None else ""
        print(f"metric {args.workload} {name}={value!r} {unit}{samples} {note}".rstrip())

    print(environment(np, scipy))
    try:
        if args.trace == 0:
            reference_s, setup_s, digests = run_probes(args.workload, args.seed, run_dir)
            if len(digests) != DET_PROBES or len(set(digests)) != 1:
                problems.append(f"determinism: probe digests differ: {digests}")
            print(f"determinism {args.workload} digest={digests[0] if digests else ''} "
                  f"runs={len(digests)} identical={len(set(digests)) == 1}")
        prepared = workloads.prepare(args.workload, args.seed)
        min_rounds = workloads.ACCURACY_ROUNDS[args.workload]
        rounds, traced_rounds = [], []
        tracer = tracing.Tracer()
        reference = ReferenceKernel(np)
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k < min_rounds or time.perf_counter() < deadline:
            if not args.trace:
                with reference.sampling() as samples:
                    r = run_round(workloads, args.workload, args.seed, k, run_dir)
                if not samples:  # a round shorter than half a sampling period
                    samples.append(reference.once())
                rounds.append(r._replace(ref_s=statistics.median(samples)))
            else:
                # The same inputs untraced and traced, in alternating order;
                # tracing must not change the outputs.
                for traced in (k % 2 == 1, k % 2 == 0):
                    if traced:
                        with tracer.installed():
                            traced_rounds.append(
                                run_round(workloads, args.workload, args.seed, k, run_dir, tracer))
                    else:
                        rounds.append(run_round(workloads, args.workload, args.seed, k, run_dir))
                if traced_rounds[-1].res.digest != rounds[-1].res.digest:
                    problems.append(f"round {k}: traced outputs differ from untraced")
            k += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    every = rounds + traced_rounds
    attempted = sum(r.res.attempted for r in every)
    failed = sum(r.res.failed for r in every)
    problems += [p for r in every for p in r.res.problems]
    if args.workload != "completable":
        evms = [e for r in rounds[:min_rounds] for e in r.res.evms_m]
        mean_evm = sum(evms) / len(evms) if evms else float("nan")
        report("mean_evm_m", mean_evm, "m", len(evms), f"first {min_rounds} rounds")
        if args.workload == "ref6" and not mean_evm <= workloads.REF6_EVM_LIMIT_M:
            problems.append(f"ref6 mean EVM {mean_evm} m above {workloads.REF6_EVM_LIMIT_M} m")

    if args.trace == 0:
        metrics = end_to_end(args.workload, rounds, reference_s, setup_s, report)
    else:
        cfg = prepared.first_inputs if args.workload != "completable" else None
        extra = {
            "lut_build_s": prepared.lut_build_s,
            "write_s": sum(r.res.write_s for r in traced_rounds),
            "bytes_written": sum(r.res.bytes_written for r in traced_rounds),
            "untraced_s": sum(r.wall_s for r in rounds),
            "traced_s": sum(r.wall_s for r in traced_rounds),
        }
        metrics = tracing.layer_metrics(tracer.spans, cfg, extra)
        for name, unit in names:
            report(name, metrics[name], unit)
        if cfg is not None:
            for n, us in tracing.us_per_eval_by_size(tracer.spans, cfg).items():
                report(f"solver.us_per_eval_n{n}", us, "us")
        split = tracing.layer_self_split(tracer.spans)
        wall = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "trial")
        if wall:
            shares = " ".join(f"{m}={t / wall:.4f}" for m, t in sorted(split.items()))
            print(f"self-time {args.workload} traced_round_s={extra['traced_s']!r} "
                  f"trial_wall_s={wall!r} self_sum_s={sum(split.values())!r} "
                  f"shares: {shares}")
        tracer.write(OUT / "spans" / f"{run_dir.name}.jsonl")

    for p in problems:
        print(f"problem {p}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
