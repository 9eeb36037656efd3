"""Workload definitions for the arrayloc benchmark.

Every input is generated here from the benchmark seed; arrayloc only ever
receives the resulting configs and masks through its public API.  A run is
a closed loop of rounds, each round depending only on (seed, round index):

* ``ref6``: one ``run_experiment`` + ``write_outputs`` sweep point at the
  paper's reference setting (the ``arrayloc sweep`` path).
* ``large``: the same path at connectivity 0.9, one sweep point of
  LARGE_TRIALS_PER_POINT trials, at 10 nodes in even rounds and at 15
  nodes in odd ones.
* ``signal8``: one single-trial ``run_experiment`` call in signal-level
  mode with 8 nodes (the ``arrayloc simulate --mode signal_level`` path).
* ``completable``: ``is_completable`` on four masks, a completable and a
  non-completable one at 25 and at 40 nodes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from arrayloc import (
    AdjacencyMask,
    ExperimentConfig,
    LayoutSpec,
    build_qls_lut,
    is_completable,
    random_completable_mask,
    run_experiment,
    synth_two_tone,
    write_outputs,
)

# Trials per ref6 sweep point: about two seconds of work, enough for the
# sweep path's per-point costs to show and short enough that a run ends
# close to --seconds.
REF6_TRIALS_PER_ROUND = 10

# Trials per large sweep point, so that work batched across the trials of
# a point has more than one trial to batch.
LARGE_TRIALS_PER_POINT = 4
LARGE_SIZES = (10, 15)

# Rounds that always run, however short --seconds is.  mean_evm_m is taken
# over these rounds only, so it is deterministic for a seed.
ACCURACY_ROUNDS = {"ref6": 4, "large": 4, "signal8": 8, "completable": 1}

# Criterion 02's limit on the mean EVM at the reference point, applied to
# the 40 trials of ref6's accuracy rounds (see perfbench/README.md).
REF6_EVM_LIMIT_M = 1.5e-3

# Completable masks at both sizes; non-completable ones are two completable
# halves, each at this connectivity, joined by two links.
COMPLETABLE_CONNECTIVITY = 0.3
CHECK_SIZES = (25, 40)
HALF_CONNECTIVITY = {25: 0.5, 40: 0.3}
JOIN_LINKS = 2


def derived_seed(seed: int, workload: str, index: int) -> int:
    """32-bit seed for one round, independent across workloads and rounds."""
    tag = zlib.crc32(workload.encode())
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def sweep_config(workload: str, seed: int, index: int) -> ExperimentConfig:
    """The config of one round of a trial workload.

    ``large`` alternates its two sizes between rounds, so each size is
    timed on its own (their time per generation differs twofold) and a
    round stays short enough for the reference kernel that follows it to
    track the machine's speed.
    """
    common = dict(bandwidths_hz=[40e6], seed=derived_seed(seed, workload, index), workers=1)
    if workload == "ref6":
        return ExperimentConfig(array_sizes=[6], connectivities=[0.8],
                                trials=REF6_TRIALS_PER_ROUND,
                                layout=LayoutSpec(kind="circle"), **common)
    if workload == "large":
        return ExperimentConfig(array_sizes=[LARGE_SIZES[index % 2]], connectivities=[0.9],
                                trials=LARGE_TRIALS_PER_POINT,
                                layout=LayoutSpec(kind="random_box"), **common)
    if workload == "signal8":
        # What `arrayloc simulate --mode signal_level --nodes 8` runs.
        return ExperimentConfig(array_sizes=[8], connectivities=[0.8], trials=1,
                                ranging_mode="signal_level", **common)
    raise ValueError(f"{workload} is not a trial workload")


def _joined_halves(n: int, rng: np.random.Generator) -> AdjacencyMask:
    """Two completable halves joined by two links; every degree is >= 3.

    Any node of one half has at most two neighbours in the other, so no
    seed quadrilateral can resolve the far half: the mask is not completable.
    """
    h = n // 2
    c = HALF_CONNECTIVITY[n]
    adj = np.zeros((n, n), dtype=bool)
    adj[:h, :h] = random_completable_mask(h, c, rng).mask
    adj[h:, h:] = random_completable_mask(n - h, c, rng).mask
    ends_a = rng.choice(h, size=JOIN_LINKS, replace=False)
    ends_b = h + rng.choice(n - h, size=JOIN_LINKS, replace=False)
    adj[ends_a, ends_b] = adj[ends_b, ends_a] = True
    perm = rng.permutation(n)
    return AdjacencyMask(adj[np.ix_(perm, perm)])


def check_masks(seed: int, index: int, tracer=None) -> list[tuple[int, bool, AdjacencyMask]]:
    """(node count, expected answer, mask) for one completable round."""
    rng = np.random.default_rng(derived_seed(seed, "completable", index))
    masks = []
    for n in CHECK_SIZES:
        with _span(tracer, "geometry.mask", n=n):
            masks.append((n, True, random_completable_mask(n, COMPLETABLE_CONNECTIVITY, rng)))
        with _span(tracer, "geometry.mask", n=n):
            masks.append((n, False, _joined_halves(n, rng)))
    return masks


def _span(tracer, name: str, **info):
    return tracer.span(name, **info) if tracer is not None else nullcontext()


@dataclass
class Prepared:
    """First-round inputs plus what warming the caches cost."""

    first_inputs: object
    lut_build_s: float = 0.0


def prepare(workload: str, seed: int) -> Prepared:
    """Generate the first round's inputs and warm the caches the run uses."""
    if workload == "completable":
        return Prepared(check_masks(seed, 0))
    cfg = sweep_config(workload, seed, 0)
    lut_s = 0.0
    if cfg.ranging_mode == "signal_level":
        started = time.perf_counter()
        build_qls_lut(synth_two_tone(cfg.bandwidths_hz[0], cfg.pulse_s,
                                     cfg.sample_rate_hz, cfg.rise_fall_s))
        lut_s = time.perf_counter() - started
    return Prepared(cfg, lut_s)


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    # Per array size: [wall s, CPU s, units of work].  A unit is a DE
    # generation on the trial workloads and one is_completable call on a
    # non-completable mask on ``completable``.
    strata: dict = field(default_factory=dict)
    # Per array size: [wall s, operations].  An operation is a trial, or
    # one is_completable call on ``completable``.
    op_strata: dict = field(default_factory=dict)
    evms_m: list[float] = field(default_factory=list)
    trial_s: list[float] = field(default_factory=list)  # signal8 single trials
    check_s: dict[tuple, list[float]] = field(default_factory=dict)  # by (n, answer)
    check_cpu_s: float = 0.0
    generations: list[int] = field(default_factory=list)
    write_s: float = 0.0
    bytes_written: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    def add(self, key, wall_s: float, cpu_s: float, units: int) -> None:
        acc = self.strata.setdefault(key, [0.0, 0.0, 0])
        acc[0] += wall_s
        acc[1] += cpu_s
        acc[2] += units

    def add_ops(self, key, wall_s: float, ops: int) -> None:
        acc = self.op_strata.setdefault(key, [0.0, 0])
        acc[0] += wall_s
        acc[1] += ops


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _record_digest(records) -> str:
    return _sha(
        *(
            repr(
                (
                    r.trial_id,
                    r.final_cost,
                    r.final_evm_m,
                    r.final_evm_rms_m,
                    r.generations_used,
                    r.converged,
                )
            ).encode()
            + np.asarray(r.cost_history).tobytes()
            + np.asarray(r.evm_history).tobytes()
            for r in records
        )
    )


def _check_artifacts(cfg: ExperimentConfig, records, paths) -> list[str]:
    """The four sweep artifacts exist and hold one row per trial / generation."""
    problems = []
    missing = [name for name, p in paths.items() if not Path(p).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]

    def data_rows(path) -> int:
        return len(Path(path).read_text().splitlines()) - 1

    points = len(cfg.array_sizes) * len(cfg.connectivities) * len(cfg.bandwidths_hz)
    if data_rows(paths["records"]) != len(records):
        problems.append("records.csv row count differs from trial count")
    if data_rows(paths["convergence"]) != sum(r.generations_used for r in records):
        problems.append("convergence.csv row count differs from generations")
    if data_rows(paths["summary_csv"]) != points:
        problems.append("summary.csv row count differs from sweep points")
    with open(paths["summary_json"]) as fh:
        if len(json.load(fh)["points"]) != points:
            problems.append("summary.json point count differs from sweep points")
    return problems


def _run_point(cfg: ExperimentConfig, out_dir: Path | None, res: RoundResult, index: int):
    """One run_experiment call (+ write_outputs when ``out_dir`` is given)."""
    expected = (
        len(cfg.array_sizes) * len(cfg.connectivities) * len(cfg.bandwidths_hz) * cfg.trials
    )
    res.attempted += expected
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        records = run_experiment(cfg)
        paths = None
        if out_dir is not None:
            write_started = time.perf_counter()
            paths = write_outputs(cfg, records, out_dir)
            res.write_s += time.perf_counter() - write_started
    except Exception as exc:  # a failed call counts every trial in it as failed
        res.failed += expected
        res.problems.append(f"round {index}: {type(exc).__name__}: {exc}")
        return
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
    problems = [] if len(records) == expected else ["trial count differs from config"]
    if paths is not None:
        problems += _check_artifacts(cfg, records, paths)
        res.bytes_written += sum(Path(p).stat().st_size for p in paths.values())
        res.digest = _sha(
            res.digest.encode(),
            Path(paths["records"]).read_bytes(),
            Path(paths["convergence"]).read_bytes(),
        )
    else:
        res.digest = _sha(res.digest.encode(), _record_digest(records).encode())
    if problems:
        res.failed += expected
        res.problems += [f"round {index}: {p}" for p in problems]
        return
    for r in records:
        if math.isfinite(r.final_cost) and math.isfinite(r.final_evm_m):
            res.evms_m.append(r.final_evm_m)
            res.generations.append(r.generations_used)
        else:
            res.failed += 1
            res.problems.append(f"round {index} trial {r.trial_id}: non-finite cost or EVM")
    res.add(cfg.array_sizes[0], wall, cpu, sum(r.generations_used for r in records))
    res.add_ops(cfg.array_sizes[0], wall, len(records))
    if out_dir is None:
        res.trial_s.append(wall)


def run_trial_round(workload: str, seed: int, index: int, out_dir: Path) -> RoundResult:
    """Sweep points write their four artifacts; signal8 trials write nothing."""
    res = RoundResult()
    _run_point(sweep_config(workload, seed, index),
               None if workload == "signal8" else out_dir, res, index)
    return res


def run_check_round(seed: int, index: int, tracer=None) -> RoundResult:
    masks = check_masks(seed, index, tracer)
    res = RoundResult(attempted=len(masks))
    answers = []
    for n, expected, mask in masks:
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            with _span(tracer, "geometry.is_completable", n=n):
                answer = is_completable(mask)
        except Exception as exc:  # counted as a failed check, never dropped
            answer = exc
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        res.check_cpu_s += cpu
        if not expected:
            # Only a full seed enumeration is a unit of work: on a completable
            # mask the search stops at the first usable seed, anywhere from
            # 1 ms to half a second into it.
            res.add(n, elapsed, cpu, 1)
        res.add_ops(n, elapsed, 1)
        res.check_s.setdefault((n, expected), []).append(elapsed)
        answers.append(repr(answer))
        if answer is not expected:
            res.failed += 1
            res.problems.append(
                f"round {index}: {n}-node mask built {'' if expected else 'non-'}"
                f"completable answered {answer!r}"
            )
    res.digest = _sha(
        *(m.mask.tobytes() for _, _, m in masks), repr(answers).encode()
    )
    return res


def determinism_digest(workload: str, seed: int, out_dir: Path) -> str:
    """Digest of a one-trial sweep (records.csv + convergence.csv), no timings.

    Uses the first round's config with one trial: byte-identical reruns
    are a property of the sweep path, and one trial checks it cheaply.
    """
    if workload == "completable":
        small = [(n, m) for n, _, m in check_masks(seed, 0) if n == min(CHECK_SIZES)]
        answers = [is_completable(m) for _, m in small]
        return _sha(*(m.mask.tobytes() for _, m in small), repr(answers).encode())
    res = RoundResult()
    cfg = sweep_config(workload, seed, 0)
    _run_point(replace(cfg, trials=1), out_dir, res, 0)
    if res.problems:
        raise RuntimeError("; ".join(res.problems))
    return res.digest
