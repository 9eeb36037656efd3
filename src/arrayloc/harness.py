"""Config-driven Monte Carlo studies.

Sweeps array size, connectivity, and tone separation; each trial draws a
layout and observation mask, simulates noisy ranging (statistically or at
signal level), runs the completion solver, and logs per-generation cost
and aligned position error.  Outputs are plain CSV/JSON and byte-identical
across runs with the same config and seed.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import product
from operator import attrgetter
from pathlib import Path

import numpy as np

from .constants import SPEED_OF_LIGHT
from .evaluation import align_and_evm, align_stack, max_beamform_freq
from .geometry import (
    AdjacencyMask,
    Edm,
    NodeLayout,
    edge_budget,
    edm_from_points,
    mask_edm,
    random_completable_mask,
    read_layout_csv,
    write_csv,
)
from .mds import batched_mds
from .ranging import (
    DEFAULT_RISE_FALL_S,
    check_waveform,
    crlb_sigma_d,
    make_scenario,
    sample_edm_statistical,
    simulate_exchange,
    synth_two_tone,
    two_way_tof,
)
from .snr import db_to_linear
from .solver import (
    SolverConfig, SolverRun, complete_and_localize, complete_and_localize_group,
    lockstep_trials, require_int, require_real,
)

RANGING_MODES = ("statistical", "signal_level")
LAYOUT_KINDS = ("random_box", "circle", "file")


@dataclass
class LayoutSpec:
    kind: str = "random_box"
    extent_m: float = 5.0  # square side for random_box
    radius_m: float = 1.0  # nominal ring radius for circle
    radial_jitter: float = 0.1
    min_separation_m: float = 0.45
    path: str | None = None  # layout CSV for kind="file"

    def __post_init__(self) -> None:
        for name in ("extent_m", "radius_m", "radial_jitter", "min_separation_m"):
            require_real(name, getattr(self, name))
        if self.kind not in LAYOUT_KINDS:
            raise ValueError(f"unknown layout kind {self.kind!r}")
        if self.kind == "random_box" and self.extent_m <= 0:
            raise ValueError("box extent must be positive")
        if self.kind == "circle":
            if self.radius_m <= 0:
                raise ValueError("circle radius must be positive")
            if not 0.0 <= self.radial_jitter < 1.0:
                raise ValueError("radial jitter must lie in [0, 1)")
        if self.kind == "file":
            # open() would take an int, or true, as a file descriptor.
            if not isinstance(self.path, str) or not self.path:
                raise ValueError(f"file layout needs a path, got {self.path!r}")
            self.file_layout = read_layout_csv(self.path)  # not a field: never echoed

    def span_m(self) -> float:
        """The largest distance two nodes of this layout can lie apart."""
        if self.kind == "random_box":
            return math.sqrt(2.0) * self.extent_m
        if self.kind == "circle":
            return 2.0 * self.radius_m * (1.0 + self.radial_jitter)
        return math.sqrt(edm_from_points(self.file_layout).entries.max())


def draw_layout(spec: LayoutSpec, n: int, rng: np.random.Generator) -> NodeLayout:
    if spec.kind == "random_box":
        return NodeLayout(rng.uniform(0.0, spec.extent_m, size=(2, n)))
    if spec.kind == "file":
        layout = spec.file_layout
        if (layout.dim, layout.count) != (2, n):
            raise ValueError(
                f"layout file holds {layout.count} nodes in {layout.dim} "
                f"dimensions, config expects {n} in 2"
            )
        return layout
    # circle: evenly spaced angles, jittered radius, minimum spacing enforced
    for _ in range(100):
        angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n) / n
        radii = spec.radius_m * (
            1.0 + rng.uniform(-spec.radial_jitter, spec.radial_jitter, size=n)
        )
        coords = np.vstack([radii * np.cos(angles), radii * np.sin(angles)])
        layout = NodeLayout(coords)
        dist = np.sqrt(edm_from_points(layout).entries)
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= spec.min_separation_m:
            return layout
    raise ValueError(
        f"cannot place {n} nodes on a {spec.radius_m} m ring with "
        f"{spec.min_separation_m} m separation"
    )


@dataclass
class ExperimentConfig:
    array_sizes: list[int] = field(default_factory=lambda: [6])
    connectivities: list[float] = field(default_factory=lambda: [0.8])
    bandwidths_hz: list[float] = field(default_factory=lambda: [40e6])
    trials: int = 250
    snr_h_db: float = 34.0
    pulse_s: float = 10e-6
    sample_rate_hz: float = 200e6
    rise_fall_s: float = DEFAULT_RISE_FALL_S
    ranging_mode: str = "statistical"
    noiseless: bool = False
    layout: LayoutSpec = field(default_factory=LayoutSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        for name, kind in (("layout", LayoutSpec), ("solver", SolverConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be an object, got {value!r}")
        for name in ("trials", "seed", "workers"):
            require_int(name, getattr(self, name))
        for name in ("snr_h_db", "pulse_s", "sample_rate_hz", "rise_fall_s"):
            require_real(name, getattr(self, name))
        if not isinstance(self.noiseless, bool):
            raise ValueError(f"noiseless must be true or false, got {self.noiseless!r}")
        for name, check in (
            ("array_sizes", require_int),
            ("connectivities", require_real),
            ("bandwidths_hz", require_real),
        ):
            values = getattr(self, name)
            for value in values:
                check(f"{name} entry", value)
            # A repeated value would rerun the same trials as one more point.
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} needs one or more distinct values: {values}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.trials < 1:
            raise ValueError("need at least one trial per sweep point")
        if self.ranging_mode not in RANGING_MODES:
            raise ValueError(f"unknown ranging mode {self.ranging_mode!r}")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.snr_h_db > 200:
            raise ValueError("harmonic-mean SNR is implausibly large")
        for n in self.array_sizes:
            for c in self.connectivities:
                edge_budget(n, c)
            if self.layout.kind == "file":  # the file's shape, before any trial
                draw_layout(self.layout, n, rng=None)
        snr_h, span = db_to_linear(self.snr_h_db), self.layout.span_m()
        for b in self.bandwidths_hz:
            check_waveform(b, self.pulse_s, self.sample_rate_hz, self.rise_fall_s)
            if self.noiseless:
                continue
            if b == 0:
                raise ValueError("noisy ranging needs a nonzero tone separation")
            # A range error wider than the whole array leaves no geometry to
            # recover; far enough below, the trial's arithmetic overflows.
            where = f"above the layout's {span:g} m span"
            try:  # snr_h == 0 raises too: its bound is infinite
                sigma = crlb_sigma_d(b, self.pulse_s, snr_h, self.sample_rate_hz)
            except ValueError:
                sigma, where = math.inf, "out of floating-point range"
            if sigma > span:
                raise ValueError(
                    f"snr_h_db {self.snr_h_db} gives a range-error bound {where} "
                    f"at {b:g} Hz tone separation"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
        data = dict(raw)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            for name, kind in (("layout", LayoutSpec), ("solver", SolverConfig)):
                if isinstance(data.get(name), dict):
                    data[name] = kind(**data[name])
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"bad config: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return ExperimentConfig.from_dict(raw)


@dataclass
class TrialRecord:
    trial_id: int
    n_nodes: int
    connectivity: float
    bandwidth_hz: float
    trial_seed: int  # per-point counter mixed with the master seed
    cost_history: np.ndarray
    evm_history: np.ndarray  # aligned mean position error per generation
    final_cost: float
    final_evm_m: float
    final_evm_rms_m: float
    generations_used: int
    stop_reason: str  # as SolverRun's; records.csv keeps only `converged`
    evaluations: int  # as SolverRun's; never written to CSV
    ruled_out: int  # as SolverRun's; never written to CSV
    wall_time_s: float  # informational, a group's share; never written to CSV

    converged = SolverRun.converged


@dataclass
class _TrialTask:
    trial_id: int
    counter: int
    n: int
    c: float
    b: float
    cfg: ExperimentConfig


def _trial_streams(master_seed: int, counter: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence((master_seed, counter))
    return [np.random.default_rng(child) for child in root.spawn(4)]


def _signal_level_edm(
    layout: NodeLayout,
    mask: AdjacencyMask,
    snr_h_linear: float,
    waveform,
    rng: np.random.Generator,
) -> Edm:
    n = layout.count
    offsets = rng.uniform(-5e-4, 5e-4, size=n)
    scenario = make_scenario(
        layout,
        waveform,
        snr_h_linear=snr_h_linear,
        clock_offsets_s=offsets,
    )
    i, j = np.nonzero(np.triu(mask.mask, 1))  # every link once, row-major
    tof = two_way_tof(simulate_exchange(scenario, i, j, rng))
    entries = np.zeros((n, n))
    # Scalar ** is libm pow, whose last bit can differ from an array's x*x.
    entries[i, j] = entries[j, i] = [max(0.0, SPEED_OF_LIGHT * t) ** 2 for t in tof]
    return Edm(entries, observed=mask)


def _trial_inputs(task: _TrialTask):
    """The trial's truth, mask, observed matrix and solver stream."""
    cfg = task.cfg
    rng_layout, rng_mask, rng_noise, rng_solver = _trial_streams(
        cfg.seed, task.counter
    )
    layout = draw_layout(cfg.layout, task.n, rng_layout)
    mask = random_completable_mask(task.n, task.c, rng_mask)
    snr_h = db_to_linear(cfg.snr_h_db)
    if cfg.noiseless:
        observed = mask_edm(edm_from_points(layout), mask)
    else:
        waveform = synth_two_tone(
            task.b, cfg.pulse_s, cfg.sample_rate_hz, cfg.rise_fall_s
        )
        statistical = cfg.ranging_mode == "statistical"
        sample = sample_edm_statistical if statistical else _signal_level_edm
        observed = sample(layout, mask, snr_h, waveform, rng_noise)
    return layout, mask, observed, rng_solver


def _trial_record(task: _TrialTask, inputs, run: SolverRun, wall: float) -> TrialRecord:
    layout, mask, observed, _ = inputs
    # Every generation's best layout aligned at once, for convergence.csv.
    _, xy = batched_mds(mask.filled(observed.entries, run.best_vector_history), 2)
    residuals = align_stack(xy.transpose(1, 0, 2), layout)[-1]
    final = align_and_evm(run.recovered_layout, layout)
    return TrialRecord(
        trial_id=task.trial_id,
        n_nodes=task.n,
        connectivity=task.c,
        bandwidth_hz=task.b,
        trial_seed=task.counter,
        cost_history=run.best_cost_history,
        evm_history=residuals.mean(axis=-1),
        final_cost=float(run.best_cost_history[-1]),
        final_evm_m=final.evm_mean,
        final_evm_rms_m=final.evm_rms,
        generations_used=run.generations_used,
        stop_reason=run.stop_reason,
        evaluations=run.evaluations,
        ruled_out=run.ruled_out,
        wall_time_s=wall,
    )


def _run_trial(task: _TrialTask) -> TrialRecord:
    inputs = _trial_inputs(task)
    _, mask, observed, rng = inputs
    started = time.perf_counter()
    run = complete_and_localize(observed, mask, task.cfg.solver, rng)
    return _trial_record(task, inputs, run, time.perf_counter() - started)


def _run_group(tasks: list[_TrialTask]) -> list[TrialRecord]:
    """Trials of one sweep point, their searches run in lockstep."""
    if len(tasks) == 1:
        return [_run_trial(tasks[0])]
    inputs = [_trial_inputs(task) for task in tasks]
    _, masks, observed, rngs = zip(*inputs)
    started = time.perf_counter()
    runs = complete_and_localize_group(observed, masks, tasks[0].cfg.solver, rngs)
    share = (time.perf_counter() - started) / len(tasks)
    return [_trial_record(*args, share) for args in zip(tasks, inputs, runs)]


def _group_size(n: int, c: float, cfg: ExperimentConfig) -> int:
    """Trials per lockstep group: at most one solver batch, so that batches
    of one reach ``_run_trial``, which perfbench traces; at most
    ceil(trials / workers)."""
    by_workers = math.ceil(cfg.trials / cfg.workers)
    return min(lockstep_trials(n, edge_budget(n, c), cfg.solver), by_workers)


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run every (size, connectivity, bandwidth, trial) combination.

    The per-trial counter restarts at each sweep point, so sweep points
    sharing an array size also share layouts and noise draws; comparisons
    across connectivity or bandwidth are paired by construction.  Each
    point's trials run in consecutive lockstep groups (``_group_size``),
    which changes no bit of any trial.
    """
    groups = []
    points = product(cfg.array_sizes, cfg.connectivities, cfg.bandwidths_hz)
    for k, (n, c, b) in enumerate(points):
        first, size = k * cfg.trials, _group_size(n, c, cfg)
        tasks = [_TrialTask(first + t, t, n, c, b, cfg) for t in range(cfg.trials)]
        groups += [tasks[i : i + size] for i in range(0, cfg.trials, size)]
    # The pool starts all its workers at the first submit, so it gets no
    # more of them than there are groups.
    workers = min(cfg.workers, len(groups))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_group, groups))
    else:
        done = [_run_group(group) for group in groups]
    return [record for group in done for record in group]


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Aggregate per sweep point, in first-seen order."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault(
            (rec.n_nodes, rec.connectivity, rec.bandwidth_hz), []
        ).append(rec)
    points = []
    for (n, c, b), recs in groups.items():
        evms = np.array([r.final_evm_m for r in recs])
        gens = np.array([r.generations_used for r in recs])
        mean_evm = float(evms.mean())
        points.append(
            {
                "n_nodes": n,
                "connectivity": c,
                "bandwidth_hz": b,
                "trials": len(recs),
                "mean_final_evm_m": mean_evm,
                "median_final_evm_m": float(np.median(evms)),
                "std_final_evm_m": float(evms.std(ddof=1)) if len(recs) > 1 else 0.0,
                "mean_generations": float(gens.mean()),
                "median_generations": float(np.median(gens)),
                "convergence_rate": float(
                    np.mean([r.converged for r in recs])
                ),
                "max_beamform_freq_hz": (
                    max_beamform_freq(mean_evm) if mean_evm > 0 else None
                ),
            }
        )
    return points


def write_outputs(
    cfg: ExperimentConfig, records: list[TrialRecord], out_dir: str | Path
) -> dict[str, Path]:
    """Write records.csv, convergence.csv, summary.csv, and summary.json.

    Output bytes depend only on the config and seed; wall-clock timings are
    deliberately left out.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.csv",
        "convergence": out / "convergence.csv",
        "summary_csv": out / "summary.csv",
        "summary_json": out / "summary.json",
    }
    record_cols = [
        "trial_id",
        "n_nodes",
        "connectivity",
        "bandwidth_hz",
        "trial_seed",
        "final_cost",
        "final_evm_m",
        "final_evm_rms_m",
        "generations_used",
        "converged",
    ]
    write_csv(paths["records"], record_cols, map(attrgetter(*record_cols), records))
    steps = (
        (rec.trial_id, g, rec.cost_history[g], rec.evm_history[g])
        for rec in records
        for g in range(rec.generations_used)
    )
    write_csv(paths["convergence"], ["trial_id", "generation", "cost", "evm_m"], steps)
    points = summarize(records)
    summary_cols = list(points[0].keys()) if points else []
    write_csv(paths["summary_csv"], summary_cols, (p.values() for p in points))
    with open(paths["summary_json"], "w") as fh:
        json.dump(
            {"config": asdict(cfg), "points": points}, fh, indent=2, sort_keys=True
        )
        fh.write("\n")
    return paths
