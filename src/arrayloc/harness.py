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
from operator import attrgetter
from pathlib import Path

import numpy as np

from .constants import SPEED_OF_LIGHT
from .evaluation import align_and_evm, max_beamform_freq
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
    check_waveform,
    make_scenario,
    sample_edm_statistical,
    simulate_exchange,
    synth_two_tone,
    two_way_tof,
)
from .snr import db_to_linear
from .solver import SolverConfig, SolverRun, complete_and_localize, require_int

RANGING_MODES = ("statistical", "signal_level")
LAYOUT_KINDS = ("random_box", "circle", "file")

# Signal-level trials synthesize and correlate every waveform; keep the
# default envelope small enough for a desk run.
SIGNAL_LEVEL_MAX_NODES = 8
SIGNAL_LEVEL_MAX_TRIALS = 50


@dataclass
class LayoutSpec:
    kind: str = "random_box"
    extent_m: float = 5.0  # square side for random_box
    radius_m: float = 1.0  # nominal ring radius for circle
    radial_jitter: float = 0.1
    min_separation_m: float = 0.45
    path: str | None = None  # layout CSV for kind="file"

    def __post_init__(self) -> None:
        sizes = (self.extent_m, self.radius_m, self.min_separation_m)
        if not all(math.isfinite(v) for v in (*sizes, self.radial_jitter)):
            raise ValueError("layout sizes and jitter must be finite")
        if self.kind not in LAYOUT_KINDS:
            raise ValueError(f"unknown layout kind {self.kind!r}")
        if self.kind == "random_box" and self.extent_m <= 0:
            raise ValueError("box extent must be positive")
        if self.kind == "circle":
            if self.radius_m <= 0:
                raise ValueError("circle radius must be positive")
            if not 0.0 <= self.radial_jitter < 1.0:
                raise ValueError("radial jitter must lie in [0, 1)")
        if self.kind == "file" and not self.path:
            raise ValueError("file layout needs a path")


def draw_layout(spec: LayoutSpec, n: int, rng: np.random.Generator) -> NodeLayout:
    if spec.kind == "random_box":
        return NodeLayout(rng.uniform(0.0, spec.extent_m, size=(2, n)))
    if spec.kind == "file":
        layout = read_layout_csv(spec.path)
        if layout.count != n:
            raise ValueError(
                f"layout file holds {layout.count} nodes, config expects {n}"
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
    rise_fall_s: float = 50e-9
    ranging_mode: str = "statistical"
    noiseless: bool = False
    dim: int = 2
    layout: LayoutSpec = field(default_factory=LayoutSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    workers: int = 1
    allow_large_signal_level: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.array_sizes or not self.connectivities or not self.bandwidths_hz:
            raise ValueError("sweep lists must be non-empty")
        for name, kind in (("layout", LayoutSpec), ("solver", SolverConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be an object, got {value!r}")
        for name in ("trials", "dim", "seed", "workers"):
            require_int(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        scalars = (self.snr_h_db, self.pulse_s, self.sample_rate_hz, self.rise_fall_s)
        numbers = (*scalars, *self.connectivities, *self.bandwidths_hz)
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError("config numbers must be finite")
        if self.trials < 1:
            raise ValueError("need at least one trial per sweep point")
        if self.ranging_mode not in RANGING_MODES:
            raise ValueError(f"unknown ranging mode {self.ranging_mode!r}")
        if self.dim != 2:
            raise ValueError("only planar arrays (dim == 2) are supported")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.snr_h_db > 200:
            raise ValueError("harmonic-mean SNR is implausibly large")
        for n in self.array_sizes:
            require_int("array size", n)
            for c in self.connectivities:
                edge_budget(n, c)
        for b in self.bandwidths_hz:
            check_waveform(b, self.pulse_s, self.sample_rate_hz, self.rise_fall_s)
            if not self.noiseless and b == 0:
                raise ValueError("noisy ranging needs a nonzero tone separation")
        if self.ranging_mode == "signal_level" and not self.allow_large_signal_level:
            if max(self.array_sizes) > SIGNAL_LEVEL_MAX_NODES:
                raise ValueError(
                    "signal-level mode is limited to "
                    f"{SIGNAL_LEVEL_MAX_NODES} nodes by default"
                )
            if self.trials > SIGNAL_LEVEL_MAX_TRIALS:
                raise ValueError(
                    "signal-level mode is limited to "
                    f"{SIGNAL_LEVEL_MAX_TRIALS} trials by default"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
        data = dict(raw)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            if isinstance(data.get("layout"), dict):
                data["layout"] = LayoutSpec(**data["layout"])
            if isinstance(data.get("solver"), dict):
                data["solver"] = SolverConfig(**data["solver"])
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
    converged: bool
    wall_time_s: float  # informational; never written to CSV


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
    snr_h_linear: float | None,
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
        mask=mask,
    )
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if not mask.mask[i, j]:
                continue
            quad = simulate_exchange(scenario, i, j, rng)
            est = max(0.0, SPEED_OF_LIGHT * two_way_tof(quad))
            entries[i, j] = entries[j, i] = est**2
    return Edm(entries, observed=mask)


def _evm_series(
    run: SolverRun, observed: Edm, mask: AdjacencyMask, truth: NodeLayout, m: int
) -> np.ndarray:
    _, coords = batched_mds(mask.filled(observed.entries, run.best_vector_history), m)
    return np.array(
        [
            align_and_evm(NodeLayout(coords[g].T), truth).evm_mean
            for g in range(coords.shape[0])
        ]
    )


def _run_trial(task: _TrialTask) -> TrialRecord:
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

    started = time.perf_counter()
    run = complete_and_localize(observed, mask, cfg.dim, cfg.solver, rng_solver)
    wall = time.perf_counter() - started
    evm = _evm_series(run, observed, mask, layout, cfg.dim)
    final_alignment = align_and_evm(run.recovered_layout, layout)
    return TrialRecord(
        trial_id=task.trial_id,
        n_nodes=task.n,
        connectivity=task.c,
        bandwidth_hz=task.b,
        trial_seed=task.counter,
        cost_history=run.best_cost_history,
        evm_history=evm,
        final_cost=float(run.best_cost_history[-1]),
        final_evm_m=final_alignment.evm_mean,
        final_evm_rms_m=final_alignment.evm_rms,
        generations_used=run.generations_used,
        converged=run.converged,
        wall_time_s=wall,
    )


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run every (size, connectivity, bandwidth, trial) combination.

    The per-trial counter restarts at each sweep point, so sweep points
    sharing an array size also share layouts and noise draws; comparisons
    across connectivity or bandwidth are paired by construction.
    """
    tasks = []
    trial_id = 0
    for n in cfg.array_sizes:
        for c in cfg.connectivities:
            for b in cfg.bandwidths_hz:
                for t in range(cfg.trials):
                    tasks.append(_TrialTask(trial_id, t, n, c, b, cfg))
                    trial_id += 1
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_run_trial, tasks, chunksize=4))
    else:
        records = [_run_trial(task) for task in tasks]
    return records


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


def run_and_write(cfg: ExperimentConfig, out_dir: str | Path) -> dict[str, Path]:
    records = run_experiment(cfg)
    return write_outputs(cfg, records, out_dir)
