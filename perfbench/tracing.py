"""Span tracing around arrayloc's layer entry points, from outside the package.

Each entry point is wrapped where the calling module looks it up (for
example ``harness.complete_and_localize``), so arrayloc's own code stays
untouched.  Spans live in memory and are written as JSON lines at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import arrayloc.harness as harness
import arrayloc.solver as solver

# (module, attribute, span name).  harness._run_trial is the per-trial root;
# _signal_level_edm is the signal-level ranging entry the harness calls.
ENTRY_POINTS = (
    (harness, "_run_trial", "trial"),
    (harness, "draw_layout", "harness.layout"),
    (harness, "random_completable_mask", "geometry.mask"),
    (harness, "synth_two_tone", "ranging.waveform"),
    (harness, "sample_edm_statistical", "ranging.edm"),
    (harness, "_signal_level_edm", "ranging.edm"),
    (harness, "make_scenario", "ranging.scenario"),
    (harness, "simulate_exchange", "ranging.exchange"),
    (harness, "complete_and_localize", "solver"),
    (harness, "align_and_evm", "evaluation"),
    (solver, "is_completable", "geometry.is_completable"),
    (solver, "classical_mds", "mds"),
)


class Tracer:
    """Records (name, start, end, parent, trial id, info) spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trials = 0

    @contextmanager
    def span(self, name: str, **info):
        if not self._stack:  # a root span: one trial, or one check
            self._trials += 1
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "trial": self._trials,
            **info,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if name == "solver":
                    record["generations"] = result.generations_used
                    record["n"] = args[1].count
                elif name == "geometry.is_completable":
                    record["n"] = args[0].count
                return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in ENTRY_POINTS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(ENTRY_POINTS, originals):
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover (seconds)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def evaluations(generations: int, cfg: solver.SolverConfig) -> int:
    """Cost evaluations implied by a generation count (computed, not counted).

    The first generation scores the initial population; every later one
    scores the offspring of the parents plus the immigrants.
    """
    pop = cfg.population_size
    parents = min(pop, max(4, round(cfg.parent_fraction * pop)))
    per_generation = solver.OFFSPRING_PER_PARENT * parents + (pop - parents)
    return pop + (generations - 1) * per_generation


def layer_metrics(spans: list[dict], cfg, extra: dict) -> dict[str, float]:
    """Per-layer numbers from one traced run.

    ``extra`` holds what run.py measured outside the spans: write time
    and bytes, LUT build time and the traced/untraced wall times.
    """
    own = self_times(spans)
    dur = [s["end"] - s["start"] for s in spans]

    def total(names, values=dur):
        return sum(v for s, v in zip(spans, values) if s["name"] in names)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def mean_ms(name, **match):
        vals = [
            d for s, d in zip(spans, dur)
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]
        return 1e3 * sum(vals) / len(vals) if vals else 0.0

    trials = count("trial")
    wall = total({"trial"})
    per_trial = 1.0 / trials if trials else 0.0
    gens = [s["generations"] for s in spans if s["name"] == "solver"]
    evals = sum(evaluations(g, cfg.solver) for g in gens) if gens else 0
    solver_self = total({"solver"}, own)
    exchanges = count("ranging.exchange")
    metrics = {
        "solver.ms_per_trial": 1e3 * solver_self * per_trial,
        "solver.share": solver_self / wall if wall else 0.0,
        "solver.us_per_eval": 1e6 * solver_self / evals if evals else 0.0,
        "solver.generations": sum(gens) * per_trial,
        "solver.evaluations": evals * per_trial,
        "solver.cap_share": (
            sum(g >= cfg.solver.max_generations for g in gens) * per_trial
        ),
        "ranging.edm_ms": 1e3 * total({"ranging.edm"}) * per_trial,
        "ranging.exchanges": exchanges * per_trial,
        "ranging.us_per_exchange": (
            1e6 * total({"ranging.exchange"}) / exchanges if exchanges else 0.0
        ),
        "ranging.waveform_ms": 1e3 * total({"ranging.waveform"}) * per_trial,
        "ranging.lut_build_ms": 1e3 * extra["lut_build_s"],
        "geometry.is_completable_ms": mean_ms("geometry.is_completable"),
        "geometry.is_completable_ms_n25": mean_ms("geometry.is_completable", n=25),
        "geometry.is_completable_ms_n40": mean_ms("geometry.is_completable", n=40),
        "geometry.mask_ms": mean_ms("geometry.mask"),
        "mds.ms_per_trial": 1e3 * total({"mds"}) * per_trial,
        "evaluation.ms_per_trial": 1e3 * total({"evaluation"}) * per_trial,
        "evaluation.calls_per_trial": count("evaluation") * per_trial,
        "harness.layout_ms": 1e3 * total({"harness.layout"}) * per_trial,
        "harness.self_ms": 1e3 * total({"trial"}, own) * per_trial,
        "harness.write_ms": 1e3 * extra["write_s"] * per_trial,
        "harness.bytes_written": extra["bytes_written"] * per_trial,
        "trace.overhead": extra["untraced_s"] / extra["traced_s"],
    }
    return metrics


def us_per_eval_by_size(spans: list[dict], cfg) -> dict[int, float]:
    """Solver self time per computed cost evaluation, for each array size."""
    own = self_times(spans)
    by_size: dict[int, list[float]] = {}
    for s, t in zip(spans, own):
        if s["name"] == "solver":
            acc = by_size.setdefault(s["n"], [0.0, 0])
            acc[0] += t
            acc[1] += evaluations(s["generations"], cfg.solver)
    return {n: 1e6 * t / e for n, (t, e) in sorted(by_size.items()) if e}


def layer_self_split(spans: list[dict]) -> dict[str, float]:
    """Self time (s) inside trials, grouped by module: the name before the dot."""
    own = self_times(spans)
    in_trial = set()
    for i, s in enumerate(spans):
        if s["name"] == "trial" or (s["parent"] is not None and s["parent"] in in_trial):
            in_trial.add(i)
    split: dict[str, float] = {}
    for i in sorted(in_trial):
        module = "harness" if spans[i]["name"] == "trial" else spans[i]["name"].split(".")[0]
        split[module] = split.get(module, 0.0) + own[i]
    return split
