from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayloc.evaluation import align_and_evm, max_beamform_freq
from arrayloc.geometry import (
    AdjacencyMask,
    NodeLayout,
    edge_budget,
    edm_from_points,
    mask_edm,
    max_edges,
    min_edges,
    random_completable_mask,
    read_layout_csv,
    write_layout_csv,
)
from arrayloc import harness, solver
from arrayloc.harness import (
    ExperimentConfig,
    LayoutSpec,
    TrialRecord,
    draw_layout,
    load_config,
    run_experiment,
    summarize,
    write_outputs,
)
from arrayloc.solver import SolverConfig, complete_and_localize


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        array_sizes=[6],
        connectivities=[1.0],
        bandwidths_hz=[40e6],
        trials=1,
        noiseless=True,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _record(final_evm_m: float, **overrides) -> TrialRecord:
    base = dict(
        trial_id=0,
        n_nodes=6,
        connectivity=0.8,
        bandwidth_hz=40e6,
        trial_seed=0,
        cost_history=np.array([1.0]),
        evm_history=np.array([final_evm_m]),
        final_cost=1.0,
        final_evm_m=final_evm_m,
        final_evm_rms_m=final_evm_m,
        generations_used=1,
        stop_reason="stalled",
        evaluations=200,
        ruled_out=0,
        wall_time_s=0.0,
    )
    base.update(overrides)
    return TrialRecord(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults_are_the_reference_point():
    cfg = ExperimentConfig()
    assert cfg.array_sizes == [6]
    assert cfg.connectivities == [0.8]
    assert cfg.bandwidths_hz == [40e6]
    assert cfg.trials == 250
    assert cfg.snr_h_db == 34.0
    assert cfg.pulse_s == 10e-6
    assert cfg.sample_rate_hz == 200e6


def test_config_rejects_infeasible_connectivity():
    with pytest.raises(ValueError):
        ExperimentConfig(array_sizes=[10], connectivities=[0.4])


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(array_sizes=[3])
    with pytest.raises(ValueError):
        ExperimentConfig(ranging_mode="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(bandwidths_hz=[300e6])  # above the sample rate
    with pytest.raises(ValueError):
        ExperimentConfig(workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(array_sizes=[6.0])
    with pytest.raises(ValueError):
        ExperimentConfig(seed=False)
    with pytest.raises(ValueError):
        ExperimentConfig(pulse_s=float("inf"))


def test_the_snr_floor_is_the_range_error_bound_at_the_layout_span(tmp_path):
    # The bound at snr_h_db may not exceed the largest distance two nodes
    # can lie apart: about -45.5 dB at 40 MHz in the default 5 m box.
    path = tmp_path / "layout.csv"
    write_layout_csv(path, NodeLayout(np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])))
    spans = [
        (LayoutSpec(), 5.0 * np.sqrt(2.0)),
        (LayoutSpec(kind="circle"), 2.2),
        (LayoutSpec(kind="file", path=str(path)), 5.0),
    ]
    for spec, span in spans:
        assert spec.span_m() == pytest.approx(span, rel=1e-12)
    assert ExperimentConfig(snr_h_db=-45.4).snr_h_db == -45.4
    with pytest.raises(ValueError, match="range-error bound"):
        ExperimentConfig(snr_h_db=-45.5)
    # Noiseless trials draw no range error, so no SNR is too low for them.
    assert ExperimentConfig(snr_h_db=-4000, noiseless=True).noiseless


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 40), st.data())
def test_config_accepts_exactly_the_feasible_masks(n, data):
    # The config and the mask builder share one edge-budget rule: a
    # connectivity passes validation exactly when a mask can be built, and
    # that mask holds edge_budget(n, c) links.  Half-way points such as
    # 12.5 / 15 are where round-half-up and round-half-even part ways; next
    # to the 3n - 6 floor they decide acceptance.
    links = max_edges(n)
    fewest = min_edges(n)
    c = data.draw(
        st.one_of(
            st.integers(fewest - 3, fewest + 2).map(lambda k: (k + 0.5) / links),
            st.integers(0, links).map(lambda k: (k + 0.5) / links),
            st.integers(0, links).map(lambda k: k / links),
            st.floats(-0.5, 1.5, allow_nan=False),
        )
    )
    try:
        ExperimentConfig(array_sizes=[n], connectivities=[c], trials=1)
    except ValueError:
        with pytest.raises(ValueError):
            random_completable_mask(n, c, np.random.default_rng(n))
    else:
        mask = random_completable_mask(n, c, np.random.default_rng(n))
        assert mask.edge_count == edge_budget(n, c)


def test_sweep_lists_reject_repeats_but_not_equal_budgets():
    # A repeated value would rerun the same trial seeds and summarize would
    # merge them into one point with twice the trials.
    for repeated in (
        {"array_sizes": [6, 6]},
        {"connectivities": [0.8, 0.8]},
        {"bandwidths_hz": [40e6, 4e7]},
    ):
        with pytest.raises(ValueError, match="distinct values"):
            ExperimentConfig(**repeated)
    # Distinct values stay legal even where they give one edge budget, as
    # criterion 09's 0.9 and 0.95 do at 6 nodes.
    assert edge_budget(6, 0.9) == edge_budget(6, 0.95)
    assert ExperimentConfig(connectivities=[0.9, 0.95]).connectivities == [0.9, 0.95]


def test_load_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "array_sizes": [6],
                "connectivities": [0.8],
                "bandwidths_hz": [40e6],
                "trials": 3,
                "seed": 9,
                "layout": {"kind": "circle", "radius_m": 1.0},
                "solver": {"population_size": 50},
            }
        )
    )
    cfg = load_config(path)
    assert cfg.trials == 3
    assert cfg.layout.kind == "circle"
    assert cfg.solver.population_size == 50


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 3, "n_elephants": 2}))
    with pytest.raises(ValueError):
        load_config(path)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_config(path)


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------


def test_draw_layout_box(rng):
    layout = draw_layout(LayoutSpec(kind="random_box", extent_m=5.0), 12, rng)
    assert layout.dim == 2 and layout.count == 12
    assert layout.coords.min() >= 0.0 and layout.coords.max() <= 5.0


def test_draw_layout_circle_respects_geometry(rng):
    spec = LayoutSpec(kind="circle", radius_m=1.0, radial_jitter=0.1,
                      min_separation_m=0.45)
    for _ in range(10):
        layout = draw_layout(spec, 8, rng)
        radii = np.linalg.norm(layout.coords, axis=0)
        assert np.all(radii >= 0.9 - 1e-12) and np.all(radii <= 1.1 + 1e-12)
        diff = layout.coords[:, :, None] - layout.coords[:, None, :]
        dist = np.sqrt((diff**2).sum(axis=0))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 0.45


def test_draw_layout_circle_impossible_packing(rng):
    spec = LayoutSpec(kind="circle", radius_m=1.0, min_separation_m=0.45)
    with pytest.raises(ValueError):
        draw_layout(spec, 50, rng)


def test_draw_layout_from_file(tmp_path, rng):
    coords = rng.uniform(0, 2, size=(2, 6))
    path = tmp_path / "layout.csv"
    write_layout_csv(path, NodeLayout(coords))
    spec = LayoutSpec(kind="file", path=str(path))
    layout = draw_layout(spec, 6, rng)
    assert np.array_equal(layout.coords, coords)
    with pytest.raises(ValueError):
        draw_layout(spec, 7, rng)


def test_file_layout_is_read_once_per_sweep(tmp_path, monkeypatch):
    coords = np.random.default_rng(2).uniform(0, 3, size=(2, 6))
    path = tmp_path / "layout.csv"
    write_layout_csv(path, NodeLayout(coords))
    reads = []

    def counting_read(p):
        reads.append(p)
        return read_layout_csv(p)

    monkeypatch.setattr(harness, "read_layout_csv", counting_read)
    cfg_path = tmp_path / "cfg.json"
    layout = {"kind": "file", "path": str(path)}
    raw = {"trials": 3, "layout": layout, "noiseless": True, "connectivities": [1.0]}
    cfg_path.write_text(json.dumps(raw))
    cfg = load_config(cfg_path)
    records = run_experiment(cfg)
    assert len(records) == 3 and len(reads) == 1
    assert all(r.final_evm_m < 1e-9 for r in records)
    # the loaded layout is not a config field, so the config echo is unchanged
    paths = write_outputs(cfg, records, tmp_path / "out")
    echoed = json.loads(paths["summary_json"].read_text())["config"]["layout"]
    assert echoed == dataclasses.asdict(LayoutSpec(kind="file", path=str(path)))


def test_layout_spec_validation():
    with pytest.raises(ValueError):
        LayoutSpec(kind="hexagon")
    with pytest.raises(ValueError):
        LayoutSpec(kind="circle", radial_jitter=1.5)
    with pytest.raises(ValueError):
        LayoutSpec(kind="file", path=None)
    with pytest.raises(ValueError):
        LayoutSpec(extent_m=float("nan"))
    with pytest.raises(ValueError):
        LayoutSpec(kind="circle", min_separation_m=float("nan"))


def test_file_layout_path_must_be_a_string(monkeypatch):
    # open() takes an int, or true, as a file descriptor: true reads stdout.
    opened = []
    monkeypatch.setattr(harness, "read_layout_csv", opened.append)
    for path in (True, 0, 3):
        with pytest.raises(ValueError, match="needs a path"):
            LayoutSpec(kind="file", path=path)
    assert opened == []


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_single_noiseless_trial_is_exact():
    records = run_experiment(_tiny_config())
    assert len(records) == 1
    assert records[0].final_evm_m < 1e-9
    assert records[0].converged


def test_sweep_yields_every_combination():
    cfg = _tiny_config(
        array_sizes=[6], connectivities=[0.8, 1.0], bandwidths_hz=[20e6, 40e6],
        trials=2,
    )
    records = run_experiment(cfg)
    assert len(records) == 1 * 2 * 2 * 2
    assert [r.trial_id for r in records] == list(range(8))
    for rec in records:
        assert rec.evm_history.shape == (rec.generations_used,)
        assert rec.cost_history.shape == (rec.generations_used,)


def test_rerun_is_deterministic():
    cfg = _tiny_config(connectivities=[0.8], trials=3, noiseless=False)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert [r.final_evm_m for r in first] == [r.final_evm_m for r in second]
    assert [r.final_cost for r in first] == [r.final_cost for r in second]


def test_equal_size_points_share_trial_seeds():
    cfg = _tiny_config(
        connectivities=[0.8], bandwidths_hz=[20e6, 40e6], trials=2, noiseless=False
    )
    records = run_experiment(cfg)
    by_b = {}
    for rec in records:
        by_b.setdefault(rec.bandwidth_hz, []).append(rec.trial_seed)
    assert by_b[20e6] == by_b[40e6]  # paired draws across the bandwidth axis


def test_parallel_workers_match_serial():
    base = _tiny_config(connectivities=[0.8], trials=4, noiseless=False)
    serial = run_experiment(base)
    parallel = run_experiment(_tiny_config(connectivities=[0.8], trials=4,
                                           noiseless=False, workers=2))
    assert [r.final_evm_m for r in serial] == [r.final_evm_m for r in parallel]


def test_pool_gets_no_more_workers_than_trials(monkeypatch):
    started = []

    class FakePool:  # records the pool size and maps serially; starts nothing
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    assert len(run_experiment(_tiny_config(trials=2, workers=64))) == 2
    assert started == [2]
    assert len(run_experiment(_tiny_config(trials=1, workers=64))) == 1
    assert started == [2]  # one trial runs serially


def _assert_workers_match_serial(tmp_path, base: dict) -> None:
    # Criterion 10's property across worker counts.  summary.json echoes
    # the config, workers included.
    outs = []
    for workers in (1, 2):
        cfg = ExperimentConfig(**base, workers=workers)
        write_outputs(cfg, run_experiment(cfg), tmp_path / str(workers))
        outs.append(tmp_path / str(workers))
    for name in ("records.csv", "convergence.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    serial, parallel = ((out / "summary.json").read_text() for out in outs)
    assert parallel == serial.replace('"workers": 1', '"workers": 2')


def test_signal_level_beyond_8_nodes_matches_serial_with_workers(tmp_path):
    # A signal-level sweep the retired 8-node cap used to refuse.
    _assert_workers_match_serial(
        tmp_path, dict(array_sizes=[10], connectivities=[0.9], bandwidths_hz=[40e6],
                       trials=4, seed=11, ranging_mode="signal_level"),
    )


def test_lockstep_groups_match_serial_with_workers(tmp_path, monkeypatch):
    # Ten 6-node trials run as groups of 6 and 4 serially and as two groups
    # of 5 with two workers, four 10-node trials as pairs either way; alone,
    # each trial gives the same bits.
    points = [(6, 0.8, 10, [6, 5]), (10, 0.9, 4, [2, 2])]
    runs = []
    for n, c, trials, sizes in points:
        base = dict(array_sizes=[n], connectivities=[c], bandwidths_hz=[40e6],
                    trials=trials, seed=11, layout=LayoutSpec(kind="circle"))
        cfg = ExperimentConfig(**base)
        by_workers = [dataclasses.replace(cfg, workers=w) for w in (1, 2)]
        assert [harness._group_size(n, c, w) for w in by_workers] == sizes
        _assert_workers_match_serial(tmp_path / str(n), base)
        runs.append((cfg, run_experiment(cfg)))
    monkeypatch.setattr(solver, "LOCKSTEP_WORKSPACE_BYTES", 0)  # every group of one
    for cfg, grouped in runs:
        alone = run_experiment(cfg)
        assert [r.stop_reason for r in grouped] == [r.stop_reason for r in alone]
        assert [r.evaluations for r in grouped] == [r.evaluations for r in alone]
        for a, b in zip(grouped, alone):
            assert a.cost_history.tobytes() == b.cost_history.tobytes()
            assert a.evm_history.tobytes() == b.evm_history.tobytes()


@pytest.mark.parametrize(
    "n, trials, workers, population, size",
    [
        (15, 250, 1, 200, 1),  # the budget: one 15-node trial
        (6, 250, 1, 200, 6),
        (7, 250, 1, 200, 4),
        (8, 250, 1, 200, 3),
        (10, 250, 1, 200, 2),
        (20, 250, 1, 200, 1),  # a trial beyond the budget runs alone
        (6, 250, 1, 20, 65),  # 40 rows per generation: ten times the trials
        (6, 2, 1, 200, 2),  # no more than the point's trials
        (6, 10, 4, 200, 3),
        (6, 10, 8, 200, 2),  # at most ceil(trials / workers)
        (6, 2, 64, 200, 1),
    ],
)
def test_group_size_rule(n, trials, workers, population, size):
    c = 0.8 if n < 10 else 0.9  # as in criteria 02 and 09
    cfg = ExperimentConfig(array_sizes=[n], connectivities=[c], trials=trials,
                           workers=workers,
                           solver=SolverConfig(population_size=population))
    assert harness._group_size(n, c, cfg) == size


@pytest.mark.parametrize(
    "n, c, per_row", [(6, 0.8, 1184), (8, 0.8, 2120), (10, 0.9, 3424), (15, 0.9, 7768)]
)
def test_group_bytes_are_the_workspace_a_trial_allocates(n, c, per_row, monkeypatch):
    allocated = []
    allocate = solver._Workspace.allocate

    def spy(*args):
        allocated.append(allocate(*args))
        return allocated[-1]

    monkeypatch.setattr(solver._Workspace, "allocate", spy)
    cfg = ExperimentConfig(array_sizes=[n], connectivities=[c], trials=1, seed=3)
    run_experiment(cfg)
    (work,) = allocated
    nbytes = sum(getattr(work, f.name).nbytes for f in dataclasses.fields(work))
    rows = cfg.solver.rows_per_generation
    assert solver._working_set_bytes(n, edge_budget(n, c), cfg.solver) == nbytes
    assert nbytes == per_row * rows
    many = dataclasses.replace(cfg, trials=250)
    assert harness._group_size(n, c, many) == solver.LOCKSTEP_WORKSPACE_BYTES // nbytes


def test_signal_level_smoke_run():
    cfg = ExperimentConfig(
        array_sizes=[5],
        connectivities=[1.0],
        bandwidths_hz=[40e6],
        trials=1,
        ranging_mode="signal_level",
        noiseless=True,
        seed=2,
        layout=LayoutSpec(kind="circle"),
    )
    records = run_experiment(cfg)
    # noiseless signal path still carries interpolation residuals, so the
    # error is small but not zero
    assert records[0].final_evm_m < 1e-3


# ---------------------------------------------------------------------------
# summaries and outputs
# ---------------------------------------------------------------------------


def test_summarize_single_perfect_trial():
    points = summarize([_record(0.0)])
    assert len(points) == 1
    assert points[0]["mean_final_evm_m"] == 0.0
    assert points[0]["convergence_rate"] == 1.0
    assert points[0]["max_beamform_freq_hz"] is None


def test_summarize_mean_and_beamform_link():
    points = summarize([_record(1e-3, trial_id=0), _record(3e-3, trial_id=1)])
    assert points[0]["trials"] == 2
    assert points[0]["mean_final_evm_m"] == pytest.approx(2e-3)
    assert points[0]["max_beamform_freq_hz"] == pytest.approx(
        max_beamform_freq(2e-3)
    )


def test_summarize_rejects_nothing_gracefully():
    assert summarize([]) == []


def test_outputs_on_disk(tmp_path):
    cfg = _tiny_config(connectivities=[0.8], trials=2, noiseless=False)
    paths = write_outputs(cfg, run_experiment(cfg), tmp_path / "out")
    records = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert records[0] == (
        "trial_id,n_nodes,connectivity,bandwidth_hz,trial_seed,final_cost,"
        "final_evm_m,final_evm_rms_m,generations_used,converged"
    )
    assert len(records) == 3  # header + one row per trial
    convergence = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert convergence[0] == "trial_id,generation,cost,evm_m"
    assert len(convergence) > 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["seed"] == 5
    assert len(summary["points"]) == 1
    assert set(paths) == {"records", "convergence", "summary_csv", "summary_json"}


def test_output_csv_bytes(tmp_path):
    # ints as digits, bools as 1/0, floats as repr, a None cell as inf
    records = [
        _record(
            0.0,
            cost_history=np.array([2.5, 0.125]),
            evm_history=np.array([0.5, 0.0]),
            final_cost=0.125,
            generations_used=2,
        ),
        _record(0.0, trial_id=1, trial_seed=1, final_cost=1e-7,
                stop_reason="max_generations"),
    ]
    paths = write_outputs(_tiny_config(), records, tmp_path / "out")
    assert paths["records"].read_bytes() == (
        b"trial_id,n_nodes,connectivity,bandwidth_hz,trial_seed,final_cost,"
        b"final_evm_m,final_evm_rms_m,generations_used,converged\n"
        b"0,6,0.8,40000000.0,0,0.125,0.0,0.0,2,1\n"
        b"1,6,0.8,40000000.0,1,1e-07,0.0,0.0,1,0\n"
    )
    assert paths["convergence"].read_bytes() == (
        b"trial_id,generation,cost,evm_m\n"
        b"0,0,2.5,0.5\n"
        b"0,1,0.125,0.0\n"
        b"1,0,1.0,0.0\n"
    )
    assert paths["summary_csv"].read_bytes() == (
        b"n_nodes,connectivity,bandwidth_hz,trials,mean_final_evm_m,"
        b"median_final_evm_m,std_final_evm_m,mean_generations,"
        b"median_generations,convergence_rate,max_beamform_freq_hz\n"
        b"6,0.8,40000000.0,2,0.0,0.0,0.0,1.5,1.5,0.5,inf\n"
    )


def _recording(fn, results: list, many: bool = False):
    def record(*args):
        result = fn(*args)
        results.extend(result) if many else results.append(result)
        return result

    return record


def test_evm_replay_ends_at_the_final_layout(monkeypatch):
    # The per-generation EVM replay and the recovered layout come from the
    # same MDS core, so the last replayed alignment is the solver's final
    # layout aligned onto the truth, bit for bit, in every ranging mode,
    # for trials run alone and in lockstep groups alike.  The replay aligns
    # all generations in one stacked call, each to the bits of aligning its
    # layout alone, and align_and_evm runs once per trial, for the final
    # layout only.
    layouts, runs, group_sizes, replays, aligned = [], [], [], [], []
    group = harness.complete_and_localize_group

    def sized_group(observed, *rest):
        group_sizes.append(len(observed))
        return group(observed, *rest)

    monkeypatch.setattr(
        harness, "draw_layout", _recording(harness.draw_layout, layouts)
    )
    monkeypatch.setattr(
        harness,
        "complete_and_localize",
        _recording(harness.complete_and_localize, runs),
    )
    monkeypatch.setattr(
        harness, "complete_and_localize_group", _recording(sized_group, runs, many=True)
    )
    monkeypatch.setattr(harness, "batched_mds", _recording(harness.batched_mds, replays))
    monkeypatch.setattr(
        harness, "align_and_evm", _recording(harness.align_and_evm, aligned)
    )
    sizes = dict(array_sizes=[6, 8], trials=3)
    sweeps = [
        dict(sizes, connectivities=[0.8, 1.0], noiseless=False),  # statistical
        dict(sizes, connectivities=[0.8]),  # noiseless
        dict(
            connectivities=[0.8], trials=2, noiseless=False, ranging_mode="signal_level"
        ),
    ]
    for overrides in sweeps:
        for calls in (layouts, runs, group_sizes, replays, aligned):
            calls.clear()
        records = run_experiment(_tiny_config(**overrides))
        assert min(group_sizes) > 1  # 6-node trials run in groups, 8-node ones alone
        assert len(records) == len(layouts) == len(runs) == len(replays)
        assert len(aligned) == len(records)
        for rec, layout, run, (_, xy) in zip(records, layouts, runs, replays):
            alone = [align_and_evm(NodeLayout(xy[:, g]), layout).evm_mean
                     for g in range(run.generations_used)]
            assert rec.evm_history.tolist() == alone
            final = align_and_evm(run.recovered_layout, layout)
            assert rec.evm_history[-1] == rec.final_evm_m == final.evm_mean
            assert rec.final_evm_rms_m == final.evm_rms


def test_wall_time_not_serialized(tmp_path):
    # timings vary run to run, so they stay out of the deterministic CSVs
    cfg = _tiny_config()
    write_outputs(cfg, run_experiment(cfg), tmp_path / "out")
    header = (tmp_path / "out" / "records.csv").read_text().splitlines()[0]
    assert "wall_time" not in header


def _perfbench_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_entry_points_resolve():
    # perfbench/tracing.py wraps these attributes by name; a missing one
    # makes `perfbench/run.py --trace 1` and perfbench/smoke.py fail with
    # AttributeError
    tracing = _perfbench_tracing()
    assert tracing.ENTRY_POINTS
    for module, attr, _ in tracing.ENTRY_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_tracer_reads_what_the_solver_returns(tmp_path):
    # The tracer reads the node count from complete_and_localize's second
    # argument and the generation count from its result; wrapping must not
    # change a byte of the artifacts the determinism digest covers.
    tracing = _perfbench_tracing()
    cfg = _tiny_config(connectivities=[0.8], noiseless=False)
    plain = write_outputs(cfg, run_experiment(cfg), tmp_path / "plain")
    with tracing.Tracer().installed() as tracer:
        records = run_experiment(cfg)
    traced = write_outputs(cfg, records, tmp_path / "traced")
    (span,) = [s for s in tracer.spans if s["name"] == "solver"]
    assert span["n"] == 6
    assert span["generations"] == records[0].generations_used
    for name in ("records", "convergence"):
        assert traced[name].read_bytes() == plain[name].read_bytes()


def test_the_solver_counts_the_evaluations_the_tracer_computes():
    # perfbench computes a run's cost evaluations from its generation count;
    # the solver counts them as it scores.  A stalled run, a capped one with
    # a parent count held at its floor of 4, and a complete mask.
    tracing = _perfbench_tracing()
    rng = np.random.default_rng(1)
    layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
    cases = [
        (random_completable_mask(6, 0.8, rng), SolverConfig(), "stalled"),
        (
            random_completable_mask(6, 0.8, rng),
            SolverConfig(population_size=30, max_generations=4, parent_fraction=0.1),
            "max_generations",
        ),
        (AdjacencyMask.complete(6), SolverConfig(), "complete_mask"),
    ]
    for mask, cfg, reason in cases:
        observed = mask_edm(edm_from_points(layout), mask)
        run = complete_and_localize(observed, mask, cfg, np.random.default_rng(1))
        assert run.stop_reason == reason
        assert run.evaluations == tracing.evaluations(run.generations_used, cfg)
