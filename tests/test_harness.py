from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayloc.evaluation import max_beamform_freq
from arrayloc.geometry import (
    NodeLayout,
    edge_budget,
    max_edges,
    min_edges,
    random_completable_mask,
    write_layout_csv,
)
from arrayloc.harness import (
    ExperimentConfig,
    LayoutSpec,
    TrialRecord,
    draw_layout,
    load_config,
    run_and_write,
    run_experiment,
    summarize,
    write_outputs,
)


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
        converged=True,
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


def test_signal_level_guard_rails():
    with pytest.raises(ValueError):
        ExperimentConfig(array_sizes=[10], connectivities=[0.9],
                         ranging_mode="signal_level")
    with pytest.raises(ValueError):
        ExperimentConfig(trials=60, ranging_mode="signal_level")
    cfg = ExperimentConfig(
        array_sizes=[10],
        connectivities=[0.9],
        ranging_mode="signal_level",
        allow_large_signal_level=True,
    )
    assert cfg.ranging_mode == "signal_level"


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
    paths = run_and_write(cfg, tmp_path / "out")
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
        _record(0.0, trial_id=1, trial_seed=1, final_cost=1e-7, converged=False),
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


def test_evm_replay_ends_at_the_final_layout(tmp_path):
    # The per-generation EVM replay and the recovered layout come from the
    # same MDS core, so the last replayed EVM is the final EVM exactly.
    cfg = _tiny_config(
        array_sizes=[6, 8], connectivities=[0.8, 1.0], trials=3, noiseless=False
    )
    run_and_write(cfg, tmp_path / "out")
    with open(tmp_path / "out" / "convergence.csv", newline="") as fh:
        last = {row["trial_id"]: row["evm_m"] for row in csv.DictReader(fh)}
    with open(tmp_path / "out" / "records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 12
    for row in records:
        assert last[row["trial_id"]] == row["final_evm_m"]


def test_wall_time_not_serialized(tmp_path):
    # timings vary run to run, so they stay out of the deterministic CSVs
    run_and_write(_tiny_config(), tmp_path / "out")
    header = (tmp_path / "out" / "records.csv").read_text().splitlines()[0]
    assert "wall_time" not in header
