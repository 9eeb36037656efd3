from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from arrayloc.cli import main
from arrayloc.evaluation import align_and_evm
from arrayloc.geometry import (
    AdjacencyMask,
    NodeLayout,
    edm_from_points,
    random_completable_mask,
    read_edm_csv,
    read_layout_csv,
    read_mask_csv,
    write_edm_csv,
    write_layout_csv,
    write_mask_csv,
)
from arrayloc.harness import RANGING_MODES, load_config
from arrayloc.snr import SampleMatrix, db_to_linear, write_sample_matrix_csv
from arrayloc.solver import complete_and_localize

from conftest import REF_CRLB_SIGMA_M


def _parse_kv(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


def test_crlb_subcommand(capsys):
    code = main(
        ["crlb", "--bandwidth", "40e6", "--snr-db", "34", "--pulse", "10e-6",
         "--fs", "200e6"]
    )
    assert code == 0
    values = _parse_kv(capsys.readouterr().out)
    assert float(values["sigma_d_m"]) == pytest.approx(REF_CRLB_SIGMA_M, rel=1e-12)
    assert float(values["max_beamform_freq_hz"]) > 0


def test_mds_subcommand_roundtrip(tmp_path, capsys):
    truth = NodeLayout(np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]]))
    edm_path = tmp_path / "edm.csv"
    out_path = tmp_path
    write_edm_csv(edm_path, edm_from_points(truth))
    code = main(
        ["mds", "--edm", str(edm_path), "--dim", "2", "--out",
         str(out_path / "layout.csv")]
    )
    assert code == 0
    recovered = read_layout_csv(out_path / "layout.csv")
    back = edm_from_points(recovered)
    assert np.allclose(back.entries, edm_from_points(truth).entries, atol=1e-9)


def test_mds_subcommand_prints_to_stdout(tmp_path, capsys):
    edm_path = tmp_path / "edm.csv"
    write_edm_csv(edm_path, edm_from_points(NodeLayout(np.array([[0.0, 3.0]]))))
    code = main(["mds", "--edm", str(edm_path), "--dim", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n0,n1"
    values = sorted(float(v) for v in lines[1].split(","))
    assert values == pytest.approx([-1.5, 1.5])


def _localize_problem(tmp_path, unobserved_value):
    """Write the reference 6-node problem's EDM and mask CSVs.

    Every unmeasured off-diagonal entry of the EDM CSV holds
    ``unobserved_value``.  Returns the two paths and the true layout.
    """
    rng = np.random.default_rng(1000)
    truth = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
    mask = random_completable_mask(6, 0.8, rng)
    entries = np.where(mask.mask, edm_from_points(truth).entries, unobserved_value)
    np.fill_diagonal(entries, 0.0)
    edm_path = tmp_path / "edm.csv"
    mask_path = tmp_path / "mask.csv"
    with open(edm_path, "w") as fh:
        fh.write(",".join(f"n{i}" for i in range(6)) + "\n")
        for row in entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    write_mask_csv(mask_path, mask)
    return edm_path, mask_path, truth


def _run_localize(tmp_path, unobserved_value):
    """Run ``localize`` on the reference 6-node problem.

    Returns the exit code, the recovered layout and the true layout.
    """
    edm_path, mask_path, truth = _localize_problem(tmp_path, unobserved_value)
    out_path = tmp_path / "layout.csv"
    code = main(
        ["localize", "--edm", str(edm_path), "--mask", str(mask_path),
         "--seed", "0", "--out", str(out_path)]
    )
    return code, read_layout_csv(out_path), truth


def test_localize_subcommand(tmp_path, capsys):
    code, recovered, truth = _run_localize(tmp_path, 0.0)
    assert code == 0
    captured = capsys.readouterr()
    assert "cost=" in captured.err and "converged=" in captured.err
    assert align_and_evm(recovered, truth).evm_mean < 1e-4


def test_localize_ignores_nan_at_unobserved_entries(tmp_path, capsys):
    code, recovered, truth = _run_localize(tmp_path, float("nan"))
    assert code == 0
    stats = dict(kv.split("=") for kv in capsys.readouterr().err.split())
    assert np.isfinite(float(stats["cost"]))
    assert align_and_evm(recovered, truth).evm_mean < 1e-4


def test_localize_seed_seeds_the_solver_generator(tmp_path, capsys):
    edm_path, mask_path, _ = _localize_problem(tmp_path, 0.0)
    mask = read_mask_csv(mask_path)
    run = complete_and_localize(
        read_edm_csv(edm_path, mask=mask), mask, 2, rng=np.random.default_rng(7)
    )
    expected = tmp_path / "expected.csv"
    write_layout_csv(expected, run.recovered_layout)
    out_path = tmp_path / "layout.csv"
    code = main(
        ["localize", "--edm", str(edm_path), "--mask", str(mask_path),
         "--seed", "7", "--out", str(out_path)]
    )
    assert code == 0
    assert out_path.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().err == (
        f"cost={float(run.best_cost_history[-1])!r} "
        f"generations={run.generations_used} "
        f"converged={'true' if run.converged else 'false'} "
        f"stop={run.stop_reason} "
        f"evaluations={run.evaluations}\n"
    )


def test_localize_rejects_a_negative_seed(tmp_path, capsys):
    edm_path, mask_path, _ = _localize_problem(tmp_path, 0.0)
    code = main(
        ["localize", "--edm", str(edm_path), "--mask", str(mask_path), "--seed", "-1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["localize", "completable"])
def test_planar_subcommands_take_no_dim(tmp_path, capsys, command):
    # Both work on planar arrays only.
    edm_path, mask_path, _ = _localize_problem(tmp_path, 0.0)
    files = ["--mask", str(mask_path)]
    if command == "localize":
        files += ["--edm", str(edm_path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, "--dim", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --dim 2" in captured.err


def test_completable_subcommand_accepts_good_mask(tmp_path, capsys):
    mask_path = tmp_path / "mask.csv"
    write_mask_csv(mask_path, AdjacencyMask.complete(6))
    code = main(["completable", "--mask", str(mask_path)])
    assert code == 0
    assert "completable=true" in capsys.readouterr().out


def test_completable_subcommand_structural_exit_code(tmp_path, capsys):
    # a node with only two links cannot be resolved: exit code 3
    adj = ~np.eye(6, dtype=bool)
    for other in range(3):
        adj[5, other] = adj[other, 5] = False
    mask_path = tmp_path / "mask.csv"
    write_mask_csv(mask_path, AdjacencyMask(adj))
    code = main(["completable", "--mask", str(mask_path)])
    assert code == 3
    captured = capsys.readouterr()
    assert "completable=false" in captured.out
    assert "error:" in captured.err


@pytest.mark.parametrize("bad", ["nan", "0.5", "-1"])
def test_mask_csv_rejects_a_cell_that_is_not_0_or_1(tmp_path, capsys, bad):
    # Such a cell used to count as a link.
    mask_path = tmp_path / "mask.csv"
    write_mask_csv(mask_path, AdjacencyMask.complete(6))
    lines = mask_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = bad
    lines[3] = ",".join(cells)
    mask_path.write_text("\n".join(lines) + "\n")
    edm_path = tmp_path / "edm.csv"
    rng = np.random.default_rng(5)
    write_edm_csv(edm_path, edm_from_points(NodeLayout(rng.uniform(0, 5, (2, 6)))))
    for argv in (
        ["completable", "--mask", str(mask_path)],
        ["localize", "--edm", str(edm_path), "--mask", str(mask_path)],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {mask_path}: line 4: mask cell {bad!r} is not 0 or 1\n"
        )


def test_sweep_subcommand_writes_outputs(tmp_path, capsys):
    cfg = {
        "array_sizes": [6],
        "connectivities": [1.0],
        "bandwidths_hz": [40e6],
        "trials": 2,
        "noiseless": True,
        "seed": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    for name in ("records.csv", "convergence.csv", "summary.csv", "summary.json"):
        assert (out_dir / name).exists()
    assert "trials=2" in capsys.readouterr().out


def test_sweep_subcommand_config_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["sweep", "--config", str(missing)]) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops")
    assert main(["sweep", "--config", str(bad_json)]) == 2

    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"trials": 1, "wibble": True}))
    assert main(["sweep", "--config", str(unknown_key)]) == 2

    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(
        json.dumps({"array_sizes": [10], "connectivities": [0.4], "trials": 1})
    )
    assert main(["sweep", "--config", str(infeasible)]) == 2
    capsys.readouterr()  # drain


@pytest.mark.parametrize(
    "overrides",
    [
        {"solver": {"bogus": 1}},
        {"layout": {"bogus": 1}},
        {"trials": 2.5},
        {"solver": {"population_size": 4.5}},
        {"workers": True},
        {"bandwidths_hz": [float("nan")]},
        {"snr_h_db": float("nan")},
        {"layout": 5},
        {"solver": [1]},
        {"seed": -1},
        {"rise_fall_s": 5e-6},
        {"pulse_s": -1},
        {"solver": {"seed": 12345}},
        {"noiseless": "false"},
        {"connectivities": [True]},
        {"snr_h_db": True},
        {"solver": {"crossover_rate": True}},
        {"layout": {"extent_m": True}},
        {"array_sizes": [6, 6]},
        {"allow_large_signal_level": True},
        {"snr_h_db": -4000},
        {"dim": 2},
        {"solver": {"convergence_delta": 1e-4}},
        {"solver": {"parent_fraction": True}},
        {"snr_h_db": -3200},
        {"snr_h_db": -400},
        # -40 dB passes at 40 MHz in the default 5 m box (floor about
        # -45 dB), but not at 10 MHz (about -33 dB) nor on a 1 m ring
        # (about -35 dB).
        {"snr_h_db": -40, "bandwidths_hz": [40e6, 10e6]},
        {"snr_h_db": -40, "layout": {"kind": "circle"}},
    ],
    ids=[
        "solver-key", "layout-key", "float-trials", "float-population",
        "bool-workers", "nan-bandwidth", "nan-snr", "int-layout", "list-solver",
        "negative-seed", "long-ramps", "negative-pulse", "solver-seed",
        "string-noiseless", "bool-connectivity", "bool-snr", "bool-crossover",
        "bool-extent", "repeated-size", "retired-signal-level-cap",
        "underflowing-snr", "retired-dim", "retired-solver-constant",
        "bool-parent-fraction", "snr-that-overflows", "snr-far-below-the-floor",
        "snr-below-the-floor-at-one-bandwidth", "snr-below-the-floor-of-a-ring",
    ],
)
def test_sweep_rejects_bad_config_values(tmp_path, capsys, overrides):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 1, **overrides}))
    with pytest.raises(ValueError):  # before any trial starts
        load_config(cfg_path)
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "shape, overrides",
    [
        ((2, 5), {}),
        ((2, 6), {"array_sizes": [6, 8]}),
        ((3, 6), {}),
        (None, {}),
    ],
    ids=["5-nodes-for-6", "one-size-of-two", "three-dimensions", "missing-file"],
)
def test_sweep_rejects_bad_layout_file(tmp_path, capsys, shape, overrides):
    layout_path = tmp_path / "lay.csv"
    if shape is not None:
        coords = np.random.default_rng(5).uniform(0.0, 3.0, size=shape)
        write_layout_csv(layout_path, NodeLayout(coords))
    layout = {"kind": "file", "path": str(layout_path)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 3, "layout": layout, **overrides}))
    with pytest.raises((ValueError, OSError)):  # before any trial starts
        load_config(cfg_path)
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_mds_stdout_is_the_out_file(tmp_path, capsys):
    points = np.random.default_rng(3).uniform(-2.0, 2.0, size=(2, 5))
    edm_path = tmp_path / "edm.csv"
    write_edm_csv(edm_path, edm_from_points(NodeLayout(points)))
    assert main(["mds", "--edm", str(edm_path)]) == 0
    printed = capsys.readouterr().out
    out_path = tmp_path / "layout.csv"
    assert main(["mds", "--edm", str(edm_path), "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode() == out_path.read_bytes()


def test_crlb_subcommand_rejects_bad_arguments(capsys):
    for bad in (
        ["--bandwidth=-40e6", "--snr-db", "34"],
        ["--bandwidth", "nan", "--snr-db", "34"],
        ["--bandwidth", "inf", "--snr-db", "34"],
        ["--bandwidth", "40e6", "--snr-db", "nan"],
        ["--bandwidth", "40e6", "--snr-db", "inf"],
        ["--bandwidth", "40e6", "--snr-db", "34", "--pulse", "nan"],
        ["--bandwidth", "40e6", "--snr-db", "34", "--pulse", "inf"],
        ["--bandwidth", "40e6", "--snr-db", "34", "--fs", "inf"],
    ):
        code = main(["crlb", *bad])
        captured = capsys.readouterr()
        assert code == 2, bad
        assert captured.out == "", bad
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, bad


def test_simulate_subcommand_smoke(capsys):
    code = main(
        ["simulate", "--nodes", "6", "--connectivity", "1.0", "--noiseless",
         "--seed", "3"]
    )
    assert code == 0
    values = _parse_kv(capsys.readouterr().out)
    assert float(values["final_evm_m"]) < 1e-9
    assert values["converged"] == "true"
    assert values["stop_reason"] == "complete_mask"


def test_simulate_reports_the_candidates_the_bound_ruled_out(capsys):
    assert main(["simulate", "--nodes", "8", "--seed", "2"]) == 0
    values = _parse_kv(capsys.readouterr().out)
    assert 0 < int(values["ruled_out"]) < int(values["evaluations"])
    # A complete mask scores one exact population and nothing else.
    assert main(["simulate", "--connectivity", "1.0", "--seed", "2"]) == 0
    assert _parse_kv(capsys.readouterr().out)["ruled_out"] == "0"


def test_simulate_runs_signal_level_beyond_8_nodes(capsys):
    code = main(["simulate", "--mode", "signal_level", "--nodes", "12", "--seed", "1"])
    assert code == 0
    assert float(_parse_kv(capsys.readouterr().out)["final_evm_m"]) > 0


def test_simulate_mode_choices_are_the_harness_modes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--mode", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(repr(mode) in err for mode in RANGING_MODES)


@pytest.mark.parametrize("extent", ["-1", "0"])
def test_simulate_rejects_bad_extent(capsys, extent):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", f"--extent={extent}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "box extent" in captured.err
    assert captured.err.count("\n") == 1
    assert not caught


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_snr_estimate_rejects_non_finite_samples(tmp_path, capsys, bad):
    samples_path = tmp_path / "windows.csv"
    samples_path.write_text(f"w0_i,w0_q,w1_i,w1_q\n1,0,1,0\n{bad},0,1,0\n")
    code = main(["snr-estimate", "--samples", str(samples_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err


def test_snr_estimate_rejects_a_capture_without_power(tmp_path, capsys):
    # a dead receiver is not a noise-free link
    samples_path = tmp_path / "windows.csv"
    write_sample_matrix_csv(samples_path, SampleMatrix(np.zeros((16, 2))))
    code = main(["snr-estimate", "--samples", str(samples_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_snr_estimate_subcommand(tmp_path, capsys, wave40):
    rng = np.random.default_rng(31)
    snr = db_to_linear(34.0)
    p_sig = float(np.mean(np.abs(wave40.samples) ** 2))
    sigma = np.sqrt(0.5 * p_sig / snr)
    noise = sigma * (
        rng.standard_normal((2000, 32)) + 1j * rng.standard_normal((2000, 32))
    )
    samples_path = tmp_path / "windows.csv"
    write_sample_matrix_csv(
        samples_path, SampleMatrix(wave40.samples[:, None] + noise)
    )
    code = main(["snr-estimate", "--samples", str(samples_path)])
    assert code == 0
    values = _parse_kv(capsys.readouterr().out)
    assert float(values["snr_db"]) == pytest.approx(34.0, abs=1.0)
