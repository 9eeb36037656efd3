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
    read_layout_csv,
    write_edm_csv,
    write_mask_csv,
)
from arrayloc.harness import load_config
from arrayloc.snr import SampleMatrix, db_to_linear, write_sample_matrix_csv

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


def _run_localize(tmp_path, unobserved_value):
    """Write the reference 6-node problem and run ``localize`` on it.

    Every unmeasured off-diagonal entry of the EDM CSV holds
    ``unobserved_value``.  Returns the exit code, the recovered layout and
    the true layout.
    """
    rng = np.random.default_rng(1000)
    truth = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
    mask = random_completable_mask(6, 0.8, rng)
    entries = np.where(mask.mask, edm_from_points(truth).entries, unobserved_value)
    np.fill_diagonal(entries, 0.0)
    edm_path = tmp_path / "edm.csv"
    mask_path = tmp_path / "mask.csv"
    out_path = tmp_path / "layout.csv"
    with open(edm_path, "w") as fh:
        fh.write(",".join(f"n{i}" for i in range(6)) + "\n")
        for row in entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    write_mask_csv(mask_path, mask)
    code = main(
        ["localize", "--edm", str(edm_path), "--mask", str(mask_path),
         "--dim", "2", "--seed", "0", "--out", str(out_path)]
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
    ],
    ids=[
        "solver-key", "layout-key", "float-trials", "float-population",
        "bool-workers", "nan-bandwidth", "nan-snr", "int-layout", "list-solver",
        "negative-seed", "long-ramps", "negative-pulse",
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
    code = main(["crlb", "--bandwidth=-40e6", "--snr-db", "34"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_subcommand_smoke(capsys):
    code = main(
        ["simulate", "--nodes", "6", "--connectivity", "1.0", "--noiseless",
         "--seed", "3"]
    )
    assert code == 0
    values = _parse_kv(capsys.readouterr().out)
    assert float(values["final_evm_m"]) < 1e-9
    assert values["converged"] == "true"


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
