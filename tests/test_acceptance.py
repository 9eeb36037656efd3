"""End-to-end acceptance gate.

Ten checks, one test per criterion, covering exact recovery, absolute
precision at the reference operating point, connectivity and bandwidth
trends, ranging error against the theoretical bound, clock-offset
cancellation, embedding round trips, blind SNR estimation, sweep-level
scaling behaviour, and byte-level reproducibility of the CLI artifacts.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED
line per criterion; each test also prints the measured values next to
the thresholds it was held to.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from arrayloc.evaluation import align_and_evm
from arrayloc.geometry import (
    NodeLayout,
    edm_from_points,
    mask_edm,
    random_completable_mask,
)
from arrayloc.harness import ExperimentConfig, LayoutSpec, run_experiment, summarize
from arrayloc.mds import classical_mds, gram_from_edm
from arrayloc.ranging import (
    apparent_tof,
    make_scenario,
    simulate_exchange,
    two_way_tof,
)
from arrayloc.snr import SampleMatrix, blind_snr_estimate, db_to_linear, linear_to_db
from arrayloc.solver import SolverConfig, complete_and_localize

from conftest import REF_CRLB_SIGMA_M, REF_SAMPLE_RATE_HZ

SPEED_OF_LIGHT = 299_792_458.0


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _mean_evm_by_point(cfg: ExperimentConfig) -> dict[tuple[int, float, float], dict]:
    rows = summarize(run_experiment(cfg))
    return {(r["n_nodes"], r["connectivity"], r["bandwidth_hz"]): r for r in rows}


def test_criterion_01_noiseless_exact_recovery():
    # 100 independent 6-node problems at 80% connectivity, no noise: at
    # least 95 must hit cost < 1e-10 and aligned EVM < 1e-5 m within 50
    # generations.
    # This passes with no margin: exactly 95 do.  The five misses (seeds
    # 1029, 1036, 1057, 1064 and 1091) all stall above 1e-10, none at the
    # 50-generation cap: the windowed stall test stops them after 7-32
    # generations at costs 2.1e-9, 3.2e-7, 2.7e-9, 4.2e-3 (12 mm EVM, a
    # wrong local minimum) and 1.3e-10.
    successes = 0
    for t in range(100):
        rng = np.random.default_rng(1000 + t)
        truth = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
        mask = random_completable_mask(6, 0.8, rng)
        observed = mask_edm(edm_from_points(truth), mask)
        run = complete_and_localize(
            observed, mask, SolverConfig(max_generations=50), rng
        )
        evm = align_and_evm(run.recovered_layout, truth).evm_mean
        if run.best_cost_history[-1] < 1e-10 and evm < 1e-5:
            successes += 1
    ok = successes >= 95
    print(
        f"[criterion 01] noiseless exact recovery: {successes}/100 trials "
        f"(need >= 95) -> {_verdict(ok)}"
    )
    assert ok, f"only {successes}/100 noiseless trials recovered exactly"


@pytest.mark.slow
def test_criterion_02_precision_at_reference_point():
    # 250-trial mean EVM at the reference point (6 nodes, 80% links,
    # 40 MHz separation, 34 dB harmonic-mean SNR) must not exceed 1.5 mm.
    cfg = ExperimentConfig(
        array_sizes=[6],
        connectivities=[0.8],
        bandwidths_hz=[40e6],
        trials=250,
        seed=20260815,
        layout=LayoutSpec(kind="circle"),
    )
    point = _mean_evm_by_point(cfg)[(6, 0.8, 40e6)]
    mean_evm = point["mean_final_evm_m"]
    ok = mean_evm <= 1.5e-3
    print(
        f"[criterion 02] mean EVM at reference point: {mean_evm * 1e3:.4f} mm "
        f"(limit 1.5 mm) -> {_verdict(ok)}"
    )
    assert ok, f"mean EVM {mean_evm} m exceeds 1.5 mm"


@pytest.mark.slow
def test_criterion_03_connectivity_insensitivity():
    # Sweeping connectivity 0.8 -> 1.0 at the reference point: the mean
    # EVM spread stays under 0.1 mm while the median generation count
    # must not increase with connectivity.
    connectivities = [0.8, 0.87, 0.93, 1.0]
    cfg = ExperimentConfig(
        array_sizes=[6],
        connectivities=connectivities,
        bandwidths_hz=[40e6],
        trials=250,
        seed=20260815,
        layout=LayoutSpec(kind="circle"),
    )
    points = _mean_evm_by_point(cfg)
    evms = [points[(6, c, 40e6)]["mean_final_evm_m"] for c in connectivities]
    gens = [points[(6, c, 40e6)]["median_generations"] for c in connectivities]
    spread = max(evms) - min(evms)
    gens_ok = all(b <= a for a, b in zip(gens, gens[1:]))
    ok = spread < 1e-4 and gens_ok
    print(
        f"[criterion 03] EVM spread over connectivity: {spread * 1e3:.4f} mm "
        f"(limit 0.1 mm), median generations {gens} non-increasing: {gens_ok} "
        f"-> {_verdict(ok)}"
    )
    assert spread < 1e-4, f"EVM spread {spread} m across connectivities"
    assert gens_ok, f"median generations {gens} not non-increasing"


@pytest.mark.slow
def test_criterion_04_bandwidth_scaling():
    # Halving the tone separation should double the mean EVM: check the
    # 10/20/40 MHz ratios against 2, 2 and 4 within 15%.
    bandwidths = [10e6, 20e6, 40e6]
    cfg = ExperimentConfig(
        array_sizes=[6],
        connectivities=[0.8],
        bandwidths_hz=bandwidths,
        trials=250,
        seed=20260815,
        layout=LayoutSpec(kind="circle"),
    )
    points = _mean_evm_by_point(cfg)
    evm = {b: points[(6, 0.8, b)]["mean_final_evm_m"] for b in bandwidths}
    ratios = {
        "10/20": (evm[10e6] / evm[20e6], 2.0),
        "20/40": (evm[20e6] / evm[40e6], 2.0),
        "10/40": (evm[10e6] / evm[40e6], 4.0),
    }
    devs = {k: abs(r / ideal - 1.0) for k, (r, ideal) in ratios.items()}
    ok = all(d <= 0.15 for d in devs.values())
    measured = ", ".join(f"{k}={r:.3f}" for k, (r, _) in ratios.items())
    print(
        f"[criterion 04] bandwidth EVM ratios {measured} vs ideal 2/2/4, "
        f"max deviation {max(devs.values()):.3f} (limit 0.15) -> {_verdict(ok)}"
    )
    assert ok, f"bandwidth scaling off: ratios {ratios}, deviations {devs}"


def test_criterion_05_range_error_matches_bound(wave40):
    # 500 signal-level exchanges at 34 dB: the standard deviation of the
    # 1000 per-leg range errors must land within [1, 2] times the
    # theoretical ranging bound.
    rng = np.random.default_rng(4)
    layout = NodeLayout(np.array([[0.0, 1.5], [0.0, 0.0]]))
    scenario = make_scenario(layout, wave40, snr_h_linear=db_to_linear(34.0))
    errors = []
    for _ in range(500):
        d = float(rng.uniform(0.5, 2.5))
        scenario.layout.coords[0, 1] = d
        quad = simulate_exchange(scenario, 0, 1, rng)
        errors.append(apparent_tof(quad.tx_i_s, quad.rx_j_s) * SPEED_OF_LIGHT - d)
        errors.append(apparent_tof(quad.tx_j_s, quad.rx_i_s) * SPEED_OF_LIGHT - d)
    ratio = float(np.std(errors)) / REF_CRLB_SIGMA_M
    ok = 1.0 <= ratio <= 2.0
    print(
        f"[criterion 05] per-leg error std / bound: {ratio:.4f} "
        f"(required within [1, 2]) -> {_verdict(ok)}"
    )
    assert ok, f"range error std is {ratio} times the bound"


def test_criterion_06_clock_offset_cancellation(wave40):
    # 1000 noiseless exchanges with clock offsets up to +/-1 ms: the
    # two-way flight-time error must stay below 0.01 sample periods.
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        d = float(rng.uniform(0.5, 2.5))
        offsets = rng.uniform(-1e-3, 1e-3, size=2)
        layout = NodeLayout(np.array([[0.0, d], [0.0, 0.0]]))
        scenario = make_scenario(layout, wave40, clock_offsets_s=offsets)
        quad = simulate_exchange(scenario, 0, 1, rng)
        err_samples = abs(
            two_way_tof(quad) - d / SPEED_OF_LIGHT
        ) * REF_SAMPLE_RATE_HZ
        worst = max(worst, err_samples)
    ok = worst < 0.01
    print(
        f"[criterion 06] worst two-way error with +/-1 ms offsets: "
        f"{worst:.2e} samples (limit 0.01) -> {_verdict(ok)}"
    )
    assert ok, f"two-way error reached {worst} sample periods"


def test_criterion_07_embedding_round_trip():
    # 1000 random planar layouts (3 to 25 nodes): centering the squared
    # distances must give a PSD rank-<=2 Gram matrix, and embedding plus
    # re-deriving distances must agree to a relative 1e-9.
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 26))
        truth = NodeLayout(rng.uniform(-3.0, 3.0, size=(2, n)))
        edm = edm_from_points(truth)
        gram = gram_from_edm(edm)
        eigs = np.linalg.eigvalsh(gram)[::-1]
        scale = max(eigs[0], 1e-30)
        assert eigs[-1] >= -1e-9 * scale, "Gram matrix not PSD"
        assert np.all(eigs[2:] <= 1e-9 * scale), "Gram rank exceeds 2"
        back = edm_from_points(classical_mds(edm, 2))
        rel = np.linalg.norm(back.entries - edm.entries) / np.linalg.norm(
            edm.entries
        )
        worst_rel = max(worst_rel, float(rel))
    ok = worst_rel < 1e-9
    print(
        f"[criterion 07] worst embedding round-trip error over 1000 layouts: "
        f"{worst_rel:.2e} (limit 1e-9) -> {_verdict(ok)}"
    )
    assert ok, f"round-trip relative error {worst_rel}"


def test_criterion_08_blind_snr_estimation(wave40):
    # 100 noisy captures at a true 34 dB: the mean blind estimate must
    # land within +/-1 dB, and scaling a capture by 3.7 must leave the
    # estimated SNR unchanged to a relative 1e-12.
    rng = np.random.default_rng(88)
    snr_true = 10.0**3.4
    sigma = np.sqrt(0.5 / snr_true)
    signal = wave40.samples[:, None]
    estimates_db = []
    first_windows = None
    for _ in range(100):
        noise = sigma * (
            rng.standard_normal((2000, 32)) + 1j * rng.standard_normal((2000, 32))
        )
        windows = signal + noise
        if first_windows is None:
            first_windows = windows
        estimates_db.append(
            linear_to_db(blind_snr_estimate(SampleMatrix(windows)).snr)
        )
    mean_db = float(np.mean(estimates_db))
    base = blind_snr_estimate(SampleMatrix(first_windows)).snr
    scaled = blind_snr_estimate(SampleMatrix(3.7 * first_windows)).snr
    equiv_rel = abs(scaled - base) / base
    ok = abs(mean_db - 34.0) <= 1.0 and equiv_rel <= 1e-12
    print(
        f"[criterion 08] mean blind SNR: {mean_db:.3f} dB (true 34 +/- 1), "
        f"scale equivariance rel err {equiv_rel:.2e} (limit 1e-12) "
        f"-> {_verdict(ok)}"
    )
    assert abs(mean_db - 34.0) <= 1.0, f"mean blind SNR {mean_db} dB"
    assert equiv_rel <= 1e-12, f"scale equivariance violated: {equiv_rel}"


@pytest.mark.slow
def test_criterion_09_size_and_connectivity_trends():
    # 3x3 sweep over array size and connectivity under noise, 40 trials
    # per point and a 100-generation cap: mean EVM must not improve with
    # more nodes nor degrade with more links (within max(0.1 mm, 20%)),
    # and the 15-node 90%-connectivity point must stay above 1 mm.
    # At 6 nodes the 0.9 and 0.95 columns are the same 40 trials:
    # edge_budget(6, 0.9) and edge_budget(6, 0.95) are both 14 links and the
    # trial streams restart per point, so the connectivity-trend check
    # between those two columns compares a point with itself.
    sizes = [6, 10, 15]
    connectivities = [0.9, 0.95, 1.0]
    cfg = ExperimentConfig(
        array_sizes=sizes,
        connectivities=connectivities,
        bandwidths_hz=[40e6],
        trials=40,
        seed=20260815,
    )
    assert cfg.solver.max_generations == 100
    points = _mean_evm_by_point(cfg)
    grid = {
        (n, c): points[(n, c, 40e6)]["mean_final_evm_m"]
        for n in sizes
        for c in connectivities
    }

    def slack(v: float) -> float:
        return max(1e-4, 0.2 * v)

    rows_ok = all(
        grid[(n2, c)] >= grid[(n1, c)] - slack(grid[(n1, c)])
        for c in connectivities
        for n1, n2 in zip(sizes, sizes[1:])
    )
    cols_ok = all(
        grid[(n, c2)] <= grid[(n, c1)] + slack(grid[(n, c1)])
        for n in sizes
        for c1, c2 in zip(connectivities, connectivities[1:])
    )
    headline = [grid[(n, 0.9)] for n in sizes]
    stall = grid[(15, 0.9)]
    stall_ok = stall > 1e-3
    ok = rows_ok and cols_ok and stall_ok
    pretty = {k: f"{v * 1e3:.3f}mm" for k, v in sorted(grid.items())}
    print(
        f"[criterion 09] EVM grid {pretty}; 90%-connectivity column "
        f"{[f'{v * 1e3:.3f}mm' for v in headline]}; size trend ok={rows_ok}, "
        f"connectivity trend ok={cols_ok}, 15-node stall "
        f"{stall * 1e3:.3f} mm > 1 mm: {stall_ok} -> {_verdict(ok)}"
    )
    assert rows_ok, f"EVM decreased with array size beyond slack: {grid}"
    assert cols_ok, f"EVM increased with connectivity beyond slack: {grid}"
    assert stall_ok, f"15-node point converged below 1 mm: {stall}"


def test_criterion_10_deterministic_artifacts(tmp_path):
    # The same sweep config run twice through the CLI must produce all
    # four output files byte for byte.
    cfg = {
        "array_sizes": [6],
        "connectivities": [0.8],
        "bandwidths_hz": [4e7],
        "trials": 8,
        "seed": 99,
        "layout": {"kind": "circle"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    names = ("records.csv", "convergence.csv", "summary.csv", "summary.json")
    outs = []
    for label in ("a", "b"):
        out_dir = tmp_path / label
        proc = subprocess.run(
            [sys.executable, "-m", "arrayloc.cli", "sweep",
             "--config", str(cfg_path), "--out", str(out_dir)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out_dir)
    identical = {
        name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in names
    }
    ok = all(identical.values())
    print(
        f"[criterion 10] repeated sweep artifacts byte-identical: {identical} "
        f"-> {_verdict(ok)}"
    )
    assert ok, f"artifact mismatch: {identical}"
