from __future__ import annotations

import math

import numpy as np
import pytest

from arrayloc.geometry import AdjacencyMask, Edm, NodeLayout, edm_from_points, mask_edm
from arrayloc.snr import (
    SampleMatrix,
    blind_snr_estimate,
    db_to_linear,
    linear_to_db,
    link_snr_matrix,
    read_sample_matrix_csv,
    write_sample_matrix_csv,
)


def _injected_windows(
    signal: np.ndarray, snr_linear: float, n_windows: int, rng: np.random.Generator
) -> SampleMatrix:
    """Coherent signal copies plus complex white noise at the requested SNR."""
    n = signal.size
    p_sig = float(np.mean(np.abs(signal) ** 2))
    sigma = np.sqrt(0.5 * p_sig / snr_linear)
    noise = sigma * (
        rng.standard_normal((n, n_windows)) + 1j * rng.standard_normal((n, n_windows))
    )
    return SampleMatrix(signal[:, None] + noise)


def test_db_conversions():
    assert db_to_linear(34.0) == pytest.approx(10**3.4, rel=1e-14)
    assert linear_to_db(db_to_linear(-7.3)) == pytest.approx(-7.3, abs=1e-12)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


def _line_edm(*xs: float) -> Edm:
    """Squared distances of nodes at positions ``xs`` (m) along a line."""
    return edm_from_points(NodeLayout(np.array([xs, [0.0] * len(xs)])))


def test_link_snr_identity_at_characteristic_distance():
    # two nodes 2 m apart: the one link sits at dbar^2 = 4 m^2
    snrs = link_snr_matrix(_line_edm(0.0, 2.0), 100.0)
    assert snrs[0, 1] == pytest.approx(100.0, rel=1e-14)
    assert np.isinf(snrs[0, 0]) and np.isinf(snrs[1, 1])


def test_link_snr_inverse_square():
    # nodes at 0, 1 and 2 m: a 1 m link gets four times a 2 m link's SNR
    snrs = link_snr_matrix(_line_edm(0.0, 1.0, 2.0), 100.0)
    assert snrs[0, 1] == pytest.approx(4.0 * snrs[0, 2], rel=1e-14)


def test_link_snr_hand_value_in_db():
    # snr_h 34 dB, dbar^2 = (1 + 5.5 + 5.5) / 3 = 4 m^2, d = 1 m:
    # 34 dB + 10 log10(4) = 40.02 dB
    edm = Edm(np.array([[0.0, 1.0, 5.5], [1.0, 0.0, 5.5], [5.5, 5.5, 0.0]]))
    snrs = link_snr_matrix(edm, db_to_linear(34.0))
    assert linear_to_db(snrs[0, 1]) == pytest.approx(40.0206, abs=1e-3)


def test_link_snr_rejects_zero_distance():
    # coincident nodes leave no mean squared distance to anchor the model
    for n in (2, 3):
        with pytest.raises(ValueError, match="mean squared distance"):
            link_snr_matrix(Edm(np.zeros((n, n))), 1.0)


def test_model_validation():
    edm = _line_edm(0.0, 1.0, 2.0)
    for snr_h in (0.0, -1.0):
        with pytest.raises(ValueError, match="harmonic-mean SNR"):
            link_snr_matrix(edm, snr_h)
    adj = ~np.eye(3, dtype=bool)
    adj[0, 2] = adj[2, 0] = False
    with pytest.raises(ValueError, match="full distance matrix"):
        link_snr_matrix(mask_edm(edm, AdjacencyMask(adj)), 1.0)
    with pytest.raises(ValueError, match="two nodes"):
        link_snr_matrix(_line_edm(0.0), 1.0)


def test_harmonic_mean_hand_values():
    # unit right isosceles triangle: d^2 = 1, 1, 2 and dbar^2 = 4/3, so
    # snr_h = 10 gives 40/3, 40/3 and 20/3, whose harmonic mean is 10
    edm = edm_from_points(NodeLayout(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])))
    snrs = link_snr_matrix(edm, 10.0)[np.triu_indices(3, 1)]
    assert snrs == pytest.approx([40.0 / 3, 40.0 / 3, 20.0 / 3], rel=1e-14)
    assert snrs.size / np.sum(1.0 / snrs) == pytest.approx(10.0, rel=1e-14)


def test_harmonic_mean_closure_over_any_layout(rng):
    # the inverse-square model is anchored so that the harmonic mean over
    # all links returns snr_h identically
    for _ in range(10):
        n = int(rng.integers(3, 12))
        edm = edm_from_points(NodeLayout(rng.uniform(-4, 4, size=(2, n))))
        snrs = link_snr_matrix(edm, snr_h=db_to_linear(34.0))
        links = snrs[np.triu_indices(n, 1)]
        assert links.size / np.sum(1.0 / links) == pytest.approx(
            db_to_linear(34.0), rel=1e-12
        )


def test_model_from_edm_mean_square_distance(rng):
    # every link's SNR times its squared distance is snr_h * dbar^2
    layout = NodeLayout(rng.uniform(0, 3, size=(2, 5)))
    edm = edm_from_points(layout)
    iu = np.triu_indices(5, 1)
    anchored = link_snr_matrix(edm, 50.0)[iu] * edm.entries[iu] / 50.0
    assert anchored == pytest.approx(np.full(10, edm.entries[iu].mean()), rel=1e-14)


def test_blind_estimate_rank_one_limit(wave40):
    # identical noise-free windows: all power lands in the first eigenvalue
    windows = SampleMatrix(np.tile(wave40.samples[:, None], (1, 8)))
    estimate = blind_snr_estimate(windows)
    p_sig = float(np.mean(np.abs(wave40.samples) ** 2))
    assert estimate.signal_power == pytest.approx(p_sig, rel=1e-9)
    assert abs(estimate.noise_power) < 1e-12 * estimate.signal_power
    assert estimate.snr == math.inf


def test_blind_estimate_pure_noise(rng):
    noise = np.sqrt(0.5) * (
        rng.standard_normal((2000, 32)) + 1j * rng.standard_normal((2000, 32))
    )
    estimate = blind_snr_estimate(SampleMatrix(noise))
    assert estimate.noise_power == pytest.approx(1.0, rel=0.10)
    assert estimate.snr < 0.05


def test_blind_estimate_34db_injection(wave40):
    rng = np.random.default_rng(42)
    truth = db_to_linear(34.0)
    estimates = [
        linear_to_db(
            blind_snr_estimate(_injected_windows(wave40.samples, truth, 32, rng)).snr
        )
        for _ in range(10)
    ]
    assert np.mean(estimates) == pytest.approx(34.0, abs=1.0)


def test_blind_estimate_scale_equivariance(wave40):
    rng = np.random.default_rng(2)
    windows = _injected_windows(wave40.samples, db_to_linear(34.0), 32, rng)
    base = blind_snr_estimate(windows)
    scaled = blind_snr_estimate(SampleMatrix(3.7 * windows.windows))
    assert scaled.signal_power == pytest.approx(3.7**2 * base.signal_power, rel=1e-11)
    assert scaled.noise_power == pytest.approx(3.7**2 * base.noise_power, rel=1e-11)
    assert scaled.snr == pytest.approx(base.snr, rel=1e-11)


def test_blind_noise_power_ignores_signal_power(wave40):
    # noise eigenvalues separate from the rank-1 signal eigenvalue, so the
    # noise estimate should not move when the signal gets 100x stronger
    rng = np.random.default_rng(8)
    n = wave40.samples.size
    noise = np.sqrt(0.5) * (
        rng.standard_normal((n, 32)) + 1j * rng.standard_normal((n, 32))
    )
    weak = blind_snr_estimate(SampleMatrix(wave40.samples[:, None] + noise))
    strong = blind_snr_estimate(SampleMatrix(10.0 * wave40.samples[:, None] + noise))
    assert weak.noise_power == pytest.approx(1.0, rel=0.10)
    assert strong.noise_power == pytest.approx(weak.noise_power, rel=0.05)


def test_sample_matrix_needs_two_windows():
    with pytest.raises(ValueError):
        SampleMatrix(np.zeros((100, 1), dtype=complex))
    with pytest.raises(ValueError):
        SampleMatrix(np.zeros(100, dtype=complex))


def test_sample_matrix_csv_roundtrip(tmp_path, rng):
    windows = SampleMatrix(
        rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    )
    path = tmp_path / "samples.csv"
    write_sample_matrix_csv(path, windows)
    header = path.read_text().splitlines()[0]
    assert header.startswith("w0_i,w0_q,w1_i,w1_q")
    back = read_sample_matrix_csv(path)
    assert np.array_equal(back.windows, windows.windows)
