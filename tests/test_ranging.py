from __future__ import annotations

import math

import numpy as np
import pytest

from arrayloc.constants import SPEED_OF_LIGHT
from arrayloc.geometry import AdjacencyMask, NodeLayout, edm_from_points
from arrayloc.ranging import (
    LinkUnavailableError,
    TimestampQuad,
    apparent_tof,
    build_qls_lut,
    crlb_sigma_d,
    make_scenario,
    matched_filter,
    qls_refine,
    sample_edm_statistical,
    simulate_exchange,
    synth_two_tone,
    two_way_tof,
    write_waveform_csv,
)
from arrayloc.snr import db_to_linear, link_snr_matrix

from conftest import (
    REF_BANDWIDTH_HZ,
    REF_CRLB_SIGMA_M,
    REF_PULSE_S,
    REF_SAMPLE_RATE_HZ,
    REF_SNR_DB,
)


def _frac_delay(samples: np.ndarray, delay: float, out_len: int) -> np.ndarray:
    """Band-limited fractional delay via an FFT phase ramp (test-side oracle)."""
    buf = np.zeros(out_len, dtype=complex)
    buf[: samples.size] = samples
    phase = np.exp(-2j * np.pi * np.fft.fftfreq(out_len) * delay)
    return np.fft.ifft(np.fft.fft(buf) * phase)


def _two_node_layout(distance: float) -> NodeLayout:
    return NodeLayout(np.array([[0.0, distance], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# waveform synthesis
# ---------------------------------------------------------------------------


def test_waveform_reference_length(wave40):
    assert wave40.samples.size == 2000


def test_waveform_unit_rms_flat_region(wave40):
    ramp = round(wave40.rise_fall_s * wave40.sample_rate_hz)
    flat = wave40.samples[ramp:-ramp]
    assert np.sqrt(np.mean(np.abs(flat) ** 2)) == pytest.approx(1.0, rel=1e-12)


def test_waveform_energy_sits_on_two_tones(wave40):
    spectrum = np.abs(np.fft.fft(wave40.samples)) ** 2
    freqs = np.fft.fftfreq(wave40.samples.size, 1.0 / wave40.sample_rate_hz)
    top2 = np.argsort(spectrum)[-2:]
    assert sorted(freqs[top2].tolist()) == pytest.approx([-20e6, 20e6], abs=1e5)
    # those two bins dominate the total energy
    assert spectrum[top2].sum() > 0.95 * spectrum.sum()


def test_waveform_mean_squared_bandwidth(wave40):
    # second spectral moment of a two-tone pulse is (pi * B)^2; the ramps
    # smear it slightly, so 2% slack for tau_p * B = 400
    n = wave40.samples.size
    spectrum = np.abs(np.fft.fft(wave40.samples)) ** 2
    omega = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / wave40.sample_rate_hz)
    msb = float(np.sum(omega**2 * spectrum) / np.sum(spectrum))
    assert msb == pytest.approx((np.pi * wave40.bandwidth_hz) ** 2, rel=0.02)


def test_waveform_zero_separation_flagged():
    with pytest.warns(RuntimeWarning):
        wave = synth_two_tone(0.0, 10e-6, 200e6)
    assert wave.samples.size == 2000


def test_waveform_rejects_bad_parameters():
    with pytest.raises(ValueError):
        synth_two_tone(200e6, 10e-6, 200e6)  # tones outside sampled band
    with pytest.raises(ValueError):
        synth_two_tone(40e6, 10e-6, -1.0)
    with pytest.raises(ValueError):
        synth_two_tone(40e6, 0.1e-6, 200e6, rise_fall_s=50e-9)  # pulse too short


def test_waveform_csv_dump(tmp_path, wave40):
    path = tmp_path / "wave.csv"
    write_waveform_csv(path, wave40)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,q"
    assert len(lines) == 1 + wave40.samples.size
    i0, q0 = (float(v) for v in lines[1].split(","))
    assert i0 + 1j * q0 == pytest.approx(complex(wave40.samples[0]))


# ---------------------------------------------------------------------------
# range-error bound
# ---------------------------------------------------------------------------


def test_crlb_reference_value():
    sigma = crlb_sigma_d(
        REF_BANDWIDTH_HZ, REF_PULSE_S, db_to_linear(REF_SNR_DB), REF_SAMPLE_RATE_HZ
    )
    assert sigma == pytest.approx(REF_CRLB_SIGMA_M, rel=1e-12)
    assert 0.7e-3 < sigma < 0.8e-3


def test_crlb_scalings():
    base = crlb_sigma_d(40e6, 10e-6, 1000.0, 200e6)
    assert crlb_sigma_d(80e6, 10e-6, 1000.0, 200e6) == pytest.approx(base / 2, rel=1e-12)
    assert crlb_sigma_d(40e6, 10e-6, 4000.0, 200e6) == pytest.approx(base / 2, rel=1e-12)


def test_crlb_rejects_non_positive_arguments():
    for args in (
        (0.0, 10e-6, 1000.0, 200e6),
        (40e6, 0.0, 1000.0, 200e6),
        (40e6, 10e-6, 0.0, 200e6),
        (40e6, 10e-6, 1000.0, 0.0),
    ):
        with pytest.raises(ValueError):
            crlb_sigma_d(*args)


# ---------------------------------------------------------------------------
# matched filter and peak refinement
# ---------------------------------------------------------------------------


def test_matched_filter_integer_delay(wave40):
    tx = wave40.samples
    rx = np.concatenate([np.zeros(7, dtype=complex), tx, np.zeros(5, dtype=complex)])
    corr = matched_filter(rx, tx)
    assert int(np.argmax(np.abs(corr))) == 7


def test_matched_filter_noise_floor(wave40, rng):
    tx = wave40.samples
    rx = np.concatenate([np.zeros(7, dtype=complex), tx, np.zeros(5, dtype=complex)])
    matched_peak = np.abs(matched_filter(rx, tx)).max()
    noise = rng.standard_normal(rx.size) + 1j * rng.standard_normal(rx.size)
    noise_peak = np.abs(matched_filter(noise, tx)).max()
    assert noise_peak < 0.2 * matched_peak


def test_matched_filter_fractional_delay_at_34db(wave40, rng):
    tx = wave40.samples
    snr = db_to_linear(REF_SNR_DB)
    sigma = math.sqrt(0.5 / snr)
    out_len = tx.size + 20
    rx = _frac_delay(tx, 7.3, out_len)
    rx = rx + sigma * (rng.standard_normal(out_len) + 1j * rng.standard_normal(out_len))
    peak = int(np.argmax(np.abs(matched_filter(rx, tx))))
    assert peak in (7, 8)


def test_matched_filter_input_validation(wave40):
    with pytest.raises(ValueError):
        matched_filter(np.zeros(0), wave40.samples)
    with pytest.raises(ValueError):
        matched_filter(wave40.samples, np.zeros(0))
    with pytest.raises(ValueError):
        matched_filter(wave40.samples[:10], wave40.samples)


def test_qls_symmetric_neighbourhood_gives_zero_offset():
    corr = np.array([0.2, 0.5, 1.0, 0.5, 0.2])
    assert qls_refine(corr, 2) == pytest.approx(2.0, abs=1e-15)


def test_qls_peak_on_boundary_rejected():
    corr = np.array([1.0, 0.5, 0.2])
    with pytest.raises(ValueError):
        qls_refine(corr, 0)
    with pytest.raises(ValueError):
        qls_refine(corr, 2)


def test_lut_correction_vanishes_at_zero(lut40):
    assert abs(lut40.correction_at(0.0)) < 1e-6


def test_lut_antisymmetry(lut40):
    scale = np.abs(lut40.corrections).max()
    probe = np.linspace(0.0, 0.9 * lut40.raw_offsets.max(), 25)
    for f in probe:
        assert abs(lut40.correction_at(f) + lut40.correction_at(-f)) <= 0.05 * scale + 1e-9


def test_lut_oversampling_ratio(wave40, lut40):
    assert lut40.oversampling_ratio == pytest.approx(
        wave40.sample_rate_hz / wave40.bandwidth_hz
    )


def test_lut_grid_too_coarse_rejected(wave40):
    with pytest.raises(ValueError):
        build_qls_lut(wave40, grid_points=4)


def test_lut_removes_interpolation_bias(wave40, lut40):
    # held-out fractional delays, offset from the 64-point calibration grid
    tx = wave40.samples
    base = 16
    out_len = tx.size + 2 * base
    raw_errs, lut_errs = [], []
    for frac in np.linspace(-0.47, 0.47, 41):
        true_delay = base + frac
        corr = matched_filter(_frac_delay(tx, true_delay, out_len), tx)
        peak = int(np.argmax(np.abs(corr)))
        raw_errs.append(qls_refine(corr, peak) - true_delay)
        lut_errs.append(qls_refine(corr, peak, lut40) - true_delay)
    raw_max = np.abs(raw_errs).max()
    lut_max = np.abs(lut_errs).max()
    assert lut_max < 0.01  # samples
    assert raw_max >= 10.0 * lut_max


def test_qls_delay_std_tracks_the_bound(wave40, lut40, rng):
    # 1000 noisy receptions at the reference SNR; the refined delay spread
    # should sit between the bound and twice the bound (in samples)
    tx = wave40.samples
    snr = db_to_linear(REF_SNR_DB)
    noise_sigma = math.sqrt(0.5 / snr)
    base = 16
    out_len = tx.size + 2 * base
    bound_samples = (
        crlb_sigma_d(
            wave40.bandwidth_hz, wave40.pulse_s, snr, wave40.sample_rate_hz
        )
        / SPEED_OF_LIGHT
        * wave40.sample_rate_hz
    )
    errors = np.empty(1000)
    for k in range(errors.size):
        true_delay = base + rng.uniform(-0.5, 0.5)
        rx = _frac_delay(tx, true_delay, out_len)
        rx = rx + noise_sigma * (
            rng.standard_normal(out_len) + 1j * rng.standard_normal(out_len)
        )
        corr = matched_filter(rx, tx)
        peak = int(np.argmax(np.abs(corr)))
        errors[k] = qls_refine(corr, peak, lut40) - true_delay
    std = errors.std(ddof=1)
    assert 0.5 * bound_samples <= std <= 2.0 * bound_samples


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------


def test_apparent_tof_is_a_difference():
    assert apparent_tof(0.0, 7e-9) == pytest.approx(7e-9)


def test_apparent_tof_carries_clock_bias():
    # true flight 5 ns, receiver clock 2 ns ahead: forward leg reads 7 ns,
    # reverse leg reads 3 ns
    eps_j = 2e-9
    tof = 5e-9
    assert apparent_tof(0.0, tof + eps_j) == pytest.approx(7e-9)
    t_tx_j_local = 100e-9
    t_rx_i_local = (t_tx_j_local - eps_j) + tof
    assert apparent_tof(t_tx_j_local, t_rx_i_local) == pytest.approx(3e-9)


def test_two_way_tof_hand_worked_quad():
    quad = TimestampQuad(tx_i_s=0.0, rx_j_s=7e-9, tx_j_s=100e-9, rx_i_s=103e-9)
    assert two_way_tof(quad) == pytest.approx(5e-9, abs=1e-18)


def test_two_way_tof_zero_offsets_identity():
    tof = 3.7e-9
    quad = TimestampQuad(0.0, tof, 50e-6, 50e-6 + tof)
    assert two_way_tof(quad) == pytest.approx(tof, abs=1e-18)


def test_two_way_tof_shift_invariance(rng):
    quad = TimestampQuad(tx_i_s=0.0, rx_j_s=7e-9, tx_j_s=100e-9, rx_i_s=103e-9)
    for shift in rng.uniform(-1e-3, 1e-3, size=5):
        shifted = TimestampQuad(
            quad.tx_i_s, quad.rx_j_s + shift, quad.tx_j_s + shift, quad.rx_i_s
        )
        assert two_way_tof(shifted) == pytest.approx(two_way_tof(quad), abs=1e-18)


# ---------------------------------------------------------------------------
# full signal-level exchanges
# ---------------------------------------------------------------------------


def test_exchange_noiseless_recovers_distance(wave40, lut40, rng):
    d = 1.234
    scenario = make_scenario(_two_node_layout(d), wave40)
    quad = simulate_exchange(scenario, 0, 1, rng)
    assert abs(two_way_tof(quad) * SPEED_OF_LIGHT - d) < 1e-4


def test_exchange_cancels_clock_offsets(wave40, lut40, rng):
    d = 2.1
    fs = wave40.sample_rate_hz
    for _ in range(5):
        offsets = rng.uniform(-1e-3, 1e-3, size=2)
        scenario = make_scenario(_two_node_layout(d), wave40, clock_offsets_s=offsets)
        quad = simulate_exchange(scenario, 0, 1, rng)
        err_samples = abs(two_way_tof(quad) - d / SPEED_OF_LIGHT) * fs
        assert err_samples < 0.01


def test_exchange_calibration_removes_hardware_delay(wave40, lut40):
    d = 1.7
    delay = np.full((2, 2), 10e-9)
    base = simulate_exchange(
        make_scenario(_two_node_layout(d), wave40), 0, 1, np.random.default_rng(5)
    )
    calibrated = simulate_exchange(
        make_scenario(
            _two_node_layout(d), wave40, hardware_delay_s=delay, calibration_s=delay
        ),
        0,
        1,
        np.random.default_rng(5),
    )
    assert abs(two_way_tof(calibrated) - two_way_tof(base)) < 1e-12


def test_exchange_range_std_within_twice_the_bound(wave40, lut40):
    # randomized distances keep the fractional delay moving, so the sample
    # std measures the estimator, not one interpolation cell
    rng = np.random.default_rng(21)
    snr = db_to_linear(REF_SNR_DB)
    errors = []
    layout = _two_node_layout(1.0)
    scenario = make_scenario(layout, wave40, snr_h_linear=snr)
    for _ in range(250):
        d = rng.uniform(0.5, 2.5)
        scenario.layout.coords[0, 1] = d
        quad = simulate_exchange(scenario, 0, 1, rng)
        errors.append(two_way_tof(quad) * SPEED_OF_LIGHT - d)
    std = np.std(errors, ddof=1)
    assert 0.3 * REF_CRLB_SIGMA_M <= std <= 2.0 * REF_CRLB_SIGMA_M


def test_exchange_rejects_masked_link(wave40, lut40, rng):
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    layout = NodeLayout(np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0]]))
    scenario = make_scenario(layout, wave40, mask=AdjacencyMask(adj))
    with pytest.raises(LinkUnavailableError):
        simulate_exchange(scenario, 2, 3, rng)


def test_exchange_rejects_bad_node_indices(wave40, lut40, rng):
    scenario = make_scenario(_two_node_layout(1.0), wave40)
    with pytest.raises(ValueError):
        simulate_exchange(scenario, 0, 0, rng)
    with pytest.raises(ValueError):
        simulate_exchange(scenario, 0, 2, rng)


def test_scenario_validates_shapes(wave40):
    with pytest.raises(ValueError):
        make_scenario(_two_node_layout(1.0), wave40, clock_offsets_s=np.zeros(3))
    with pytest.raises(ValueError):
        make_scenario(_two_node_layout(1.0), wave40, hardware_delay_s=np.zeros((3, 3)))


def test_signal_vs_statistical_bandwidth_law(wave40, rng):
    # halving the tone separation should double the per-leg error spread
    wave20 = synth_two_tone(20e6, REF_PULSE_S, REF_SAMPLE_RATE_HZ)
    snr = db_to_linear(REF_SNR_DB)
    stds = []
    for wave in (wave40, wave20):
        sim_rng = np.random.default_rng(99)
        scenario = make_scenario(_two_node_layout(1.0), wave, snr_h_linear=snr)
        legs = []
        for _ in range(500):
            d = sim_rng.uniform(0.5, 2.5)
            scenario.layout.coords[0, 1] = d
            quad = simulate_exchange(scenario, 0, 1, sim_rng)
            tof = d / SPEED_OF_LIGHT
            legs.append(apparent_tof(quad.tx_i_s, quad.rx_j_s) - tof)
            legs.append(apparent_tof(quad.tx_j_s, quad.rx_i_s) - tof)
        stds.append(np.std(legs, ddof=1))
    assert stds[1] / stds[0] == pytest.approx(2.0, rel=0.10)


# ---------------------------------------------------------------------------
# statistical ranging model
# ---------------------------------------------------------------------------


def test_statistical_noiseless_limit_is_exact(wave40, rng):
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    mask = AdjacencyMask.complete(6)
    sampled = sample_edm_statistical(layout, mask, np.inf, wave40, rng)
    assert np.allclose(sampled.entries, edm_from_points(layout).entries, atol=0.0)


def test_statistical_per_link_sigma(wave40):
    # regular hexagon of radius 2 m: dbar^2 = 9.6 m^2, so the 4 m link runs
    # at snr_h * 9.6/16 and its range noise is 0.9716 mm
    angles = 2.0 * np.pi * np.arange(6) / 6
    layout = NodeLayout(np.vstack([2.0 * np.cos(angles), 2.0 * np.sin(angles)]))
    mask = AdjacencyMask.complete(6)
    snr_h = db_to_linear(REF_SNR_DB)
    expected_sigma = 9.716396257611673e-4
    rng = np.random.default_rng(7)
    draws = np.empty(10_000)
    for k in range(draws.size):
        sampled = sample_edm_statistical(layout, mask, snr_h, wave40, rng)
        draws[k] = math.sqrt(sampled.entries[0, 3]) - 4.0
    assert np.std(draws, ddof=1) == pytest.approx(expected_sigma, rel=0.03)
    assert abs(np.mean(draws)) < 3.0 * expected_sigma / math.sqrt(draws.size)


def test_statistical_draws_follow_the_link_snr_model(wave40):
    # on a complete mask every squared range is (d + sigma * z)^2, bit for
    # bit, with sigma at the SNR link_snr_matrix gives that link.  sigma is
    # proportional to d; at -16 dB it is about d / 4, large enough that a
    # last-bit change in the SNR reaches the sum, and no draw goes negative.
    snr_h = db_to_linear(-16.0)
    for seed in range(20):
        n = 6 + seed % 10
        layout = NodeLayout(np.random.default_rng(seed).uniform(0, 5, size=(2, n)))
        full = edm_from_points(layout)
        iu = np.triu_indices(n, 1)
        sigma = crlb_sigma_d(
            wave40.bandwidth_hz,
            wave40.pulse_s,
            link_snr_matrix(full, snr_h)[iu],
            wave40.sample_rate_hz,
        )
        z = np.random.default_rng(100 + seed).standard_normal(iu[0].size)
        expected = (np.sqrt(full.entries[iu]) + sigma * z) ** 2
        sampled = sample_edm_statistical(
            layout, AdjacencyMask.complete(n), snr_h, wave40,
            np.random.default_rng(100 + seed),
        )
        assert np.array_equal(sampled.entries[iu], expected)


def test_statistical_respects_mask(wave40, rng):
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 5)))
    adj = ~np.eye(5, dtype=bool)
    adj[0, 4] = adj[4, 0] = False
    mask = AdjacencyMask(adj)
    sampled = sample_edm_statistical(layout, mask, db_to_linear(34.0), wave40, rng)
    assert sampled.entries[0, 4] == 0.0
    assert not sampled.is_complete
    assert sampled.observed.missing_pairs() == [(0, 4)]


def test_statistical_bandwidth_law_is_exact(wave40):
    # same seed means the same standard normals, so range errors scale by
    # exactly the bound ratio
    wave20 = synth_two_tone(20e6, REF_PULSE_S, REF_SAMPLE_RATE_HZ)
    layout = NodeLayout(np.random.default_rng(3).uniform(0, 5, size=(2, 6)))
    mask = AdjacencyMask.complete(6)
    truth = np.sqrt(edm_from_points(layout).entries)
    snr_h = db_to_linear(REF_SNR_DB)
    err40 = (
        np.sqrt(
            sample_edm_statistical(
                layout, mask, snr_h, wave40, np.random.default_rng(11)
            ).entries
        )
        - truth
    )
    err20 = (
        np.sqrt(
            sample_edm_statistical(
                layout, mask, snr_h, wave20, np.random.default_rng(11)
            ).entries
        )
        - truth
    )
    iu = np.triu_indices(6, 1)
    assert np.allclose(err20[iu], 2.0 * err40[iu], rtol=1e-9, atol=1e-15)


def test_statistical_clamps_negative_ranges(wave40):
    # absurdly low SNR makes draws overwhelmingly negative; with 28 links
    # at least one stays negative after its single redraw and gets clamped
    rng = np.random.default_rng(0)
    layout = NodeLayout(0.01 * rng.uniform(0.5, 1.0, size=(2, 8)))
    mask = AdjacencyMask.complete(8)
    with pytest.warns(RuntimeWarning):
        sampled = sample_edm_statistical(layout, mask, 1e-12, wave40, rng)
    assert np.all(sampled.entries >= 0.0)


def test_statistical_rejects_bad_inputs(wave40, rng):
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    with pytest.raises(ValueError):
        sample_edm_statistical(layout, AdjacencyMask.complete(5), 1.0, wave40, rng)
    with pytest.raises(ValueError):
        sample_edm_statistical(layout, AdjacencyMask.complete(6), 0.0, wave40, rng)
