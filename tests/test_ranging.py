from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from arrayloc import harness, ranging
from arrayloc.constants import SPEED_OF_LIGHT
from arrayloc.geometry import AdjacencyMask, NodeLayout, edm_from_points
from arrayloc.ranging import (
    _BLOCK_ROWS,
    RangingScenario,
    TimestampQuad,
    apparent_tof,
    build_qls_lut,
    crlb_sigma_d,
    _correlate,
    _fast_len,
    _parabola_vertex,
    _receive,
    make_scenario,
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
    """Band-limited fractional delay via an FFT phase ramp (test-side oracle).

    The per-leg delay of the receive path before the block core, bit for bit.
    """
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
        (np.nan, 10e-6, 1000.0, 200e6),
        (40e6, np.nan, 1000.0, 200e6),
        (40e6, 10e-6, np.nan, 200e6),
        (40e6, 10e-6, 1000.0, np.nan),
        (np.inf, 10e-6, 1000.0, 200e6),
        (40e6, np.inf, 1000.0, 200e6),
        (40e6, 10e-6, 1000.0, np.inf),
        (40e6, 10e-6, np.array([1000.0, np.nan]), 200e6),
        # bounds out of floating-point range: infinite, 0 at a finite SNR,
        # and 0 times an infinite SNR
        (1e-300, 10e-6, 1000.0, 200e6),
        (40e6, 10e-6, np.array([1000.0, 1e300]), 1e200),
        (1e-300, 10e-6, np.inf, 200e6),
    ):
        with pytest.raises(ValueError):
            crlb_sigma_d(*args)
    # coincident nodes have infinite link SNR, which is no error
    assert crlb_sigma_d(40e6, 10e-6, np.inf, 200e6) == 0.0


# ---------------------------------------------------------------------------
# matched filter and peak refinement
# ---------------------------------------------------------------------------


def _matched_filter(rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """The receive core's correlation of one window."""
    return _correlate(rx[None], tx)[0]


def test_matched_filter_integer_delay(wave40):
    tx = wave40.samples
    rx = np.concatenate([np.zeros(7, dtype=complex), tx, np.zeros(5, dtype=complex)])
    corr = _matched_filter(rx, tx)
    assert int(np.argmax(np.abs(corr))) == 7


def test_matched_filter_noise_floor(wave40, rng):
    tx = wave40.samples
    rx = np.concatenate([np.zeros(7, dtype=complex), tx, np.zeros(5, dtype=complex)])
    matched_peak = np.abs(_matched_filter(rx, tx)).max()
    noise = rng.standard_normal(rx.size) + 1j * rng.standard_normal(rx.size)
    noise_peak = np.abs(_matched_filter(noise, tx)).max()
    assert noise_peak < 0.2 * matched_peak


def test_matched_filter_fractional_delay_at_34db(wave40, rng):
    tx = wave40.samples
    snr = db_to_linear(REF_SNR_DB)
    sigma = math.sqrt(0.5 / snr)
    out_len = tx.size + 20
    rx = _frac_delay(tx, 7.3, out_len)
    rx = rx + sigma * (rng.standard_normal(out_len) + 1j * rng.standard_normal(out_len))
    peak = int(np.argmax(np.abs(_matched_filter(rx, tx))))
    assert peak in (7, 8)


def test_qls_symmetric_neighbourhood_gives_zero_offset():
    mag = np.array([[0.2, 0.5, 1.0, 0.5, 0.2]])
    assert 2 + _parabola_vertex(mag, np.array([2]))[0] == pytest.approx(2.0, abs=1e-15)


def test_qls_peak_on_boundary_rejected():
    mag = np.array([[1.0, 0.5, 0.2]])
    with pytest.raises(ValueError):
        _parabola_vertex(mag, np.array([0]))
    with pytest.raises(ValueError):
        _parabola_vertex(mag, np.array([2]))


def test_lut_correction_vanishes_at_zero(lut40):
    assert abs(lut40.correction_at(0.0)) < 1e-6


def test_lut_antisymmetry(lut40):
    scale = np.abs(lut40.corrections).max()
    probe = np.linspace(0.0, 0.9 * lut40.raw_offsets.max(), 25)
    for f in probe:
        assert abs(lut40.correction_at(f) + lut40.correction_at(-f)) <= 0.05 * scale + 1e-9


def test_lut_removes_interpolation_bias(wave40, lut40):
    # held-out fractional delays, offset from the 64-point calibration grid
    tx = wave40.samples
    base = 16
    true_delays = base + np.linspace(-0.47, 0.47, 41)
    peak, vertex = _receive(tx, true_delays, tx.size + 2 * base)
    raw_errs = peak + vertex - true_delays
    lut_errs = peak + vertex + lut40.correction_at(vertex) - true_delays
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
    true_delays = np.empty(1000)
    noise = np.empty((true_delays.size, out_len), dtype=complex)
    for k in range(true_delays.size):
        true_delays[k] = base + rng.uniform(-0.5, 0.5)
        noise[k] = noise_sigma * (
            rng.standard_normal(out_len) + 1j * rng.standard_normal(out_len)
        )
    peak, vertex = _receive(tx, true_delays, out_len, noise)
    errors = peak + vertex + lut40.correction_at(vertex) - true_delays
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
        make_scenario(_two_node_layout(1.0), wave40, clock_offsets_s=np.zeros(1))
    with pytest.raises(ValueError, match="link_snrs"):
        RangingScenario(
            _two_node_layout(1.0), np.zeros(2), wave40, link_snrs=np.ones((3, 3))
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scenario_rejects_non_finite_clock_offsets(wave40, bad):
    with pytest.raises(ValueError, match="finite"):
        make_scenario(_two_node_layout(1.0), wave40, clock_offsets_s=[0.0, bad])


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
# the block receive core against the per-leg path it replaced
# ---------------------------------------------------------------------------
# The _oracle_* functions copy the receive path as it was before ranging
# moved to row blocks: one delay, one correlation and one peak per leg, one
# exchange per pair, and the harness's pair loop.  The block core must give
# the same bits.


def _oracle_vertex(ym1, y0, yp1):
    denom = 2.0 * (2.0 * y0 - yp1 - ym1)
    if denom == 0.0:
        return 0.0
    return (yp1 - ym1) / denom


def _oracle_peak(rx, tx):
    mag = np.abs(sp_signal.correlate(rx, tx, mode="valid", method="fft"))
    peak = int(np.argmax(mag))
    return peak, _oracle_vertex(mag[peak - 1], mag[peak], mag[peak + 1])


def _oracle_lut(waveform, grid_points=64):
    tx = waveform.samples
    base = 16
    out_len = tx.size + 2 * base
    raw = np.empty(grid_points)
    corrections = np.empty(grid_points)
    fracs = -0.5 + (np.arange(grid_points) + 0.5) / grid_points
    for k, frac in enumerate(fracs):
        peak, vertex = _oracle_peak(_frac_delay(tx, base + frac, out_len), tx)
        raw[k] = (peak - base) + vertex
        corrections[k] = (base + frac) - (peak + vertex)
    order = np.argsort(raw, kind="stable")
    return raw[order], corrections[order]


_ORACLE_LUTS: dict[float, tuple] = {}


def _oracle_receive_leg(scenario, sender, receiver, t_tx_local, tof_s, rng):
    waveform = scenario.waveform
    if waveform.bandwidth_hz not in _ORACLE_LUTS:
        _ORACLE_LUTS[waveform.bandwidth_hz] = _oracle_lut(waveform)
    fs = waveform.sample_rate_hz
    tx = waveform.samples
    t_tx_true = t_tx_local - scenario.clock_offsets_s[sender]
    t_arrival_local = (t_tx_true + tof_s) + scenario.clock_offsets_s[receiver]
    start_idx = math.floor(t_arrival_local * fs) - 8  # capture margin, samples
    delay_samples = t_arrival_local * fs - start_idx
    out_len = tx.size + 8 + 24
    rx = _frac_delay(tx, delay_samples, out_len)
    if scenario.link_snrs is not None:
        snr = scenario.link_snrs[sender, receiver]
        if np.isfinite(snr):
            sigma = math.sqrt(0.5 / snr)
            rx = rx + sigma * (
                rng.standard_normal(out_len) + 1j * rng.standard_normal(out_len)
            )
    peak, vertex = _oracle_peak(rx, tx)
    correction = float(np.interp(vertex, *_ORACLE_LUTS[waveform.bandwidth_hz]))
    est_delay = float(peak + vertex + correction)
    return (start_idx + est_delay) * (1.0 / fs)  # one tick per sample


def _oracle_exchange(scenario, i, j, rng):
    x = scenario.layout.coords
    tof = float(np.linalg.norm(x[:, i] - x[:, j])) / SPEED_OF_LIGHT
    tick = 1.0 / scenario.waveform.sample_rate_hz
    t_tx_i = int(rng.integers(0, 200_000)) * tick
    rx_j = _oracle_receive_leg(scenario, i, j, t_tx_i, tof, rng)
    t_tx_j = math.ceil((rx_j + 50e-6) / tick) * tick  # 50 us turnaround
    rx_i = _oracle_receive_leg(scenario, j, i, t_tx_j, tof, rng)
    return TimestampQuad(tx_i_s=t_tx_i, rx_j_s=rx_j, tx_j_s=t_tx_j, rx_i_s=rx_i)


def _oracle_signal_level_edm(layout, mask, snr_h_linear, waveform, rng):
    n = layout.count
    offsets = rng.uniform(-5e-4, 5e-4, size=n)
    scenario = make_scenario(
        layout, waveform, snr_h_linear=snr_h_linear, clock_offsets_s=offsets
    )
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if not mask.mask[i, j]:
                continue
            quad = _oracle_exchange(scenario, i, j, rng)
            est = max(0.0, SPEED_OF_LIGHT * two_way_tof(quad))
            entries[i, j] = entries[j, i] = est**2
    return entries


def _fields(quad: TimestampQuad) -> np.ndarray:
    return np.array([quad.tx_i_s, quad.rx_j_s, quad.tx_j_s, quad.rx_i_s])


def _wave(bandwidth_hz: float):
    return synth_two_tone(bandwidth_hz, REF_PULSE_S, REF_SAMPLE_RATE_HZ)


def _random_mask(n: int, c: float, rng: np.random.Generator) -> AdjacencyMask:
    """Any symmetric mask with about c of the pairs; ranging needs no rigidity."""
    rows, cols = np.triu_indices(n, 1)
    pick = rng.choice(rows.size, size=max(1, round(c * rows.size)), replace=False)
    adj = np.zeros((n, n), dtype=bool)
    adj[rows[pick], cols[pick]] = True
    return AdjacencyMask(adj | adj.T)


@pytest.mark.parametrize(
    "n, c, snr_db, bandwidth_hz",
    [
        (3, 1.0, 34.0, 40e6),
        (3, 0.5, 10.0, 20e6),
        (4, 0.5, 10.0, 40e6),
        (5, 0.7, None, 20e6),
        (6, 0.8, 34.0, 10e6),
        (7, 0.6, 10.0, 20e6),
        (8, 0.8, 34.0, 40e6),
        (8, 1.0, 10.0, 10e6),
        (8, 0.5, None, 40e6),
    ],
)
def test_signal_level_edm_matches_the_per_pair_oracle(n, c, snr_db, bandwidth_hz):
    setup = np.random.default_rng(1000 + 10 * n + round(10 * c))
    layout = NodeLayout(setup.uniform(0.0, 5.0, size=(2, n)))
    mask = _random_mask(n, c, setup)
    snr_h = None if snr_db is None else db_to_linear(snr_db)
    waveform = _wave(bandwidth_hz)
    got = harness._signal_level_edm(
        layout, mask, snr_h, waveform, np.random.default_rng(n)
    )
    want = _oracle_signal_level_edm(
        layout, mask, snr_h, waveform, np.random.default_rng(n)
    )
    assert np.array_equal(got.entries, want)


def test_signal_level_edm_squares_ranges_like_the_pair_loop(monkeypatch, wave40):
    # Scalar ** is libm pow, which differs from an array's x*x in the last
    # bit for about one range in 1200: feed only such ranges, so the
    # entries must come out as the pair loop's est**2, not as a square.
    candidates = np.random.default_rng(0).uniform(1e-9, 2e-8, size=200_000)
    ranges = SPEED_OF_LIGHT * candidates
    differ = candidates[[r**2 != r * r for r in ranges.tolist()]][:28]
    assert differ.size == 28

    def fake_exchange(scenario, i, j, rng):
        tof = differ[: np.size(i)]
        return TimestampQuad(np.zeros_like(tof), tof, np.zeros_like(tof), tof)

    monkeypatch.setattr(harness, "simulate_exchange", fake_exchange)
    layout = NodeLayout(np.random.default_rng(1).uniform(0.0, 5.0, size=(2, 8)))
    edm = harness._signal_level_edm(
        layout, AdjacencyMask.complete(8), None, wave40, np.random.default_rng(2)
    )
    iu = np.triu_indices(8, 1)
    assert edm.entries[iu].tolist() == [
        max(0.0, SPEED_OF_LIGHT * t) ** 2 for t in differ
    ]


@pytest.mark.parametrize("pairs", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 22])
@pytest.mark.parametrize("snr_db", [34.0, 10.0])
def test_exchange_arrays_match_the_per_pair_oracle(wave40, pairs, snr_db):
    # clock offsets on every node, some links without finite SNR (no noise
    # on those legs), pairs in both orientations and repeated pairs
    n = 8
    setup = np.random.default_rng(pairs)
    layout = NodeLayout(setup.uniform(0.0, 5.0, size=(2, n)))
    scenario = make_scenario(
        layout,
        wave40,
        snr_h_linear=db_to_linear(snr_db),
        clock_offsets_s=setup.uniform(-5e-4, 5e-4, size=n),
    )
    scenario.link_snrs[::3] = np.inf
    i = setup.integers(0, n, size=pairs)
    j = (i + setup.integers(1, n, size=pairs)) % n
    rng = np.random.default_rng(7)
    quad = simulate_exchange(scenario, i, j, rng)
    oracle_rng = np.random.default_rng(7)
    want = [_oracle_exchange(scenario, a, b, oracle_rng) for a, b in zip(i, j)]
    assert np.array_equal(_fields(quad), np.array([_fields(q) for q in want]).T)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # one pair alone is a quad of floats with the same bits
    one = simulate_exchange(scenario, int(i[0]), int(j[0]), np.random.default_rng(7))
    assert all(type(v) is float for v in _fields(one).tolist())
    assert np.array_equal(_fields(one), _fields(want[0]))
    # index arrays of any shape give fields of that shape
    shaped = simulate_exchange(
        scenario, i.reshape(1, -1), j.reshape(1, -1), np.random.default_rng(7)
    )
    assert shaped.rx_i_s.shape == (1, pairs)
    assert np.array_equal(_fields(shaped)[:, 0], _fields(quad))


@pytest.mark.parametrize("bandwidth_hz", [10e6, 20e6, 40e6])
@pytest.mark.parametrize("grid_points", [8, 64, 67])
def test_lut_matches_the_per_point_oracle(monkeypatch, bandwidth_hz, grid_points):
    # 64 is the shipped grid; 8 fills one row block and 67 leaves a remainder.
    assert ranging.LUT_GRID_POINTS == 64
    monkeypatch.setattr(ranging, "LUT_GRID_POINTS", grid_points)
    monkeypatch.setattr(ranging, "_LUT_CACHE", {})  # both restored after the test
    waveform = _wave(bandwidth_hz)
    lut = build_qls_lut(waveform)
    raw, corrections = _oracle_lut(waveform, grid_points)
    assert np.array_equal(lut.raw_offsets, raw)
    assert np.array_equal(lut.corrections, corrections)


def test_matched_filter_matches_scipy_correlate(rng):
    # the LUT's window and the capture window, at three tone separations
    for bandwidth_hz in (20e6, 40e6, 80e6):
        tx = _wave(bandwidth_hz).samples
        for margin in (32, ranging.WINDOW_MARGIN + 24):
            rx = np.stack([_frac_delay(tx, d, tx.size + margin) for d in (9.3, 3.0, 17.61)])
            rx += 0.1 * (rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape))
            for row in rx:
                want = sp_signal.correlate(row, tx, mode="valid", method="fft")
                assert np.array_equal(_matched_filter(row, tx), want)
            # the block call that _correlate replaced
            want = sp_signal.fftconvolve(rx, tx[::-1].conj()[None], mode="valid", axes=-1)
            assert np.array_equal(_correlate(rx, tx), want)


def test_fast_len_is_scipy_next_fast_len():
    for n in range(1, 30_001):
        assert _fast_len(n) == sp_fft.next_fast_len(n, real=False), n


def test_a_moved_scenario_exchanges_like_a_fresh_one(wave40):
    # criterion 05 and two tests here move nodes by writing
    # scenario.layout.coords between exchanges: nothing may be cached
    n = 5
    setup = np.random.default_rng(3)
    scenario = make_scenario(
        NodeLayout(setup.uniform(0.0, 5.0, size=(2, n))),
        wave40,
        snr_h_linear=db_to_linear(REF_SNR_DB),
        clock_offsets_s=setup.uniform(-5e-4, 5e-4, size=n),
    )
    i, j = np.triu_indices(n, 1)
    before = simulate_exchange(scenario, i, j, np.random.default_rng(2))
    scenario.layout.coords[:, 0] += 0.37
    scenario.layout.coords[1, 3] = 4.2
    moved = simulate_exchange(scenario, i, j, np.random.default_rng(2))
    fresh = dataclasses.replace(
        scenario, layout=NodeLayout(scenario.layout.coords.copy())
    )
    assert np.array_equal(
        _fields(moved), _fields(simulate_exchange(fresh, i, j, np.random.default_rng(2)))
    )
    assert not np.array_equal(_fields(moved), _fields(before))
    one = simulate_exchange(scenario, 0, 3, np.random.default_rng(4))
    assert _fields(one).tolist() == _fields(
        simulate_exchange(fresh, 0, 3, np.random.default_rng(4))
    ).tolist()


@pytest.mark.parametrize(
    "bad, error",
    [
        ((2, 2), ValueError),
        ((0, 4), ValueError),
        ((-1, 2), ValueError),
    ],
)
def test_exchange_arrays_check_every_pair_before_drawing(wave40, bad, error):
    layout = NodeLayout(np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0]]))
    scenario = make_scenario(layout, wave40, snr_h_linear=db_to_linear(REF_SNR_DB))
    i = np.array([0, 1, bad[0], 0])
    j = np.array([1, 2, bad[1], 2])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as excinfo:
        simulate_exchange(scenario, i, j, rng)
    assert type(excinfo.value) is error
    with pytest.raises(ValueError) as scalar:
        simulate_exchange(scenario, *bad, rng)
    assert type(scalar.value) is error
    assert rng.bit_generator.state == state


def test_exchange_rejects_index_arrays_of_different_shapes(wave40, rng):
    scenario = make_scenario(_two_node_layout(1.0), wave40)
    with pytest.raises(ValueError):
        simulate_exchange(scenario, np.array([0, 1]), np.array([1]), rng)
    with pytest.raises(ValueError):
        simulate_exchange(scenario, np.array([0]), 1, rng)


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
    rows, cols = sampled.observed.missing_indices()
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 4)]


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
