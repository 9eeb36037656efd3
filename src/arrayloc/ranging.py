"""Two-way ranging over noisy links.

Covers the full signal chain: two-tone pulse synthesis, matched-filter
delay estimation refined by quadratic peak interpolation with a
bias-correction lookup table, simulated timestamp exchanges between
free-running clocks, and the matching statistical noise model that samples
range errors directly at the estimator bound.

Constant clock offsets cancel in the two-way average
tau = ((t_RXj - t_TXi) + (t_RXi - t_TXj)) / 2,
which is what makes ranging between unsynchronized nodes possible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import signal as sp_signal

from .constants import SPEED_OF_LIGHT
from .geometry import AdjacencyMask, Edm, NodeLayout, edm_from_points, write_csv
from .snr import link_snr_matrix

DEFAULT_RISE_FALL_S = 50e-9


class LinkUnavailableError(ValueError):
    """Requested node pair has no measurable link."""


# ---------------------------------------------------------------------------
# Waveform
# ---------------------------------------------------------------------------


@dataclass
class TwoToneWaveform:
    """Complex baseband pulse with two tones at +-B/2.

    ``samples`` hold 2*cos(pi*B*t) shaped by raised-cosine rise/fall ramps
    and scaled to unit RMS over the flat region.
    """

    bandwidth_hz: float  # tone separation B
    pulse_s: float
    sample_rate_hz: float
    rise_fall_s: float
    samples: np.ndarray


def check_waveform(bandwidth_hz, pulse_s, sample_rate_hz, rise_fall_s) -> None:
    """Raise ValueError unless the parameters give a valid two-tone pulse."""
    if pulse_s <= 0 or sample_rate_hz <= 0:
        raise ValueError("pulse duration and sample rate must be positive")
    if bandwidth_hz < 0:
        raise ValueError("tone separation cannot be negative")
    if bandwidth_hz >= sample_rate_hz:
        raise ValueError("tone separation must be below the sample rate")
    if rise_fall_s < 0 or pulse_s < 10 * rise_fall_s:
        raise ValueError("pulse must be at least 10x the rise/fall time")


def synth_two_tone(
    bandwidth_hz: float,
    pulse_s: float,
    sample_rate_hz: float,
    rise_fall_s: float = DEFAULT_RISE_FALL_S,
) -> TwoToneWaveform:
    """Synthesize the two-tone ranging pulse.

    Args:
        bandwidth_hz: tone separation B; 0 degenerates to a single tone
            (allowed, but flagged because it carries no delay information).
        pulse_s: pulse duration.
        sample_rate_hz: complex sample rate; must exceed B.
        rise_fall_s: raised-cosine ramp length at each end.
    """
    check_waveform(bandwidth_hz, pulse_s, sample_rate_hz, rise_fall_s)
    if bandwidth_hz == 0.0:
        warnings.warn(
            "zero tone separation: single-tone pulse carries no delay "
            "information",
            RuntimeWarning,
            stacklevel=2,
        )
    n = max(1, round(pulse_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    wave = 2.0 * np.cos(np.pi * bandwidth_hz * t) + 0.0j
    ramp = round(rise_fall_s * sample_rate_hz)
    envelope = np.ones(n)
    if ramp > 0:
        k = np.arange(ramp)
        up = np.sin(0.5 * np.pi * (k + 1) / ramp) ** 2
        envelope[:ramp] = up
        envelope[n - ramp:] = up[::-1]
    wave *= envelope
    flat = wave[ramp: n - ramp] if n > 2 * ramp else wave
    rms = float(np.sqrt(np.mean(np.abs(flat) ** 2)))
    if rms > 0:
        wave /= rms
    return TwoToneWaveform(
        bandwidth_hz=float(bandwidth_hz),
        pulse_s=float(pulse_s),
        sample_rate_hz=float(sample_rate_hz),
        rise_fall_s=float(rise_fall_s),
        samples=wave,
    )


def write_waveform_csv(path: str | Path, waveform: TwoToneWaveform) -> None:
    """Dump baseband samples as i,q columns."""
    s = waveform.samples
    write_csv(path, ["i", "q"], np.column_stack([s.real, s.imag]))


def crlb_sigma_d(bandwidth_hz, pulse_s, snr_linear, sample_rate_hz):
    """Range-error standard deviation bound c / sqrt(2 (pi B)^2 tau_p SNR fs).

    Accepts scalars or arrays (elementwise); infinite SNR gives 0.
    """
    b = np.asarray(bandwidth_hz, dtype=float)
    tau = np.asarray(pulse_s, dtype=float)
    snr = np.asarray(snr_linear, dtype=float)
    fs = np.asarray(sample_rate_hz, dtype=float)
    if np.any(b <= 0) or np.any(tau <= 0) or np.any(snr <= 0) or np.any(fs <= 0):
        raise ValueError("all bound arguments must be positive")
    out = SPEED_OF_LIGHT / np.sqrt(2.0 * (np.pi * b) ** 2 * tau * snr * fs)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Matched filter and peak refinement
# ---------------------------------------------------------------------------


def matched_filter(rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Correlate a received window against the template.

    Returns the correlation at non-negative integer lags, so the
    peak-magnitude index directly estimates the integer-sample delay of the
    template inside the window.
    """
    rx = np.asarray(rx, dtype=complex)
    tx = np.asarray(tx, dtype=complex)
    if rx.ndim != 1 or tx.ndim != 1 or tx.size == 0:
        raise ValueError("inputs must be non-empty 1-D sequences")
    if rx.size < tx.size:
        raise ValueError("received window is shorter than the template")
    return sp_signal.correlate(rx, tx, mode="valid", method="fft")


def _parabola_vertex(ym1: float, y0: float, yp1: float) -> float:
    denom = 2.0 * (2.0 * y0 - yp1 - ym1)
    if denom == 0.0:
        return 0.0
    return (yp1 - ym1) / denom


def _delayed(samples: np.ndarray, delay_samples: float, out_len: int) -> np.ndarray:
    """Band-limited copy of ``samples`` delayed by a real number of samples."""
    if delay_samples < 0:
        raise ValueError("delay must be non-negative")
    if out_len < samples.size + int(math.ceil(delay_samples)):
        raise ValueError("output window too short for the requested delay")
    buf = np.zeros(out_len, dtype=complex)
    buf[: samples.size] = samples
    phase = np.exp(-2j * np.pi * np.fft.fftfreq(out_len) * delay_samples)
    return np.fft.ifft(np.fft.fft(buf) * phase)


@dataclass
class QlsLut:
    """Bias-correction table for quadratic (3-point) peak interpolation.

    Knots live at the raw parabola-vertex offsets produced by noiseless
    fractional delays; ``corrections`` maps each raw offset back to the true
    one.  Lookup is linear interpolation between knots.
    """

    oversampling_ratio: float  # fs / B
    raw_offsets: np.ndarray  # sorted knot positions, in samples
    corrections: np.ndarray  # additive corrections, in samples

    def correction_at(self, raw_offset: float) -> float:
        return float(np.interp(raw_offset, self.raw_offsets, self.corrections))


_LUT_CACHE: dict[tuple, QlsLut] = {}


def build_qls_lut(waveform: TwoToneWaveform, grid_points: int = 64) -> QlsLut:
    """Calibrate the peak-interpolation bias over one fractional-sample bin.

    Simulates a noiseless reception at each fractional delay on a symmetric
    grid inside (-0.5, 0.5), measures the raw parabola-vertex offset, and
    stores the correction back to the true offset.  Tables are cached per
    waveform parameter set; the calibration is deterministic.
    """
    if waveform.bandwidth_hz <= 0:
        raise ValueError("bias calibration needs a nonzero tone separation")
    if grid_points < 8:
        raise ValueError("grid too coarse for a useful bias table")
    key = (
        waveform.bandwidth_hz,
        waveform.pulse_s,
        waveform.sample_rate_hz,
        waveform.rise_fall_s,
        grid_points,
    )
    cached = _LUT_CACHE.get(key)
    if cached is not None:
        return cached
    tx = waveform.samples
    base = 16
    out_len = tx.size + 2 * base
    raw = np.empty(grid_points)
    corrections = np.empty(grid_points)
    fracs = -0.5 + (np.arange(grid_points) + 0.5) / grid_points
    for k, frac in enumerate(fracs):
        corr = matched_filter(_delayed(tx, base + frac, out_len), tx)
        mag = np.abs(corr)
        peak = int(np.argmax(mag))
        vertex = _parabola_vertex(mag[peak - 1], mag[peak], mag[peak + 1])
        raw[k] = (peak - base) + vertex
        corrections[k] = (base + frac) - (peak + vertex)
    order = np.argsort(raw, kind="stable")
    lut = QlsLut(
        oversampling_ratio=waveform.sample_rate_hz / waveform.bandwidth_hz,
        raw_offsets=raw[order],
        corrections=corrections[order],
    )
    _LUT_CACHE[key] = lut
    return lut


def qls_refine(
    corr: np.ndarray, peak_index: int, lut: QlsLut | None = None
) -> float:
    """Sub-sample delay estimate from the correlation magnitude peak.

    Fits a parabola through the peak and its neighbours; when a lookup
    table is supplied the deterministic interpolation bias is removed.

    Returns the refined delay in samples (peak_index + fractional offset).
    """
    mag = np.abs(np.asarray(corr))
    if mag.ndim != 1 or mag.size < 3:
        raise ValueError("need at least three correlation samples")
    if peak_index <= 0 or peak_index >= mag.size - 1:
        raise ValueError("correlation peak sits on the window boundary")
    vertex = _parabola_vertex(
        mag[peak_index - 1], mag[peak_index], mag[peak_index + 1]
    )
    correction = lut.correction_at(vertex) if lut is not None else 0.0
    return float(peak_index + vertex + correction)


# ---------------------------------------------------------------------------
# Clocks and timestamp exchanges
# ---------------------------------------------------------------------------


@dataclass
class ClockModel:
    """Free-running node clocks: constant offsets from true time, shared tick."""

    offsets_s: np.ndarray  # per-node constant bias
    tick_s: float  # sampling period; events snap to this grid

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets_s, dtype=float).reshape(-1)
        if not np.all(np.isfinite(offsets)):
            raise ValueError("clock offsets must be finite")
        if self.tick_s <= 0:
            raise ValueError("tick period must be positive")
        self.offsets_s = offsets

    def edge_at_or_after(self, local_t: float) -> float:
        return math.ceil(local_t / self.tick_s) * self.tick_s


@dataclass
class TimestampQuad:
    """The four locally timestamped events of one two-way exchange."""

    tx_i_s: float  # initiator transmit, node i's clock
    rx_j_s: float  # responder receive, node j's clock
    tx_j_s: float  # responder transmit, node j's clock
    rx_i_s: float  # initiator receive, node i's clock


def apparent_tof(t_tx_s: float, t_rx_s: float) -> float:
    """One-way flight time as seen across two unsynchronized clocks."""
    return t_rx_s - t_tx_s


def two_way_tof(quad: TimestampQuad) -> float:
    """Average of the two apparent flight times; constant offsets cancel."""
    return 0.5 * (
        (quad.rx_j_s - quad.tx_i_s) + (quad.rx_i_s - quad.tx_j_s)
    )


@dataclass
class RangingScenario:
    """One simulated array epoch: geometry, clocks, waveform, and link model."""

    layout: NodeLayout
    clocks: ClockModel
    waveform: TwoToneWaveform
    link_snrs: np.ndarray | None = None  # (N, N) linear SNR; None = noiseless
    hardware_delay_s: np.ndarray | None = None  # (N, N) static path delays
    calibration_s: np.ndarray | None = None  # (N, N) known delay corrections
    mask: AdjacencyMask | None = None
    window_margin: int = 8  # samples of capture lead before expected arrival
    turnaround_s: float = 50e-6
    lut: QlsLut = field(init=False)

    def __post_init__(self) -> None:
        n = self.layout.count
        if self.clocks.offsets_s.size != n:
            raise ValueError("clock offset count must match node count")
        expected_tick = 1.0 / self.waveform.sample_rate_hz
        if not math.isclose(self.clocks.tick_s, expected_tick, rel_tol=1e-9):
            raise ValueError("clock tick must equal the waveform sample period")
        if self.hardware_delay_s is None:
            self.hardware_delay_s = np.zeros((n, n))
        if self.calibration_s is None:
            self.calibration_s = np.zeros((n, n))
        for name in ("link_snrs", "hardware_delay_s", "calibration_s"):
            arr = getattr(self, name)
            if arr is not None and np.shape(arr) != (n, n):
                raise ValueError(f"{name} must be an ({n}, {n}) matrix")
        if self.mask is not None and self.mask.count != n:
            raise ValueError("mask size must match node count")
        if self.window_margin < 2:
            raise ValueError("window margin must be at least 2 samples")
        self.lut = build_qls_lut(self.waveform)


def make_scenario(
    layout: NodeLayout,
    waveform: TwoToneWaveform,
    snr_h_linear: float | None = None,
    clock_offsets_s: np.ndarray | None = None,
    hardware_delay_s: np.ndarray | None = None,
    calibration_s: np.ndarray | None = None,
    mask: AdjacencyMask | None = None,
) -> RangingScenario:
    """Assemble a scenario, deriving per-link SNRs from the harmonic-mean model."""
    n = layout.count
    offsets = (
        np.zeros(n) if clock_offsets_s is None else np.asarray(clock_offsets_s)
    )
    link_snrs = None
    if snr_h_linear is not None:
        link_snrs = link_snr_matrix(edm_from_points(layout), snr_h_linear)
    return RangingScenario(
        layout=layout,
        clocks=ClockModel(offsets, 1.0 / waveform.sample_rate_hz),
        waveform=waveform,
        link_snrs=link_snrs,
        hardware_delay_s=hardware_delay_s,
        calibration_s=calibration_s,
        mask=mask,
    )


def _receive_leg(
    scenario: RangingScenario,
    sender: int,
    receiver: int,
    t_tx_local: float,
    tof_s: float,
    rng: np.random.Generator,
) -> float:
    """Simulate one reception; returns the local receive stamp."""
    clocks = scenario.clocks
    fs = scenario.waveform.sample_rate_hz
    tx = scenario.waveform.samples
    t_tx_true = t_tx_local - clocks.offsets_s[sender]
    t_arrival_true = (
        t_tx_true + tof_s + scenario.hardware_delay_s[sender, receiver]
    )
    t_arrival_local = t_arrival_true + clocks.offsets_s[receiver]
    # Capture opens a few ticks ahead of the expected arrival, on the
    # receiver's own clock grid (coarse alignment is assumed solved).
    start_idx = math.floor(t_arrival_local * fs) - scenario.window_margin
    delay_samples = t_arrival_local * fs - start_idx
    out_len = tx.size + scenario.window_margin + 24
    rx = _delayed(tx, delay_samples, out_len)
    if scenario.link_snrs is not None:
        snr = scenario.link_snrs[sender, receiver]
        if np.isfinite(snr):
            sigma = math.sqrt(0.5 / snr)
            rx = rx + sigma * (
                rng.standard_normal(out_len)
                + 1j * rng.standard_normal(out_len)
            )
    corr = matched_filter(rx, tx)
    peak = int(np.argmax(np.abs(corr)))
    est_delay = qls_refine(corr, peak, scenario.lut)
    t_rx_local = (start_idx + est_delay) * clocks.tick_s
    t_rx_local -= scenario.calibration_s[sender, receiver]
    return t_rx_local


def simulate_exchange(
    scenario: RangingScenario, i: int, j: int, rng: np.random.Generator
) -> TimestampQuad:
    """Run one full two-way exchange between nodes i and j.

    The initiator transmits on a random edge of its own clock, the responder
    answers after the turnaround time; both receive stamps come from the
    matched-filter + interpolation estimator on synthesized waveforms.
    """
    n = scenario.layout.count
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError("need two distinct valid node indices")
    if scenario.mask is not None and not scenario.mask.mask[i, j]:
        raise LinkUnavailableError(f"no measurable link between {i} and {j}")
    x = scenario.layout.coords
    tof = float(np.linalg.norm(x[:, i] - x[:, j])) / SPEED_OF_LIGHT
    tick = scenario.clocks.tick_s
    t_tx_i = int(rng.integers(0, 200_000)) * tick
    rx_j = _receive_leg(scenario, i, j, t_tx_i, tof, rng)
    t_tx_j = scenario.clocks.edge_at_or_after(rx_j + scenario.turnaround_s)
    rx_i = _receive_leg(scenario, j, i, t_tx_j, tof, rng)
    return TimestampQuad(tx_i_s=t_tx_i, rx_j_s=rx_j, tx_j_s=t_tx_j, rx_i_s=rx_i)


# ---------------------------------------------------------------------------
# Statistical ranging model
# ---------------------------------------------------------------------------


def sample_edm_statistical(
    layout: NodeLayout,
    mask: AdjacencyMask,
    snr_h_linear: float,
    waveform: TwoToneWaveform,
    rng: np.random.Generator,
) -> Edm:
    """Observed squared-distance matrix with noise at the estimator bound.

    Each observed link gets a Gaussian range error with the deviation the
    signal-level estimator would achieve at that link's SNR.  One standard
    normal is drawn per node pair in a fixed order regardless of the mask,
    so runs that share a seed stay comparable across masks and bandwidths.
    """
    if layout.count != mask.count:
        raise ValueError("mask size must match node count")
    full = edm_from_points(layout)
    n = layout.count
    iu = np.triu_indices(n, 1)
    snr = link_snr_matrix(full, snr_h_linear)[iu]
    z = rng.standard_normal(iu[0].size)
    d = np.sqrt(full.entries[iu])
    sigma = crlb_sigma_d(
        waveform.bandwidth_hz, waveform.pulse_s, snr, waveform.sample_rate_hz
    )
    estimates = d + sigma * z
    observed_flat = mask.mask[iu]
    negative = observed_flat & (estimates < 0.0)
    if np.any(negative):
        # One fresh draw per offending link, then clamp: a physical range
        # can be tiny but never negative.
        redraw = rng.standard_normal(int(negative.sum()))
        estimates[negative] = d[negative] + sigma[negative] * redraw
        still = observed_flat & (estimates < 0.0)
        if np.any(still):
            warnings.warn(
                "negative range estimates clamped to zero after one redraw",
                RuntimeWarning,
                stacklevel=2,
            )
            estimates[still] = 0.0
    entries = np.zeros((n, n))
    entries[iu] = np.where(observed_flat, estimates**2, 0.0)
    entries += entries.T
    return Edm(entries, observed=mask)
