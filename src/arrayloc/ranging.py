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

from .constants import SPEED_OF_LIGHT
from .geometry import AdjacencyMask, Edm, NodeLayout, edm_from_points, write_csv
from .snr import link_snr_matrix

DEFAULT_RISE_FALL_S = 50e-9


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
    positive = all(np.all(x > 0) for x in (b, tau, snr, fs))  # False on NaN
    if not positive or not all(np.all(np.isfinite(x)) for x in (b, tau, fs)):
        raise ValueError("bound arguments must be positive, and finite but for SNR")
    out = SPEED_OF_LIGHT / np.sqrt(2.0 * (np.pi * b) ** 2 * tau * snr * fs)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Matched filter and peak refinement
# ---------------------------------------------------------------------------


# Receptions go through the FFTs this many rows at a time: fewer rows cost
# more per row, more rows only add memory, and the working set stays flat
# at any node count.
_BLOCK_ROWS = 8


def _fast_len(n: int) -> int:
    """Smallest 2-3-5-7-11-smooth length >= n, the FFT sizes pocketfft runs fastest."""
    while True:
        rest = n
        for factor in (2, 3, 5, 7, 11):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return n
        n += 1


def _correlate(rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Matched filter of every row of ``rx`` at non-negative integer lags.

    The transforms, length and slice of ``scipy.signal.fftconvolve(rx,
    tx[::-1].conj()[None], mode="valid", axes=-1)``, so the same bits.
    """
    size = _fast_len(rx.shape[-1] + tx.size - 1)
    spectrum = np.fft.fft(rx, size) * np.fft.fft(tx[::-1].conj(), size)
    return np.fft.ifft(spectrum)[:, tx.size - 1 : rx.shape[-1]]


def _parabola_vertex(mag: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Vertex of the parabola through each row's peak and its neighbours."""
    if np.any(peak <= 0) or np.any(peak >= mag.shape[1] - 1):
        raise ValueError("correlation peak sits on the window boundary")
    ym1, y0, yp1 = np.take_along_axis(mag, peak[:, None] + [-1, 0, 1], axis=1).T
    denom = 2.0 * (2.0 * y0 - yp1 - ym1)
    flat = denom == 0.0
    return np.where(flat, 0.0, (yp1 - ym1) / np.where(flat, 1.0, denom))


def _receive(tx, delays, out_len, noise=()):
    """Matched-filter peak and parabola vertex of delayed copies of ``tx``.

    Row k is a band-limited copy of ``tx`` delayed by ``delays[k]`` samples
    in a window of ``out_len`` samples, plus ``noise[k]`` where that is given
    and not None.  Each row gives the same bits alone or in a block.
    """
    spectrum = np.fft.fft(tx, out_len)  # of the zero-padded pulse
    ramp = -2j * np.pi * np.fft.fftfreq(out_len)
    peaks = np.empty(delays.size, dtype=int)
    vertices = np.empty(delays.size)
    for start in range(0, delays.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        rx = np.fft.ifft(spectrum * np.exp(ramp * delays[rows, None]))
        for row, extra in zip(rx, noise[rows]):
            if extra is not None:
                row += extra
        mag = np.abs(_correlate(rx, tx))
        peaks[rows] = mag.argmax(axis=1)
        vertices[rows] = _parabola_vertex(mag, peaks[rows])
    return peaks, vertices


@dataclass
class QlsLut:
    """Bias-correction table for quadratic (3-point) peak interpolation.

    Knots live at the raw parabola-vertex offsets produced by noiseless
    fractional delays; ``corrections`` maps each raw offset back to the true
    one.  Lookup is linear interpolation between knots.
    """

    raw_offsets: np.ndarray  # sorted knot positions, in samples
    corrections: np.ndarray  # additive corrections, in samples

    def correction_at(self, raw_offset):
        """Correction at one raw offset, or elementwise at an array of them."""
        return np.interp(raw_offset, self.raw_offsets, self.corrections)


_LUT_CACHE: dict[tuple, QlsLut] = {}
# Fractional delays on the bias table's calibration grid.
LUT_GRID_POINTS = 64


def build_qls_lut(waveform: TwoToneWaveform) -> QlsLut:
    """Calibrate the peak-interpolation bias over one fractional-sample bin.

    Simulates a noiseless reception at each fractional delay on a symmetric
    grid inside (-0.5, 0.5), measures the raw parabola-vertex offset, and
    stores the correction back to the true offset.  Tables are cached per
    waveform parameter set; the calibration is deterministic.
    """
    if waveform.bandwidth_hz <= 0:
        raise ValueError("bias calibration needs a nonzero tone separation")
    key = (
        waveform.bandwidth_hz,
        waveform.pulse_s,
        waveform.sample_rate_hz,
        waveform.rise_fall_s,
    )
    cached = _LUT_CACHE.get(key)
    if cached is not None:
        return cached
    tx = waveform.samples
    base = 16
    fracs = -0.5 + (np.arange(LUT_GRID_POINTS) + 0.5) / LUT_GRID_POINTS
    peak, vertex = _receive(tx, base + fracs, tx.size + 2 * base)
    raw = (peak - base) + vertex
    corrections = (base + fracs) - (peak + vertex)
    order = np.argsort(raw, kind="stable")
    lut = QlsLut(raw_offsets=raw[order], corrections=corrections[order])
    _LUT_CACHE[key] = lut
    return lut


# ---------------------------------------------------------------------------
# Clocks and timestamp exchanges
# ---------------------------------------------------------------------------


# Capture opens this many samples ahead of the expected arrival.
WINDOW_MARGIN = 8
# The responder answers on its first clock tick this long after reception.
TURNAROUND_S = 50e-6


@dataclass
class TimestampQuad:
    """The four local timestamps of an exchange (or arrays of them, one per pair)."""

    tx_i_s: float | np.ndarray  # initiator transmit, node i's clock
    rx_j_s: float | np.ndarray  # responder receive, node j's clock
    tx_j_s: float | np.ndarray  # responder transmit, node j's clock
    rx_i_s: float | np.ndarray  # initiator receive, node i's clock


def apparent_tof(t_tx_s: float, t_rx_s: float) -> float:
    """One-way flight time as seen across two unsynchronized clocks."""
    return t_rx_s - t_tx_s


def two_way_tof(quad: TimestampQuad) -> float:
    """Average of the two apparent flight times; constant offsets cancel."""
    return 0.5 * (
        apparent_tof(quad.tx_i_s, quad.rx_j_s) + apparent_tof(quad.tx_j_s, quad.rx_i_s)
    )


@dataclass
class RangingScenario:
    """One simulated array epoch: geometry, clocks, waveform, and link model.

    Node clocks run free with constant offsets from true time and tick once
    per waveform sample period; events snap to that grid.
    """

    layout: NodeLayout
    clock_offsets_s: np.ndarray  # per-node constant bias
    waveform: TwoToneWaveform
    link_snrs: np.ndarray | None = None  # (N, N) linear SNR; None = noiseless
    lut: QlsLut = field(init=False)

    def __post_init__(self) -> None:
        n = self.layout.count
        offsets = np.asarray(self.clock_offsets_s, dtype=float).reshape(-1)
        if not np.all(np.isfinite(offsets)):
            raise ValueError("clock offsets must be finite")
        if offsets.size != n:
            raise ValueError("clock offset count must match node count")
        self.clock_offsets_s = offsets
        if self.link_snrs is not None and np.shape(self.link_snrs) != (n, n):
            raise ValueError(f"link_snrs must be an ({n}, {n}) matrix")
        self.lut = build_qls_lut(self.waveform)

    @property
    def window_len(self) -> int:
        """Samples in one capture window."""
        return self.waveform.samples.size + WINDOW_MARGIN + 24


def make_scenario(
    layout: NodeLayout,
    waveform: TwoToneWaveform,
    snr_h_linear: float | None = None,
    clock_offsets_s: np.ndarray | None = None,
) -> RangingScenario:
    """Assemble a scenario, deriving per-link SNRs from the harmonic-mean model."""
    offsets = np.zeros(layout.count) if clock_offsets_s is None else clock_offsets_s
    link_snrs = None
    if snr_h_linear is not None:
        link_snrs = link_snr_matrix(edm_from_points(layout), snr_h_linear)
    return RangingScenario(
        layout=layout,
        clock_offsets_s=offsets,
        waveform=waveform,
        link_snrs=link_snrs,
    )


def _receive_legs(scenario, senders, receivers, t_tx_local, tof_s, noise):
    """Local receive stamps of one leg per row; ``noise`` as for ``_receive``."""
    offsets = scenario.clock_offsets_s
    fs = scenario.waveform.sample_rate_hz
    t_tx_true = t_tx_local - offsets[senders]
    t_arrival_local = (t_tx_true + tof_s) + offsets[receivers]
    # Capture opens a few ticks ahead of the expected arrival, on the
    # receiver's own clock grid (coarse alignment is assumed solved).
    start_idx = np.floor(t_arrival_local * fs).astype(int) - WINDOW_MARGIN
    delay = t_arrival_local * fs - start_idx
    tx = scenario.waveform.samples
    peak, vertex = _receive(tx, delay, scenario.window_len, noise)
    est_delay = peak + vertex + scenario.lut.correction_at(vertex)
    return (start_idx + est_delay) * (1.0 / fs)


def simulate_exchange(
    scenario: RangingScenario,
    i: int | np.ndarray,
    j: int | np.ndarray,
    rng: np.random.Generator,
) -> TimestampQuad:
    """Run full two-way exchanges between nodes i and j.

    The initiator transmits on a random edge of its own clock, the responder
    answers after the turnaround time; both receive stamps come from the
    matched-filter + interpolation estimator on synthesized waveforms.

    ``i`` and ``j`` are node indices, or index arrays of one shape that give
    a quad of arrays of that shape.  Pairs draw from ``rng`` in row-major
    order, each its transmit tick and then the noise of its two legs, as one
    call per pair would.  Every pair is checked before the first draw.
    """
    if np.shape(i) != np.shape(j):
        raise ValueError("i and j must have the same shape")
    ii, jj = np.ravel(i), np.ravel(j)
    n = scenario.layout.count
    if np.any((ii == jj) | (ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)):
        raise ValueError("need two distinct valid node indices")
    x, snrs = scenario.layout.coords, scenario.link_snrs
    tick = 1.0 / scenario.waveform.sample_rate_hz

    def noise(sender, receiver):
        if snrs is None or not np.isfinite(snrs[sender, receiver]):
            return None
        sigma = math.sqrt(0.5 / snrs[sender, receiver])
        size = scenario.window_len
        return sigma * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    stamps = np.empty((4, ii.size))
    # Pairs go block by block, so the pre-drawn noise stays flat in memory.
    for start in range(0, ii.size, _BLOCK_ROWS):
        pairs = slice(start, start + _BLOCK_ROWS)
        tx_i, rx_j, tx_j, rx_i = stamps[:, pairs]
        tof, legs = np.empty(tx_i.size), []
        for k, (a, b) in enumerate(zip(ii[pairs], jj[pairs])):
            # A per-pair norm: along an axis it may round differently.
            tof[k] = float(np.linalg.norm(x[:, a] - x[:, b])) / SPEED_OF_LIGHT
            tx_i[k] = int(rng.integers(0, 200_000)) * tick
            legs.append((noise(a, b), noise(b, a)))
        first, second = zip(*legs)
        rx_j[:] = _receive_legs(scenario, ii[pairs], jj[pairs], tx_i, tof, first)
        tx_j[:] = np.ceil((rx_j + TURNAROUND_S) / tick) * tick
        rx_i[:] = _receive_legs(scenario, jj[pairs], ii[pairs], tx_j, tof, second)
    if np.ndim(i) == 0:
        return TimestampQuad(*stamps[:, 0].tolist())
    return TimestampQuad(*stamps.reshape(4, *np.shape(i)))


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
