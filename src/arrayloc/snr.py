"""Link SNR modeling and blind eigenvalue-based SNR estimation.

Free-space links lose power with distance squared, so per-link SNR is
anchored to the harmonic mean across the array: SNR_ij = snr_h * dbar^2 /
d_ij^2 with dbar^2 the mean squared internode distance.  The blind
estimator splits signal from noise power using the spectrum of the sample
covariance over repeated capture windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import Edm, read_csv, write_csv


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ValueError("ratio must be positive")
    return 10.0 * math.log10(x)


def link_snr_matrix(edm: Edm, snr_h: float) -> np.ndarray:
    """Per-link linear SNR snr_h * dbar^2 / d_ij^2; infinite on the diagonal.

    ``edm`` must be complete; dbar^2 is its mean squared internode distance.
    """
    if snr_h <= 0:
        raise ValueError("harmonic-mean SNR must be positive")
    if not edm.is_complete:
        raise ValueError("SNR model needs the full distance matrix")
    n = edm.count
    if n < 2:
        raise ValueError("need at least two nodes")
    mean_sq = float(edm.entries[np.triu_indices(n, 1)].mean())
    if mean_sq <= 0:
        raise ValueError("mean squared distance must be positive")
    with np.errstate(divide="ignore"):
        return snr_h * mean_sq / np.where(edm.entries > 0.0, edm.entries, 0.0)


@dataclass
class SampleMatrix:
    """Complex baseband captures: N_s samples per window, L windows as columns."""

    windows: np.ndarray

    def __post_init__(self) -> None:
        windows = np.asarray(self.windows, dtype=complex)
        if windows.ndim != 2:
            raise ValueError("sample matrix must be 2-D (samples x windows)")
        if windows.shape[1] < 2:
            raise ValueError("need at least two capture windows")
        if not np.all(np.isfinite(windows)):
            raise ValueError("samples must be finite")
        self.windows = windows


class SnrEstimate(NamedTuple):
    signal_power: float
    noise_power: float
    snr: float


def blind_snr_estimate(samples: SampleMatrix) -> SnrEstimate:
    """Split signal and noise power from the sample-covariance spectrum.

    A repeated coherent signal contributes one dominant eigenvalue
    ~ L * P_s + P_n; the remaining L-1 eigenvalues estimate the noise
    power.  The L x L window Gram shares its nonzero spectrum with the
    N_s x N_s sample covariance, so the cheap form is used.
    """
    s = samples.windows
    n_s, n_win = s.shape
    gram = (s.conj().T @ s) / n_s
    values = np.sort(np.linalg.eigvalsh(gram))[::-1]
    if values[0] <= 0.0:
        raise ValueError("capture holds no power")
    noise_power = float(values[1:].mean())
    signal_power = float((values[0] - noise_power) / n_win)
    if noise_power > 0.0:
        snr = signal_power / noise_power
    else:
        snr = math.inf
    return SnrEstimate(signal_power, noise_power, snr)


def write_sample_matrix_csv(path: str | Path, samples: SampleMatrix) -> None:
    """Dump capture windows as interleaved I/Q columns (w0_i, w0_q, ...)."""
    s = samples.windows
    header = [f"w{k}_{part}" for k in range(s.shape[1]) for part in "iq"]
    write_csv(path, header, np.stack([s.real, s.imag], axis=2).reshape(len(s), -1))


def read_sample_matrix_csv(path: str | Path) -> SampleMatrix:
    arr = read_csv(
        path,
        lambda header: len(header) % 2 == 0 and header[0].startswith("w"),
        "interleaved I/Q 'w0_i,w0_q,...'",
    )
    return SampleMatrix(arr[:, 0::2] + 1j * arr[:, 1::2])
