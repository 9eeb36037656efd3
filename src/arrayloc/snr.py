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


@dataclass
class LinkSnrModel:
    """Inverse-square link SNR anchored at the array harmonic mean."""

    snr_h: float  # linear harmonic-mean SNR
    mean_sq_distance: float  # m^2

    def __post_init__(self) -> None:
        if self.snr_h <= 0:
            raise ValueError("harmonic-mean SNR must be positive")
        if self.mean_sq_distance <= 0:
            raise ValueError("mean squared distance must be positive")

    def at(self, sq_distance):
        """Link SNR at a squared distance (m^2); scalar or elementwise."""
        return self.snr_h * self.mean_sq_distance / sq_distance


def model_from_edm(edm: Edm, snr_h: float) -> LinkSnrModel:
    """Anchor a link SNR model to a complete squared-distance matrix."""
    if not edm.is_complete:
        raise ValueError("SNR model needs the full distance matrix")
    n = edm.count
    if n < 2:
        raise ValueError("need at least two nodes")
    iu = np.triu_indices(n, 1)
    return LinkSnrModel(snr_h, float(edm.entries[iu].mean()))


def link_snr(model: LinkSnrModel, distance: float) -> float:
    if distance <= 0:
        raise ValueError("link distance must be positive")
    return model.at(distance**2)


def link_snr_matrix(edm: Edm, snr_h: float) -> np.ndarray:
    """Per-link linear SNR for every pair; infinite on the diagonal."""
    model = model_from_edm(edm, snr_h)
    with np.errstate(divide="ignore"):
        return model.at(np.where(edm.entries > 0.0, edm.entries, 0.0))


def harmonic_mean_snr(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("need at least one SNR value")
    if np.any(values <= 0):
        raise ValueError("SNR values must be positive")
    return values.size / float(np.sum(1.0 / values))


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
