"""Rigid alignment of recovered layouts and derived accuracy metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import NodeLayout


@dataclass
class AlignmentResult:
    rotation: np.ndarray  # (m, m) orthogonal; reflections permitted
    translation: np.ndarray  # (m,)
    aligned: NodeLayout
    evm_per_node: np.ndarray  # per-node residual norms (m)
    evm_mean: float

    @property
    def evm_rms(self) -> float:
        return float(np.sqrt(np.mean(self.evm_per_node**2)))


def align_and_evm(estimate: NodeLayout, truth: NodeLayout) -> AlignmentResult:
    """Best orthogonal map (rotation or reflection) plus translation onto truth.

    Localization from distances alone cannot fix handedness, so reflections
    are legitimate alignments here; no determinant correction is applied.
    """
    if estimate.coords.shape != truth.coords.shape:
        raise ValueError("layouts must share dimension and node count")
    a = estimate.coords
    b = truth.coords
    ca = a.mean(axis=1, keepdims=True)
    cb = b.mean(axis=1, keepdims=True)
    u, _, vt = np.linalg.svd((a - ca) @ (b - cb).T)
    rotation = vt.T @ u.T
    translation = (cb - rotation @ ca).ravel()
    aligned = rotation @ a + translation[:, None]
    residuals = np.linalg.norm(aligned - b, axis=0)
    return AlignmentResult(
        rotation=rotation,
        translation=translation,
        aligned=NodeLayout(aligned),
        evm_per_node=residuals,
        evm_mean=float(residuals.mean()),
    )


def max_beamform_freq(sigma_d: float) -> float:
    """Highest carrier usable for coherent beamforming at a given position error.

    Element positions must be known to better than 1/15 of a wavelength, so
    f_max = c / (15 * sigma_d).
    """
    if not sigma_d > 0:  # NaN too
        raise ValueError("position error must be positive")
    return SPEED_OF_LIGHT / (15.0 * sigma_d)
