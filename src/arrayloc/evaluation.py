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


def align_stack(estimates: np.ndarray, truth: NodeLayout) -> tuple[np.ndarray, ...]:
    """Best orthogonal map (rotation or reflection) plus translation of each
    layout of the (G, m, N) stack ``estimates`` onto ``truth``: the (G, m, m)
    maps, (G, m, 1) translations, (G, m, N) aligned layouts and (G, N)
    per-node residual norms, each row the bits its layout gets alone.

    Localization from distances alone cannot fix handedness, so reflections
    are legitimate alignments here; no determinant correction is applied.
    """
    # C order, as in NodeLayout: BLAS sums a transposed view in another order.
    estimates, b = np.ascontiguousarray(estimates, dtype=float), truth.coords
    if estimates.shape[1:] != b.shape:
        raise ValueError("layouts must share dimension and node count")
    ca = estimates.mean(axis=-1, keepdims=True)
    cb = b.mean(axis=-1, keepdims=True)
    u, _, vt = np.linalg.svd((estimates - ca) @ (b - cb).T)
    rotations = vt.mT @ u.mT
    translations = cb - rotations @ ca
    aligned = rotations @ estimates + translations
    return rotations, translations, aligned, np.linalg.norm(aligned - b, axis=-2)


def align_and_evm(estimate: NodeLayout, truth: NodeLayout) -> AlignmentResult:
    """``align_stack`` of the one layout ``estimate``."""
    rotation, translation, aligned, residuals = (
        rows[0] for rows in align_stack(estimate.coords[None], truth)
    )
    return AlignmentResult(
        rotation, translation.ravel(), NodeLayout(aligned), residuals,
        float(residuals.mean()),
    )


def max_beamform_freq(sigma_d: float) -> float:
    """Highest carrier usable for coherent beamforming at a given position error.

    Element positions must be known to better than 1/15 of a wavelength, so
    f_max = c / (15 * sigma_d).
    """
    if not sigma_d > 0:  # NaN too
        raise ValueError("position error must be positive")
    return SPEED_OF_LIGHT / (15.0 * sigma_d)
