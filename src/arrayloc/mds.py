"""Classical multidimensional scaling.

Recovers a centered point set from a complete squared-distance matrix:
double-center to a Gram matrix, eigendecompose, and keep the m leading
eigenpairs by magnitude.  Negative leading eigenvalues (non-Euclidean
inputs) are clipped to zero.  One batched core serves a single matrix and
a (P, N, N) stack of them alike.
"""

from __future__ import annotations

import warnings

import numpy as np

from .geometry import Edm, NodeLayout

# A leading eigenvalue below -NEG_EIG_TOL * |lambda_1| signals an input too
# far from any Euclidean configuration for clipping to be quiet about it.
NEG_EIG_TOL = 1e-6


def _double_centre(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """-1/2 (I - 1 s^T) D (I - s 1^T), symmetrised; D is (N, N) or (P, N, N)."""
    n = d.shape[-1]
    j = np.eye(n) - np.outer(np.ones(n), s)
    g = -0.5 * (j @ d @ j.T)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _smallest_columns(keys: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest keys per row, ties to the lower column.

    Equal to ``np.argsort(keys, axis=1, kind="stable")[:, :k]`` for finite
    keys and k no larger than the row length, without sorting whole rows.
    Overwrites ``keys``.
    """
    rows = np.arange(keys.shape[0])
    picks = np.empty((keys.shape[0], k), dtype=np.intp)
    for j in range(k):
        picks[:, j] = keys.argmin(axis=1)
        keys[rows, picks[:, j]] = np.inf
    return picks


def leading_eigenpairs(
    matrices: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """m eigenpairs of largest |eigenvalue| per matrix of a symmetric stack.

    Values come as (P, m) by descending magnitude, ties to the lower
    ``eigh`` index; orthonormal vectors as (P, N, m).
    """
    values, vectors = np.linalg.eigh(matrices)
    order = _smallest_columns(-np.abs(values), m)
    rows = np.arange(matrices.shape[0])[:, None]
    cols = np.arange(matrices.shape[-1])[:, None]
    return values[rows, order], vectors[rows[:, :, None], cols, order[:, None, :]]


def batched_mds(stack: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical MDS of a (P, N, N) stack of complete squared-distance matrices.

    Returns the m leading Gram eigenvalues (P, m), unclipped, and the
    coordinates (P, N, m); a negative eigenvalue gives a zero coordinate.
    """
    n = stack.shape[-1]
    values, vectors = leading_eigenpairs(_double_centre(stack, np.full(n, 1.0 / n)), m)
    return values, np.sqrt(np.clip(values, 0.0, None))[:, None, :] * vectors


def gram_from_edm(edm: Edm, s: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix -1/2 (I - 1 s^T) D (I - s 1^T) for a complete D.

    Args:
        edm: fully observed squared-distance matrix.
        s: centering weights with s^T 1 == 1; defaults to uniform 1/N.
    """
    if not edm.is_complete:
        raise ValueError("Gram construction needs a fully observed matrix")
    n = edm.count
    if s is None:
        s = np.full(n, 1.0 / n)
    else:
        s = np.asarray(s, dtype=float).reshape(-1)
        if s.shape[0] != n:
            raise ValueError("centering vector length must match matrix size")
        if abs(s.sum() - 1.0) > 1e-9:
            raise ValueError("centering vector must sum to 1")
    return _double_centre(edm.entries, s)


def classical_mds(edm: Edm, m: int) -> NodeLayout:
    """Embed a complete squared-distance matrix into m dimensions.

    Args:
        edm: fully observed squared-distance matrix.
        m: target dimension (1 <= m <= node count).

    Returns:
        Centered layout whose distance matrix reproduces ``edm`` exactly
        when the input is Euclidean of dimension <= m.
    """
    if m < 1 or m > edm.count:
        raise ValueError("target dimension must lie in [1, node count]")
    if not edm.is_complete:
        raise ValueError("MDS needs a fully observed matrix")
    leading, coords = batched_mds(edm.entries[None], m)
    if np.any(leading < -NEG_EIG_TOL * abs(float(leading[0, 0]))):
        warnings.warn(
            "input is strongly non-Euclidean; negative leading eigenvalues "
            "clipped to zero",
            RuntimeWarning,
            stacklevel=2,
        )
    return NodeLayout(coords[0].T)
