"""Classical multidimensional scaling.

Recovers a centered point set from a complete squared-distance matrix:
double-center to a Gram matrix, find the m leading eigenpairs by
magnitude, and scale the eigenvectors.  Negative leading eigenvalues
(non-Euclidean inputs) are clipped to zero.  One batched core serves a
single matrix and a (P, N, N) stack of them alike: the DE cost, the
final embedding and the convergence replay all go through it.

For the planar case (m = 2) the two pairs come from a short block
subspace iteration with a Rayleigh-Ritz step (Golub & Van Loan, *Matrix
Computations*, sec. 8.2; Saad, *Numerical Methods for Large Eigenvalue
Problems*, ch. 5), and a row keeps that answer only when a residual and
spectrum bound prove it; every other row, and every other m, goes
through a full ``eigh``.  Each row's result depends on that row alone,
never on the rest of the stack.
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


def _eigh_pairs(matrices: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``leading_eigenpairs`` by a full ``eigh``, ties to the lower index."""
    values, vectors = np.linalg.eigh(matrices)
    order = _smallest_columns(-np.abs(values), m)
    rows = np.arange(matrices.shape[0])[:, None]
    cols = np.arange(matrices.shape[-1])[:, None]
    return values[rows, order], vectors[rows[:, :, None], cols, order[:, None, :]]


# Steps of G.G per stage of the subspace iteration.  Rows still unproven
# after the first stage run the second, unless they are far from converged.
_STAGE_STEPS = (3, 3)
# A row is proven when its Ritz residual is at most _CERTIFY_TOL * |lambda_1|.
_CERTIFY_TOL = 1e-10
# Residual after a stage above which a row stops and goes to eigh: such
# rows (mostly uniform random candidates) converge too slowly to pay.
_GIVE_UP_TOL = 1e-3


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("pi,pi->p", x, y)


def _orthonormalise(z: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the two rows of each (2, N) block of z, in place.

    The projection runs twice, which keeps the rows orthogonal to rounding
    even when they start out nearly parallel.
    """
    z1, z2 = z[:, 0], z[:, 1]
    z1 /= np.sqrt(_dot(z1, z1))[:, None]
    for _ in range(2):
        z2 -= _dot(z1, z2)[:, None] * z1
    z2 /= np.sqrt(_dot(z2, z2))[:, None]
    return z


def _ritz_pairs(
    g: np.ndarray, x: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``steps`` subspace steps of G.G on the rows of x, then Rayleigh-Ritz.

    x holds two orthonormal rows per matrix, (P, 2, N).  Returns the new
    basis, the Ritz values (P, 2) leading |value| first, the Ritz vectors
    as rows (P, 2, N) and the squared residual ||G Y - Y diag(values)||_F^2.
    """
    for _ in range(steps):
        x = _orthonormalise(x @ g @ g)  # G is symmetric: x G = (G x^T)^T
    w = x @ g
    x1, x2, w1, w2 = x[:, 0], x[:, 1], w[:, 0], w[:, 1]
    a, b, c = _dot(x1, w1), _dot(x1, w2), _dot(x2, w2)
    # Residual of the whole block against its 2x2 projection H.
    r1 = w1 - a[:, None] * x1 - b[:, None] * x2
    r2 = w2 - b[:, None] * x1 - c[:, None] * x2
    residual = _dot(r1, r1) + _dot(r2, r2)
    # Eigenpairs of H = [[a, b], [b, c]] in closed form: the leading value
    # by magnitude is mid + sign * rad, and its eigenvector is the better
    # conditioned of (lead - c, b) and (b, lead - a).
    mid, half = 0.5 * (a + c), 0.5 * (a - c)
    rad = np.sqrt(half * half + b * b)
    sign = np.where(mid >= 0.0, 1.0, -1.0)
    values = np.stack([mid + sign * rad, mid - sign * rad], axis=1)
    first = sign * half >= 0.0
    u = np.where(first, half + sign * rad, b)
    v = np.where(first, b, sign * rad - half)
    norm = np.sqrt(u * u + v * v)
    cos = np.where(norm > 0.0, u / norm, 1.0)[:, None]  # H = a I: keep x
    sin = np.where(norm > 0.0, v / norm, 0.0)[:, None]
    y = np.empty_like(x)
    y[:, 0] = cos * x1 + sin * x2
    y[:, 1] = cos * x2 - sin * x1
    return x, values, y, residual


def _planar_pairs(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``leading_eigenpairs`` for m = 2 and N >= 3: proven rows, else eigh.

    A row is proven when (a) its Ritz residual is at most _CERTIFY_TOL *
    |lambda_1|, and (b) ||G||_F^2 - lambda_1^2 - lambda_2^2, the sum of
    the other squared eigenvalues, is at most lambda_2^2 / 4.  Then every
    other eigenvalue is at most half of |lambda_2|, so the pair found is
    the leading one, well separated from the rest.
    """
    p, n, _ = g.shape
    values = np.empty((p, 2))
    vectors = np.empty((p, n, 2))
    proven = np.zeros(p, dtype=bool)
    k = 2.0 * np.pi * np.arange(n) / n
    start = np.sqrt(2.0 / n) * np.stack([np.cos(k), np.sin(k)])  # orthonormal, centred
    # Degenerate rows (collinear or coincident nodes) divide by zero; they
    # end up NaN, unproven and in eigh.
    with np.errstate(all="ignore"):
        rows = np.arange(p)
        x = np.broadcast_to(start, (p, 2, n))
        sub = g
        sq_norm = np.einsum("pij,pij->p", g, g)
        for steps in _STAGE_STEPS:
            x, lead, y, residual = _ritz_pairs(sub, x, steps)
            scale = lead[:, 0] ** 2
            rest = sq_norm[rows] - scale - lead[:, 1] ** 2
            converged = residual <= _CERTIFY_TOL**2 * scale
            # 1e-9 * lambda_1^2 covers the Ritz values' error, at most the
            # residual, and the rounding of ||G||_F^2.
            ok = converged & (4.0 * (rest + 1e-9 * scale) <= lead[:, 1] ** 2)
            values[rows[ok]] = lead[ok]
            vectors[rows[ok]] = y[ok].transpose(0, 2, 1)
            proven[rows[ok]] = True
            more = ~converged & (residual <= _GIVE_UP_TOL**2 * scale)
            if not more.any():
                break
            rows, x, sub = rows[more], x[more], sub[more]
    unproven = np.flatnonzero(~proven)
    if unproven.size:
        values[unproven], vectors[unproven] = _eigh_pairs(g[unproven], 2)
    return values, vectors


def leading_eigenpairs(
    matrices: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """m eigenpairs of largest |eigenvalue| per matrix of a symmetric stack.

    Values come as (P, m) by descending magnitude; orthonormal vectors as
    (P, N, m).  For m = 2 and N >= 3 a row takes the subspace-iteration
    answer when it is proven (see ``_planar_pairs``) and a full ``eigh``
    otherwise.  Ties in magnitude go to the lower ``eigh`` index on
    ``eigh`` rows only; on proven rows an exact tie is broken arbitrarily,
    which leaves the distances of the embedding unchanged.
    """
    if m == 2 and matrices.shape[-1] >= 3:
        return _planar_pairs(matrices)
    return _eigh_pairs(matrices, m)


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
