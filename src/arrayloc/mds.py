"""Classical multidimensional scaling.

Recovers a centered point set from a complete squared-distance matrix:
double-center to a Gram matrix, find the m leading eigenpairs by
magnitude, and scale the eigenvectors.  Negative leading eigenvalues
(non-Euclidean inputs) are clipped to zero.  One batched core serves a
single matrix and a (P, N, N) stack of them alike: the final embedding
and the convergence replay go through ``batched_mds``, and the DE cost,
which builds its Gram matrices itself, through ``embed_gram``.

For the planar case (m = 2) the two pairs come from a short block
subspace iteration on G^8 and a Rayleigh-Ritz step on G (Golub & Van Loan,
*Matrix Computations*, sec. 8.2; Saad, *Numerical Methods for Large
Eigenvalue Problems*, ch. 5), and a row keeps that answer only when its
residual and a fourth-moment bound prove it.  A caller may turn down an
unproven row from its Ritz embedding and an error bound, leaving it zero;
every other row, and every other m, goes through a full ``eigh``.  Each
row's result depends on that row alone, never on the rest of the stack.
The basis, its products and the vectors are axis-major, one contiguous
(P, N) plane per vector; BLAS reads and writes their (P, 2, N) views in
place, with leading dimension P N, and each (P, N, m) result is a view of
such planes.
"""

from __future__ import annotations

import warnings

import numpy as np

from .geometry import Edm, NodeLayout

# A leading eigenvalue below -NEG_EIG_TOL * |lambda_1| signals an input too
# far from any Euclidean configuration for clipping to be quiet about it.
NEG_EIG_TOL = 1e-6


def _double_centre(d: np.ndarray) -> np.ndarray:
    """-1/2 J D J with J = I - 11^T / N, symmetrised; D is (N, N) or (P, N, N)."""
    n = d.shape[-1]
    j = np.eye(n) - 1.0 / n
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
    return values[rows, order], vectors[rows.T, :, order.T].transpose(1, 2, 0)


# A row is proven when its Ritz residual is at most _CERTIFY_TOL * |lambda_1|.
_CERTIFY_TOL = 1e-10
# Residual after a stage above which a row stops and goes to eigh: such
# rows (mostly uniform random candidates) converge too slowly to pay.
_GIVE_UP_TOL = 1e-3


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("pi,pi->p", x, y)


def _orthonormalise(z: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the two (P, N) planes of z, row by row, in place.

    The projection runs twice, which keeps the rows orthogonal to rounding
    even when they start out nearly parallel.
    """
    z1, z2 = z
    z1 /= np.sqrt(_dot(z1, z1))[:, None]
    for _ in range(2):
        z2 -= _dot(z1, z2)[:, None] * z1
    z2 /= np.sqrt(_dot(z2, z2))[:, None]
    return z


def _times(x: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """x M per matrix of the (2, P, N) basis x, through the (P, 2, N) views."""
    out = np.empty(x.shape)
    np.matmul(x.transpose(1, 0, 2), matrices, out=out.transpose(1, 0, 2))
    return out


def _two_steps(x: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Two subspace steps with one power of G on the (2, P, N) basis x."""
    for _ in range(2):
        x = _orthonormalise(_times(x, power))  # power is symmetric: x P = (P x^T)^T
    return x


def _ritz_pairs(
    x: np.ndarray, block: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rayleigh-Ritz on the two orthonormal planes of x, (2, P, N).

    ``block`` is x G, which it overwrites.  Returns the Ritz values (P, 2)
    leading |value| first, the Ritz vectors as planes (2, P, N) in the
    memory of ``block``, and the squared residual ||G Y - Y diag(values)||_F^2.
    """
    (x1, x2), (r1, r2) = x, block
    a, b, c = _dot(x1, r1), _dot(x1, r2), _dot(x2, r2)
    # Residual of the whole block against its 2x2 projection H, formed in
    # place of G X: r1 = (G x1 - a x1) - b x2, r2 = (G x2 - b x1) - c x2.
    r1 -= a[:, None] * x1
    r1 -= b[:, None] * x2
    r2 -= b[:, None] * x1
    r2 -= c[:, None] * x2
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
    np.multiply(cos, x1, out=r1)  # the residual is done: its block takes Y
    r1 += sin * x2
    np.multiply(cos, x2, out=r2)
    r2 -= sin * x1
    return values, block, residual


def _coordinates(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(P, N, m) embedding of the pairs on (m, P, N) planes: a value < 0 gives 0."""
    scale = np.sqrt(np.clip(values, 0.0, None)).T[:, :, None]
    return (scale * vectors.transpose(2, 0, 1)).transpose(1, 2, 0)


def _spread(
    lead: np.ndarray, residual: np.ndarray, norm: np.ndarray, rest: np.ndarray, n: int
) -> np.ndarray:
    """A bound on ||K~ - K||_F per row of Ritz data, inf where none holds.

    K~ = (Y H Y^T)_+ is the Gram matrix of the Ritz embedding, K that of the
    row's answer without ``needed``.  Interlacing on G^2 caps every other
    |lambda_i| by beta = ||G||_F rest^(1/4); if delta = |theta_2| - beta > 0,
    Davis & Kahan's sin-theta theorem (SIAM J. Numer. Anal. 7, 1970) and the
    non-expansive PSD clip give 2 sqrt(2) ||G||_F rho / delta.  rho is padded
    for a proof in a later stage (its residual below _CERTIFY_TOL ||G||_F, its
    gap above delta / 2), and ``eps`` for rounding and eigh's backward error.
    """
    eps = 16.0 * n * np.finfo(float).eps  # relative to ||G||_F
    beta = norm * np.maximum(rest + n * eps, 0.0) ** 0.25
    delta = np.abs(lead[:, 1]) - beta - eps * norm
    rho = np.sqrt(residual) + 2.0 * (eps + _CERTIFY_TOL) * norm
    spread = eps * norm + 2.0 * np.sqrt(2.0) * norm * rho / delta
    return np.where(delta > 0.0, spread, np.inf)


def _planar_pairs(
    g: np.ndarray, scratch: np.ndarray | None = None, needed=None
) -> tuple[np.ndarray, np.ndarray]:
    """``leading_eigenpairs`` for m = 2 and N >= 3: proven rows, else eigh.

    Steps on G^8 and G.G, powers of G / ||G||_F so that none overflows, find
    the basis; the Ritz pairs theta_j and residual are those of G.  A row is
    proven when (a) the residual is at most eps |theta_1|, eps = _CERTIFY_TOL,
    and (b) 16 (t - q_1 - q_2 + 1e-9 q_1) <= q_2, where q_j = (theta_j /
    ||G||_F)^4 and t = tr(G^4) / ||G||_F^4.  By (a) and Kahan's theorem
    (Parlett, *The Symmetric Eigenvalue Problem*, 11.5) G has eigenvalues
    lambda_a, lambda_b whose fourth powers lie within 4.1e-10 theta_1^4 of
    theta_1^4, theta_2^4.  For exact t, (b) then gives 16 sum(other
    lambda_i^4) <= lambda_b^4 - 2.4e-9 theta_1^4, a margin above t's
    rounding, (N^2 + 2N + 4) u (2 + sqrt(N) / 4)^2 theta_1^4 when (b) holds
    and N <= 200.  So each other |lambda_i| is below |lambda_b| / 2.  The
    former test sum(lambda_i^2) <= lambda_2^2 / 4 implies (b).

    The powers of G / ||G||_F are stored in ``scratch``, two (P, N, N)
    buffers, fresh ones when it is None; nothing returned points into it.
    ``needed`` is as in ``leading_eigenpairs``.
    """
    p, n, _ = g.shape
    values = np.full((p, 2), np.nan)  # NaN until proven
    planes = np.empty((2, p, n))
    scratch = np.empty((2, p, n, n)) if scratch is None else scratch
    # Degenerate rows (collinear or coincident nodes) divide by zero; they
    # end up NaN, unproven and in eigh.
    with np.errstate(all="ignore"):
        _prove_pairs(g, scratch, values, planes, needed)
    # The stages' arrays are freed by now, before eigh adds its own.
    unproven = np.flatnonzero(np.isnan(values[:, 0]))
    if unproven.size:
        values[unproven], vectors = _eigh_pairs(g[unproven], 2)
        planes[:, unproven] = vectors.transpose(2, 0, 1)
    return values, planes.transpose(1, 2, 0)


def _prove_pairs(
    g: np.ndarray, scratch: np.ndarray, values: np.ndarray, planes: np.ndarray,
    needed,
) -> None:
    """The subspace stages of ``_planar_pairs``: write the pairs of each
    proven row into ``values`` and the (2, P, N) ``planes``, zeros for each
    row that ``needed`` turns down, and leave the rest as is.

    The first stage takes two steps on G^8.  The rows it neither proves nor
    gives up on take two more on G^8 and two on G.G: rounding in G^8 hides
    lambda_2 below about 0.15 |lambda_1|, and the G.G steps fix that.  The
    second stage copies its rows of G^8 and G into ``scratch`` and rebuilds
    their G.G there, matrix by matrix and so to the same bits.
    """
    p, n, _ = g.shape
    norm = np.sqrt(np.einsum("pij,pij->p", g, g))
    # G / ||G||_F, whose powers have norms in [N^-4, 1]
    unit = np.divide(g, norm[:, None, None], out=scratch[0])
    square = np.matmul(unit, unit, out=scratch[1])
    fourth = np.einsum("pij,pij->p", square, square)
    quad = np.matmul(square, square, out=scratch[0])  # unit is done
    eighth = np.matmul(quad, quad, out=scratch[1])  # and square

    def certify(x: np.ndarray, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Keep the rows x proves, zero those ``needed`` turns down; return
        which of the rest go on."""
        lead, y, residual = _ritz_pairs(x, block)
        scale = lead[:, 0] ** 2
        converged = residual <= _CERTIFY_TOL**2 * scale
        q = (lead / norm[rows, None]) ** 4
        rest = fourth[rows] - q[:, 0] - q[:, 1]
        ok = converged & (16.0 * (rest + 1e-9 * q[:, 0]) <= q[:, 1])
        values[rows[ok]], planes[:, rows[ok]] = lead[ok], y[:, ok]
        more = ~converged & (residual <= _GIVE_UP_TOL**2 * scale)
        spread = _spread(lead, residual, norm[rows], rest, n) if needed else np.inf
        bounded = np.flatnonzero(~ok & (spread < np.inf))
        if bounded.size:
            ritz = _coordinates(lead[bounded], y[:, bounded].transpose(1, 2, 0))
            drop = bounded[~needed(rows[bounded], ritz, spread[bounded])]
            values[rows[drop]], planes[:, rows[drop]] = 0.0, 0.0
            more[drop] = False
        return more

    k = 2.0 * np.pi * np.arange(n) / n
    start = np.sqrt(2.0 / n) * np.stack([np.cos(k), np.sin(k)])  # orthonormal, centred
    x = _two_steps(np.broadcast_to(start[:, None], (2, p, n)), eighth)
    more = certify(x, _times(x, g), np.arange(p))
    if not more.any():
        return
    # mode="clip" copies straight into the scratch ("raise" would buffer);
    # every index is in range, so it clips nothing.
    rows = np.flatnonzero(more)
    x, own = x[:, more], scratch[:, : rows.size]
    x = _two_steps(x, np.take(eighth, rows, axis=0, out=own[0], mode="clip"))
    unit = np.take(g, rows, axis=0, out=own[1], mode="clip")  # over G^8
    unit /= norm[rows, None, None]
    x = _two_steps(x, np.matmul(unit, unit, out=own[0]))  # over its rows of G^8
    certify(x, _times(x, np.take(g, rows, axis=0, out=own[1], mode="clip")), rows)


def leading_eigenpairs(
    matrices: np.ndarray, m: int, scratch: np.ndarray | None = None, needed=None
) -> tuple[np.ndarray, np.ndarray]:
    """m eigenpairs of largest |eigenvalue| per matrix of a symmetric stack.

    Values come as (P, m) by descending magnitude; orthonormal vectors as
    (P, N, m).  For m = 2 and N >= 3 a row takes the subspace-iteration
    answer when it is proven (see ``_planar_pairs``) and a full ``eigh``
    otherwise.  Ties in magnitude go to the lower ``eigh`` index on
    ``eigh`` rows only; on proven rows an exact tie is broken arbitrarily,
    which leaves the distances of the embedding unchanged.  ``scratch``
    is handed to ``_planar_pairs``.  ``needed(rows, coords, spread)`` sees
    the rows that a stage does not prove but bounds: indices (R,), Ritz
    embeddings (R, N, 2) and ``_spread`` (R,).  It returns which rows need
    their exact pairs; the others get zero values and vectors.
    """
    if m == 2 and matrices.shape[-1] >= 3:
        return _planar_pairs(matrices, scratch, needed)
    return _eigh_pairs(matrices, m)


def embed_gram(
    gram: np.ndarray, m: int, scratch: np.ndarray | None = None, needed=None
) -> tuple[np.ndarray, np.ndarray]:
    """The m-dimensional embedding of each matrix of a (P, N, N) Gram stack.

    The stack must be exactly symmetric.  Returns the m leading eigenvalues
    (P, m), unclipped, and the coordinates (P, N, m); a negative eigenvalue
    gives a zero coordinate.  A caller that embeds stack after stack passes
    the same (2, P, N, N) ``scratch`` each time (see ``_planar_pairs``);
    ``needed`` is as in ``leading_eigenpairs``.
    """
    values, vectors = leading_eigenpairs(gram, m, scratch, needed)
    return values, _coordinates(values, vectors)


def batched_mds(stack: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical MDS of a (P, N, N) stack of complete squared-distance matrices.

    Double-centres each matrix and returns ``embed_gram`` of the result.
    """
    return embed_gram(_double_centre(stack), m)


def gram_from_edm(edm: Edm) -> np.ndarray:
    """Gram matrix -1/2 J D J, J = I - 11^T / N, of a complete D."""
    if not edm.is_complete:
        raise ValueError("Gram construction needs a fully observed matrix")
    return _double_centre(edm.entries)


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
