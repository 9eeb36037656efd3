"""Array geometry primitives.

Node layouts, squared-distance matrices with optional observation masks,
connectivity bookkeeping, and the structural completability check that
decides whether a partially observed distance matrix pins down a rigid
2-D arrangement.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, TextIO

import numpy as np


class CompletabilityError(Exception):
    """Observation mask cannot support incremental node resolution."""


@dataclass
class NodeLayout:
    """Point set in m-dimensional space; column i is the position of node i."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        # C order: the same coordinates must give the same bits downstream,
        # and BLAS sums a transposed view in another order.
        coords = np.ascontiguousarray(self.coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError("coords must be a 2-D array shaped (dims, nodes)")
        if coords.shape[0] < 1 or coords.shape[1] < 1:
            raise ValueError("layout needs at least one dimension and one node")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        self.coords = coords

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    @property
    def count(self) -> int:
        return self.coords.shape[1]


@dataclass
class AdjacencyMask:
    """Symmetric, zero-diagonal indicator of which node pairs were measured."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("mask must be a square matrix")
        mask = mask.astype(bool)
        if np.any(np.diag(mask)):
            raise ValueError("mask diagonal must be zero (no self-links)")
        if not np.array_equal(mask, mask.T):
            raise ValueError("mask must be symmetric")
        self.mask = mask

    @property
    def count(self) -> int:
        return self.mask.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.mask)) // 2

    def missing_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column arrays of the unobserved pairs, i < j, row-major."""
        return np.nonzero(np.triu(~self.mask, 1))

    def filled(self, entries: np.ndarray, values) -> np.ndarray:
        """Copy of ``entries`` with ``values`` written into every missing pair.

        ``values`` shaped (n_missing,), or a scalar, fill one (N, N) matrix,
        in the order of ``missing_indices()`` and into both triangles;
        (P, n_missing) fill a (P, N, N) stack, one matrix per row.
        """
        rows, cols = self.missing_indices()
        out = np.broadcast_to(entries, np.shape(values)[:-1] + entries.shape).copy()
        out[..., rows, cols] = values
        out[..., cols, rows] = values
        return out

    @classmethod
    def complete(cls, n: int) -> "AdjacencyMask":
        return cls(~np.eye(n, dtype=bool))


@dataclass
class Edm:
    """Matrix of squared internode distances (m^2).

    ``observed`` marks the valid entries when only part of the matrix has
    been measured; ``None`` means fully observed.  Unobserved positions are
    tracked by the mask alone, never by sentinel values.
    """

    entries: np.ndarray
    observed: AdjacencyMask | None = None

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("distance matrix must be square")
        if self.observed is not None and self.observed.count != entries.shape[0]:
            raise ValueError("mask size does not match matrix size")
        full = ~np.eye(len(entries), dtype=bool)
        obs = full if self.observed is None else self.observed.mask
        vals = entries[obs]
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("observed entries must be finite")
        scale = float(np.max(np.abs(vals))) if vals.size else 0.0
        tol = 1e-9 * scale  # relative: the same test at every distance scale
        if not np.all(np.abs(np.diag(entries)) <= tol):  # also rejects NaN
            raise ValueError("diagonal must be zero")
        if vals.size and np.any(np.abs(entries - entries.T)[obs] > tol):
            raise ValueError("observed entries must be symmetric")
        if vals.size and np.any(vals < 0.0):
            raise ValueError("observed squared distances must be non-negative")
        self.entries = entries

    @property
    def count(self) -> int:
        return self.entries.shape[0]

    @property
    def is_complete(self) -> bool:
        n = self.count
        return self.observed is None or self.observed.edge_count == max_edges(n)


def edm_from_points(layout: NodeLayout) -> Edm:
    """Squared-distance matrix of a layout (exact, symmetric, hollow)."""
    x = layout.coords
    diff = x[:, :, None] - x[:, None, :]
    return Edm(np.einsum("kij,kij->ij", diff, diff))


def max_edges(n: int) -> int:
    if n < 2:
        raise ValueError("need at least two nodes")
    return n * (n - 1) // 2


def min_edges(n: int) -> int:
    """Fewest links that can still rigidly resolve a 2-D array of n nodes."""
    if n < 4:
        raise ValueError("incremental 2-D resolution needs at least 4 nodes")
    return 3 * n - 6


def edge_budget(n: int, c: float) -> int:
    """Links of an n-node mask at connectivity c: c * max_edges, half rounded up.

    Raises ValueError unless c lies in (0, 1] and the budget keeps the
    ``min_edges(n)`` links that a rigid 2-D resolution needs.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"connectivity must lie in (0, 1], got {c}")
    budget = math.floor(c * max_edges(n) + 0.5)
    if budget < min_edges(n):
        raise ValueError(
            f"connectivity {c} infeasible for {n} nodes: "
            f"{budget} < {min_edges(n)} edges"
        )
    return budget


def _closure(adj: np.ndarray, seed: list[int]) -> np.ndarray:
    # Nodes resolved from ``seed``.  The closure is monotone and idempotent,
    # so adding every node with >= 3 resolved links per round is exact.
    resolved = np.zeros(adj.shape[0], dtype=bool)
    resolved[seed] = True
    while (grow := ~resolved & (adj[:, resolved].sum(axis=1) >= 3)).any():
        resolved |= grow
    return resolved


def is_completable(mask: AdjacencyMask) -> bool:
    """Whether some fully connected 4-node seed can resolve every node.

    Starting from a complete quadrilateral, a node is resolvable in the plane
    once it has at least 3 links into the resolved set, so a node with fewer
    links never is.  The search walks the 4-cliques a < b < c < d and skips
    every seed inside the closure of a seed that failed: its closure lies
    inside that one, so it fails too (Eren et al., INFOCOM 2004).
    """
    if mask.count < 4:
        raise ValueError("completability requires at least 4 nodes")
    adj = mask.mask
    if adj.sum(axis=1).min() < 3:
        return False
    later = np.triu(adj, 1)  # later[i]: the neighbours of i above i
    failed = np.zeros((0, mask.count), dtype=bool)  # one closure per row
    for a, b in zip(*np.nonzero(later)):
        ab = later[a] & later[b]
        for c in np.flatnonzero(ab):
            for d in np.flatnonzero(ab & later[c]):
                seed = [a, b, c, d]
                if failed[:, seed].all(axis=1).any():
                    continue
                resolved = _closure(adj, seed)
                if resolved.all():
                    return True
                failed = np.vstack((failed, resolved))
    return False


def random_completable_mask(
    n: int, c: float, rng: np.random.Generator
) -> AdjacencyMask:
    """Random mask with ``edge_budget(n, c)`` links, completable by construction.

    A random complete quadrilateral seeds the graph, every further node is
    attached to three already-placed nodes, and leftover edge budget is spent
    on uniformly random extra links.
    """
    budget = edge_budget(n, c)
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    seed, rest = order[:4], order[4:]
    for i, j in combinations(seed.tolist(), 2):
        adj[i, j] = adj[j, i] = True
    placed = list(seed)
    for node in rest.tolist():
        for k in rng.choice(len(placed), size=3, replace=False):
            adj[node, placed[k]] = adj[placed[k], node] = True
        placed.append(node)
    rows, cols = np.triu_indices(n, 1)
    free = np.flatnonzero(~adj[rows, cols])
    extra = budget - min_edges(n)
    if extra:
        pick = free[rng.choice(len(free), size=extra, replace=False)]
        adj[rows[pick], cols[pick]] = adj[cols[pick], rows[pick]] = True
    return AdjacencyMask(adj)


def mask_edm(full: Edm, mask: AdjacencyMask) -> Edm:
    """Attach an observation mask; entries are kept intact, not zeroed."""
    return Edm(full.entries.copy(), observed=mask)


# ---------------------------------------------------------------------------
# CSV: one dialect for every table arrayloc reads or writes.  A header row,
# then one row per line with "\n" ends; floats as repr, ints as digits,
# bools as 1/0 and None as inf.  Matrices use the header "n0,n1,...".
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "inf"
    return repr(float(value))


def write_csv(target: str | Path | TextIO, header: list[str], rows: Iterable) -> None:
    """Write ``header`` and ``rows`` to a path or an open text stream."""
    if not hasattr(target, "write"):
        with open(target, "w", newline="") as fh:
            return write_csv(fh, header, rows)
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)


def read_csv(
    path: str | Path,
    header_ok: Callable[[list[str]], bool] = lambda header: header[0].startswith("n"),
    expected: str = "'n0,n1,...'",
    cell: Callable[[str], float] = float,
) -> np.ndarray:
    """Rows of ``cell`` values under a header that ``header_ok`` accepts.

    Errors name the file and the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        data = []
        try:
            header = next(reader, None)
            if not header or not header_ok(header):
                raise ValueError(f"missing {expected} header row")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells under {len(header)} columns")
                data.append([cell(v) for v in row])
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not data:
        raise ValueError(f"{path}: no data rows")
    return np.array(data)


def _node_header(n: int) -> list[str]:
    return [f"n{i}" for i in range(n)]


def write_layout_csv(path: str | Path | TextIO, layout: NodeLayout) -> None:
    write_csv(path, _node_header(layout.count), layout.coords)


def read_layout_csv(path: str | Path) -> NodeLayout:
    return NodeLayout(read_csv(path))


def write_edm_csv(path: str | Path, edm: Edm) -> None:
    write_csv(path, _node_header(edm.count), edm.entries)


def read_edm_csv(path: str | Path, mask: AdjacencyMask | None = None) -> Edm:
    return Edm(read_csv(path), observed=mask)


def write_mask_csv(path: str | Path, mask: AdjacencyMask) -> None:
    write_csv(path, _node_header(mask.count), mask.mask.astype(float))


def _mask_cell(text: str) -> float:
    value = float(text)
    if value not in (0.0, 1.0):
        raise ValueError(f"mask cell {text!r} is not 0 or 1")
    return value


def read_mask_csv(path: str | Path) -> AdjacencyMask:
    return AdjacencyMask(read_csv(path, cell=_mask_cell) == 1.0)
