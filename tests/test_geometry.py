from __future__ import annotations

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayloc.geometry import (
    AdjacencyMask,
    CompletabilityError,
    Edm,
    NodeLayout,
    edge_budget,
    edm_from_points,
    is_completable,
    mask_edm,
    max_edges,
    min_edges,
    random_completable_mask,
    read_edm_csv,
    read_layout_csv,
    read_mask_csv,
    write_edm_csv,
    write_layout_csv,
    write_mask_csv,
)
from arrayloc.snr import read_sample_matrix_csv


def _strip_node_to_two_edges(n: int, node: int) -> AdjacencyMask:
    adj = ~np.eye(n, dtype=bool)
    for other in range(n):
        if other not in (node, (node + 1) % n, (node + 2) % n):
            adj[node, other] = adj[other, node] = False
    return AdjacencyMask(adj)


# ---------------------------------------------------------------------------
# edm_from_points
# ---------------------------------------------------------------------------


def test_edm_single_node():
    edm = edm_from_points(NodeLayout(np.array([[0.0]])))
    assert edm.entries.shape == (1, 1)
    assert edm.entries[0, 0] == 0.0


def test_edm_two_nodes_one_dim():
    edm = edm_from_points(NodeLayout(np.array([[0.0, 3.0]])))
    assert np.array_equal(edm.entries, np.array([[0.0, 9.0], [9.0, 0.0]]))


def test_edm_345_triangle():
    # legs 3 and 4, hypotenuse 5: squared distances 9, 16, 25
    layout = NodeLayout(np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]]))
    edm = edm_from_points(layout)
    assert edm.entries[0, 1] == pytest.approx(9.0)
    assert edm.entries[0, 2] == pytest.approx(16.0)
    assert edm.entries[1, 2] == pytest.approx(25.0)
    assert np.array_equal(edm.entries, edm.entries.T)
    assert np.all(np.diag(edm.entries) == 0.0)


def test_edm_symmetric_hollow_nonnegative_property(rng):
    for _ in range(25):
        n = int(rng.integers(2, 12))
        edm = edm_from_points(NodeLayout(rng.uniform(-4, 4, size=(2, n))))
        assert np.array_equal(edm.entries, edm.entries.T)
        assert np.all(np.diag(edm.entries) == 0.0)
        assert np.all(edm.entries >= 0.0)


def test_layout_rejects_non_finite():
    with pytest.raises(ValueError):
        NodeLayout(np.array([[0.0, np.nan]]))
    with pytest.raises(ValueError):
        NodeLayout(np.array([[0.0, np.inf], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# edge counting
# ---------------------------------------------------------------------------


def test_max_edges_values():
    assert max_edges(2) == 1
    assert max_edges(6) == 15
    assert max_edges(10) == 45
    with pytest.raises(ValueError):
        max_edges(1)


def test_min_edges_values():
    assert min_edges(4) == 6
    assert min_edges(6) == 12
    assert min_edges(25) == 69
    with pytest.raises(ValueError):
        min_edges(3)
    for n in range(4, 51):
        assert min_edges(n) <= max_edges(n)


def test_connectivity_ratio_values(rng):
    complete = AdjacencyMask.complete(6)
    assert complete.edge_count / max_edges(6) == 1.0
    mask6 = random_completable_mask(6, 0.8, rng)
    assert mask6.edge_count == 12
    assert mask6.edge_count / max_edges(6) == pytest.approx(0.8)
    mask10 = random_completable_mask(10, 0.5333, rng)
    assert mask10.edge_count == 24
    assert mask10.edge_count / max_edges(10) == pytest.approx(24.0 / 45.0)


# ---------------------------------------------------------------------------
# completability
# ---------------------------------------------------------------------------


def test_complete_graph_is_completable():
    assert is_completable(AdjacencyMask.complete(6))


def test_two_edge_node_is_not_completable():
    # a node with only two links can never be multilaterated in the plane
    mask = _strip_node_to_two_edges(6, 5)
    assert sum(mask.mask[5]) == 2
    assert not is_completable(mask)


def test_completability_needs_four_nodes():
    with pytest.raises(ValueError):
        is_completable(AdjacencyMask.complete(3))


def test_constructed_masks_are_completable(rng):
    # construction guarantee, exercised over a spread of sizes and budgets
    for _ in range(1000):
        n = int(rng.integers(4, 16))
        c = rng.uniform(min_edges(n) / max_edges(n), 1.0)
        mask = random_completable_mask(n, c, rng)
        assert mask.edge_count == round(c * max_edges(n))
        assert is_completable(mask)


def _listed_random_completable_mask(
    n: int, c: float, rng: np.random.Generator
) -> AdjacencyMask:
    """Reference: the mask built with a Python list of the free pairs."""
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
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i, j]]
    extra = budget - min_edges(n)
    if extra:
        for k in rng.choice(len(free), size=extra, replace=False):
            i, j = free[k]
            adj[i, j] = adj[j, i] = True
    return AdjacencyMask(adj)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 40),
    st.floats(0.0, 1.0),
)
def test_random_mask_matches_the_listed_free_pairs(seed, n, share):
    # Same draws, same links: the free pairs are indexed in the same order.
    low = min_edges(n) / max_edges(n)
    c = low + share * (1.0 - low)
    got = random_completable_mask(n, c, np.random.default_rng(seed))
    want = _listed_random_completable_mask(n, c, np.random.default_rng(seed))
    assert np.array_equal(got.mask, want.mask)


def test_stripping_a_node_breaks_completability(rng):
    for _ in range(50):
        n = int(rng.integers(5, 12))
        node = int(rng.integers(0, n))
        assert not is_completable(_strip_node_to_two_edges(n, node))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(6, 12),
    st.sampled_from(["completable", "cut", "random"]),
)
def test_completability_is_invariant_to_node_relabelling(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        mask = AdjacencyMask(upper | upper.T)
    else:
        c = rng.uniform(min_edges(n) / max_edges(n), 1.0)
        mask = random_completable_mask(n, c, rng)
    if kind == "cut":  # a node left with two links can never be resolved
        mask = _cut_to_two_links(mask, 0)
    answer = is_completable(mask)
    if kind != "random":
        assert answer == (kind == "completable")
    perm = rng.permutation(n)
    assert is_completable(AdjacencyMask(mask.mask[np.ix_(perm, perm)])) == answer


def _exhaustive_is_completable(mask: AdjacencyMask) -> bool:
    """Oracle: the unpruned search, every 4-subset of the nodes of degree >= 3."""
    adj = mask.mask
    eligible = np.flatnonzero(adj.sum(axis=1) >= 3)
    for seed in combinations(eligible.tolist(), 4):
        if not np.all(adj[np.ix_(seed, seed)] | np.eye(4, dtype=bool)):
            continue
        resolved = np.zeros(len(adj), dtype=bool)
        resolved[list(seed)] = True
        while not resolved.all():
            candidates = ~resolved & (adj[:, resolved].sum(axis=1) >= 3)
            if not candidates.any():
                break
            resolved |= candidates
        if resolved.all():
            return True
    return False


def _joined_halves(n: int, rng: np.random.Generator) -> AdjacencyMask:
    """Two completable halves joined by two links: degrees >= 3, not completable."""
    h = n // 2
    adj = np.zeros((n, n), dtype=bool)
    for lo, hi in ((0, h), (h, n)):
        size = hi - lo
        c = rng.uniform(min_edges(size) / max_edges(size), 1.0)
        adj[lo:hi, lo:hi] = random_completable_mask(size, c, rng).mask
    ends_a = rng.choice(h, size=2, replace=False)
    ends_b = h + rng.choice(n - h, size=2, replace=False)
    adj[ends_a, ends_b] = adj[ends_b, ends_a] = True
    perm = rng.permutation(n)
    return AdjacencyMask(adj[np.ix_(perm, perm)])


def _cut_to_two_links(mask: AdjacencyMask, node: int) -> AdjacencyMask:
    adj = mask.mask.copy()
    extra = np.flatnonzero(adj[node])[2:]
    adj[node, extra] = adj[extra, node] = False
    return AdjacencyMask(adj)


def _random_graph(n: int, edges: int, rng: np.random.Generator) -> AdjacencyMask:
    rows, cols = np.triu_indices(n, 1)
    pick = rng.choice(rows.size, size=min(edges, rows.size), replace=False)
    adj = np.zeros((n, n), dtype=bool)
    adj[rows[pick], cols[pick]] = adj[cols[pick], rows[pick]] = True
    return AdjacencyMask(adj)


def _decoy_mask() -> AdjacencyMask:
    """Completable, but the first seed {0, 1, 2, 3} stalls at itself.

    Every other 4-clique holds node 3, so a search that dropped any seed
    touching a failed closure, not only seeds inside one, would answer False.
    """
    links = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]  # the decoy seed
    links += [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]  # a seed that works
    links += [(7, 3), (7, 4), (7, 5), (8, 3), (8, 5), (8, 6), (9, 3), (9, 4), (9, 6)]
    links += [(0, 4), (0, 5), (1, 6), (1, 7), (2, 8), (2, 9)]  # 2 links per decoy node
    adj = np.zeros((10, 10), dtype=bool)
    for i, j in links:
        adj[i, j] = adj[j, i] = True
    return AdjacencyMask(adj)


def test_seed_leaving_a_failed_closure_is_still_tried():
    assert _exhaustive_is_completable(_decoy_mask())
    assert is_completable(_decoy_mask())


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 14),
    st.sampled_from(["random", "sparse", "floor", "cut", "halves", "decoy"]),
)
def test_pruned_search_matches_exhaustive_search(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        mask = _random_graph(n, int(rng.integers(0, max_edges(n) + 1)), rng)
    elif kind == "sparse":  # random links, a few either side of the 3N-6 floor
        mask = _random_graph(n, min_edges(n) + int(rng.integers(-2, 4)), rng)
    elif kind == "floor":  # completable with no link to spare
        mask = random_completable_mask(n, min_edges(n) / max_edges(n), rng)
    elif kind == "cut":
        c = rng.uniform(min_edges(n) / max_edges(n), 1.0)
        mask = random_completable_mask(n, c, rng)
        mask = _cut_to_two_links(mask, int(rng.integers(n)))
    elif kind == "halves":
        mask = _joined_halves(max(n, 8), rng)
    else:
        perm = rng.permutation(10)
        mask = AdjacencyMask(_decoy_mask().mask[np.ix_(perm, perm)])
    assert is_completable(mask) == _exhaustive_is_completable(mask)


def test_completability_at_25_and_40_nodes(rng):
    for n in (25, 40):
        assert is_completable(random_completable_mask(n, 0.3, rng))
        # every degree is at least 3, so only the seed search can say no
        halves = _joined_halves(n, rng)
        assert halves.mask.sum(axis=1).min() >= 3
        assert not is_completable(halves)
    assert not is_completable(_cut_to_two_links(AdjacencyMask.complete(40), 7))


def test_mask_budget_below_minimum_rejected(rng):
    with pytest.raises(ValueError):
        random_completable_mask(10, 0.4, rng)
    with pytest.raises(ValueError):
        random_completable_mask(6, 0.0, rng)


def test_edge_budget_rounds_half_up_and_keeps_the_floor():
    assert edge_budget(6, 0.8) == 12
    assert edge_budget(6, 12.5 / 15) == 13  # half up, not half to even
    assert edge_budget(6, 11.5 / 15) == 12
    assert edge_budget(6, 1.0) == 15
    assert edge_budget(10, 0.6) == 27
    for n, c in ((10, 0.4), (6, 0.0), (6, -0.1), (6, 1.01), (3, 1.0)):
        with pytest.raises(ValueError):
            edge_budget(n, c)


def test_complete_budget_gives_complete_graph(rng):
    mask = random_completable_mask(6, 1.0, rng)
    assert mask.edge_count == 15
    assert np.array_equal(mask.mask, AdjacencyMask.complete(6).mask)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def test_mask_edm_complete_mask_keeps_everything():
    edm = edm_from_points(NodeLayout(np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])))
    masked = mask_edm(edm, AdjacencyMask.complete(3))
    assert masked.is_complete
    assert np.array_equal(masked.entries, edm.entries)


def test_mask_edm_marks_entries_unobserved():
    edm = edm_from_points(NodeLayout(np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])))
    adj = ~np.eye(3, dtype=bool)
    adj[1, 2] = adj[2, 1] = False
    masked = mask_edm(edm, AdjacencyMask(adj))
    assert not masked.is_complete
    rows, cols = masked.observed.missing_indices()
    assert list(zip(rows.tolist(), cols.tolist())) == [(1, 2)]
    # values are kept intact underneath the mask, never zeroed
    assert np.array_equal(masked.entries, edm.entries)


def test_mask_edm_missing_pair_count(rng):
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    mask = random_completable_mask(6, 0.8, rng)
    masked = mask_edm(edm_from_points(layout), mask)
    assert masked.observed.missing_indices()[0].size == 3


def test_missing_indices_match_missing_pairs_row_major(rng):
    for n in (4, 6, 9):
        adj = np.triu(rng.random((n, n)) < 0.6, 1)
        mask = AdjacencyMask(adj | adj.T)
        expected = [
            (i, j) for i in range(n) for j in range(i + 1, n) if not adj[i, j]
        ]
        rows, cols = mask.missing_indices()
        assert list(zip(rows.tolist(), cols.tolist())) == expected


def test_filled_writes_missing_pairs_of_one_matrix_or_a_stack(rng):
    adj = np.triu(rng.random((7, 7)) < 0.6, 1)
    mask = AdjacencyMask(adj | adj.T)
    entries = rng.uniform(0.0, 9.0, size=(7, 7))
    before = entries.copy()
    rows, cols = mask.missing_indices()
    values = rng.uniform(10.0, 20.0, size=(3, rows.size))
    stack = mask.filled(entries, values)
    assert stack.shape == (3, 7, 7)
    for p in range(3):
        one = mask.filled(entries, values[p])
        assert np.array_equal(one, stack[p])
        assert np.array_equal(one[rows, cols], values[p])
        assert np.array_equal(one[cols, rows], values[p])
        assert np.array_equal(one[mask.mask], entries[mask.mask])
    assert np.array_equal(entries, before)


def test_layout_coords_are_c_contiguous(rng):
    # Downstream BLAS calls sum a transposed view in another order, so the
    # same coordinates must always arrive in the same memory layout.
    points = rng.uniform(-1, 1, size=(16, 2))
    layout = NodeLayout(points.T)
    assert layout.coords.flags.c_contiguous
    assert np.array_equal(layout.coords, points.T)


def test_mask_edm_dimension_mismatch():
    edm = edm_from_points(NodeLayout(np.zeros((2, 4))))
    with pytest.raises(ValueError):
        mask_edm(edm, AdjacencyMask.complete(5))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_edm_rejects_asymmetry():
    with pytest.raises(ValueError):
        Edm(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_edm_rejects_negative_entries():
    with pytest.raises(ValueError):
        Edm(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_edm_rejects_nonzero_diagonal():
    with pytest.raises(ValueError):
        Edm(np.array([[1.0, 4.0], [4.0, 0.0]]))
    with pytest.raises(ValueError):
        Edm(np.array([[np.nan, 4.0], [4.0, 0.0]]))


def test_edm_ignores_values_under_unobserved_positions():
    # asymmetric garbage is fine where the mask says "not measured"
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    entries = np.zeros((4, 4))
    entries[0, 1] = entries[1, 0] = 4.0
    entries[2, 3] = 7.0  # unobserved, asymmetric on purpose
    edm = Edm(entries, observed=AdjacencyMask(adj))
    assert edm.entries[2, 3] == 7.0


def test_mask_rejects_self_links_and_asymmetry():
    with pytest.raises(ValueError):
        AdjacencyMask(np.eye(3, dtype=bool))
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True
    with pytest.raises(ValueError):
        AdjacencyMask(bad)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_layout_csv_roundtrip(tmp_path, rng):
    layout = NodeLayout(rng.uniform(-2, 2, size=(2, 7)))
    path = tmp_path / "layout.csv"
    write_layout_csv(path, layout)
    assert path.read_text().splitlines()[0] == "n0,n1,n2,n3,n4,n5,n6"
    back = read_layout_csv(path)
    assert np.array_equal(back.coords, layout.coords)


def test_edm_csv_roundtrip(tmp_path, rng):
    edm = edm_from_points(NodeLayout(rng.uniform(-2, 2, size=(2, 5))))
    path = tmp_path / "edm.csv"
    write_edm_csv(path, edm)
    back = read_edm_csv(path)
    assert np.array_equal(back.entries, edm.entries)


def test_edm_csv_with_mask(tmp_path, rng):
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    mask = random_completable_mask(6, 0.8, rng)
    path = tmp_path / "edm.csv"
    write_edm_csv(path, edm_from_points(layout))
    back = read_edm_csv(path, mask=mask)
    assert not back.is_complete
    assert back.observed.edge_count == 12


def test_mask_csv_roundtrip(tmp_path, rng):
    mask = random_completable_mask(8, 0.7, rng)
    path = tmp_path / "mask.csv"
    write_mask_csv(path, mask)
    back = read_mask_csv(path)
    assert np.array_equal(back.mask, mask.mask)


@pytest.mark.parametrize(
    "body",
    [
        "1.0,2.0\n3.0,4.0\n",
        "{h}\n1.0,2.0\n3.0\n",
        "{h}\n1.0,x\n",
        "{h}\n",
        "{h}\n1.0,\xff\n",
    ],
    ids=["no-header", "ragged-row", "non-numeric", "header-only", "not-utf8"],
)
@pytest.mark.parametrize(
    "header, reader",
    [("n0,n1", read_layout_csv), ("w0_i,w0_q", read_sample_matrix_csv)],
    ids=["nodes", "iq"],
)
def test_csv_read_errors_name_the_file(tmp_path, header, reader, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(body.format(h=header).encode("latin-1"))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reader(path)


def test_completability_error_is_raisable():
    # structural failures use a dedicated type so callers can map them to
    # a distinct exit code
    assert issubclass(CompletabilityError, Exception)
