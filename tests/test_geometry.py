from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayloc.geometry import (
    AdjacencyMask,
    CompletabilityError,
    Edm,
    NodeLayout,
    connectivity_ratio,
    edge_budget,
    edm_from_points,
    is_completable,
    mask_edm,
    max_edges,
    min_connectivity,
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


def test_min_connectivity_closed_form():
    # 3N - 6 edges out of N(N-1)/2 gives 6(N-2)/(N(N-1))
    for n in range(4, 51):
        assert min_edges(n) <= max_edges(n)
        expected = 6.0 * (n - 2) / (n * (n - 1))
        assert min_connectivity(n) == pytest.approx(expected, rel=1e-15)


def test_connectivity_ratio_values(rng):
    assert connectivity_ratio(AdjacencyMask.complete(6)) == 1.0
    mask6 = random_completable_mask(6, 0.8, rng)
    assert mask6.edge_count == 12
    assert connectivity_ratio(mask6) == pytest.approx(0.8)
    mask10 = random_completable_mask(10, 0.5333, rng)
    assert mask10.edge_count == 24
    assert connectivity_ratio(mask10) == pytest.approx(24.0 / 45.0)


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
    with pytest.raises(ValueError):
        is_completable(AdjacencyMask.complete(5), m=3)


def test_constructed_masks_are_completable(rng):
    # construction guarantee, exercised over a spread of sizes and budgets
    for _ in range(1000):
        n = int(rng.integers(4, 16))
        c = rng.uniform(min_connectivity(n), 1.0)
        mask = random_completable_mask(n, c, rng)
        assert mask.edge_count == round(c * max_edges(n))
        assert is_completable(mask)


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
        mask = random_completable_mask(n, rng.uniform(min_connectivity(n), 1.0), rng)
    if kind == "cut":  # a node left with two links can never be resolved
        adj = mask.mask.copy()
        extra = np.flatnonzero(adj[0])[2:]
        adj[0, extra] = adj[extra, 0] = False
        mask = AdjacencyMask(adj)
    answer = is_completable(mask)
    if kind != "random":
        assert answer == (kind == "completable")
    perm = rng.permutation(n)
    assert is_completable(AdjacencyMask(mask.mask[np.ix_(perm, perm)])) == answer


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
    assert masked.observed.missing_pairs() == [(1, 2)]
    # values are kept intact underneath the mask, never zeroed
    assert np.array_equal(masked.entries, edm.entries)


def test_mask_edm_missing_pair_count(rng):
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    mask = random_completable_mask(6, 0.8, rng)
    masked = mask_edm(edm_from_points(layout), mask)
    assert len(masked.observed.missing_pairs()) == 3


def test_missing_indices_match_missing_pairs_row_major(rng):
    for n in (4, 6, 9):
        adj = np.triu(rng.random((n, n)) < 0.6, 1)
        mask = AdjacencyMask(adj | adj.T)
        expected = [
            (i, j) for i in range(n) for j in range(i + 1, n) if not adj[i, j]
        ]
        rows, cols = mask.missing_indices()
        assert list(zip(rows.tolist(), cols.tolist())) == expected
        assert mask.missing_pairs() == expected


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
