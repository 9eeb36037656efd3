from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayloc import mds
from arrayloc.evaluation import align_and_evm
from arrayloc.geometry import AdjacencyMask, Edm, NodeLayout, edm_from_points, mask_edm
from arrayloc.mds import batched_mds, classical_mds, gram_from_edm, leading_eigenpairs


def test_gram_two_node_hand_value():
    # -1/2 (I - 1 s^T) D (I - s 1^T) with D = [[0,9],[9,0]], s = (1/2, 1/2)
    edm = Edm(np.array([[0.0, 9.0], [9.0, 0.0]]))
    gram = gram_from_edm(edm, s=np.array([0.5, 0.5]))
    assert np.allclose(gram, np.array([[2.25, -2.25], [-2.25, 2.25]]), atol=1e-12)


def test_gram_of_zero_matrix_is_zero():
    gram = gram_from_edm(Edm(np.zeros((4, 4))))
    assert np.allclose(gram, 0.0, atol=1e-15)


def test_gram_345_triangle_psd_rank_two():
    layout = NodeLayout(np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]]))
    gram = gram_from_edm(edm_from_points(layout))
    values = np.linalg.eigvalsh(gram)
    head = np.abs(values).max()
    assert values.min() >= -1e-9 * head
    assert np.sum(np.abs(values) > 1e-9 * head) == 2
    # trace equals the total squared norm of the centered points
    centered = layout.coords - layout.coords.mean(axis=1, keepdims=True)
    assert np.trace(gram) == pytest.approx(np.sum(centered**2), rel=1e-12)


def test_gram_default_centering_zeroes_row_sums(rng):
    edm = edm_from_points(NodeLayout(rng.uniform(-3, 3, size=(2, 7))))
    gram = gram_from_edm(edm)
    assert np.allclose(gram.sum(axis=1), 0.0, atol=1e-9 * np.abs(gram).max())


def test_gram_requires_complete_matrix(rng):
    edm = edm_from_points(NodeLayout(rng.uniform(0, 1, size=(2, 5))))
    adj = ~np.eye(5, dtype=bool)
    adj[0, 4] = adj[4, 0] = False
    with pytest.raises(ValueError):
        gram_from_edm(mask_edm(edm, AdjacencyMask(adj)))


def test_gram_centering_vector_must_sum_to_one():
    edm = Edm(np.array([[0.0, 9.0], [9.0, 0.0]]))
    with pytest.raises(ValueError):
        gram_from_edm(edm, s=np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        gram_from_edm(edm, s=np.array([1.0, 0.0, 0.0]))


def test_leading_eigenpairs_by_magnitude(rng):
    a = rng.standard_normal((8, 8))
    values, vectors = leading_eigenpairs((a + a.T)[None], 8)
    values, vectors = values[0], vectors[0]
    mags = np.abs(values)
    assert np.all(mags[:-1] >= mags[1:] - 1e-12)
    assert np.allclose(vectors.T @ vectors, np.eye(8), atol=1e-10)
    # eigenpairs actually decompose the matrix
    recon = vectors @ np.diag(values) @ vectors.T
    assert np.allclose(recon, a + a.T, atol=1e-10)


def _centred_gram(points: np.ndarray) -> np.ndarray:
    """Gram matrices of a (P, N, d) stack of layouts, centred."""
    centred = points - points.mean(axis=1, keepdims=True)
    return centred @ centred.transpose(0, 2, 1)


def _symmetric(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.transpose(0, 2, 1))


def _gram_stack(kind: str, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A (P, N, N) stack of symmetric test matrices of one kind."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "noisy_planar":  # near rank 2, like DE candidates near the end
        noise = _symmetric(rng.standard_normal((p, n, n)))
        g = _centred_gram(rng.uniform(0.0, 5.0, (p, n, 2)))
        return scale * (g + 10.0 ** rng.uniform(-8.0, -2.0) * noise)
    if kind == "uniform":
        return scale * _symmetric(rng.uniform(-1.0, 1.0, (p, n, n)))
    if kind == "polygon":  # lambda_1 == lambda_2, as on the circle layouts
        k = 2.0 * np.pi * np.arange(n) / n + rng.uniform(0.0, 2.0 * np.pi, (p, 1))
        return scale * _centred_gram(np.stack([np.cos(k), np.sin(k)], axis=-1))
    if kind == "negative":  # a dominant negative eigenvalue, then a positive one
        basis = rng.standard_normal((p, n, 2))
        basis, _ = np.linalg.qr(basis - basis.mean(axis=1, keepdims=True))
        lead = np.stack([-rng.uniform(1.0, 3.0, p), np.ones(p)], axis=1)
        noise = _symmetric(rng.standard_normal((p, n, n)))
        g = np.einsum("pik,pk,pjk->pij", basis, lead, basis)
        return scale * (g + 10.0 ** rng.uniform(-8.0, -2.0) * noise)
    if kind == "collinear":
        t = rng.uniform(0.0, 5.0, (p, n, 1))
        return scale * _centred_gram(t * rng.standard_normal((p, 1, 2)))
    assert kind == "coincident"
    return np.zeros((p, n, n))


GRAM_KINDS = [
    "noisy_planar", "uniform", "polygon", "negative", "collinear", "coincident"
]


def _weighted_projector(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    return np.einsum("pik,pk,pjk->pij", vectors, values, vectors)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 16),
    st.lists(st.sampled_from(GRAM_KINDS), min_size=1, max_size=4),
)
def test_planar_pairs_match_eigh(seed, n, kinds):
    rng = np.random.default_rng(seed)
    stack = np.concatenate([_gram_stack(kind, 5, n, rng) for kind in kinds])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = leading_eigenpairs(stack, 2)
    want_values, want_vectors = mds._eigh_pairs(stack, 2)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))
    mags = np.abs(values)
    assert np.all(mags[:, 0] >= mags[:, 1])
    assert np.allclose(
        vectors.transpose(0, 2, 1) @ vectors, np.eye(2), rtol=0.0, atol=1e-12
    )
    tol = 1e-9 * np.abs(want_values[:, 0])
    assert np.all(np.abs(values - want_values) <= tol[:, None])
    gap = np.abs(
        _weighted_projector(values, vectors)
        - _weighted_projector(want_values, want_vectors)
    )
    assert np.all(gap.max(axis=(1, 2)) <= tol)


def test_only_unproven_rows_reach_eigh(rng, monkeypatch):
    seen = []
    eigh_pairs = mds._eigh_pairs

    def spy(matrices, m):
        seen.append(matrices.shape[0])
        return eigh_pairs(matrices, m)

    monkeypatch.setattr(mds, "_eigh_pairs", spy)
    near_rank_two = np.concatenate(
        [
            _gram_stack(kind, 20, 9, rng)
            for kind in ("noisy_planar", "polygon", "negative")
        ]
    )
    leading_eigenpairs(near_rank_two, 2)
    assert seen == []  # every row proven
    degenerate = np.concatenate(
        [_gram_stack(kind, 3, 9, rng) for kind in ("collinear", "coincident")]
    )
    leading_eigenpairs(np.concatenate([near_rank_two, degenerate]), 2)
    assert seen == [6]  # exactly the collinear and coincident rows
    leading_eigenpairs(near_rank_two, 3)
    assert seen == [6, 60]  # any other m is all eigh


def _de_like_stack(n: int, rng: np.random.Generator) -> np.ndarray:
    """300 children within 5% of a layout's distances, 100 uniform immigrants."""
    full = edm_from_points(NodeLayout(rng.uniform(0.0, 5.0, size=(2, n)))).entries
    rows, cols = np.triu_indices(n, 1)
    missing = rng.choice(rows.size, size=rows.size // 4, replace=False)
    r, c = rows[missing], cols[missing]
    stack = np.repeat(full[None], 400, axis=0)
    children = full[r, c] * rng.uniform(0.95, 1.05, (300, missing.size))
    immigrants = rng.uniform(0.0, 2.0 * full.max(), (100, missing.size))
    stack[:, r, c] = stack[:, c, r] = np.vstack([children, immigrants])
    return stack


@pytest.mark.parametrize("n", [6, 10, 15])
def test_a_row_scores_alike_alone_and_in_any_batch(n, rng):
    stack = _de_like_stack(n, rng)
    values, coords = batched_mds(stack, 2)
    for i in range(0, 400, 3):
        lo = max(0, i - 3)
        for batch, at in ((stack[i : i + 1], 0), (stack[lo : lo + 7], i - lo)):
            v, x = batched_mds(batch, 2)
            assert np.array_equal(v[at], values[i])
            assert np.array_equal(x[at], coords[i])


def test_classical_mds_is_the_single_matrix_case_of_the_batch(rng):
    stack = []
    for _ in range(5):
        x = rng.uniform(0, 5, size=(2, 9))
        noise = np.triu(rng.normal(0.0, 1e-3, size=(9, 9)), 1)
        d = np.clip(edm_from_points(NodeLayout(x)).entries + noise + noise.T, 0, None)
        np.fill_diagonal(d, 0.0)
        stack.append(d)
    _, coords = batched_mds(np.array(stack), 2)
    for d, batch in zip(stack, coords):
        assert np.array_equal(classical_mds(Edm(d), 2).coords, batch.T)


def test_mds_two_points_on_a_line():
    edm = Edm(np.array([[0.0, 9.0], [9.0, 0.0]]))
    layout = classical_mds(edm, 1)
    # sign and order are free; magnitudes are +-1.5 around the centroid
    assert sorted(layout.coords.ravel().tolist()) == pytest.approx([-1.5, 1.5])


def test_mds_coincident_points_land_on_origin():
    layout = classical_mds(Edm(np.zeros((5, 5))), 2)
    assert np.allclose(layout.coords, 0.0, atol=1e-12)


def test_mds_roundtrip_six_nodes(rng):
    truth = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    edm = edm_from_points(truth)
    recovered = classical_mds(edm, 2)
    back = edm_from_points(recovered)
    assert np.abs(back.entries - edm.entries).max() <= 1e-9 * edm.entries.max()


def test_mds_roundtrip_and_centering_property(rng):
    for _ in range(40):
        n = int(rng.integers(3, 26))
        truth = NodeLayout(rng.uniform(-3, 3, size=(2, n)))
        edm = edm_from_points(truth)
        recovered = classical_mds(edm, 2)
        back = edm_from_points(recovered)
        assert np.abs(back.entries - edm.entries).max() <= 1e-9 * edm.entries.max()
        spread = np.abs(recovered.coords).max()
        assert np.linalg.norm(recovered.coords.mean(axis=1)) <= 1e-9 * max(spread, 1.0)


def test_mds_dimension_bounds():
    edm = Edm(np.array([[0.0, 9.0], [9.0, 0.0]]))
    with pytest.raises(ValueError):
        classical_mds(edm, 0)
    with pytest.raises(ValueError):
        classical_mds(edm, 3)


def test_mds_warns_on_strongly_non_euclidean_input():
    # d(0,2) = 5 violates the triangle inequality (1 + 1 < 5), so a leading
    # eigenvalue goes strongly negative and must be clipped with a warning
    entries = np.array(
        [
            [0.0, 1.0, 25.0],
            [1.0, 0.0, 1.0],
            [25.0, 1.0, 0.0],
        ]
    )
    with pytest.warns(RuntimeWarning):
        layout = classical_mds(Edm(entries), 2)
    assert np.all(np.isfinite(layout.coords))


def test_mds_error_grows_with_noise(rng):
    # aligned error should track the perturbation scale across decades
    truth = NodeLayout(rng.uniform(0, 5, size=(2, 10)))
    clean = edm_from_points(truth).entries
    scale = clean.max()
    errors = []
    for sigma_rel in (1e-6, 1e-4, 1e-2):
        evms = []
        for _ in range(5):
            noise = rng.standard_normal(clean.shape) * sigma_rel * scale
            noise = np.triu(noise, 1)
            noisy = np.clip(clean + noise + noise.T, 0.0, None)
            np.fill_diagonal(noisy, 0.0)
            recovered = classical_mds(Edm(noisy), 2)
            evms.append(align_and_evm(recovered, truth).evm_mean)
        errors.append(np.mean(evms))
    assert errors[0] < errors[1] < errors[2]
