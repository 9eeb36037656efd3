from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayloc.evaluation import align_and_evm, align_stack, max_beamform_freq
from arrayloc.geometry import NodeLayout


def _random_rigid(rng):
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    if rng.random() < 0.5:
        rot = rot @ np.diag([1.0, -1.0])  # reflection
    return rot, rng.uniform(-10.0, 10.0, size=(2, 1))


def test_align_identity():
    truth = NodeLayout(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 0.0]]))
    result = align_and_evm(truth, truth)
    assert result.evm_mean == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(result.rotation, np.eye(2), atol=1e-12)
    assert np.allclose(result.translation, 0.0, atol=1e-12)


def test_align_undoes_any_rigid_map(rng):
    truth = NodeLayout(rng.uniform(-5, 5, size=(2, 8)))
    scale = np.abs(truth.coords).max()
    for _ in range(20):
        rot, shift = _random_rigid(rng)
        estimate = NodeLayout(rot @ truth.coords + shift)
        result = align_and_evm(estimate, truth)
        assert result.evm_mean < 1e-12 * scale
        assert np.allclose(
            result.rotation.T @ result.rotation, np.eye(2), atol=1e-10
        )


def test_aligned_layout_matches_the_reported_transform(rng):
    estimate = NodeLayout(rng.uniform(-1, 1, size=(2, 6)))
    truth = NodeLayout(rng.uniform(-1, 1, size=(2, 6)))
    result = align_and_evm(estimate, truth)
    rebuilt = result.rotation @ estimate.coords + result.translation[:, None]
    assert np.allclose(rebuilt, result.aligned.coords, atol=1e-12)


def test_evm_mean_is_the_mean_of_per_node_errors(rng):
    estimate = NodeLayout(rng.uniform(-1, 1, size=(2, 7)))
    truth = NodeLayout(rng.uniform(-1, 1, size=(2, 7)))
    result = align_and_evm(estimate, truth)
    assert result.evm_mean == pytest.approx(result.evm_per_node.mean(), rel=1e-14)
    assert result.evm_per_node.shape == (7,)


def test_evm_under_known_gaussian_perturbation():
    # with iid sigma per coordinate the node errors are Rayleigh; their mean
    # is sigma * sqrt(pi/2), and rigid alignment absorbs only O(1/N) of it
    rng = np.random.default_rng(6)
    sigma = 1e-3
    truth = NodeLayout(rng.uniform(0, 5, size=(2, 500)))
    noisy = NodeLayout(truth.coords + sigma * rng.standard_normal((2, 500)))
    direct = np.linalg.norm(noisy.coords - truth.coords, axis=0).mean()
    result = align_and_evm(noisy, truth)
    assert result.evm_mean == pytest.approx(direct, rel=0.02)
    assert result.evm_mean == pytest.approx(sigma * math.sqrt(math.pi / 2.0), rel=0.05)


def test_evm_consistent_under_relabeling(rng):
    estimate = NodeLayout(rng.uniform(-1, 1, size=(2, 6)))
    truth = NodeLayout(rng.uniform(-1, 1, size=(2, 6)))
    perm = rng.permutation(6)
    base = align_and_evm(estimate, truth)
    permuted = align_and_evm(
        NodeLayout(estimate.coords[:, perm]), NodeLayout(truth.coords[:, perm])
    )
    assert permuted.evm_mean == pytest.approx(base.evm_mean, rel=1e-12)
    assert np.allclose(permuted.evm_per_node, base.evm_per_node[perm], atol=1e-12)


def test_evm_does_not_depend_on_memory_layout(rng):
    # A transposed view and a C-ordered copy of the same coordinates must
    # give the same bits, as the per-generation EVM replay and the final
    # layout hold one and the other.
    for n in (8, 12, 16):
        truth = NodeLayout(rng.uniform(-1, 1, size=(2, n)))
        for _ in range(20):
            points = rng.uniform(-1, 1, size=(n, 2))
            view = align_and_evm(NodeLayout(points.T), truth)
            copy = align_and_evm(NodeLayout(points.T.copy()), truth)
            assert view.evm_mean == copy.evm_mean


def _one_alignment(a, b):
    """One layout's alignment by unstacked arithmetic, the reference for
    the stacked core: maps, translations, aligned layout, residuals."""
    ca = a.mean(axis=1, keepdims=True)
    cb = b.mean(axis=1, keepdims=True)
    u, _, vt = np.linalg.svd((a - ca) @ (b - cb).T)
    rotation = vt.T @ u.T
    translation = cb - rotation @ ca
    aligned = rotation @ a + translation
    return rotation, translation, aligned, np.linalg.norm(aligned - b, axis=0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.integers(2, 16),
    st.sampled_from(["random", "reflected", "collinear"]),
)
def test_a_stacked_alignment_is_each_layout_aligned_alone(seed, g, n, kind):
    # The EVM replay aligns every generation's layout in one stacked call,
    # on a (G, 2, N) view of MDS coordinate planes; each row must carry the
    # bits the layout gets alone, in align_and_evm and in unstacked
    # arithmetic, for reflected images and degenerate (collinear) layouts.
    rng = np.random.default_rng(seed)
    truth = rng.uniform(-5.0, 5.0, size=(2, n))
    if kind == "reflected":
        rot, shift = _random_rigid(rng)
        planes = (rot @ np.diag([1.0, -1.0]) @ truth + shift)[:, None] + 1e-3 * (
            rng.standard_normal((2, g, n))
        )
    elif kind == "collinear":
        truth = rng.normal(size=(2, 1)) * rng.uniform(-5.0, 5.0, size=n)
        planes = rng.normal(size=(2, 1, 1)) * rng.uniform(-5.0, 5.0, size=(g, n))
    else:
        planes = rng.uniform(-5.0, 5.0, size=(2, g, n))
    stack = planes.transpose(1, 0, 2)
    rows = align_stack(stack, NodeLayout(truth))
    means = rows[-1].mean(axis=-1)
    for k in range(g):
        alone = align_and_evm(NodeLayout(stack[k]), NodeLayout(truth))
        reference = _one_alignment(np.ascontiguousarray(stack[k]), truth)
        for got, want in zip((row[k] for row in rows), reference):
            assert got.tobytes() == want.tobytes()
        assert alone.rotation.tobytes() == rows[0][k].tobytes()
        assert alone.translation.tobytes() == rows[1][k].ravel().tobytes()
        assert alone.aligned.coords.tobytes() == rows[2][k].tobytes()
        assert alone.evm_per_node.tobytes() == rows[3][k].tobytes()
        assert alone.evm_mean == means[k]


def test_align_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        align_and_evm(NodeLayout(np.zeros((2, 4))), NodeLayout(np.zeros((2, 5))))
    for stack in (np.zeros((3, 2, 5)), np.zeros((2, 4))):
        with pytest.raises(ValueError):
            align_stack(stack, NodeLayout(np.zeros((2, 4))))


def test_evm_rms_property(rng):
    estimate = NodeLayout(rng.uniform(-1, 1, size=(2, 6)))
    truth = NodeLayout(rng.uniform(-1, 1, size=(2, 6)))
    result = align_and_evm(estimate, truth)
    assert result.evm_rms == pytest.approx(
        np.sqrt(np.mean(result.evm_per_node**2)), rel=1e-14
    )
    assert result.evm_rms >= result.evm_mean  # RMS dominates the mean


# ---------------------------------------------------------------------------
# beamforming bound
# ---------------------------------------------------------------------------


def test_beamform_freq_at_measured_precision():
    # 0.823 mm position error supports carriers up to about 24.3 GHz
    assert max_beamform_freq(0.823e-3) == pytest.approx(2.4284524746861080e10, rel=1e-12)


def test_beamform_freq_inverts_the_fifteenth_wavelength_rule():
    sigma = 9.51722088888889e-3  # one fifteenth of the 2.1 GHz wavelength
    assert max_beamform_freq(sigma) == pytest.approx(2.1e9, rel=1e-12)


def test_beamform_freq_inverse_proportionality():
    assert max_beamform_freq(0.5e-3) == pytest.approx(
        2.0 * max_beamform_freq(1e-3), rel=1e-14
    )
    values = [max_beamform_freq(s) for s in (1e-4, 1e-3, 1e-2)]
    assert values[0] > values[1] > values[2]


def test_beamform_freq_rejects_non_positive_error():
    with pytest.raises(ValueError):
        max_beamform_freq(0.0)
    with pytest.raises(ValueError):
        max_beamform_freq(-1e-3)
