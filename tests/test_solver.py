from __future__ import annotations

import dataclasses
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import shortest_path

from arrayloc.evaluation import align_and_evm
from arrayloc.geometry import (
    AdjacencyMask,
    CompletabilityError,
    Edm,
    NodeLayout,
    edge_budget,
    edm_from_points,
    mask_edm,
    max_edges,
    min_edges,
    random_completable_mask,
)
from arrayloc import mds, solver
from arrayloc.harness import _signal_level_edm
from arrayloc.mds import _double_centre, batched_mds, embed_gram
from arrayloc.ranging import sample_edm_statistical, synth_two_tone
from arrayloc.snr import db_to_linear
from arrayloc.solver import (
    LOCKSTEP_WORKSPACE_BYTES,
    SolverConfig,
    _CostTerms,
    _Workspace,
    _bounded_costs,
    _cost_terms,
    _geodesic_upper_bounds,
    _grams,
    _smallest_columns,
    _working_set_bytes,
    complete_and_localize,
    complete_and_localize_group,
    evaluate_cost,
    lockstep_trials,
)


def _masked_problem(rng, n=6, c=0.8, extent=5.0):
    layout = NodeLayout(rng.uniform(0.0, extent, size=(2, n)))
    mask = random_completable_mask(n, c, rng)
    observed = mask_edm(edm_from_points(layout), mask)
    return layout, mask, observed


def _true_missing_vector(layout, mask):
    full = edm_from_points(layout).entries
    return full[mask.missing_indices()]


# ---------------------------------------------------------------------------
# cost function
# ---------------------------------------------------------------------------


def test_cost_is_zero_at_the_true_completion(rng):
    layout, mask, observed = _masked_problem(rng)
    truth = _true_missing_vector(layout, mask)
    scale = observed.entries.max()
    assert evaluate_cost(truth, observed, mask) <= 1e-18 * scale**2


def test_cost_with_complete_mask_is_zero(rng):
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    mask = AdjacencyMask.complete(6)
    observed = mask_edm(edm_from_points(layout), mask)
    scale = observed.entries.max()
    assert evaluate_cost(np.zeros(0), observed, mask) <= 1e-18 * scale**2


def test_cost_grid_scan_finds_the_missing_edge(rng):
    # one unknown in a 5-node array (every node keeps 3+ links, so the
    # completion is unique): the exhaustive grid minimum must bracket the
    # true squared distance
    layout = NodeLayout(rng.uniform(0.0, 3.0, size=(2, 5)))
    adj = ~np.eye(5, dtype=bool)
    adj[3, 4] = adj[4, 3] = False
    mask = AdjacencyMask(adj)
    observed = mask_edm(edm_from_points(layout), mask)
    true_d2 = edm_from_points(layout).entries[3, 4]
    grid = np.linspace(0.0, 4.0 * true_d2 + 1.0, 400)
    costs = [evaluate_cost(np.array([v]), observed, mask) for v in grid]
    best = grid[int(np.argmin(costs))]
    cell = grid[1] - grid[0]
    assert abs(best - true_d2) <= cell


def test_cost_rejects_wrong_vector_length(rng):
    layout, mask, observed = _masked_problem(rng)
    with pytest.raises(ValueError):
        evaluate_cost(np.zeros(99), observed, mask)
    # A non-finite entry is rejected before any work, with no warning.
    for bad in (np.nan, np.inf, -np.inf):
        vector = _true_missing_vector(layout, mask)
        vector[-1] = bad
        with warnings.catch_warnings(), pytest.raises(ValueError, match="finite"):
            warnings.simplefilter("error")
            evaluate_cost(vector, observed, mask)


def test_cost_rejects_a_one_node_matrix():
    mask = AdjacencyMask(np.zeros((1, 1), dtype=bool))
    with pytest.raises(ValueError, match="at least two nodes"):
        evaluate_cost(np.zeros(0), Edm(np.zeros((1, 1)), observed=mask), mask)


def test_cost_matches_the_solver_bit_for_bit(rng):
    # every generation's best vector scores exactly its recorded best cost
    layout, mask, observed = _masked_problem(rng)
    run = complete_and_localize(
        observed, mask, SolverConfig(max_generations=15), rng
    )
    costs = [
        evaluate_cost(vector, observed, mask) for vector in run.best_vector_history
    ]
    assert costs == run.best_cost_history.tolist()


def test_cost_ignores_nan_at_unobserved_entries(rng):
    layout, mask, observed = _masked_problem(rng)
    truth = _true_missing_vector(layout, mask)
    poisoned = observed.entries.copy()
    poisoned[~mask.mask & ~np.eye(mask.count, dtype=bool)] = np.nan
    nan_observed = Edm(poisoned, observed=mask)
    assert evaluate_cost(truth, nan_observed, mask) == evaluate_cost(
        truth, observed, mask
    )


def test_complete_mask_cost_is_the_batched_cost(wave40):
    # with nothing missing the solver still scores the mask through the
    # one batched cost, so it equals evaluate_cost bit for bit
    mask = AdjacencyMask.complete(6)
    for t in range(10):
        rng = np.random.default_rng((23, t))
        layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
        observed = sample_edm_statistical(
            layout, mask, db_to_linear(34.0), wave40, rng
        )
        run = complete_and_localize(observed, mask)
        cost = evaluate_cost(np.zeros(0), observed, mask)
        assert cost > 0.0
        assert cost == run.best_cost_history[-1]


# ---------------------------------------------------------------------------
# the cost against the formula it replaces, and its batch independence
# ---------------------------------------------------------------------------


def _reference_costs(vectors, observed, mask, m):
    """F(p) = 1/2 ||W o (Dbar - edm(mds(complete(D_obs, p))))||_F^2, Dbar =
    (D_obs + D_obs^T) / 2, computed as written: fill each candidate in, run
    MDS on the complete matrix, and weight the full N x N residual by the
    mask.  Scoring D_obs itself would add the sum of (d_ij - d_ji)^2 / 4,
    which is not part of the cost."""
    entries = mask.filled(observed.entries, 0.0)
    weights = mask.mask.astype(float)
    _, coords = batched_mds(mask.filled(entries, vectors), m)
    sq_norms = np.sum(coords**2, axis=0)
    recon = (
        sq_norms[:, :, None]
        + sq_norms[:, None, :]
        - 2.0 * np.einsum("kpi,kpj->pij", coords, coords)
    )
    residual = (0.5 * (entries + entries.T) - recon) * weights
    return 0.5 * np.sum(residual**2, axis=(1, 2))


def _noisy_problem(rng, n, c, rows=400, kind="noisy"):
    """Noisy masked EDM and ``rows`` candidates drawn as the solver draws
    them: three quarters within 5% of the true missing distances, the rest
    uniform up to the geodesic bound.  ``kind`` may instead make the layout
    elongated, collinear or with two nodes coincident, or the EDM noiseless."""
    points = rng.uniform(0.0, 5.0, size=(2, n))
    if kind == "elongated":  # 20:1
        points[1] *= 0.05
    elif kind == "collinear":
        points[1] = 0.5 * points[0]
    elif kind == "coincident":
        points[:, 1] = points[:, 0]
    full = edm_from_points(NodeLayout(points)).entries
    mask = random_completable_mask(n, c, rng)
    noise = np.triu(rng.normal(0.0, 0.05, size=(n, n)), 1) * (kind != "noiseless")
    observed = Edm(
        np.where(mask.mask, np.clip(full + noise + noise.T, 0.0, None), 0.0),
        observed=mask,
    )
    pairs = mask.missing_indices()
    upper = _geodesic_upper_bounds(observed.entries, mask)
    kids = 3 * rows // 4
    children = full[pairs] * rng.uniform(0.95, 1.05, (kids, upper.size))
    immigrants = upper * rng.random((rows - kids, upper.size))
    return observed, mask, np.vstack([children, immigrants])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 16),
    st.sampled_from(["random", "floor", "complete", "asymmetric"]),
)
def test_cost_equals_the_fill_centre_embed_formula(seed, n, kind):
    rng = np.random.default_rng(seed)
    low = min_edges(n) / max_edges(n)
    c = {"floor": low, "complete": 1.0}.get(kind, rng.uniform(low, 1.0))
    observed, mask, vectors = _noisy_problem(rng, n, c, rows=8)
    if kind == "asymmetric":
        # Edm lets the two triangles of a measured pair differ by 1e-9 of
        # its largest entry; the cost scores their mean.
        tol = 1e-9 * max(float(observed.entries.max()), 1.0)
        skew = np.triu(rng.uniform(0.0, 0.9, size=(n, n)), 1) * tol
        observed = Edm(observed.entries + skew * mask.mask, observed=mask)
        assert not np.array_equal(observed.entries, observed.entries.T)
    terms = _cost_terms(observed.entries, mask)
    grams = _grams(vectors[None], terms, _Workspace.allocate(len(vectors), terms))
    want = _double_centre(mask.filled(observed.entries, vectors))
    scale = np.sqrt(np.sum(want**2, axis=(1, 2)))
    assert np.all(np.abs(grams - want).max(axis=(1, 2)) <= 1e-12 * scale)
    assert np.array_equal(grams, grams.transpose(0, 2, 1))
    # Both sides embed through eigh here.  The certified subspace path
    # keeps a row's eigenvectors only to about 1e-10 |lambda_1| / gap, and
    # on an elongated layout (lambda_2 / lambda_1 near 0.1) two Gram
    # matrices that differ by rounding alone can then give costs that
    # differ by 1e-8 relative; that is the eigen core's tolerance, tested
    # in test_mds.py, not the cost formula's.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mds, "_prove_pairs", lambda *_: None)  # proves no row
        np.testing.assert_allclose(
            _bounded_costs(vectors[None], terms)[0][0],
            _reference_costs(vectors, observed, mask, 2),
            rtol=1e-9,
            atol=0.0,
        )


@pytest.mark.parametrize(
    "n, c", [(6, 0.8), (10, 0.9), (15, 0.9), (6, 1.0), (15, 0.5)]
)
def test_a_row_costs_alike_alone_and_in_any_batch(n, c, rng):
    # The solver scores a generation in one batch, in a workspace sized for
    # 400 rows, and evaluate_cost scores one row in fresh buffers: a row's
    # cost must depend neither on the rows beside it nor on the buffers.
    observed, mask, vectors = _noisy_problem(rng, n, c)
    if c == 0.5:
        assert vectors.shape[1] == 52  # many basis columns in the product
    terms = _cost_terms(observed.entries, mask)
    costs = _bounded_costs(vectors[None], terms)[0][0]
    for i in range(0, 400, 3):
        lo = max(0, i - 3)
        assert _bounded_costs(vectors[None, i : i + 1], terms)[0][0, 0] == costs[i]
        batch = _bounded_costs(vectors[None, lo : lo + 7], terms)[0]
        assert batch[0, i - lo] == costs[i]
    for i in (0, 399):
        assert evaluate_cost(vectors[i], observed, mask) == costs[i]
    work = _Workspace.allocate(400, terms)
    for rows in (1, 7, 200, 400):
        batch = vectors[None, 400 - rows :]
        assert np.array_equal(
            _bounded_costs(batch, terms, work)[0], _bounded_costs(batch, terms)[0]
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 16),
    st.sampled_from(["noisy", "noiseless", "elongated", "collinear", "coincident"]),
)
def test_a_ruled_out_row_costs_more_than_its_ceiling(seed, n, kind):
    # Under a ceiling per trial, a row is ruled out only when its cost, by
    # the solver's own eigen path and by eigh alike, lies above its trial's
    # ceiling; it then costs +inf, and every other row keeps its bits.  Two
    # stacked trials of the same terms check that each row meets its own
    # trial's ceiling.
    rng = np.random.default_rng(seed)
    c = rng.uniform(min_edges(n) / max_edges(n), 1.0)
    observed, mask, vectors = _noisy_problem(rng, n, c, rows=200, kind=kind)
    assume(vectors.shape[1] > 0)
    terms = _cost_terms(observed.entries, mask)
    exact = _bounded_costs(vectors[None], terms)[0][0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mds, "_prove_pairs", lambda *_: None)  # proves no row
        by_eigh = _bounded_costs(vectors[None], terms)[0][0]
    ceilings = np.quantile(exact, [0.02, 0.3])
    pair = _CostTerms.stack([terms, terms])
    costs, ruled = _bounded_costs(np.stack([vectors] * 2), pair, None, ceilings)
    for t, ceiling in enumerate(ceilings):
        assert np.all(exact[ruled[t]] > ceiling) and np.all(by_eigh[ruled[t]] > ceiling)
        assert np.all(costs[t, ruled[t]] == np.inf)
        assert np.array_equal(costs[t, ~ruled[t]], exact[~ruled[t]])
        alone = _bounded_costs(vectors[None], terms, None, ceilings[t : t + 1])
        assert np.array_equal(alone[0], costs[t : t + 1])
        assert np.array_equal(alone[1], ruled[t : t + 1])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 16))
def test_the_floor_gain_bounds_how_far_the_pairs_move(seed, n):
    # The cost floor charges gain * E for Gram matrices E apart in Frobenius
    # norm: the gain must bound the norm of the map dK -> (dK_ii + dK_jj -
    # 2 dK_ij) over the measured pairs, and never exceed the 2 sqrt(L) that
    # each pair's own norm, 2, gives.
    rng = np.random.default_rng(seed)
    mask = random_completable_mask(n, rng.uniform(min_edges(n) / max_edges(n), 1.0), rng)
    layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, n)))
    terms = _cost_terms(mask_edm(edm_from_points(layout), mask).entries, mask)
    (i,), (j,), (gain,) = terms.rows, terms.cols, terms.gain
    links = i.size
    assert terms.gain.shape == (1,) and gain <= 2.0 * np.sqrt(links)
    for _ in range(5):
        dk = rng.standard_normal((n, n)) * rng.uniform(0.0, 10.0, size=(n, 1))
        dk += dk.T
        moved = dk[i, i] + dk[j, j] - 2.0 * dk[i, j]
        assert np.linalg.norm(moved) <= gain * np.linalg.norm(dk) * (1 + 1e-12)
    # The map's exact norm, its largest singular value on symmetric dK.
    pair_map = np.zeros((links, n, n))
    pair_map[np.arange(links), i, i] = pair_map[np.arange(links), j, j] = 1.0
    pair_map[np.arange(links), i, j] = pair_map[np.arange(links), j, i] = -1.0
    assert np.linalg.norm(pair_map.reshape(links, -1), 2) <= gain * (1 + 1e-12)


def test_a_workspace_is_reused_without_aliasing(rng):
    observed, mask, vectors = _noisy_problem(rng, 10, 0.9)
    terms = _cost_terms(observed.entries, mask)
    work = _Workspace.allocate(400, terms)
    first = _bounded_costs(vectors[None, :200], terms, work)[0]
    kept = first.copy()
    second = _bounded_costs(vectors[None, 200:], terms, work)[0]
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)
    values, coords = embed_gram(_grams(vectors[None], terms, work), 2, work.powers)
    buffers = [getattr(work, field.name) for field in dataclasses.fields(work)]
    for out in (first, second, values, coords):
        assert not any(np.shares_memory(out, buffer) for buffer in buffers)


_TWO_RUNS = """
import resource, sys
import numpy as np
from arrayloc.geometry import Edm, NodeLayout, edm_from_points, random_completable_mask
from arrayloc.solver import complete_and_localize_group

n, c, trials = int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(4)
observed, masks = [], []
for _ in range(trials):
    full = edm_from_points(NodeLayout(rng.uniform(0.0, 5.0, size=(2, n)))).entries
    mask = random_completable_mask(n, c, rng)
    noise = np.triu(rng.normal(0.0, 0.01, size=(n, n)), 1)
    entries = np.where(mask.mask, np.clip(full + noise + noise.T, 0.0, None), 0.0)
    observed.append(Edm(entries, observed=mask))
    masks.append(mask)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rngs = [np.random.default_rng(4 + t) for t in range(trials)]
    runs = complete_and_localize_group(observed, masks, None, rngs)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / max(run.generations_used for run in runs))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs Linux minor-fault counts"
)
def test_a_generation_does_not_fault_its_arrays_back_in():
    # Scoring a 15-node generation in fresh arrays touched about 7 MB of
    # pages that the allocator had handed back to the kernel, over 1,000
    # minor faults per generation; the group's workspace keeps them mapped,
    # for one 15-node trial as for the largest 6-node lockstep group the
    # harness runs.  A fresh process gives the heap a trial's starting state.
    pytest.importorskip("resource")
    largest = LOCKSTEP_WORKSPACE_BYTES // _working_set_bytes(
        6, edge_budget(6, 0.8), SolverConfig()
    )
    for n, c, trials in ((15, 0.9, 1), (6, 0.8, largest)):
        proc = subprocess.run(
            [sys.executable, "-c", _TWO_RUNS, str(n), str(c), str(trials)],
            capture_output=True, text=True, check=True,
        )
        assert float(proc.stdout) < 100.0, (n, trials)


# ---------------------------------------------------------------------------
# cost invariants: node relabelling, rigid motion, distance scale
# ---------------------------------------------------------------------------


def _noisy_candidate(seed, n, points=None):
    """Noisy masked EDM of a random layout and a random candidate vector."""
    rng = np.random.default_rng(seed)
    if points is None:
        points = rng.uniform(0.0, 5.0, size=(2, n))
    mask = random_completable_mask(n, 0.8, rng)
    noise = np.triu(rng.normal(0.0, 0.05, size=(n, n)), 1)
    full = edm_from_points(NodeLayout(points)).entries
    entries = np.clip(full + noise + noise.T, 0.0, None)
    vector = rng.uniform(0.0, 50.0, size=mask.missing_indices()[0].size)
    return Edm(entries, observed=mask), mask, vector


_invariant_cases = given(st.integers(0, 2**32 - 1), st.integers(6, 9))


@settings(max_examples=20, deadline=None)
@_invariant_cases
def test_cost_is_invariant_to_node_relabelling(seed, n):
    observed, mask, vector = _noisy_candidate(seed, n)
    perm = np.random.default_rng(seed + 1).permutation(n)
    relabel = np.ix_(perm, perm)
    new_mask = AdjacencyMask(mask.mask[relabel])
    candidate = mask.filled(observed.entries, vector)[relabel]
    new_vector = candidate[new_mask.missing_indices()]
    new_observed = Edm(observed.entries[relabel], observed=new_mask)
    base = evaluate_cost(vector, observed, mask)
    assert evaluate_cost(new_vector, new_observed, new_mask) == pytest.approx(
        base, rel=1e-9
    )


@settings(max_examples=20, deadline=None)
@_invariant_cases
def test_cost_is_invariant_to_rigid_motion(seed, n):
    points = np.random.default_rng(seed).uniform(0.0, 5.0, size=(2, n))
    angle = np.random.default_rng(seed + 1).uniform(0.0, 2.0 * np.pi)
    rotation = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )
    moved = rotation @ points + np.array([[3.0], [-7.0]])
    observed, mask, vector = _noisy_candidate(seed, n, points)
    moved_observed, _, _ = _noisy_candidate(seed, n, moved)
    base = evaluate_cost(vector, observed, mask)
    assert evaluate_cost(vector, moved_observed, mask) == pytest.approx(
        base, rel=1e-9
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 9), st.floats(0.1, 10.0))
def test_cost_scales_by_s4_when_distances_scale_by_s2(seed, n, s):
    observed, mask, vector = _noisy_candidate(seed, n)
    scaled = Edm(observed.entries * s**2, observed=mask)
    base = evaluate_cost(vector, observed, mask)
    assert evaluate_cost(vector * s**2, scaled, mask) == pytest.approx(
        base * s**4, rel=1e-9
    )


def test_a_cost_is_the_same_bits_at_every_scale():
    # evaluate_cost scores on the entries the search scores on, times 4^-k:
    # distances times 2^j give the cost times 16^j exactly, and in a 1e100 m
    # box, where the cost leaves float range, it reads inf with no overflow.
    observed, mask, vector = _noisy_candidate(0, 7)
    base = evaluate_cost(vector, observed, mask)
    for j in (-200, -40, -3, 3, 40, 200, 332):
        scaled = Edm(np.ldexp(observed.entries, 2 * j), observed=mask)
        with np.errstate(over="ignore"):
            want = np.ldexp(base, 4 * j)
        assert evaluate_cost(np.ldexp(vector, 2 * j), scaled, mask) == want, j
    assert np.isinf(want) and np.sqrt(scaled.entries.max()) > 1e100


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_run_is_the_same_bits_at_every_scale(seed, wave40):
    # Distances times 2^k give the same search, bit for bit: the layout
    # times 2^k, the vectors times 4^k and the costs times 16^k, far below
    # and above the scales where an absolute floor or the square of an
    # entry would leave float range.
    rng = np.random.default_rng(seed)
    layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 8)))
    mask = random_completable_mask(8, 0.8, rng)
    observed = sample_edm_statistical(layout, mask, db_to_linear(34.0), wave40, rng)
    base = complete_and_localize(observed, mask, None, np.random.default_rng(seed))
    counts = (base.generations_used, base.stop_reason, base.evaluations, base.ruled_out)
    for k in (-200, -120, -40, -5, 5, 40, 120, 200):
        scaled = Edm(np.ldexp(observed.entries, 2 * k), observed=mask)
        run = complete_and_localize(scaled, mask, None, np.random.default_rng(seed))
        for got, want, power in (
            (run.recovered_layout.coords, base.recovered_layout.coords, k),
            (run.best_vector_history, base.best_vector_history, 2 * k),
            (run.best_cost_history, base.best_cost_history, 4 * k),
        ):
            assert got.tobytes() == np.ldexp(want, power).tobytes(), k
        assert (run.generations_used, run.stop_reason, run.evaluations,
                run.ruled_out) == counts, k


# ---------------------------------------------------------------------------
# selection helpers: exact stable-argsort order, ties included
# ---------------------------------------------------------------------------


@given(
    arrays(
        float,
        st.tuples(st.integers(1, 12), st.integers(4, 12)),
        elements=st.integers(0, 3).map(float),
    ),
    st.data(),
)
def test_donor_triples_match_stable_argsort(keys, data):
    targets = data.draw(
        arrays(
            np.intp,
            keys.shape[0],
            elements=st.integers(0, keys.shape[1] - 1),
        )
    )
    keys[np.arange(keys.shape[0]), targets] = 2.0
    expected = np.argsort(keys, axis=1, kind="stable")[:, :3]
    assert np.array_equal(_smallest_columns(keys.copy(), 3), expected)


@given(
    arrays(
        float,
        st.tuples(st.integers(1, 12), st.integers(1, 8)),
        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 7.0]),
    ),
    st.data(),
)
def test_leading_eigenvalue_picks_match_stable_argsort(values, data):
    m = data.draw(st.integers(1, values.shape[1]))
    expected = np.argsort(-np.abs(values), axis=1, kind="stable")[:, :m]
    assert np.array_equal(_smallest_columns(-np.abs(values), m), expected)


# ---------------------------------------------------------------------------
# geodesic bounds: Dijkstra's sums, zero-length links included
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 40),
    st.sampled_from(["random", "rounded", "elongated", "noisy"]),
)
def test_geodesic_bounds_equal_dijkstra(seed, n, kind):
    # SciPy's dense graphs drop every weight at or below 1e-8 as "no edge",
    # so the oracle holds only where every measured link is longer.
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 10.0, size=(2, n))
    if kind == "rounded":  # exact ties between paths
        points = np.round(points)
    elif kind == "elongated":  # 10:1
        points[1] *= 0.1
    full = edm_from_points(NodeLayout(points)).entries
    if kind == "noisy":
        noise = np.triu(rng.normal(0.0, 0.05, size=(n, n)), 1)
        full = np.clip(full + noise + noise.T, 0.0, None)
    mask = random_completable_mask(n, rng.uniform(min_edges(n) / max_edges(n), 1.0), rng)
    weights = np.where(mask.mask, np.sqrt(full), 0.0)
    assume(np.all(weights[mask.mask] > 1e-8))
    observed = Edm(np.where(mask.mask, full, 0.0), observed=mask)
    pairs = mask.missing_indices()
    want = shortest_path(weights, method="D", directed=False)[pairs] ** 2
    assert np.array_equal(_geodesic_upper_bounds(observed.entries, mask), want)


def test_a_zero_length_link_carries_the_geodesic():
    # Nodes 0 and 1 coincide and only pair (1, 4) is unmeasured.  Through
    # the zero-length link 1-0 its bound is |0 4|^2 = 18; a graph that drops
    # that link bounds it by (|1 2| + |2 4|)^2 = 21.21 instead.
    points = np.array([[0.0, 0.0, 0.0, 3.0, 3.0], [0.0, 0.0, 1.0, 0.0, 3.0]])
    adj = ~np.eye(5, dtype=bool)
    adj[1, 4] = adj[4, 1] = False
    mask = AdjacencyMask(adj)
    observed = mask_edm(edm_from_points(NodeLayout(points)), mask)
    bounds = _geodesic_upper_bounds(observed.entries, mask)
    assert bounds == pytest.approx([18.0], rel=1e-15)


# ---------------------------------------------------------------------------
# solver configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(population_size=3)
    with pytest.raises(ValueError):
        SolverConfig(max_generations=0)
    with pytest.raises(ValueError):
        SolverConfig(parent_fraction=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_generations=10.0)


# ---------------------------------------------------------------------------
# complete_and_localize
# ---------------------------------------------------------------------------


def test_complete_mask_degenerates_to_plain_mds(rng):
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    mask = AdjacencyMask.complete(6)
    observed = mask_edm(edm_from_points(layout), mask)
    run = complete_and_localize(observed, mask)
    assert run.stop_reason == "complete_mask"
    assert run.converged
    assert run.generations_used == 1
    assert run.best_vector_history.shape == (1, 0)
    assert align_and_evm(run.recovered_layout, layout).evm_mean < 1e-9


def test_the_generation_cap_stops_with_max_generations(rng):
    _, mask, observed = _masked_problem(rng)
    run = complete_and_localize(
        observed, mask, SolverConfig(max_generations=2), rng
    )
    assert run.generations_used == 2
    assert run.stop_reason == "max_generations"
    assert not run.converged


def test_a_noiseless_run_stops_stalled():
    _, mask, observed = _masked_problem(np.random.default_rng(1))
    run = complete_and_localize(observed, mask, rng=np.random.default_rng(1))
    assert run.stop_reason == "stalled"
    assert run.converged
    assert run.generations_used < SolverConfig().max_generations
    # A stall on the last generation the cap allows is still a stall.
    capped = complete_and_localize(
        observed, mask, SolverConfig(max_generations=run.generations_used),
        np.random.default_rng(1),
    )
    assert capped.stop_reason == "stalled"
    assert np.array_equal(capped.best_cost_history, run.best_cost_history)


def test_a_group_runs_each_trial_as_it_runs_alone(wave40):
    # Trials leave the lockstep batch at different generations: one with a
    # complete mask at once (a batch of its own shape), three on the stall
    # test, one of them on the last generation the cap allows, and one at
    # the cap.  Every run must be the one the trial gives alone.
    config = SolverConfig(max_generations=30)
    seeds, observed, masks = [0, 1, 4, 3, 2], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
        masks.append(random_completable_mask(6, 1.0 if seed == 1 else 0.8, rng))
        observed.append(
            sample_edm_statistical(layout, masks[-1], db_to_linear(34.0), wave40, rng)
        )
    group = complete_and_localize_group(
        observed, masks, config, [np.random.default_rng(s) for s in seeds]
    )
    assert [(run.generations_used, run.stop_reason) for run in group] == [
        (30, "max_generations"), (1, "complete_mask"), (14, "stalled"),
        (30, "stalled"), (27, "stalled"),
    ]
    for run, o, mask, seed in zip(group, observed, masks, seeds):
        alone = complete_and_localize(o, mask, config, np.random.default_rng(seed))
        for name in ("best_cost_history", "best_vector_history"):
            assert getattr(run, name).tobytes() == getattr(alone, name).tobytes()
        layouts = run.recovered_layout, alone.recovered_layout
        assert layouts[0].coords.tobytes() == layouts[1].coords.tobytes()
        assert (run.generations_used, run.stop_reason, run.evaluations) == (
            alone.generations_used, alone.stop_reason, alone.evaluations
        )
    with pytest.raises(ValueError):
        complete_and_localize_group(observed[:2], masks, config, seeds)


def test_a_group_larger_than_a_batch_runs_each_trial_as_it_runs_alone(
    wave40, monkeypatch
):
    # Thirteen 6-node trials run in batches of 6, 6 and 1, and a complete
    # mask's trial in a batch of its own shape: no batch allocates more than
    # six trials' workspace, and every run is the one the trial gives alone.
    config, observed, masks = SolverConfig(max_generations=30), [], []
    for seed in range(14):
        rng = np.random.default_rng(seed)
        layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
        masks.append(random_completable_mask(6, 1.0 if seed == 1 else 0.8, rng))
        observed.append(
            sample_edm_statistical(layout, masks[-1], db_to_linear(34.0), wave40, rng)
        )
    rows, allocate = [], solver._Workspace.allocate

    def spy(count, terms):
        rows.append(count)
        return allocate(count, terms)

    monkeypatch.setattr(solver._Workspace, "allocate", spy)
    rngs = [np.random.default_rng(seed) for seed in range(14)]
    group = complete_and_localize_group(observed, masks, config, rngs)
    width = config.rows_per_generation
    assert sorted(rows) == [width, width, 6 * width, 6 * width]
    for seed, (run, o, mask) in enumerate(zip(group, observed, masks)):
        _assert_same_run(run, complete_and_localize(o, mask, config,
                                                    np.random.default_rng(seed)))


def test_a_group_holds_one_batch_of_searches_at_a_time():
    # Each batch's searches, cost bases and first populations are built just
    # before it runs, so a group of four batches of 30-node trials, whose
    # bases outweigh their small workspace, peaks near one batch.
    config, n, c = SolverConfig(population_size=8, max_generations=2), 30, 0.5
    size = lockstep_trials(n, edge_budget(n, c), config)
    rng, observed, masks = np.random.default_rng(5), [], []
    for _ in range(4 * size):
        layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, n)))
        masks.append(random_completable_mask(n, c, rng))
        observed.append(mask_edm(edm_from_points(layout), masks[-1]))

    def peak(count):
        rngs = [np.random.default_rng(t) for t in range(count)]
        tracemalloc.start()
        try:
            complete_and_localize_group(observed[:count], masks[:count], config, rngs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert size > 1
    assert peak(4 * size) <= 1.5 * peak(size)


def _assert_same_run(run, want):
    """Every field of two SolverRuns alike but ``ruled_out``."""
    for name in ("best_cost_history", "best_vector_history"):
        assert getattr(run, name).tobytes() == getattr(want, name).tobytes()
    assert run.recovered_layout.coords.tobytes() == want.recovered_layout.coords.tobytes()
    assert (run.generations_used, run.stop_reason, run.evaluations) == (
        want.generations_used, want.stop_reason, want.evaluations
    )


@pytest.mark.parametrize(
    "config, one_missing",
    [(SolverConfig(parent_fraction=1.0, max_generations=30), False),
     (SolverConfig(population_size=4, max_generations=30), False),
     (SolverConfig(max_generations=30), True)],
    ids=["no_immigrants", "population_4", "one_missing_pair"],
)
def test_a_group_breeds_each_trial_as_it_breeds_alone(config, one_missing, wave40):
    # A group breeds and selects on arrays stacked over its trials: with no
    # immigrants, with the smallest population (all parents, each with two
    # donor candidates besides itself) and with one missing value per
    # trial, each trial must still run as it runs alone.
    seeds, observed, masks = range(4), [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
        if one_missing:
            links = ~np.eye(6, dtype=bool)
            links[seed, seed + 1] = links[seed + 1, seed] = False
            masks.append(AdjacencyMask(links))
        else:
            masks.append(random_completable_mask(6, 0.8, rng))
        observed.append(
            sample_edm_statistical(layout, masks[-1], db_to_linear(34.0), wave40, rng)
        )
    group = complete_and_localize_group(
        observed, masks, config, [np.random.default_rng(s) for s in seeds]
    )
    assert len({run.generations_used for run in group}) > 1  # trials leave apart
    for run, o, mask, seed in zip(group, observed, masks, seeds):
        alone = complete_and_localize(o, mask, config, np.random.default_rng(seed))
        _assert_same_run(run, alone)
        assert run.ruled_out == alone.ruled_out


def _without_ceilings(patch):
    """Patch the solver to score every candidate exactly."""
    bounded = solver._bounded_costs
    patch.setattr(
        solver, "_bounded_costs",
        lambda v, terms, work=None, ceilings=None: bounded(v, terms, work),
    )


@pytest.mark.parametrize(
    "n, c, trials", [(6, 0.8, 4), (8, 0.8, 3), (10, 0.9, 2), (15, 0.9, 1)]
)
def test_the_ceiling_rule_changes_no_run(n, c, trials, wave40, monkeypatch):
    # A candidate scored +inf under its trial's ceiling could not have
    # been selected, so solo and lockstep runs are the runs that score
    # every candidate exactly.  The first 6-node trial is noiseless.
    observed, masks = [], []
    for seed in range(trials):
        rng = np.random.default_rng((n, seed))
        layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, n)))
        masks.append(random_completable_mask(n, c, rng))
        if n == 6 and seed == 0:
            observed.append(mask_edm(edm_from_points(layout), masks[-1]))
        else:
            snr = db_to_linear(34.0)
            observed.append(sample_edm_statistical(layout, masks[-1], snr, wave40, rng))

    def runs():
        rngs = [np.random.default_rng(seed) for seed in range(trials)]
        group = complete_and_localize_group(observed, masks, None, rngs)
        solo = [
            complete_and_localize(o, mask, rng=np.random.default_rng(seed))
            for seed, (o, mask) in enumerate(zip(observed, masks))
        ]
        return group + solo

    bounded = runs()
    _without_ceilings(monkeypatch)
    exact = runs()
    for run, want in zip(bounded, exact):
        _assert_same_run(run, want)
        assert 0 < run.ruled_out < run.evaluations and want.ruled_out == 0
    for run, want in zip(bounded, bounded[trials:]):  # lockstep against solo
        assert run.ruled_out == want.ruled_out
    if n == 6:
        assert bounded[0].best_cost_history[-1] < 1e-10  # the noiseless trial


def test_the_ceiling_rule_halves_the_rows_that_reach_eigh(wave40, monkeypatch):
    # At 8 nodes most rows that reach eigh are immigrants that cannot
    # become parents; the rule rules out well over half of them.
    rows = []
    eigh_pairs = mds._eigh_pairs

    def spy(matrices, m):
        rows[-1] += len(matrices)
        return eigh_pairs(matrices, m)

    monkeypatch.setattr(mds, "_eigh_pairs", spy)
    for exact in (False, True):
        if exact:
            _without_ceilings(monkeypatch)
        rows.append(0)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 8)))
            mask = random_completable_mask(8, 0.8, rng)
            observed = sample_edm_statistical(
                layout, mask, db_to_linear(34.0), wave40, rng
            )
            complete_and_localize(observed, mask, rng=rng)
    assert rows[0] <= 0.5 * rows[1]


def _stall_length(history: np.ndarray, delta: float) -> int:
    """How many generations of ``history`` the stall test with ``delta`` keeps."""
    window = solver.STALL_WINDOW
    for g in range(window, history.size):
        ref = history[g - window]
        if (ref - history[g]) / window <= delta * max(ref, 1e-300):
            return g + 1
    return history.size


@pytest.mark.parametrize(
    "n, c, sample",
    [(6, 0.8, sample_edm_statistical), (10, 0.9, sample_edm_statistical),
     (8, 0.9, _signal_level_edm)],
)
@pytest.mark.parametrize("seed", range(3))
def test_a_looser_stall_threshold_cuts_the_same_run_short(
    n, c, sample, seed, wave40, monkeypatch
):
    # No generation changes an earlier one, so the run under STALL_DELTA is
    # the run under the search's earlier, tighter 1e-6, stopped where the
    # STALL_DELTA test first fires on that run's history.
    rng = np.random.default_rng(seed)
    layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, n)))
    mask = random_completable_mask(n, c, rng)
    observed = sample(layout, mask, db_to_linear(34.0), wave40, rng)
    delta = solver.STALL_DELTA
    new = complete_and_localize(observed, mask, rng=np.random.default_rng(seed))
    monkeypatch.setattr(solver, "STALL_DELTA", 1e-6)
    old = complete_and_localize(observed, mask, rng=np.random.default_rng(seed))
    g = _stall_length(old.best_cost_history, delta)
    assert new.generations_used == g < old.generations_used
    assert new.best_cost_history.tobytes() == old.best_cost_history[:g].tobytes()
    assert new.best_vector_history.tobytes() == old.best_vector_history[:g].tobytes()
    assert new.stop_reason == "stalled"


def test_noiseless_recovery_single_seed():
    # a seed from the verified noiseless-recovery population
    rng = np.random.default_rng(1000)
    layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
    mask = random_completable_mask(6, 0.8, rng)
    observed = mask_edm(edm_from_points(layout), mask)
    run = complete_and_localize(
        observed, mask, SolverConfig(max_generations=50), rng
    )
    assert run.best_cost_history[-1] < 1e-10
    assert align_and_evm(run.recovered_layout, layout).evm_mean < 1e-5


def test_nan_at_unobserved_entries_gives_a_finite_run(rng):
    # Edm accepts any value where the mask has no link; the solver must
    # give the same run as with zeros there.
    layout, mask, observed = _masked_problem(rng)
    poisoned = observed.entries.copy()
    poisoned[~mask.mask & ~np.eye(mask.count, dtype=bool)] = np.nan
    config = SolverConfig(max_generations=30)
    clean = complete_and_localize(
        observed, mask, config, np.random.default_rng(5)
    )
    run = complete_and_localize(
        Edm(poisoned, observed=mask), mask, config, np.random.default_rng(5)
    )
    assert np.all(np.isfinite(run.best_cost_history))
    assert np.array_equal(run.best_cost_history, clean.best_cost_history)
    assert np.array_equal(
        run.recovered_layout.coords, clean.recovered_layout.coords
    )


def test_best_cost_history_never_rises(rng):
    layout, mask, observed = _masked_problem(rng)
    run = complete_and_localize(
        observed, mask, SolverConfig(max_generations=30), rng
    )
    history = run.best_cost_history
    assert np.all(np.diff(history) <= 0.0)
    assert history[-1] <= history[0]
    assert run.generations_used == history.size
    assert run.best_vector_history.shape == (history.size, 3)


def test_identical_seed_identical_run(rng):
    layout, mask, observed = _masked_problem(rng)
    config = SolverConfig(max_generations=20)
    first = complete_and_localize(observed, mask, config, np.random.default_rng(77))
    second = complete_and_localize(observed, mask, config, np.random.default_rng(77))
    assert np.array_equal(first.best_cost_history, second.best_cost_history)
    assert np.array_equal(first.best_vector_history, second.best_vector_history)
    assert np.array_equal(
        first.recovered_layout.coords, second.recovered_layout.coords
    )


def test_default_generator_is_seeded_with_zero(rng):
    layout, mask, observed = _masked_problem(rng)
    config = SolverConfig(max_generations=20)
    default = complete_and_localize(observed, mask, config)
    seeded = complete_and_localize(observed, mask, config, np.random.default_rng(0))
    assert np.array_equal(default.best_vector_history, seeded.best_vector_history)


def test_non_completable_mask_rejected(rng):
    adj = ~np.eye(6, dtype=bool)
    for other in range(3):
        adj[5, other] = adj[other, 5] = False
    mask = AdjacencyMask(adj)
    layout = NodeLayout(rng.uniform(0, 5, size=(2, 6)))
    observed = mask_edm(edm_from_points(layout), mask)
    with pytest.raises(CompletabilityError):
        complete_and_localize(observed, mask)


def test_mask_and_matrix_sizes_must_agree(rng):
    layout, mask, observed = _masked_problem(rng)
    truth = _true_missing_vector(layout, mask)
    # NaN where the matrix's own mask has no link, run under another mask
    poisoned = observed.entries.copy()
    poisoned[~mask.mask & ~np.eye(6, dtype=bool)] = np.nan
    other = random_completable_mask(6, 0.8, np.random.default_rng(3))
    assert not np.array_equal(other.mask, mask.mask)
    cases = [
        (observed, AdjacencyMask.complete(5), truth),
        (Edm(poisoned, observed=mask), AdjacencyMask.complete(6), np.zeros(0)),
        (observed, other, np.zeros(other.missing_indices()[0].size)),
    ]
    for edm, wrong, vector in cases:
        with pytest.raises(ValueError, match="mask"):
            complete_and_localize(edm, wrong)
        with pytest.raises(ValueError, match="mask"):
            evaluate_cost(vector, edm, wrong)
    # a fully measured matrix, with no mask of its own or a complete one,
    # may be run under any mask
    full = edm_from_points(layout)
    config = SolverConfig(max_generations=5)
    want = complete_and_localize(observed, mask, config).best_cost_history
    for complete in (full, mask_edm(full, AdjacencyMask.complete(6))):
        assert evaluate_cost(truth, complete, mask) == evaluate_cost(
            truth, observed, mask
        )
        got = complete_and_localize(complete, mask, config).best_cost_history
        assert np.array_equal(got, want)


def test_generations_grow_with_missing_edges(wave40):
    # more unknowns take longer to settle: median generations over a few
    # noisy trials should not decrease as connectivity drops
    snr_h = db_to_linear(34.0)
    medians = []
    for c in (0.93, 0.87, 0.8):
        gens = []
        for t in range(9):
            rng = np.random.default_rng((17, t))
            layout = NodeLayout(rng.uniform(0.0, 5.0, size=(2, 6)))
            mask = random_completable_mask(6, c, rng)
            observed = sample_edm_statistical(layout, mask, snr_h, wave40, rng)
            run = complete_and_localize(observed, mask, SolverConfig(), rng)
            gens.append(run.generations_used)
        medians.append(np.median(gens))
    assert medians[0] <= medians[1] <= medians[2]
