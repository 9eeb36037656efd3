"""Distance-matrix completion by differential evolution.

The unknowns are the missing squared distances.  Each candidate completion
p is embedded with classical MDS, x = mds(complete(D_obs, p)), and scored
on the measured pairs by

    F(p) = sum over measured i < j of (dbar_ij - ||x_i - x_j||^2)^2,

with dbar_ij = (d_ij + d_ji) / 2; for a symmetric D_obs that is
1/2 ||W o (D_obs - edm(x))||_F^2.  Double-centring is linear in D, so the
Gram matrix of a completion is G(p) = G_0 + sum_k p_k B_k: G_0 centres
D_obs with zeros in the missing pairs, B_k centres the unit matrix of
missing pair k, and both are computed once per trial.

DE/rand/1/bin evolves a population of candidates; the best-ranked parents
breed several offspring each, survivors are chosen by rank from parents and
offspring together, and the rest of the population is replaced by fresh
random immigrants each generation to keep exploring.

Several trials can run in lockstep batches of at most ``lockstep_trials``:
each keeps its own random stream and stall test, and each generation is
bred, scored and selected once for the batch's trials still running.  A
row's cost depends on that row alone: a run has the same bits in any batch.

From the second generation on, a candidate whose cost provably exceeds its
trial's worst parent cost skips its exact eigenpairs and costs +inf: such a
child ranks below every parent and such an immigrant below every survivor,
so no selection changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import AdjacencyMask, CompletabilityError, Edm, NodeLayout, \
    edge_budget, is_completable, max_edges
from .mds import _double_centre, _smallest_columns, classical_mds, embed_gram

# Offspring bred per surviving parent each generation.  A wide brood with
# rank survival keeps the best cost falling almost every generation, which
# the windowed stall test below relies on.
OFFSPRING_PER_PARENT = 3
DIFFERENTIAL_WEIGHT = 0.8  # F, the scale of the donor difference
CROSSOVER_RATE = 0.9  # CR, the chance a coordinate comes from the donor
# The search stalls when the best cost falls by at most STALL_DELTA of
# itself per generation, averaged over the last STALL_WINDOW generations.
# The README says how the value was chosen: an EVM budget and a replay.
STALL_DELTA = 1e-4
STALL_WINDOW = 5


def require_int(name: str, value) -> None:
    """Reject a count that is not an integer; a bool is not a count either."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """Reject a number that is not finite and real; a bool is not a number."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not real or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass
class SolverConfig:
    population_size: int = 200
    max_generations: int = 100
    parent_fraction: float = 0.5  # survivors; the rest immigrate randomly

    def __post_init__(self) -> None:
        for name in ("population_size", "max_generations"):
            require_int(name, getattr(self, name))
        require_real("parent_fraction", self.parent_fraction)
        if self.population_size < 4:
            raise ValueError("population must have at least 4 individuals")
        if self.max_generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 < self.parent_fraction <= 1.0:
            raise ValueError("parent fraction must lie in (0, 1]")

    @property
    def parents(self) -> int:
        """Survivors per generation: the parent fraction, at least 4."""
        pop = self.population_size
        return min(pop, max(4, round(self.parent_fraction * pop)))

    @property
    def rows_per_generation(self) -> int:
        """Candidates scored per generation after the first: offspring and
        immigrants, never fewer than the first generation's population."""
        return OFFSPRING_PER_PARENT * self.parents + self.population_size - self.parents


@dataclass
class SolverRun:
    best_cost_history: np.ndarray  # best-so-far after each generation
    best_vector_history: np.ndarray  # (generations, n_missing)
    generations_used: int
    stop_reason: str  # "stalled", "max_generations" or "complete_mask"
    recovered_layout: NodeLayout
    evaluations: int  # candidate costs computed, the first population's included
    ruled_out: int  # of those, candidates the cost bound scored +inf

    @property
    def converged(self) -> bool:
        """The search ended before the generation cap ran out."""
        return self.stop_reason != "max_generations"


@dataclass(frozen=True)
class _CostTerms:
    """The parts of the cost that depend on the trial only, not on a candidate.

    Each field stacks T trials of one shape on a leading axis, a stack of
    one from ``_cost_terms``; ``stack`` joins stacks along it.
    """

    basis: np.ndarray  # (T, 1 + n_missing, N, N): G_0, then B_k per missing pair
    rows: np.ndarray  # (T, L) measured pairs i < j
    cols: np.ndarray
    target: np.ndarray  # (T, L) (d_ij + d_ji) / 2 at those pairs
    gain: np.ndarray  # (T,) bound on ||A||, A(K) = (K_ii + K_jj - 2 K_ij) at the pairs

    @classmethod
    def stack(cls, terms: list[_CostTerms]) -> _CostTerms:
        columns = ([getattr(t, f.name) for t in terms] for f in fields(cls))
        return cls(*map(np.concatenate, columns))


@dataclass(frozen=True)
class _Workspace:
    """Every per-generation array of ``_bounded_costs``, for up to P rows.

    The solver allocates one per lockstep batch, so no generation faults
    its working set back in; a cost batch of p rows, over all its trials,
    uses the leading p rows of each buffer.  Nothing ``_bounded_costs`` returns
    points into it.
    """

    coeffs: np.ndarray  # (P, 1, K): 1, then a candidate's missing values
    grams: np.ndarray  # (P, N, N)
    powers: np.ndarray  # (2, P, N, N), embed_gram's planar scratch
    gaps: np.ndarray  # (2, P, L): both ends of the L measured pairs on one axis
    residual: np.ndarray  # (P, L)

    @staticmethod
    def shapes(rows: int, n: int, links: int) -> dict[str, tuple]:
        """The float64 buffers for ``rows`` candidates of an n-node trial
        with ``links`` measured pairs."""
        return {
            "coeffs": (rows, 1, 1 + max_edges(n) - links),
            "grams": (rows, n, n),
            "powers": (2, rows, n, n),
            "gaps": (2, rows, links),
            "residual": (rows, links),
        }

    @classmethod
    def allocate(cls, rows: int, terms: _CostTerms) -> _Workspace:
        shapes = cls.shapes(rows, terms.basis.shape[-1], terms.target.shape[-1])
        work = cls(**{name: np.empty(shape) for name, shape in shapes.items()})
        work.coeffs[:, 0, 0] = 1.0
        return work


def _working_set_bytes(n: int, links: int, config: SolverConfig) -> int:
    """Workspace bytes of a trial of n nodes and ``links`` measured pairs."""
    shapes = _Workspace.shapes(config.rows_per_generation, n, links)
    return sum(8 * math.prod(shape) for shape in shapes.values())


# Cost workspace of one lockstep batch: that of one 15-node trial at c 0.9
# with the default solver, which a 15-node run pays anyway (README, Determinism).
LOCKSTEP_WORKSPACE_BYTES = _working_set_bytes(15, edge_budget(15, 0.9), SolverConfig())


def lockstep_trials(n: int, links: int, config: SolverConfig) -> int:
    """Trials of n nodes and ``links`` measured pairs one lockstep batch holds."""
    return max(1, LOCKSTEP_WORKSPACE_BYTES // _working_set_bytes(n, links, config))


def _check_masks(observed: Edm, mask: AdjacencyMask) -> None:
    """Reject a mask that is not the one ``observed`` was measured under."""
    own = mask if observed.is_complete else observed.observed
    if observed.count != mask.count or not np.array_equal(own.mask, mask.mask):
        raise ValueError("mask must match the matrix's size and observation mask")


def _cost_terms(entries: np.ndarray, mask: AdjacencyMask) -> _CostTerms:
    n, n_missing = mask.count, mask.missing_indices()[0].size
    # Edm accepts any value, NaN included, where the mask has no link; G_0
    # takes zeros there, and the residual reads measured pairs only.
    stack = np.concatenate([
        mask.filled(entries, 0.0)[None],
        mask.filled(np.zeros((n, n)), np.eye(n_missing)),
    ])
    i, j = np.nonzero(np.triu(mask.mask, 1))
    # A A^T = 4 I + the adjacency of the measured pairs' line graph, whose
    # rows sum to deg_i + deg_j - 2: Gershgorin bounds ||A||^2 by the most.
    degree = np.count_nonzero(mask.mask, axis=1)
    return _CostTerms(
        basis=_double_centre(stack)[None],
        rows=i[None],
        cols=j[None],
        target=0.5 * (entries[i, j] + entries[j, i])[None],
        gain=np.sqrt(2.0 + np.max(degree[i] + degree[j], initial=0))[None],
    )


def _grams(vectors: np.ndarray, terms: _CostTerms, work: _Workspace) -> np.ndarray:
    """G_0 + sum_k p_k B_k for each candidate row p of the (T, P, K)
    ``vectors``, in ``work``: one (T P, N, N) stack of Gram matrices.
    """
    t, p, n_vars = vectors.shape
    _, k, n, _ = terms.basis.shape
    coeffs, grams = work.coeffs[: t * p], work.grams[: t * p]
    coeffs[:, 0, 1:] = vectors.reshape(t * p, n_vars)
    # One (1, K) @ (K, N^2) product per row keeps each row's sums in one
    # order whatever the batch size or its trials, which a single gemm over
    # the batch does not.  Every basis matrix is exactly symmetric, so
    # entries (i, j) and (j, i) of G are sums of the same numbers, and G
    # comes out exactly symmetric, as the G^8 steps and eigh's one-triangle
    # read require.
    np.matmul(
        coeffs.reshape(t, p, 1, k),
        terms.basis.reshape(t, 1, k, n * n),
        out=grams.reshape(t, p, 1, n * n),
    )
    return grams


def _pair_costs(
    coords: np.ndarray, terms: _CostTerms, starts: np.ndarray, work: _Workspace
) -> np.ndarray:
    """The cost of each embedding of the (2, R, N) planes ``coords``, (R,):
    rows starts[t]:starts[t + 1] belong to the t-th trial of ``terms``."""
    # np.take gathers each end of the measured pairs into a C-ordered
    # (R, L) block of the workspace, one trial and one axis at a time;
    # coords[:, rows] would be strided, and a row's sum over a strided
    # gather depends on the batch size.  mode="clip" writes straight into
    # the block ("raise" would buffer), and every index is in range, so it
    # clips nothing.  Adding the axes' squares to zero in axis order gives
    # the bits that one sum over a (2, L) block of squares gives.
    rows = coords.shape[1]
    (gap, other), residual = work.gaps[:, :rows], work.residual[:rows]
    blocks = [slice(*starts[t : t + 2]) for t in range(len(terms.rows))]
    residual[:] = 0.0
    for coord in coords:
        for block, i, j in zip(blocks, terms.rows, terms.cols):
            np.take(coord[block], i, axis=1, out=gap[block], mode="clip")
            np.take(coord[block], j, axis=1, out=other[block], mode="clip")
        np.subtract(gap, other, out=gap)
        residual += np.multiply(gap, gap, out=gap)
    for block, target in zip(blocks, terms.target):
        np.subtract(target, residual[block], out=residual[block])
    return np.sum(np.multiply(residual, residual, out=residual), axis=-1)


def _bounded_costs(
    vectors: np.ndarray, terms: _CostTerms, work: _Workspace | None = None,
    ceilings: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The cost of each candidate row of the (T, P, K) ``vectors``, and which
    rows were ruled out, as (T, P) arrays; ``work`` defaults to fresh
    buffers.  A row is ruled out, and costs +inf, when its cost provably
    exceeds its trial's entry of the (T,) ``ceilings``: the measured squared
    distances of Gram matrices K, K~ differ by A(K - K~), ``_CostTerms.gain``
    bounds ||A|| and the row's ``mds._spread`` E bounds ||K - K~||_F, so
    sqrt(F) >= sqrt(F~) - gain E for F~ the cost of its Ritz embedding.
    """
    t, p, _ = vectors.shape
    work = _Workspace.allocate(t * p, terms) if work is None else work
    starts = np.arange(0, t * p + 1, p)
    ruled = np.zeros(t * p, dtype=bool)

    def needed(at, coords, spread):
        floor = np.sqrt(_pair_costs(coords, terms, np.searchsorted(at, starts), work))
        floor -= terms.gain[at // p] * spread
        # 1e-6: a margin far above the rounding of a cost sum
        ceiling = ceilings[at // p] * (1.0 + 1e-6)
        out = (floor > 0.0) & (floor**2 > ceiling)
        ruled[at[out]] = True
        return ~out

    grams, bound = _grams(vectors, terms, work), None if ceilings is None else needed
    _, coords = embed_gram(grams, 2, work.powers[:, : t * p], bound)
    costs = _pair_costs(coords, terms, starts, work)
    costs[ruled] = np.inf
    return costs.reshape(t, p), ruled.reshape(t, p)


def evaluate_cost(vector: np.ndarray, observed: Edm, mask: AdjacencyMask) -> float:
    """Score one candidate completion, embedded in the plane, on the measured pairs."""
    _check_masks(observed, mask)
    n_missing = mask.missing_indices()[0].size
    vector = np.asarray(vector, dtype=float).reshape(1, 1, -1)
    if vector.shape[-1] != n_missing:
        raise ValueError(
            f"candidate has {vector.shape[-1]} entries, mask misses {n_missing}"
        )
    if not np.all(np.isfinite(vector)):
        raise ValueError("candidate entries must be finite")
    return float(_bounded_costs(vector, _cost_terms(observed.entries, mask))[0][0, 0])


def _geodesic_upper_bounds(entries: np.ndarray, mask: AdjacencyMask) -> np.ndarray:
    """Squared shortest-path distances through observed links, one per
    missing pair in the order of ``mask.missing_indices()``.

    The triangle inequality caps every missing distance by the geodesic
    through measured edges, zero-length ones included, so these are valid
    (and fairly tight) boxes.  Relaxing d[s, v] = min(d[s, v], d[s, u] +
    w[u, v]) over u until nothing changes forms Dijkstra's float sums,
    accumulated outward from the source s, in O(N^2) memory.
    """
    weights = np.where(mask.mask, np.sqrt(np.abs(entries)), np.inf)
    weights = np.minimum(weights, weights.T)  # an undirected link's shorter way
    geodesic = weights.copy()
    np.fill_diagonal(geodesic, 0.0)
    while True:
        before = geodesic.copy()
        for u in range(len(weights)):
            np.minimum(geodesic, geodesic[:, u, None] + weights[u], out=geodesic)
        if np.array_equal(before, geodesic):
            break
    bounds = geodesic[mask.missing_indices()] ** 2
    if not np.all(np.isfinite(bounds)):
        raise CompletabilityError("observation graph is not connected")
    return bounds


class _Search:
    """One trial's DE state: its stream, first population, histories, stall test."""

    def __init__(self, observed: Edm, mask: AdjacencyMask,
                 config: SolverConfig, rng: np.random.Generator) -> None:
        _check_masks(observed, mask)
        if not is_completable(mask):
            raise CompletabilityError(
                "observation mask cannot anchor every node in the array"
            )
        self.observed, self.mask, self.config, self.rng = observed, mask, config, rng
        # The search runs on the entries times 4^-k, the largest measured in
        # [1/2, 2): a power of two scales exactly, so every scale gives the same run.
        self.k = int(np.frexp(observed.entries[mask.mask].max(initial=0.0))[1]) // 2
        entries = np.ldexp(mask.filled(observed.entries, 0.0), -2 * self.k)
        self.terms = _cost_terms(entries, mask)
        bounds = _geodesic_upper_bounds(entries, mask)
        self.upper = np.maximum(bounds, 1e-12)
        self.population = self.upper * rng.random((config.population_size, bounds.size))
        self.cost_history: list[float] = []
        self.vector_history: list[np.ndarray] = []
        self.stop_reason = None if bounds.size else "complete_mask"  # nothing to evolve
        self.evaluations = self.ruled_out = 0

    def record(self, cost: float, vector: np.ndarray, scored: int, ruled: int) -> None:
        """Take a generation's best so far and its counts; test for a stop."""
        self.evaluations += scored
        self.ruled_out += ruled
        history = self.cost_history
        history.append(cost)
        self.vector_history.append(vector)
        g = len(history) - 1
        if g >= STALL_WINDOW:
            # Fractional improvement per generation, averaged over the
            # window.  An absolute test would halt mid-descent at whatever
            # scale matches the threshold; stalling is scale-free.
            ref = history[g - STALL_WINDOW]
            if (ref - history[g]) / STALL_WINDOW <= STALL_DELTA * max(ref, 1e-300):
                self.stop_reason = "stalled"
        if self.stop_reason is None and len(history) >= self.config.max_generations:
            self.stop_reason = "max_generations"

    def result(self) -> SolverRun:
        with np.errstate(over="ignore", under="ignore"):  # a cost may pass float range
            vectors = np.ldexp(self.vector_history, 2 * self.k)
            costs = np.ldexp(self.cost_history, 4 * self.k)
        filled = self.mask.filled(self.observed.entries, vectors[-1])
        return SolverRun(
            best_cost_history=costs,
            best_vector_history=vectors,
            generations_used=len(self.cost_history),
            stop_reason=self.stop_reason,
            recovered_layout=classical_mds(Edm(filled), 2),
            evaluations=self.evaluations,
            ruled_out=self.ruled_out,
        )


def _evolve(searches: list[_Search], config: SolverConfig) -> None:
    """Run every search to its stop, a generation at a time in lockstep.

    Searches of one shape run in consecutive batches of at most
    ``lockstep_trials``, on stacked (T, S, K) populations, (T, S) costs and
    (T, 1, K) bounds.  Each search draws from its own stream in its own order:
    donor keys, crossover draws, forced coordinates, immigrants.
    """
    cohorts: dict[tuple, list[_Search]] = {}
    for s in searches:  # nodes and links fix the shape of a search's arrays
        cohorts.setdefault((s.mask.count, s.mask.edge_count), []).append(s)
    batches = []
    for shape, cohort in cohorts.items():
        size = lockstep_trials(*shape, config)
        batches += [cohort[i : i + size] for i in range(0, len(cohort), size)]
    width, n_parents = config.rows_per_generation, config.parents
    # Offspring k breeds on parent k mod n_parents.
    targets = np.tile(np.arange(n_parents), OFFSPRING_PER_PARENT)
    n_kids, kids = targets.size, np.arange(targets.size)
    for live in batches:
        terms = _CostTerms.stack([s.terms for s in live])
        upper = np.stack([s.upper for s in live])[:, None]
        population = np.stack([s.population for s in live])
        t, _, n_vars = population.shape
        work = _Workspace.allocate(t * width, terms)
        costs = _bounded_costs(population, terms, work)[0]
        for search, scored, rows in zip(live, costs, population):
            best = int(np.argmin(scored))
            search.record(float(scored[best]), rows[best].copy(), scored.size, 0)
        # The draws' rows are allocated once per batch, like the workspace:
        # fresh ones each generation would fault their pages back in.
        buffer, draws = np.empty((t, width, n_vars)), np.empty((t, n_kids, n_vars))
        picks = np.empty((t, n_kids, 3), np.intp)
        forced = np.empty((t, n_kids), np.intp)
        while going := [i for i, s in enumerate(live) if s.stop_reason is None]:
            if len(going) < t:
                live = [live[i] for i in going]
                population, costs, upper = population[going], costs[going], upper[going]
                terms, t = _CostTerms.stack([s.terms for s in live]), len(live)
            order = np.argsort(costs, axis=1, kind="stable")[:, :n_parents, None]
            parents = np.take_along_axis(population, order, axis=1)
            ranked = np.take_along_axis(costs, order[..., 0], axis=1)  # best first
            candidates, keys = buffer[:t], np.empty((n_kids, n_parents))
            # DE/rand/1/bin among the parents, donor triples uniform but for
            # the target, then immigrants uniform.  No draw depends on a
            # cost, so children and immigrants are scored in one batch.
            for i, search in enumerate(live):
                search.rng.random(out=keys)
                keys[kids, targets] = 2.0
                picks[i] = _smallest_columns(keys, 3)
                search.rng.random(out=draws[i])
                forced[i] = search.rng.integers(0, n_vars, size=n_kids)
                search.rng.random(out=candidates[i, n_kids:])
            trial = np.arange(t)[:, None]
            a, b, c = (parents[trial, picks[:t, :, j]] for j in range(3))
            cross = draws[:t] < CROSSOVER_RATE
            cross[trial, kids, forced[:t]] = True
            target_vecs = parents[:, targets]
            children = np.where(cross, a + DIFFERENTIAL_WEIGHT * (b - c), target_vecs)
            # Out-of-bounds coordinates restart halfway between the target
            # and the violated bound.  Hard clipping would pile many
            # individuals onto identical boundary values and bleed diversity.
            children = np.where(children < 0.0, 0.5 * target_vecs, children)
            candidates[:, :n_kids] = np.where(
                children > upper, 0.5 * (target_vecs + upper), children
            )
            candidates[:, n_kids:] *= upper
            del keys, a, b, c, cross, children, target_vecs  # the batch peaks on top
            scored, ruled = _bounded_costs(candidates, terms, work, ranked[:, -1])
            # Rank parents and children together; immigrants join the
            # survivors.  The best so far heads the parents, and the stable
            # sort keeps it ahead of any child that only ties it: each
            # trial's first survivor is its new best so far.
            pool = np.concatenate([parents, candidates[:, :n_kids]], axis=1)
            pool_costs = np.concatenate([ranked, scored[:, :n_kids]], axis=1)
            keep = np.argsort(pool_costs, axis=1, kind="stable")[:, :n_parents, None]
            population[:, :n_parents] = np.take_along_axis(pool, keep, axis=1)
            population[:, n_parents:] = candidates[:, n_kids:]
            costs[:, :n_parents] = np.take_along_axis(pool_costs, keep[..., 0], axis=1)
            costs[:, n_parents:] = scored[:, n_kids:]
            for search, rows, cost, n in zip(live, population, costs, ruled.sum(1)):
                search.record(float(cost[0]), rows[0].copy(), width, n)


def complete_and_localize(
    observed: Edm,
    mask: AdjacencyMask,
    config: SolverConfig | None = None,
    rng: np.random.Generator | None = None,
) -> SolverRun:
    """Recover planar node positions from a partially observed distance matrix.

    Args:
        observed: squared-distance matrix, valid at masked-true entries.
        mask: measured entries, as in ``observed``'s own mask; must be completable.
        config: population size, generation cap and parent fraction;
            defaults match the reference setup.
        rng: random source; defaults to ``np.random.default_rng(0)``.

    Returns:
        SolverRun with per-generation best-so-far history.  The best cost
        never rises: the incumbent individual survives every generation.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    (run,) = complete_and_localize_group([observed], [mask], config, [rng])
    return run


def complete_and_localize_group(
    observed: list[Edm],
    masks: list[AdjacencyMask],
    config: SolverConfig | None,
    rngs: list[np.random.Generator],
) -> list[SolverRun]:
    """``complete_and_localize`` on each (matrix, mask, rng), run in lockstep.

    Each run is bit for bit the one ``complete_and_localize`` gives alone.
    Batches of ``lockstep_trials`` share each generation's cost batch, which
    saves NumPy's per-call overhead on small arrays, one workspace at a time.
    """
    config = config or SolverConfig()
    if not len(observed) == len(masks) == len(rngs):
        raise ValueError("need one mask and one generator per matrix")
    searches = [
        _Search(o, mask, config, rng) for o, mask, rng in zip(observed, masks, rngs)
    ]
    _evolve(searches, config)
    return [search.result() for search in searches]
