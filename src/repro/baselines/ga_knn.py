"""GA-kNN — the prior-art baseline of Hoste et al. [4].

The method the paper compares against ("Performance prediction based on
inherent program similarity", PACT 2006):

1. every benchmark and the application of interest are characterised by a
   vector of microarchitecture-independent characteristics (MICA; this
   reproduction uses the simulator's workload characteristics, which play
   the same role — see DESIGN.md);
2. a genetic algorithm learns one non-negative weight per characteristic so
   that weighted distances in the characteristic space predict performance
   differences well — the fitness is the leave-one-out k-NN prediction
   error over the training benchmarks on the machines with published
   scores; and
3. the application's score on a target machine is predicted as the
   distance-weighted average of the scores of its k = 10 nearest benchmarks
   on that machine.

Unlike data transposition, GA-kNN never uses measurements from predictive
machines: it relies purely on workload similarity, which is exactly why it
struggles when the application of interest is an outlier with respect to
the benchmark suite (Section 6.2).

Split-level evaluation
----------------------
:class:`BatchedGAKNN` evaluates a split in one lockstep pass
(:meth:`~BatchedGAKNN.predict_all_applications`).  Every leave-one-out
cell of a split runs an identically-seeded GA over a 28-benchmark working
set that differs from its neighbours' by a single row, and the
implementation exploits both redundancies:

* the per-cell working sets (standardised features, pairwise squared
  differences, target score tables) are built once per split and stacked
  into shared ``(cells, ...)`` tensors instead of being rebuilt inside
  every GA; and
* the 29 cell GAs collapse into one
  :class:`~repro.ml.genetic.LockstepGeneticAlgorithm` whose fitness is a
  single stacked ``(cells x population x benchmarks x benchmarks)`` tensor
  pass per generation, with elite fitnesses deduplicated across
  generations.

Results are **bit-identical** to one sequential GA per cell — the lockstep
GA consumes the same seeded random stream every sequential cell would, and
the stacked fitness kernel preserves the sequential reduction order
element for element (``tests/test_batched_gaknn.py`` pins this against a
sequential oracle across all 17 family splits).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.ml.genetic import GAConfig, LockstepGeneticAlgorithm
from repro.ml.preprocessing import StandardScaler

__all__ = ["BatchedGAKNN"]


def _buffer(scratch: dict[tuple, np.ndarray], key: tuple) -> np.ndarray:
    """Reusable float buffer of one lockstep run, made on first use.

    *key* is ``(tag, *shape)`` — the tag keeps same-shaped buffers with
    different roles from aliasing each other.  Each run owns its *scratch*
    dict, so concurrent runs on one instance never share a buffer.
    """
    buffer = scratch.get(key)
    if buffer is None:
        buffer = scratch[key] = np.empty(key[1:])
    return buffer


def _index_base(scratch: dict[tuple, np.ndarray], n_rows: int, stride: int) -> np.ndarray:
    """Cached ``(n_rows, 1)`` column of flat row offsets ``i * stride``."""
    key = ("base", n_rows, stride)
    base = scratch.get(key)
    if base is None:
        base = scratch[key] = (np.arange(n_rows, dtype=np.intp) * stride)[:, None]
    return base


class BatchedGAKNN:
    """GA-weighted k-nearest-neighbour performance prediction (GA-kNN).

    Implements the engine's ``BatchedRankingMethod`` protocol: one pass per
    split covers every leave-one-out application of that split, running
    all cell GAs in lockstep (see the module docstring); a same-shape group
    of splits is handled one split at a time.  An instance holds only its
    hyper-parameters, so threads may share it.

    Parameters
    ----------
    k:
        Number of benchmark neighbours (the paper uses 10).
    ga_config:
        Genetic-algorithm hyper-parameters; the default is sized so that a
        full Table-2 sweep stays laptop-fast while still converging on the
        ~10-gene weight vectors involved.
    seed:
        Seed for the genetic algorithm.
    """

    def __init__(self, k: int = 10, ga_config: GAConfig | None = None, seed: int = 0) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.ga_config = ga_config or GAConfig(population_size=24, generations=12)
        self.seed = int(seed)

    def _knn_predict(
        self,
        query_features: np.ndarray,
        candidate_features: np.ndarray,
        candidate_scores: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Distance-weighted k-NN prediction of one workload's machine scores.

        ``candidate_scores`` is (candidates x machines); the return value is
        (machines,).
        """
        diff = candidate_features - query_features
        distances = np.sqrt(np.clip((weights * diff**2).sum(axis=1), 0.0, None))
        k = min(self.k, distances.size)
        neighbour_idx = np.argsort(distances, kind="mergesort")[:k]
        neighbour_dist = distances[neighbour_idx]
        if np.any(neighbour_dist == 0.0):
            exact = neighbour_idx[neighbour_dist == 0.0]
            return candidate_scores[exact].mean(axis=0)
        inverse = 1.0 / neighbour_dist
        return (inverse[:, None] * candidate_scores[neighbour_idx]).sum(axis=0) / inverse.sum()

    # ----------------------------------------------------- stacked fitness
    def _population_loo_fitness(
        self,
        genomes: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
        scratch: dict[tuple, np.ndarray],
    ) -> np.ndarray:
        """Stacked leave-one-out fitness of ``(cells, pop, genes)`` genomes.

        One tensor pass evaluates every genome of every cell's population:
        *pairwise_sq* is ``(cells, characteristics, B, B)``, *scores* is
        ``(cells, B, targets)``, and the return value is ``(cells, pop)``.
        *scratch* holds the run's reusable buffers (see :func:`_buffer`).
        Each entry is bit-identical to the sequential per-cell fitness
        (weighted distances accumulated characteristic by characteristic,
        then a stable k-neighbour sort): the einsum contracts the
        characteristic axis sequentially, the neighbour selection
        reproduces the stable mergesort ordering (a k-smallest partition
        whose boundary-tie rows fall back to the full stable sort), and the
        k-neighbour score accumulation runs in the same index order as the
        sequential ``einsum("nk,nkm->nm")`` contraction.
        """
        n_cells, n_pop, _ = genomes.shape
        n_benchmarks = pairwise_sq.shape[2]
        n_targets = scores.shape[2]
        n_rows = n_cells * n_pop * n_benchmarks
        k = min(self.k, n_benchmarks - 1)

        distances = np.einsum(
            "cpf,cfij->cpij",
            genomes,
            pairwise_sq,
            out=_buffer(scratch, ("dist", n_cells, n_pop, n_benchmarks, n_benchmarks)),
        )
        np.sqrt(distances, out=distances)
        diagonal = np.arange(n_benchmarks)
        # A benchmark is never its own neighbour candidate.
        distances[:, :, diagonal, diagonal] = np.inf

        # Stable k-smallest selection: partition out the k nearest, then
        # mergesort just those candidates.  Index-sorting the candidate set
        # first makes the mergesort tie-break (lowest index wins) match a
        # full stable sort.
        candidates = np.ascontiguousarray(
            np.argpartition(distances, k - 1, axis=-1)[..., :k]
        ).reshape(-1, k)
        candidates.sort(axis=-1)
        flat_dist = distances.reshape(n_rows * n_benchmarks)
        row_base = _index_base(scratch, n_rows, n_benchmarks)
        sub_base = _index_base(scratch, n_rows, k)
        candidates += row_base
        candidate_dist = flat_dist.take(candidates)
        candidates -= row_base
        suborder = np.argsort(candidate_dist, axis=-1, kind="mergesort")
        suborder += sub_base
        order = candidates.take(suborder)
        neighbour_dist = candidate_dist.take(suborder)
        # The candidate *set* is ambiguous exactly when distances tying the
        # k-th smallest straddle the partition boundary; those rare rows
        # fall back to the full stable sort.
        boundary = neighbour_dist[:, -1].reshape(n_cells, n_pop, n_benchmarks, 1)
        ambiguous = ((distances <= boundary).sum(axis=-1) > k).reshape(-1)
        if ambiguous.any():
            dist_rows = distances.reshape(-1, n_benchmarks)
            for row in np.nonzero(ambiguous)[0]:
                full = np.argsort(dist_rows[row], kind="mergesort")[:k]
                order[row] = full
                neighbour_dist[row] = dist_rows[row][full]
        order = order.reshape(n_cells, n_pop, n_benchmarks, k)
        neighbour_dist = neighbour_dist.reshape(n_cells, n_pop, n_benchmarks, k)

        # Zero distances (duplicate feature vectors) are rare: skip the
        # guard entirely when none exist — 1/x on the same values is the
        # same arithmetic the guarded path performs.
        if neighbour_dist.min() == 0.0:
            zero = neighbour_dist == 0.0
            inverse = 1.0 / np.where(zero, 1.0, neighbour_dist)
            zero_rows = zero.any(axis=-1)
        else:
            inverse = 1.0 / neighbour_dist
            zero_rows = None
        # Accumulate neighbour scores in k order — the same sequential
        # contraction order as the sequential einsum("nk,nkm->nm").
        # Neighbour-major index copy so each gather reads a contiguous
        # index row; reused scratch buffers keep the loop allocation-free.
        flat_scores = scores.reshape(n_cells * n_benchmarks, n_targets)
        cell_offset = _index_base(scratch, n_cells, n_benchmarks).reshape(n_cells, 1, 1, 1)
        neighbour_major = np.ascontiguousarray(
            (order + cell_offset).reshape(-1, k).T
        )
        block = (n_cells, n_pop, n_benchmarks, n_targets)
        predicted = _buffer(scratch, ("acc",) + block)
        gathered = _buffer(scratch, ("gather",) + block)
        predicted_flat = predicted.reshape(-1, n_targets)
        gathered_flat = gathered.reshape(-1, n_targets)
        np.take(flat_scores, neighbour_major[0], axis=0, out=predicted_flat)
        predicted *= inverse[..., 0, None]
        for j in range(1, k):
            np.take(flat_scores, neighbour_major[j], axis=0, out=gathered_flat)
            gathered *= inverse[..., j, None]
            predicted += gathered
        predicted /= inverse.sum(axis=-1)[..., None]

        if zero_rows is not None and zero_rows.any():
            for c, p, i in zip(*np.nonzero(zero_rows)):
                exact = order[c, p, i][neighbour_dist[c, p, i] == 0.0]
                predicted[c, p, i] = scores[c][exact].mean(axis=0)

        # In-place |predicted - scores| / scores, same arithmetic chain as
        # the sequential error computation.
        np.subtract(predicted, scores[:, None], out=predicted)
        np.abs(predicted, out=predicted)
        predicted /= scores[:, None]
        return predicted.mean(axis=-1).mean(axis=-1)

    # ------------------------------------------------------------- batching
    def predict_all_applications(
        self,
        dataset: SpecDataset,
        splits: Sequence[MachineSplit],
        applications: Sequence[str],
    ) -> list[Mapping[str, np.ndarray]]:
        """Predicted target scores for every application, one GA pass per split.

        Each application is trained leave-one-out against every other
        dataset benchmark.  Returns one ``{application: scores}`` mapping
        per split, in order.
        """
        return [self._predict_split(dataset, split, applications) for split in splits]

    def learned_weights(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        applications: Sequence[str],
    ) -> np.ndarray:
        """``(applications, characteristics)`` weights the GA learns on *split*.

        Row *i* is the weight vector :meth:`predict_all_applications` uses
        for ``applications[i]``.
        """
        return self._learn_weights_lockstep(*self._working_set(dataset, split, applications))

    def _working_set(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        applications: Sequence[str],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(app_rows, all_rows, features, target scores)`` of one split.

        The raw feature rows and the full target-machine score block are
        built once per split; every cell's working set is a row subset of
        them (the cells differ by one row), so the per-cell values — and
        everything derived from them — stay bit-identical to a sequential
        rebuild per cell.
        """
        benchmark_names = dataset.benchmark_names
        if len(benchmark_names) < 2:
            raise ValueError("GA-kNN needs at least one training benchmark")
        row_of = {name: row for row, name in enumerate(benchmark_names)}
        unknown = [name for name in applications if name not in row_of]
        if unknown:
            raise ValueError(f"unknown applications of interest: {unknown}")
        app_rows = np.array([row_of[name] for name in applications], dtype=np.intp)
        all_rows = np.arange(len(benchmark_names), dtype=np.intp)
        full_features = dataset.benchmark_feature_matrix(benchmark_names)
        full_scores = dataset.matrix.select_machines(split.target_ids).scores
        return app_rows, all_rows, full_features, full_scores

    def _predict_split(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        applications: Sequence[str],
    ) -> Mapping[str, np.ndarray]:
        applications = list(applications)
        if not applications:
            return {}
        app_rows, all_rows, full_features, full_scores = self._working_set(
            dataset, split, applications
        )
        weights = self._learn_weights_lockstep(app_rows, all_rows, full_features, full_scores)

        predictions: dict[str, np.ndarray] = {}
        for index, application in enumerate(applications):
            # Standardise training benchmarks + application (in that order)
            # in a common space, then distance-weighted k-NN.
            training_rows = all_rows[all_rows != app_rows[index]]
            features = StandardScaler().fit_transform(
                full_features[np.concatenate([training_rows, app_rows[index : index + 1]])]
            )
            predictions[application] = self._knn_predict(
                features[-1],
                features[:-1],
                full_scores[training_rows],
                weights[index],
            )
        return predictions

    def _learn_weights_lockstep(
        self,
        app_rows: np.ndarray,
        all_rows: np.ndarray,
        full_features: np.ndarray,
        full_scores: np.ndarray,
    ) -> np.ndarray:
        """Learned weight vectors for all cells via one lockstep GA."""
        pairwise_blocks = []
        score_blocks = []
        for app_row in app_rows:
            # Per-cell working set, carved out of the shared split-level
            # blocks (standardisation is fit on that cell's own training
            # rows).
            training_rows = all_rows[all_rows != app_row]
            features = StandardScaler().fit_transform(full_features[training_rows])
            score_blocks.append(full_scores[training_rows])
            pairwise_blocks.append(
                ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
            )
        pairwise_sq = np.ascontiguousarray(np.stack(pairwise_blocks))
        scores = np.ascontiguousarray(np.stack(score_blocks))

        # The buffers pay off across the generations of this run only, and
        # belong to it alone: two runs on one shared instance (the service
        # answers on several threads) never write into each other's.
        scratch: dict[tuple, np.ndarray] = {}
        ga = LockstepGeneticAlgorithm(
            n_problems=len(app_rows),
            genome_length=pairwise_sq.shape[1],
            fitness=lambda block: self._population_loo_fitness(
                block, pairwise_sq, scores, scratch
            ),
            config=self.ga_config,
            seed=self.seed,
        )
        best = ga.run()
        # An all-zero genome would make every distance zero; fall back to
        # uniform weights.
        degenerate = ~np.any(best > 0, axis=1)
        best[degenerate] = 1.0
        return best
