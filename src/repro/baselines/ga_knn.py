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

Batched split-level evaluation
------------------------------
:class:`BatchedGAKNN` adds the engine's batched entry point
(:meth:`~BatchedGAKNN.predict_all_applications`, one lockstep pass per
split).  Every leave-one-out cell of a split historically ran its own
identically-seeded GA over a 28-benchmark working set that differs from its
neighbours' by a single row.
The batched path exploits both redundancies:

* the per-cell working sets (standardised features, pairwise squared
  differences, target score tables) are built once per split and stacked
  into shared ``(cells, ...)`` tensors instead of being rebuilt inside
  every GA; and
* the 29 per-cell GAs collapse into one
  :class:`~repro.ml.genetic.LockstepGeneticAlgorithm` whose fitness is a
  single stacked ``(cells x population x benchmarks x benchmarks)`` tensor
  pass per generation, with elite fitnesses deduplicated across
  generations.

Results are **bit-identical** to the sequential per-cell path — the
lockstep GA consumes the same seeded random stream every sequential cell
consumed, and the stacked fitness kernel preserves the sequential
reduction order element for element (``tests/test_batched_gaknn.py`` pins
this across all 17 family splits).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.ml.genetic import GAConfig, GeneticAlgorithm, LockstepGeneticAlgorithm
from repro.ml.preprocessing import StandardScaler

__all__ = ["BatchedGAKNN", "GAKNNBaseline"]


class GAKNNBaseline:
    """GA-weighted k-nearest-neighbour performance prediction (GA-kNN).

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
    learn_weights:
        Set to False to skip the GA and use uniform weights (an ablation
        that isolates how much the learned weighting matters).
    """

    def __init__(
        self,
        k: int = 10,
        ga_config: GAConfig | None = None,
        seed: int = 0,
        learn_weights: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.ga_config = ga_config or GAConfig(population_size=24, generations=12)
        self.seed = int(seed)
        self.learn_weights = bool(learn_weights)
        self.learned_weights_: np.ndarray | None = None

    # ----------------------------------------------------------- internals
    @staticmethod
    def _standardised_features(dataset: SpecDataset, names: Sequence[str]) -> np.ndarray:
        features = dataset.benchmark_feature_matrix(list(names))
        return StandardScaler().fit_transform(features)

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

    def _loo_fitness(
        self,
        weights: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
        scratch: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> float:
        """Leave-one-out k-NN error of the training benchmarks under *weights*.

        Vectorised over all left-out benchmarks at once: *pairwise_sq* holds
        the precomputed ``(characteristics x benchmarks x benchmarks)``
        squared feature differences, so each GA fitness evaluation is a
        weighted reduction plus one batched k-neighbour selection instead of
        one :meth:`_knn_predict` call per benchmark.  It matches that
        per-benchmark loop (the equivalence suite enforces it): the weighted
        distance accumulates characteristic by characteristic in index
        order, which reproduces the per-row ``(weights * diff**2).sum``
        exactly while the reduction stays below NumPy's pairwise-summation
        block (true for the study's 7 MICA-style characteristics, where the
        GA's evolution trajectory and learned weights are bit-for-bit
        unchanged) and to ~1e-15 relative beyond that; every other
        gather/reduction below preserves the original operation order.
        """
        n_characteristics, n_benchmarks, _ = pairwise_sq.shape
        if scratch is not None:
            distances, term = scratch
        else:
            distances = np.empty((n_benchmarks, n_benchmarks))
            term = np.empty_like(distances)
        np.multiply(pairwise_sq[0], weights[0], out=distances)
        for f in range(1, n_characteristics):
            np.multiply(pairwise_sq[f], weights[f], out=term)
            distances += term
        np.sqrt(distances, out=distances)
        # A benchmark is never its own neighbour candidate.
        np.fill_diagonal(distances, np.inf)
        k = min(self.k, n_benchmarks - 1)
        order = np.argsort(distances, axis=1, kind="mergesort")[:, :k]
        neighbour_dist = distances[np.arange(n_benchmarks)[:, None], order]
        zero_rows = (neighbour_dist == 0.0).any(axis=1)
        inverse = 1.0 / np.where(neighbour_dist == 0.0, 1.0, neighbour_dist)
        predicted = np.einsum("nk,nkm->nm", inverse, scores[order]) / inverse.sum(
            axis=1
        )[:, None]
        for i in np.nonzero(zero_rows)[0]:
            exact = order[i][neighbour_dist[i] == 0.0]
            predicted[i] = scores[exact].mean(axis=0)
        errors = np.ascontiguousarray(np.abs(predicted - scores) / scores)
        return float(errors.mean(axis=1).mean())

    def learn_characteristic_weights(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        training_benchmarks: Sequence[str],
    ) -> np.ndarray:
        """Run the GA and return the learned per-characteristic weights."""
        features = self._standardised_features(dataset, training_benchmarks)
        train_matrix = dataset.matrix.select_benchmarks(list(training_benchmarks))
        scores = np.ascontiguousarray(
            train_matrix.select_machines(split.target_ids).scores
        )
        pairwise_sq = np.ascontiguousarray(
            ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
        )
        n_benchmarks = features.shape[0]
        scratch = (
            np.empty((n_benchmarks, n_benchmarks)),
            np.empty((n_benchmarks, n_benchmarks)),
        )
        ga = GeneticAlgorithm(
            genome_length=features.shape[1],
            fitness=lambda genome: self._loo_fitness(genome, pairwise_sq, scores, scratch),
            config=self.ga_config,
            seed=self.seed,
        )
        best = ga.run()
        # An all-zero genome would make every distance zero; fall back to uniform.
        if not np.any(best > 0):
            best = np.ones_like(best)
        self.learned_weights_ = best
        return best

    # -------------------------------------------------------------- pipeline
    def predict_application_scores(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        application: str,
        training_benchmarks: Sequence[str],
    ) -> np.ndarray:
        """Predict the application's score on every target machine of *split*."""
        training = [name for name in training_benchmarks if name != application]
        if not training:
            raise ValueError("GA-kNN needs at least one training benchmark")

        if self.learn_weights:
            weights = self.learn_characteristic_weights(dataset, split, training)
        else:
            weights = np.ones(dataset.benchmark_feature_matrix([training[0]]).shape[1])
            self.learned_weights_ = weights

        # Standardise application + training benchmarks in a common space.
        all_names = training + [application]
        features = self._standardised_features(dataset, all_names)
        candidate_features = features[:-1]
        query_features = features[-1]

        train_matrix = dataset.matrix.select_benchmarks(training)
        candidate_scores = train_matrix.select_machines(split.target_ids).scores
        return self._knn_predict(query_features, candidate_features, candidate_scores, weights)


class BatchedGAKNN(GAKNNBaseline):
    """GA-kNN with a split-level batched entry point.

    Implements the engine's ``BatchedRankingMethod`` protocol on top of the
    per-cell :class:`GAKNNBaseline`: one pass per split covers every
    leave-one-out application of that split, running all per-cell GAs in
    lockstep (see the module docstring); a same-shape group of splits is
    handled one split at a time.  Per-cell results are bit-identical to
    :meth:`GAKNNBaseline.predict_application_scores`.

    After a batched call, :attr:`learned_weights_by_application_` maps each
    application of the call's last split to its learned weight vector
    (:attr:`learned_weights_` keeps the last cell's weights for drop-in
    compatibility).  :func:`~repro.core.pipeline.run_cross_validation` may
    run a job in a forked worker process; such a job does not update these
    attributes on the caller's instance.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.learned_weights_by_application_: dict[str, np.ndarray] = {}
        self._fitness_scratch: dict[tuple, np.ndarray] = {}

    # ----------------------------------------------------- stacked fitness
    def _population_loo_fitness(
        self,
        genomes: np.ndarray,
        pairwise_sq: np.ndarray,
        scores: np.ndarray,
    ) -> np.ndarray:
        """Stacked leave-one-out fitness of ``(cells, pop, genes)`` genomes.

        One tensor pass evaluates every genome of every cell's population:
        *pairwise_sq* is ``(cells, characteristics, B, B)``, *scores* is
        ``(cells, B, targets)``, and the return value is ``(cells, pop)``.
        Each entry is bit-identical to :meth:`GAKNNBaseline._loo_fitness`
        on the corresponding cell: the einsum contracts the characteristic
        axis sequentially (matching the per-characteristic accumulation),
        the neighbour selection reproduces the stable mergesort ordering
        (a k-smallest partition whose boundary-tie rows fall back to the
        full stable sort), and the k-neighbour score accumulation runs in
        the same index order as the sequential ``einsum("nk,nkm->nm")``
        contraction.
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
            out=self._scratch(("dist", n_cells, n_pop, n_benchmarks, n_benchmarks)),
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
        row_base = self._index_base(n_rows, n_benchmarks)
        sub_base = self._index_base(n_rows, k)
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
        # contraction order as einsum("nk,nkm->nm") in the per-cell path.
        # Neighbour-major index copy so each gather reads a contiguous
        # index row; reused scratch buffers keep the loop allocation-free.
        flat_scores = scores.reshape(n_cells * n_benchmarks, n_targets)
        cell_offset = self._index_base(n_cells, n_benchmarks).reshape(n_cells, 1, 1, 1)
        neighbour_major = np.ascontiguousarray(
            (order + cell_offset).reshape(-1, k).T
        )
        block = (n_cells, n_pop, n_benchmarks, n_targets)
        predicted = self._scratch(("acc",) + block)
        gathered = self._scratch(("gather",) + block)
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

    def _scratch(self, key: tuple) -> np.ndarray:
        """Reusable float buffer for the hot fitness pass.

        *key* is ``(tag, *shape)`` — the tag keeps same-shaped buffers with
        different roles from aliasing each other.
        """
        buffer = self._fitness_scratch.get(key)
        if buffer is None:
            buffer = np.empty(key[1:])
            self._fitness_scratch[key] = buffer
        return buffer

    def _index_base(self, n_rows: int, stride: int) -> np.ndarray:
        """Cached ``(n_rows, 1)`` column of flat row offsets ``i * stride``."""
        key = ("base", n_rows, stride)
        base = self._fitness_scratch.get(key)
        if base is None:
            base = (np.arange(n_rows, dtype=np.intp) * stride)[:, None]
            self._fitness_scratch[key] = base
        return base

    # ------------------------------------------------------------- batching
    def predict_all_applications(
        self,
        dataset: SpecDataset,
        splits: Sequence[MachineSplit],
        applications: Sequence[str],
    ) -> list[Mapping[str, np.ndarray]]:
        """Predicted target scores for every application, one GA pass per split.

        Each application is trained leave-one-out against every other
        dataset benchmark, exactly as the per-cell pipeline loop would hand
        them over; results are bit-identical to per-cell calls.  Returns
        one ``{application: scores}`` mapping per split, in order.
        """
        return [self._predict_split(dataset, split, applications) for split in splits]

    def _predict_split(
        self,
        dataset: SpecDataset,
        split: MachineSplit,
        applications: Sequence[str],
    ) -> Mapping[str, np.ndarray]:
        applications = list(applications)
        if not applications:
            return {}
        # One batched call = one split's results: drop any earlier split's
        # entries so the diagnostic mapping never mixes splits.
        self.learned_weights_by_application_.clear()
        benchmark_names = dataset.benchmark_names
        if len(benchmark_names) < 2:
            raise ValueError("GA-kNN needs at least one training benchmark")
        row_of = {name: row for row, name in enumerate(benchmark_names)}
        unknown = [name for name in applications if name not in row_of]
        if unknown:
            raise ValueError(f"unknown applications of interest: {unknown}")
        app_rows = np.array([row_of[name] for name in applications], dtype=np.intp)
        all_rows = np.arange(len(benchmark_names), dtype=np.intp)
        # Shared split-level statistics: the raw feature rows and the full
        # target-machine score block are built once; every cell's working
        # set is a row subset of them (the cells differ by one row), so the
        # per-cell values — and everything derived from them — stay
        # bit-identical to the sequential rebuild-per-cell path.
        full_features = dataset.benchmark_feature_matrix(benchmark_names)
        full_scores = dataset.matrix.select_machines(split.target_ids).scores

        if self.learn_weights:
            weights = self._learn_weights_lockstep(
                app_rows, all_rows, full_features, full_scores
            )
        else:
            weights = np.ones((len(applications), full_features.shape[1]))

        predictions: dict[str, np.ndarray] = {}
        for index, application in enumerate(applications):
            cell_weights = weights[index]
            self.learned_weights_by_application_[application] = cell_weights
            self.learned_weights_ = cell_weights
            # Final prediction exactly as the sequential cell computes it:
            # standardise training benchmarks + application (in that order)
            # in a common space, then distance-weighted k-NN.
            training_rows = all_rows[all_rows != app_rows[index]]
            features = StandardScaler().fit_transform(
                full_features[np.concatenate([training_rows, app_rows[index : index + 1]])]
            )
            predictions[application] = self._knn_predict(
                features[-1],
                features[:-1],
                full_scores[training_rows],
                cell_weights,
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
            # blocks with the exact sequential arithmetic (standardisation
            # is fit on that cell's own training rows).
            training_rows = all_rows[all_rows != app_row]
            features = StandardScaler().fit_transform(full_features[training_rows])
            score_blocks.append(full_scores[training_rows])
            pairwise_blocks.append(
                ((features[:, None, :] - features[None, :, :]) ** 2).transpose(2, 0, 1)
            )
        pairwise_sq = np.ascontiguousarray(np.stack(pairwise_blocks))
        scores = np.ascontiguousarray(np.stack(score_blocks))

        ga = LockstepGeneticAlgorithm(
            n_problems=len(app_rows),
            genome_length=pairwise_sq.shape[1],
            fitness=lambda block: self._population_loo_fitness(
                block, pairwise_sq, scores
            ),
            config=self.ga_config,
            seed=self.seed,
        )
        try:
            best = ga.run()
        finally:
            # The scratch buffers only pay off across the generations of one
            # run; dropping them here keeps a long-lived instance (e.g. held
            # by the prediction service) from retaining one buffer set per
            # distinct batch shape it has ever served.
            self._fitness_scratch.clear()
        # An all-zero genome would make every distance zero; fall back to
        # uniform weights, mirroring the per-cell GA.
        degenerate = ~np.any(best > 0, axis=1)
        best[degenerate] = 1.0
        return best
