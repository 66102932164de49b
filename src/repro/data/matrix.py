"""The benchmark-by-machine performance matrix.

Figure 2 of the paper frames everything around a data matrix whose rows are
benchmarks and whose columns are machines, holding SPEC-style speed ratios.
:class:`PerformanceMatrix` is that object: a labelled 2-D array with
row/column lookup by benchmark or machine name, sub-matrix selection (the
cross-validation splitters carve predictive/target machine sets and remove
the application of interest from the training rows), the transposition the
method is named after, and CSV round-tripping so generated datasets can be
inspected or swapped for real SPEC exports.
"""

from __future__ import annotations

import csv
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["PerformanceMatrix"]


class PerformanceMatrix:
    """Labelled benchmarks x machines matrix of performance scores."""

    def __init__(
        self,
        benchmarks: Sequence[str],
        machines: Sequence[str],
        scores: np.ndarray | Sequence[Sequence[float]],
    ) -> None:
        self.benchmarks = list(benchmarks)
        self.machines = list(machines)
        # Own, immutable copy: downstream consumers (the split-level caches
        # of the batched engine in particular) may retain derived blocks, so
        # silent in-place edits would desynchronise them.  Mutating the
        # scores raises instead; build a new matrix to change values.
        self.scores = np.array(scores, dtype=float)
        if self.scores.shape != (len(self.benchmarks), len(self.machines)):
            raise ValueError(
                f"scores shape {self.scores.shape} does not match "
                f"({len(self.benchmarks)} benchmarks, {len(self.machines)} machines)"
            )
        if len(set(self.benchmarks)) != len(self.benchmarks):
            raise ValueError("benchmark names must be unique")
        if len(set(self.machines)) != len(self.machines):
            raise ValueError("machine names must be unique")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must all be finite")
        if np.any(self.scores <= 0):
            raise ValueError("SPEC-style speed ratios must be positive")
        self.scores.flags.writeable = False
        self._benchmark_index = {name: i for i, name in enumerate(self.benchmarks)}
        self._machine_index = {name: i for i, name in enumerate(self.machines)}

    # ------------------------------------------------------------- accessors
    @property
    def shape(self) -> tuple[int, int]:
        """(number of benchmarks, number of machines)."""
        return self.scores.shape

    def benchmark_index(self, benchmark: str) -> int:
        """Row index of *benchmark*; raises KeyError for unknown names."""
        try:
            return self._benchmark_index[benchmark]
        except KeyError:
            raise KeyError(f"unknown benchmark {benchmark!r}") from None

    def machine_index(self, machine: str) -> int:
        """Column index of *machine*; raises KeyError for unknown names."""
        try:
            return self._machine_index[machine]
        except KeyError:
            raise KeyError(f"unknown machine {machine!r}") from None

    @property
    def machine_index_map(self) -> Mapping[str, int]:
        """Read-only ``{machine_id: column}`` mapping, built once at construction.

        Hot paths (the cross-validation pipeline visits every matrix cell)
        use this instead of rebuilding the dict per lookup batch.
        """
        return MappingProxyType(self._machine_index)

    @property
    def benchmark_index_map(self) -> Mapping[str, int]:
        """Read-only ``{benchmark: row}`` mapping, built once at construction."""
        return MappingProxyType(self._benchmark_index)

    def score(self, benchmark: str, machine: str) -> float:
        """Single cell: the score of *benchmark* on *machine*."""
        return float(self.scores[self.benchmark_index(benchmark), self.machine_index(machine)])

    def benchmark_scores(self, benchmark: str) -> np.ndarray:
        """One row: *benchmark*'s score on every machine (read-only view)."""
        row = self.scores[self.benchmark_index(benchmark)].view()
        row.flags.writeable = False
        return row

    # ------------------------------------------------------------- selection
    def select_machines(self, machines: Iterable[str]) -> "PerformanceMatrix":
        """Sub-matrix containing only the given machines (columns), in order."""
        names = list(machines)
        indices = [self.machine_index(name) for name in names]
        return PerformanceMatrix(self.benchmarks, names, self.scores[:, indices])

    def select_benchmarks(self, benchmarks: Iterable[str]) -> "PerformanceMatrix":
        """Sub-matrix containing only the given benchmarks (rows), in order."""
        names = list(benchmarks)
        indices = [self.benchmark_index(name) for name in names]
        return PerformanceMatrix(names, self.machines, self.scores[indices, :])

    # ---------------------------------------------------------- transposition
    def transposed(self) -> "PerformanceMatrix":
        """The transposed matrix: rows become machines, columns benchmarks.

        This is the literal operation that gives the paper's method its
        name — after transposition, "find the most similar row" means
        finding the most similar *machine* rather than the most similar
        benchmark.
        """
        return PerformanceMatrix(self.machines, self.benchmarks, self.scores.T)

    # ------------------------------------------------------------------- csv
    def to_csv(self, path: str | Path) -> Path:
        """Write the matrix (benchmarks as rows) to a CSV file and return its path."""
        target = Path(path)
        with target.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["benchmark", *self.machines])
            for benchmark, row in zip(self.benchmarks, self.scores):
                writer.writerow([benchmark, *(f"{value:.6g}" for value in row)])
        return target

    @classmethod
    def from_csv(cls, path: str | Path) -> "PerformanceMatrix":
        """Read a matrix previously written by :meth:`to_csv`."""
        source = Path(path)
        with source.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header or header[0] != "benchmark":
                raise ValueError(f"{source} is not a performance-matrix CSV")
            machines = header[1:]
            benchmarks: list[str] = []
            rows: list[list[float]] = []
            for record in reader:
                if not record:
                    continue
                benchmarks.append(record[0])
                rows.append([float(value) for value in record[1:]])
        return cls(benchmarks, machines, np.asarray(rows))

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PerformanceMatrix({len(self.benchmarks)} benchmarks x "
            f"{len(self.machines)} machines)"
        )
