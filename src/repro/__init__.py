"""repro — reproduction of "Ranking Commercial Machines through Data Transposition".

Piccart, Georges, Blockeel and Eeckhout, IISWC 2011.

The package is organised as a small stack:

* :mod:`repro.stats` and :mod:`repro.ml` — self-contained statistics and
  machine-learning substrates (no SciPy/sklearn dependency at runtime).
* :mod:`repro.simulator` — a mechanistic machine-performance simulator that
  stands in for the published SPEC CPU2006 results the paper uses.
* :mod:`repro.data` — the 117-machine catalogue, the 29 SPEC CPU2006
  benchmark definitions, the performance-matrix container and the
  cross-validation splitters.
* :mod:`repro.core` — the paper's contribution: data transposition with the
  NNᵀ (linear-regression) and MLPᵀ (multi-layer perceptron) predictors plus
  predictive-machine selection.
* :mod:`repro.baselines` — the GA-kNN prior art.
* :mod:`repro.experiments` — one module per paper table/figure.
* :mod:`repro.applications` — the use cases sketched in Section 4.
* :mod:`repro.service` — the online prediction service over the batched
  engine (``repro-serve``), with split-state caching and micro-batching.

``docs/architecture.md`` maps the layers in detail; ``docs/serving.md``
and ``docs/api.md`` cover the serving stack.
"""

from repro.data import SpecDataset, build_default_dataset
from repro.core import (
    DataTransposition,
    LinearTranspositionPredictor,
    MLPTranspositionPredictor,
)

__version__ = "1.0.0"

__all__ = [
    "DataTransposition",
    "LinearTranspositionPredictor",
    "MLPTranspositionPredictor",
    "SpecDataset",
    "build_default_dataset",
    "__version__",
]
