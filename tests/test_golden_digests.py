"""Golden digests: the engine's predictions, pinned bit for bit.

Every speed-up of the engine must leave its outputs unchanged.  This test
hashes the float64 prediction arrays of each standard method (NNᵀ, MLPᵀ,
GA-kNN) on the smoke preset, over the 17 processor-family splits (Table 2)
plus the temporal splits of Table 3 and the predictive subsets of Table 4,
and compares them with the digests stored in ``golden_digests.json``.

Re-record only when an output change is intended::

    PYTHONPATH=src python tests/test_golden_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core import predict_split_scores
from repro.data import build_default_dataset, family_cross_validation_splits
from repro.data.splits import predictive_subset_split, temporal_split
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import standard_methods
from repro.experiments.table4 import SUBSET_SIZES

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def golden_splits(dataset, config):
    """The Table 2 family splits, then Table 3's eras, then Table 4's subsets."""
    return [
        *family_cross_validation_splits(dataset),
        temporal_split(dataset, target_year=2009, predictive_years=[2008]),
        temporal_split(dataset, target_year=2009, predictive_years=[2007]),
        temporal_split(dataset, target_year=2009, predictive_before=2007),
        *(predictive_subset_split(dataset, subset_size=size, seed=config.seed)
          for size in SUBSET_SIZES),
    ]


def compute_digests() -> dict:
    """``{"splits": n, "applications": [...], "digests": {method: sha256}}``.

    Each method's digest covers its prediction arrays in split order, then
    application order, as exact float64 bytes.
    """
    config = ExperimentConfig.smoke()
    dataset = build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
    applications = list(config.applications)
    methods = standard_methods(config)
    hashes = {name: hashlib.sha256() for name in methods}
    splits = golden_splits(dataset, config)
    for split in splits:
        scores = predict_split_scores(dataset, split, methods, applications)
        for name, digest in hashes.items():
            for application in applications:
                digest.update(np.asarray(scores[name][application], dtype=np.float64).tobytes())
    return {
        "preset": "smoke",
        "splits": len(splits),
        "applications": applications,
        "digests": {name: digest.hexdigest() for name, digest in hashes.items()},
    }


def test_predictions_match_golden_digests():
    stored = json.loads(GOLDEN_PATH.read_text())
    assert compute_digests() == stored


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_digests.py --record")
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
