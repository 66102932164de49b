"""Tests for the method table (repro.core.engine) and the standard line-up."""

import pytest

from repro.baselines.ga_knn import BatchedGAKNN
from repro.core import BatchedLinearTransposition, BatchedMLPTransposition
from repro.core.engine import DEFAULT_METHOD, METHODS
from repro.experiments.config import PRESETS, ExperimentConfig
from repro.experiments.methods import GAKNN, MLPT, NNT, standard_methods


# ---------------------------------------------------------------- the table
def test_canonical_methods_are_registered():
    names = [spec.name for spec in METHODS]
    assert names == sorted(names) == [GAKNN, MLPT, NNT]
    assert DEFAULT_METHOD in names


def test_method_table_fallbacks_end_at_a_method_without_one():
    """Every fallback names a method of the table, and every chain ends."""
    fallbacks = {spec.name: spec.fallback for spec in METHODS}
    assert fallbacks == {GAKNN: NNT, MLPT: NNT, NNT: None}
    for name in fallbacks:
        chain = [name]
        while fallbacks[chain[-1]] is not None:
            chain.append(fallbacks[chain[-1]])
            assert len(chain) == len(set(chain)), chain
        assert chain[-1] in fallbacks


def test_unknown_method_raises():
    """A name outside the served line-up is refused where names are accepted."""
    from repro.data import build_default_dataset
    from repro.service import PredictionService, RankingQuery, ServiceError

    dataset = build_default_dataset()
    service = PredictionService(dataset, standard_methods(ExperimentConfig.smoke()))
    query = RankingQuery("gcc", tuple(dataset.machine_ids[:4]), method="no-such-method")
    with pytest.raises(ServiceError, match="no-such-method"):
        service.validate(query)


# ---------------------------------------------------------- the line-up
def test_batched_registrations_create_batched_implementations():
    methods = standard_methods(ExperimentConfig.smoke())
    assert isinstance(methods[NNT], BatchedLinearTransposition)
    assert isinstance(methods[MLPT], BatchedMLPTransposition)
    assert isinstance(methods[GAKNN], BatchedGAKNN)


def test_standard_methods_build_the_line_up_from_the_config():
    configs = [ExperimentConfig.preset(name) for name in PRESETS]
    configs.append(
        ExperimentConfig(mlp_epochs=33, ga_population=7, ga_generations=3, knn_neighbours=4, seed=9)
    )
    for config in configs:
        methods = standard_methods(config)
        assert list(methods) == [NNT, MLPT, GAKNN]
        mlpt, gaknn = methods[MLPT], methods[GAKNN]
        assert (mlpt.epochs, mlpt.hidden_units, mlpt.seed) == (
            config.mlp_epochs, config.mlp_hidden_units, config.seed
        )
        assert (gaknn.k, gaknn.seed) == (config.knn_neighbours, config.seed)
        assert gaknn.ga_config == config.ga_config()


# ------------------------------------------------------------------ discovery
def test_cli_list_methods_prints_the_registry(capsys):
    from repro.cli import main

    assert main(["list-methods"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["name", "fallback", "description"]
    listed = [line.split()[0] for line in out.splitlines()[2:]]
    assert listed == ["GA-kNN", "MLP^T", "NN^T"]


def test_every_method_documented_in_api_docs_is_registered():
    """The docs method table and METHODS must agree (both ways)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "check_registry.py"
    spec = importlib.util.spec_from_file_location("check_registry", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
