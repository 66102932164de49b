"""Unified method registry — the engine's single source of truth for methods.

Before this module existed the codebase had two parallel dispatch worlds:
batch-capable methods were wired up by hand wherever they were used (the
pipeline, the service, the experiments line-up, the CLI), and GA-kNN fell
through to the per-cell loop.  :mod:`repro.core.engine` collapses that into
one registry:

* :func:`register_method` declares a ranking method once — a *factory*
  building the instance from :class:`MethodParams`, plus the
  *capabilities* it supports (``batched`` / ``per-cell``);
* :func:`create_method` / :func:`create_methods` /
  :func:`resolve_methods` are the only places a method name is turned into
  an implementation — :func:`~repro.core.pipeline.run_cross_validation`,
  :func:`~repro.core.pipeline.predict_split_scores`, the prediction
  service, ``repro-experiments`` and ``repro-serve`` all route through
  them; and
* :func:`registered_methods` powers discovery
  (``repro-experiments list-methods``) and the docs completeness check
  (``tools/check_registry.py``).

Adding a method is now a one-file change: implement it, register it, and
every consumer — offline tables, online service, CLI — can name it.
Variant registrations share a *label* (the canonical result-table name):
``"NN^T/per-cell"`` is the sequential reference implementation of the
method labelled ``NN^T``, which the equivalence tests and engine benches
resolve explicitly.

Examples::

    >>> sorted(spec.name for spec in registered_methods() if "batched" in spec.capabilities)
    ['GA-kNN', 'MLP^T', 'NN^T']
    >>> method_spec("GA-kNN").label
    'GA-kNN'
    >>> create_method("NN^T").__class__.__name__
    'BatchedLinearTransposition'
    >>> sorted(resolve_methods(["NN^T", "MLP^T"]))
    ['MLP^T', 'NN^T']
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.ml.genetic import GAConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import RankingMethod

__all__ = [
    "CAPABILITIES",
    "DEFAULT_METHOD",
    "CapabilityMismatchError",
    "DuplicateMethodError",
    "MethodParams",
    "MethodRegistryError",
    "MethodSpec",
    "UnknownMethodError",
    "create_method",
    "create_methods",
    "method_spec",
    "register_method",
    "registered_methods",
    "resolve_methods",
    "unregister_method",
]

#: Method used when a caller does not name one (the paper's headline method).
DEFAULT_METHOD = "NN^T"

#: The capability vocabulary.  ``batched``: implements
#: :class:`~repro.core.batch.BatchedRankingMethod` (one tensor pass per
#: split).  ``per-cell``: implements the per-application
#: :class:`~repro.core.pipeline.RankingMethod` protocol only.
CAPABILITIES = frozenset({"batched", "per-cell"})


class MethodRegistryError(ValueError):
    """Base class for registry misuse (unknown names, duplicates, ...)."""


class UnknownMethodError(MethodRegistryError):
    """A method name no registration covers."""


class DuplicateMethodError(MethodRegistryError):
    """A second registration under an already-taken name."""


class CapabilityMismatchError(MethodRegistryError):
    """A method that lacks a capability the caller requires."""


@dataclass(frozen=True)
class MethodParams:
    """Hyper-parameters a method factory may consume.

    The engine-level mirror of the experiment-layer knobs (see
    :meth:`repro.experiments.config.ExperimentConfig.method_params`, which
    adapts a preset into one of these).  Defaults match the paper-faithful
    ``full`` preset.

    Examples::

        >>> MethodParams().knn_neighbours
        10
        >>> config = MethodParams(ga_population=16, ga_generations=8).ga_config()
        >>> (config.population_size, config.generations)
        (16, 8)
    """

    mlp_epochs: int = 500
    mlp_hidden_units: int | None = None
    ga_population: int = 30
    ga_generations: int = 15
    knn_neighbours: int = 10
    seed: int = 0

    def ga_config(self) -> GAConfig:
        """The GA hyper-parameters implied by these params."""
        return GAConfig(
            population_size=self.ga_population, generations=self.ga_generations
        )


@dataclass(frozen=True)
class MethodSpec:
    """One registry entry: everything the engine knows about a method.

    Attributes
    ----------
    name:
        Registry name, unique (``"NN^T"``, ``"GA-kNN/per-cell"``, ...).
    factory:
        ``factory(params: MethodParams) -> RankingMethod``.
    capabilities:
        Subset of :data:`CAPABILITIES`.
    label:
        Canonical result-table name; variants of one method share it
        (``"NN^T/per-cell"`` carries the label ``"NN^T"``).
    description:
        One line for ``repro-experiments list-methods``.
    fallback:
        Registry name of a cheaper method the serving layer may degrade
        to when this one cannot meet a query's deadline or its engine pass
        fails (``None`` = no degradation; this method is already the end
        of its chain).
    """

    name: str
    factory: Callable[[MethodParams], "RankingMethod"]
    capabilities: frozenset[str]
    label: str
    description: str = ""
    fallback: str | None = None

    def create(self, params: MethodParams | None = None) -> "RankingMethod":
        """Build a fresh method instance under *params* (default params if None)."""
        return self.factory(params if params is not None else MethodParams())


_REGISTRY: dict[str, MethodSpec] = {}


def register_method(
    name: str,
    factory: Callable[[MethodParams], "RankingMethod"],
    capabilities: Iterable[str],
    label: str | None = None,
    description: str = "",
    fallback: str | None = None,
    replace: bool = False,
) -> MethodSpec:
    """Register a ranking method and return its :class:`MethodSpec`.

    *fallback* optionally names the (cheaper, already-registered) method
    the serving layer may degrade to under deadline pressure or when an
    engine pass fails.

    Raises :class:`DuplicateMethodError` when *name* is taken (pass
    ``replace=True`` to overwrite deliberately) and ``ValueError`` when a
    capability is outside :data:`CAPABILITIES`.

    Examples::

        >>> spec = register_method(
        ...     "doctest-method", lambda params: None, ["per-cell"],
        ...     description="throwaway doctest entry",
        ... )
        >>> (spec.label, sorted(spec.capabilities))
        ('doctest-method', ['per-cell'])
        >>> unregister_method("doctest-method")
    """
    if not name:
        raise MethodRegistryError("method name must be non-empty")
    capability_set = frozenset(capabilities)
    unknown = capability_set - CAPABILITIES
    if unknown:
        raise MethodRegistryError(
            f"unknown capabilities {sorted(unknown)} (known: {sorted(CAPABILITIES)})"
        )
    if not capability_set:
        raise MethodRegistryError("a method must declare at least one capability")
    if name in _REGISTRY and not replace:
        raise DuplicateMethodError(
            f"method {name!r} is already registered (pass replace=True to overwrite)"
        )
    if fallback is not None and fallback == name:
        raise MethodRegistryError(f"method {name!r} cannot fall back to itself")
    spec = MethodSpec(
        name=name,
        factory=factory,
        capabilities=capability_set,
        label=label if label is not None else name,
        description=description,
        fallback=fallback,
    )
    _REGISTRY[name] = spec
    return spec


def unregister_method(name: str) -> None:
    """Remove a registration (raises :class:`UnknownMethodError` if absent)."""
    if name not in _REGISTRY:
        raise UnknownMethodError(f"method {name!r} is not registered")
    del _REGISTRY[name]


def method_spec(name: str) -> MethodSpec:
    """The :class:`MethodSpec` registered under *name*.

    Examples::

        >>> method_spec("MLP^T").capabilities == frozenset({"batched"})
        True
        >>> try:
        ...     method_spec("nope")
        ... except UnknownMethodError as exc:
        ...     print(type(exc).__name__)
        UnknownMethodError
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownMethodError(
            f"unknown method {name!r} (registered: {sorted(_REGISTRY)})"
        )
    return spec


def registered_methods() -> tuple[MethodSpec, ...]:
    """Every registered spec, sorted by name.

    Examples::

        >>> names = [spec.name for spec in registered_methods()]
        >>> "NN^T" in names and "GA-kNN/per-cell" in names
        True
    """
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def create_method(
    name: str,
    params: MethodParams | None = None,
    require: Iterable[str] = (),
) -> "RankingMethod":
    """Build a fresh instance of the method registered under *name*.

    *require* lists capabilities the caller depends on; a spec lacking one
    raises :class:`CapabilityMismatchError` instead of silently degrading
    (e.g. requiring ``batched`` from a per-cell-only method).

    Examples::

        >>> create_method("GA-kNN", require=["batched"]).__class__.__name__
        'BatchedGAKNN'
    """
    spec = method_spec(name)
    required = frozenset(require)
    unknown = required - CAPABILITIES
    if unknown:
        raise MethodRegistryError(
            f"unknown capabilities {sorted(unknown)} (known: {sorted(CAPABILITIES)})"
        )
    missing = required - spec.capabilities
    if missing:
        raise CapabilityMismatchError(
            f"method {name!r} lacks required capabilities {sorted(missing)} "
            f"(has: {sorted(spec.capabilities)})"
        )
    return spec.create(params)


def create_methods(
    names: Sequence[str],
    params: MethodParams | None = None,
    require: Iterable[str] = (),
) -> dict[str, "RankingMethod"]:
    """Build several methods at once, keyed by their canonical *label*.

    Two names resolving to the same label (a method and its variant) in
    one call is a mistake and raises :class:`MethodRegistryError`.

    Examples::

        >>> sorted(create_methods(["NN^T", "GA-kNN"]))
        ['GA-kNN', 'NN^T']
    """
    methods: dict[str, "RankingMethod"] = {}
    for name in names:
        spec = method_spec(name)
        if spec.label in methods:
            raise MethodRegistryError(
                f"two methods labelled {spec.label!r} in one line-up ({name!r} collides)"
            )
        methods[spec.label] = create_method(name, params, require)
    return methods


def resolve_methods(
    methods: "Mapping[str, RankingMethod] | Sequence[str] | str",
    params: MethodParams | None = None,
) -> dict[str, "RankingMethod"]:
    """Normalise a caller's method specification to ``{label: instance}``.

    The one resolution point every engine consumer funnels through: a
    mapping of already-built instances passes through unchanged (the caller
    owns naming and construction), a sequence of registry names — or a
    single name — is built via :func:`create_methods`.

    Examples::

        >>> sorted(resolve_methods("NN^T"))
        ['NN^T']
        >>> method = create_method("NN^T")
        >>> resolve_methods({"mine": method})["mine"] is method
        True
    """
    if isinstance(methods, Mapping):
        return dict(methods)
    if isinstance(methods, str):
        methods = [methods]
    return create_methods(methods, params)


# --------------------------------------------------------------------------
# Built-in registrations: the paper's three ranking methods (batched
# first-class implementations plus their sequential per-cell reference
# variants) and the naive baselines.  Factories import lazily where needed
# to keep module import cheap; all hyper-parameters come from MethodParams.
# --------------------------------------------------------------------------


def _make_nnt(params: MethodParams) -> "RankingMethod":
    from repro.core.batch import BatchedLinearTransposition

    return BatchedLinearTransposition()


def _make_nnt_per_cell(params: MethodParams) -> "RankingMethod":
    from repro.core.batch import TranspositionMethod
    from repro.core.linear_predictor import LinearTranspositionPredictor

    return TranspositionMethod(LinearTranspositionPredictor, "NN^T")


def _make_mlpt(params: MethodParams) -> "RankingMethod":
    from repro.core.batch import BatchedMLPTransposition

    return BatchedMLPTransposition(
        hidden_units=params.mlp_hidden_units,
        epochs=params.mlp_epochs,
        seed=params.seed,
    )


def _make_mlpt_per_cell(params: MethodParams) -> "RankingMethod":
    from repro.core.batch import TranspositionMethod
    from repro.core.mlp_predictor import MLPTranspositionPredictor

    return TranspositionMethod(
        partial(
            MLPTranspositionPredictor,
            hidden_units=params.mlp_hidden_units,
            epochs=params.mlp_epochs,
            seed=params.seed,
        ),
        "MLP^T",
    )


def _make_gaknn(params: MethodParams) -> "RankingMethod":
    from repro.baselines.ga_knn import BatchedGAKNN

    return BatchedGAKNN(
        k=params.knn_neighbours, ga_config=params.ga_config(), seed=params.seed
    )


def _make_gaknn_per_cell(params: MethodParams) -> "RankingMethod":
    from repro.baselines.ga_knn import GAKNNBaseline

    return GAKNNBaseline(
        k=params.knn_neighbours, ga_config=params.ga_config(), seed=params.seed
    )


def _make_suite_mean(params: MethodParams) -> "RankingMethod":
    from repro.baselines.naive import SuiteMeanBaseline

    return SuiteMeanBaseline()


def _make_domain_mean(params: MethodParams) -> "RankingMethod":
    from repro.baselines.naive import DomainMeanBaseline

    return DomainMeanBaseline()


def _make_most_similar(params: MethodParams) -> "RankingMethod":
    from repro.baselines.proxy import MostSimilarBenchmarkBaseline

    return MostSimilarBenchmarkBaseline()


register_method(
    "NN^T",
    _make_nnt,
    ["batched"],
    description="data transposition, per-(predictive,target) linear fits; "
    "rank-one leave-one-out downdating, one kernel call per split",
)
register_method(
    "NN^T/per-cell",
    _make_nnt_per_cell,
    ["per-cell"],
    label="NN^T",
    description="sequential NN^T reference (one refit per cell); "
    "equivalence baseline for the batched path",
)
register_method(
    "MLP^T",
    _make_mlpt,
    ["batched"],
    description="data transposition via MLP regression; the leave-one-out "
    "networks of a same-shape split group trained as one stacked SGD pass",
    fallback="NN^T",
)
register_method(
    "MLP^T/per-cell",
    _make_mlpt_per_cell,
    ["per-cell"],
    label="MLP^T",
    description="sequential MLP^T reference (one network per cell); "
    "equivalence baseline for the batched path",
    fallback="NN^T/per-cell",
)
register_method(
    "GA-kNN",
    _make_gaknn,
    ["batched"],
    description="Hoste et al. prior art; all per-cell GAs evolved in "
    "lockstep with one stacked LOO-fitness tensor pass per generation",
    fallback="NN^T",
)
register_method(
    "GA-kNN/per-cell",
    _make_gaknn_per_cell,
    ["per-cell"],
    label="GA-kNN",
    description="sequential GA-kNN reference (one GA per cell); "
    "equivalence baseline for the batched path",
    fallback="NN^T/per-cell",
)
register_method(
    "SuiteMean",
    _make_suite_mean,
    ["per-cell"],
    description="naive baseline: rank machines by their mean score over "
    "the training suite",
)
register_method(
    "DomainMean",
    _make_domain_mean,
    ["per-cell"],
    description="naive baseline: rank machines by their mean score over "
    "the application's domain (integer/floating-point)",
)
register_method(
    "MostSimilarBenchmark",
    _make_most_similar,
    ["per-cell"],
    description="proxy baseline: rank machines by the scores of the most "
    "similar training benchmark",
)
