"""Unified method registry — the engine's single source of truth for methods.

* :func:`register_method` declares a ranking method once — a *factory*
  building the instance from :class:`MethodParams`, a description and an
  optional serving fallback;
* :func:`create_method` / :func:`create_methods` /
  :func:`resolve_methods` are the only places a method name is turned into
  an implementation — :func:`~repro.core.pipeline.run_cross_validation`,
  :func:`~repro.core.pipeline.predict_split_scores`, the prediction
  service, ``repro-experiments`` and ``repro-serve`` all route through
  them; and
* :func:`registered_methods` powers discovery
  (``repro-experiments list-methods``) and the docs completeness check
  (``tools/check_registry.py``).

Adding a method is a one-file change: implement the
:class:`~repro.core.batch.BatchedRankingMethod` protocol, register it, and
every consumer — offline tables, online service, CLI — can name it.  Each
registered name has exactly one implementation.

Examples::

    >>> [spec.name for spec in registered_methods()]
    ['GA-kNN', 'MLP^T', 'NN^T']
    >>> create_method("NN^T").__class__.__name__
    'BatchedLinearTransposition'
    >>> sorted(resolve_methods(["NN^T", "MLP^T"]))
    ['MLP^T', 'NN^T']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.ml.genetic import GAConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchedRankingMethod

__all__ = [
    "DEFAULT_METHOD",
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


class MethodRegistryError(ValueError):
    """Base class for registry misuse (unknown names, duplicates, ...)."""


class UnknownMethodError(MethodRegistryError):
    """A method name no registration covers."""


class DuplicateMethodError(MethodRegistryError):
    """A second registration under an already-taken name."""


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
        Registry name, unique (``"NN^T"``, ``"GA-kNN"``, ...); also the
        method's name in result tables.
    factory:
        ``factory(params: MethodParams) -> BatchedRankingMethod``.
    description:
        One line for ``repro-experiments list-methods``.
    fallback:
        Registry name of a cheaper method the serving layer may degrade
        to when this one cannot meet a query's deadline or its engine pass
        fails (``None`` = no degradation; this method is already the end
        of its chain).
    """

    name: str
    factory: Callable[[MethodParams], "BatchedRankingMethod"]
    description: str = ""
    fallback: str | None = None

    def create(self, params: MethodParams | None = None) -> "BatchedRankingMethod":
        """Build a fresh method instance under *params* (default params if None)."""
        return self.factory(params if params is not None else MethodParams())


_REGISTRY: dict[str, MethodSpec] = {}


def register_method(
    name: str,
    factory: Callable[[MethodParams], "BatchedRankingMethod"],
    description: str = "",
    fallback: str | None = None,
    replace: bool = False,
) -> MethodSpec:
    """Register a ranking method and return its :class:`MethodSpec`.

    *fallback* optionally names the (cheaper, already-registered) method
    the serving layer may degrade to under deadline pressure or when an
    engine pass fails.

    Raises :class:`DuplicateMethodError` when *name* is taken (pass
    ``replace=True`` to overwrite deliberately).

    Examples::

        >>> spec = register_method(
        ...     "doctest-method", lambda params: None,
        ...     description="throwaway doctest entry",
        ... )
        >>> spec.description
        'throwaway doctest entry'
        >>> unregister_method("doctest-method")
    """
    if not name:
        raise MethodRegistryError("method name must be non-empty")
    if name in _REGISTRY and not replace:
        raise DuplicateMethodError(
            f"method {name!r} is already registered (pass replace=True to overwrite)"
        )
    if fallback is not None and fallback == name:
        raise MethodRegistryError(f"method {name!r} cannot fall back to itself")
    spec = MethodSpec(name=name, factory=factory, description=description, fallback=fallback)
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

        >>> method_spec("MLP^T").fallback
        'NN^T'
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

        >>> [spec.name for spec in registered_methods()]
        ['GA-kNN', 'MLP^T', 'NN^T']
    """
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def create_method(name: str, params: MethodParams | None = None) -> "BatchedRankingMethod":
    """Build a fresh instance of the method registered under *name*.

    Examples::

        >>> create_method("GA-kNN").__class__.__name__
        'BatchedGAKNN'
    """
    return method_spec(name).create(params)


def create_methods(
    names: Sequence[str],
    params: MethodParams | None = None,
) -> dict[str, "BatchedRankingMethod"]:
    """Build several methods at once, keyed by name.

    Naming one method twice in a line-up is a mistake and raises
    :class:`MethodRegistryError`.

    Examples::

        >>> sorted(create_methods(["NN^T", "GA-kNN"]))
        ['GA-kNN', 'NN^T']
    """
    methods: dict[str, "BatchedRankingMethod"] = {}
    for name in names:
        if name in methods:
            raise MethodRegistryError(f"method {name!r} named twice in one line-up")
        methods[name] = create_method(name, params)
    return methods


def resolve_methods(
    methods: "Mapping[str, BatchedRankingMethod] | Sequence[str] | str",
    params: MethodParams | None = None,
) -> dict[str, "BatchedRankingMethod"]:
    """Normalise a caller's method specification to ``{name: instance}``.

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
# Built-in registrations: the paper's three ranking methods.  Factories
# import lazily to keep module import cheap; all hyper-parameters come from
# MethodParams.
# --------------------------------------------------------------------------


def _make_nnt(params: MethodParams) -> "BatchedRankingMethod":
    from repro.core.batch import BatchedLinearTransposition

    return BatchedLinearTransposition()


def _make_mlpt(params: MethodParams) -> "BatchedRankingMethod":
    from repro.core.batch import BatchedMLPTransposition

    return BatchedMLPTransposition(
        hidden_units=params.mlp_hidden_units,
        epochs=params.mlp_epochs,
        seed=params.seed,
    )


def _make_gaknn(params: MethodParams) -> "BatchedRankingMethod":
    from repro.baselines.ga_knn import BatchedGAKNN

    return BatchedGAKNN(
        k=params.knn_neighbours, ga_config=params.ga_config(), seed=params.seed
    )


register_method(
    "NN^T",
    _make_nnt,
    description="data transposition, per-(predictive,target) linear fits; "
    "rank-one leave-one-out downdating, one kernel call per split",
)
register_method(
    "MLP^T",
    _make_mlpt,
    description="data transposition via MLP regression; the leave-one-out "
    "networks of a same-shape split group trained as one stacked SGD pass",
    fallback="NN^T",
)
register_method(
    "GA-kNN",
    _make_gaknn,
    description="Hoste et al. prior art; all leave-one-out GAs of a split evolved "
    "in lockstep with one stacked LOO-fitness tensor pass per generation",
    fallback="NN^T",
)
