"""The ranking methods the paper compares, as one constant table.

:data:`METHODS` names NNᵀ, MLPᵀ and GA-kNN with a one-line description and
the serving fallback of each.  It is what ``repro-experiments
list-methods`` prints, what ``tools/check_registry.py`` checks
``docs/api.md`` against and what the prediction service derives its
degradation chain from.  Instances are built in one place,
:func:`repro.experiments.methods.standard_methods`, from an
:class:`~repro.experiments.config.ExperimentConfig`.

Examples::

    >>> [spec.name for spec in METHODS]
    ['GA-kNN', 'MLP^T', 'NN^T']
    >>> {spec.name: spec.fallback for spec in METHODS}
    {'GA-kNN': 'NN^T', 'MLP^T': 'NN^T', 'NN^T': None}
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_METHOD", "METHODS", "MethodSpec"]

#: Method used when a caller does not name one (the paper's headline method).
DEFAULT_METHOD = "NN^T"


@dataclass(frozen=True)
class MethodSpec:
    """One row of the method table.

    Attributes
    ----------
    name:
        The method's name in result tables and on the wire (``"NN^T"``,
        ``"GA-kNN"``, ...).
    description:
        One line for ``repro-experiments list-methods``.
    fallback:
        Name of a cheaper method the serving layer may degrade to when
        this one cannot meet a query's deadline or its engine pass fails
        (``None``: this method is already the end of its chain).
    """

    name: str
    description: str
    fallback: str | None = None


#: The paper's three ranking methods, sorted by name.
METHODS: tuple[MethodSpec, ...] = (
    MethodSpec(
        "GA-kNN",
        "Hoste et al. prior art; all leave-one-out GAs of a split evolved "
        "in lockstep with one stacked LOO-fitness tensor pass per generation",
        fallback="NN^T",
    ),
    MethodSpec(
        "MLP^T",
        "data transposition via MLP regression; the leave-one-out "
        "networks of a same-shape split group trained as one stacked SGD pass",
        fallback="NN^T",
    ),
    MethodSpec(
        "NN^T",
        "data transposition, per-(predictive,target) linear fits; "
        "rank-one leave-one-out downdating, one kernel call per split",
    ),
)
