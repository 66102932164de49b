"""The prediction service facade.

:class:`PredictionService` turns the offline cross-validation engine into
an online question-answering API: *"rank these target machines for
application X, given its scores on the predictive machines I own"*.  It
answers through exactly the same entry point the offline tables use —
:func:`repro.core.pipeline.predict_split_scores` — so a service reply is
bit-identical to the corresponding :func:`~repro.core.pipeline.
run_cross_validation` cell.

Serving strategy: the unit of training is the *(split, method)* pair, not
the single query.  One :class:`~repro.core.batch.BatchedRankingMethod`
tensor pass covers every application of the dataset at once, and the
resulting score table is cached in a :class:`~repro.service.cache.
SplitContextCache` keyed by :func:`~repro.core.batch.split_cache_key`.
The first query against a split pays for the pass; every later query on
that split — any application, any ``top_n`` — is a dictionary lookup.
Answering is therefore two stages: :meth:`PredictionService.rank_many`
answers every query whose table is trained and marks the rest as
:class:`ColdPass` slots, and :meth:`PredictionService.train_cold` trains
and answers those.  The micro-batcher runs the first stage on the event
loop and sends only the second to a worker thread.

Degradation has one mechanism: the fallback chain of the method table
(:data:`repro.core.engine.METHODS`: ``MLP^T`` → ``NN^T``, ...).  A query
walks it when its deadline cannot afford the requested method's cold
pass, or when a cold pass fails (the fault injector's ``backend_error``
seam); the reply then says ``degraded`` and names its ``served_method``.  A failure with no method left in the chain
is a retryable ``BACKEND_FAILURE``.

Examples::

    >>> from repro.core import BatchedLinearTransposition
    >>> from repro.data import build_default_dataset
    >>> dataset = build_default_dataset()
    >>> service = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    >>> query = RankingQuery(
    ...     application="gcc",
    ...     predictive_machines=tuple(dataset.machine_ids[:5]),
    ...     top_n=3,
    ... )
    >>> reply = service.rank(query)
    >>> reply.cache_hit, len(reply.machine_ids)
    (False, 3)
    >>> service.rank(query).cache_hit
    True
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.batch import BatchedRankingMethod, split_cache_key, split_fingerprint
from repro.core.engine import DEFAULT_METHOD, METHODS
from repro.core.pipeline import predict_split_scores
from repro.core.ranking import MachineRanking
from repro.data.spec_dataset import SpecDataset
from repro.data.splits import MachineSplit
from repro.service.cache import SplitContextCache
from repro.service.errors import BackendFailureError, ServiceError
from repro.service.faults import FaultInjector, InjectedFault, fault_counters
from repro.service.observability import Trace
from repro.service.resilience import Deadline

__all__ = [
    "ColdPass",
    "DEFAULT_METHOD",
    "PredictionService",
    "RankingQuery",
    "RankingReply",
    "ServiceError",
]


@dataclass(frozen=True)
class RankingQuery:
    """One ranking question for the service.

    Attributes
    ----------
    application:
        The application of interest — a dataset benchmark name (the
        leave-one-out serving model: it is excluded from its own training
        suite, exactly as in Figure 5 of the paper).
    predictive_machines:
        The machines the application has measured scores on.
    target_machines:
        The machines to rank.  ``None`` (the default) means every dataset
        machine that is not predictive.
    method:
        Ranking method name; must match a method the service was built
        with (default ``"NN^T"``).
    top_n:
        Truncate the reply to the best *n* machines (``None`` = all).
    deadline:
        Optional :class:`~repro.service.resilience.Deadline` the reply
        must beat (``deadline_ms`` on the wire).  Excluded from equality:
        two queries asking the same question are the same question however
        impatient their callers are.
    trace:
        Optional :class:`~repro.service.observability.Trace` following the
        request through the pipeline; the engine records its span on it
        and the front ends echo its id on the reply.  Excluded from
        equality for the same reason as ``deadline``.

    Examples::

        >>> query = RankingQuery("gcc", ("m001", "m002"))
        >>> query.method
        'NN^T'
    """

    application: str
    predictive_machines: tuple[str, ...]
    target_machines: tuple[str, ...] | None = None
    method: str = DEFAULT_METHOD
    top_n: int | None = None
    deadline: Deadline | None = field(default=None, compare=False)
    trace: Trace | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictive_machines", tuple(self.predictive_machines))
        if self.target_machines is not None:
            object.__setattr__(self, "target_machines", tuple(self.target_machines))
        if self.top_n is not None and self.top_n < 1:
            raise ServiceError("top_n must be >= 1")


@dataclass(frozen=True)
class RankingReply:
    """The service's answer to one :class:`RankingQuery`.

    Attributes
    ----------
    application / method:
        Echo of the query.
    machine_ids:
        Ranked target machines, best predicted performance first (truncated
        to the query's ``top_n``).
    scores:
        Predicted scores aligned with ``machine_ids``.
    cache_hit:
        ``True`` when the answer came from already-trained split state
        (no tensor pass was needed).
    split_fingerprint:
        Content address of the (dataset, split) pair that answered the
        query — the digest of its cache key.
    degraded:
        ``True`` when the service answered with a fallback method because
        the requested one could not meet the query's deadline or its
        engine pass failed.
    served_method:
        The method that actually produced the scores (equals ``method``
        unless the reply is degraded).

    Examples::

        >>> reply = RankingReply(
        ...     application="gcc", method="NN^T",
        ...     machine_ids=("m9", "m3"), scores=(40.0, 38.5),
        ...     cache_hit=True, split_fingerprint="ab12",
        ... )
        >>> reply.top1
        'm9'
        >>> reply.ranking().score_of("m3")
        38.5
        >>> reply.served_method
        'NN^T'
    """

    application: str
    method: str
    machine_ids: tuple[str, ...]
    scores: tuple[float, ...]
    cache_hit: bool
    split_fingerprint: str
    degraded: bool = False
    served_method: str | None = None

    def __post_init__(self) -> None:
        if self.served_method is None:
            object.__setattr__(self, "served_method", self.method)

    @property
    def top1(self) -> str:
        """The purchase recommendation: the best-ranked machine."""
        return self.machine_ids[0]

    def ranking(self) -> MachineRanking:
        """The reply as a :class:`~repro.core.ranking.MachineRanking`."""
        return MachineRanking.from_scores(self.machine_ids, self.scores)


class _SplitState:
    """Trained state of one (dataset, split): per-method score tables.

    Methods are filled lazily — a query for NNᵀ never trains MLPᵀ.  One
    tensor pass covers *all* dataset applications (the extra applications
    are nearly free), which is what makes every later query on the split a
    lookup.

    Training runs under the state's own lock, so one split trains once
    however many threads ask for it, while other splits train in parallel.
    A table is replaced, never mutated, once published, so :meth:`lookup`
    reads without the lock: the event loop never waits for a training pass.
    """

    def __init__(self, split: MachineSplit, fingerprint: str) -> None:
        self.split = split
        self.fingerprint = fingerprint
        self._lock = threading.Lock()
        self._scores: dict[str, dict[str, np.ndarray]] = {}

    def lookup(self, method_name: str, application: str) -> np.ndarray | None:
        """*application*'s trained score row under *method_name*, or ``None``."""
        return self._scores.get(method_name, {}).get(application)

    def train(
        self,
        dataset: SpecDataset,
        method_name: str,
        method: BatchedRankingMethod,
        application: str,
        before_pass: Callable[[str], None],
    ) -> tuple[np.ndarray, bool]:
        """``(target scores for application, answer_was_already_trained)``.

        ``before_pass(method_name)`` runs once per cold pass, before it
        starts (the service fires its engine faults there), so a failure it
        raises never leaves a half-built table behind.
        """
        with self._lock:
            trained = self.lookup(method_name, application)
            if trained is not None:
                return trained, True
            before_pass(method_name)
            fresh = predict_split_scores(
                dataset, self.split, {method_name: method}, dataset.benchmark_names
            )[method_name]
            self._scores[method_name] = fresh
            return fresh[application], False


@dataclass(frozen=True)
class ColdPass:
    """A :meth:`PredictionService.rank_many` slot that needs a training pass.

    It carries what the lookup already resolved — the query, its split's
    cached state and the methods to try, in order — so
    :meth:`PredictionService.train_cold` trains and answers it without
    resolving the split or touching the cache again.
    """

    query: RankingQuery
    state: _SplitState = field(repr=False)
    candidates: tuple[str, ...]


class PredictionService:
    """Batched, cache-backed online ranking API over the offline engine.

    Parameters
    ----------
    dataset:
        The performance dataset to answer from.
    methods:
        Mapping from method name to :class:`~repro.core.batch.
        BatchedRankingMethod`.  Each method is trained with one tensor pass
        per split.  A query degrades along the fallbacks of
        :data:`repro.core.engine.METHODS` between the methods served here
        when its deadline cannot be met by its requested method or a cold
        engine pass fails.
    cache:
        The :class:`~repro.service.cache.SplitContextCache` holding trained
        split state (default: 64 entries).  Its registry is the service's
        :attr:`metrics`, which every layer of the stack records into.
    fault_injector:
        The :class:`~repro.service.faults.FaultInjector` active in this
        stack, if any.  Its engine seams fire before every cold pass, and
        every fired fault counts as ``faults.<seam>`` in :attr:`metrics`.
        (The cache's seams are wired into the
        :class:`~repro.service.cache.SplitContextCache` itself.)

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> from repro.data import build_default_dataset
        >>> dataset = build_default_dataset()
        >>> service = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
        >>> queries = [
        ...     RankingQuery(app, tuple(dataset.machine_ids[:4]), top_n=1)
        ...     for app in ("gcc", "mcf", "lbm")
        ... ]
        >>> [type(slot).__name__ for slot in service.rank_many(queries)]
        ['ColdPass', 'ColdPass', 'ColdPass']
        >>> replies = service.train_cold(service.rank_many(queries))
        >>> [reply.cache_hit for reply in replies]   # one pass answers all three
        [False, True, True]
        >>> [reply.cache_hit for reply in service.rank_many(queries)]   # now warm
        [True, True, True]
    """

    def __init__(
        self,
        dataset: SpecDataset,
        methods: Mapping[str, BatchedRankingMethod],
        cache: SplitContextCache | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if not methods:
            raise ValueError("at least one ranking method is required")
        self.dataset = dataset
        self.methods = dict(methods)
        self.cache = cache if cache is not None else SplitContextCache()
        self.fault_injector = fault_injector
        self.metrics = self.cache.metrics
        self._requests = self.metrics.counter("service.requests")
        self._warm_hits = self.metrics.counter("service.warm_hits")
        self._cold_passes = self.metrics.counter("service.cold_passes")
        #: Replies answered by a fallback method (deadline or failed pass).
        self._degraded = self.metrics.counter("service.degraded")
        #: Cache entries found corrupted (wrong type) and rebuilt.
        self._corrupt_entries = self.metrics.counter("service.corrupt_entries_dropped")
        self._cold_train_ms = self.metrics.histogram("service.cold_train_ms")
        self._faults = fault_counters(self.metrics)
        self._benchmarks = set(dataset.benchmark_names)
        self._machines = set(dataset.machine_ids)
        #: ``{method: fallback}`` between served methods.
        self._fallbacks = {
            spec.name: spec.fallback
            for spec in METHODS
            if spec.name in self.methods and spec.fallback in self.methods
        }
        #: Worst observed cold-training seconds per served method, fed by
        #: rank_many; the deadline-degradation decision consults it.
        self._cold_cost: dict[str, float] = {}

    # ------------------------------------------------------------ validation
    def split_for(self, query: RankingQuery) -> MachineSplit:
        """The :class:`~repro.data.splits.MachineSplit` a query addresses.

        Defaulted target machines (every non-predictive dataset machine)
        are resolved here, in matrix column order, so equal queries map to
        equal splits and therefore the same cache entry.
        """
        self.validate(query)
        predictive = query.predictive_machines
        if query.target_machines is not None:
            targets = query.target_machines
        else:
            owned = set(predictive)
            targets = tuple(mid for mid in self.dataset.machine_ids if mid not in owned)
            if not targets:
                raise ServiceError("no target machines remain after removing predictive ones")
        try:
            return MachineSplit(
                name=f"service:{len(predictive)}p->{len(targets)}t",
                predictive_ids=predictive,
                target_ids=targets,
            )
        except ValueError as exc:
            raise ServiceError(str(exc)) from None

    def validate(self, query: RankingQuery) -> None:
        """Raise :class:`ServiceError` when a query cannot be answered."""
        if query.application not in self._benchmarks:
            raise ServiceError(f"unknown application {query.application!r}")
        if query.method not in self.methods:
            raise ServiceError(
                f"unknown method {query.method!r} (serving: {sorted(self.methods)})"
            )
        if not query.predictive_machines:
            raise ServiceError("at least one predictive machine is required")
        # Methods that need more training samples say so; checking here
        # makes a too-small set a client error instead of an engine failure.
        minimum = getattr(self.methods[query.method], "min_predictive_machines", 1)
        if len(query.predictive_machines) < minimum:
            raise ServiceError(
                f"method {query.method!r} needs at least {minimum} predictive machines, "
                f"got {len(query.predictive_machines)}"
            )
        for label, ids in (
            ("predictive", query.predictive_machines),
            ("target", query.target_machines or ()),
        ):
            unknown = [mid for mid in ids if mid not in self._machines]
            if unknown:
                raise ServiceError(f"unknown machines: {unknown}")
            if len(set(ids)) != len(ids):
                duplicates = sorted({mid for mid in ids if ids.count(mid) > 1})
                raise ServiceError(f"duplicate {label} machines: {duplicates}")

    # --------------------------------------------------------------- serving
    def _state_for(self, split: MachineSplit) -> _SplitState:
        key = split_cache_key(self.dataset, split)

        def factory() -> _SplitState:
            return _SplitState(split, split_fingerprint(self.dataset, split))

        state, _ = self.cache.get_or_create(key, factory)
        if not isinstance(state, _SplitState):
            # A corrupted entry (wrong type) must never answer a query:
            # purge it and rebuild.  If the rebuilt entry is corrupted too
            # (injection can strike twice), serve from a private state —
            # slower, but always correct.
            self._corrupt_entries.inc()
            self.cache.invalidate(key)
            state, _ = self.cache.get_or_create(key, factory)
            if not isinstance(state, _SplitState):
                self._corrupt_entries.inc()
                self.cache.invalidate(key)
                state = factory()
        return state

    def _candidates(self, state: _SplitState, query: RankingQuery) -> list[str]:
        """The methods to try for *query*, in order: its fallback chain.

        The chain is the requested method followed by each fallback in
        turn.  Under a deadline it starts at the first method whose answer
        is warm (a lookup beats any deadline a training pass could) or
        whose observed cold-training cost fits the remaining budget; when
        none does, at the chain's last method.  The caller
        moves on to the next candidate when a cold pass fails.
        """
        chain = [query.method]
        while (fallback := self._fallbacks.get(chain[-1])) is not None:
            chain.append(fallback)
        deadline = query.deadline
        if deadline is None:
            return chain
        for index, candidate in enumerate(chain):
            cost = self._cold_cost.get(candidate)
            if (
                state.lookup(candidate, query.application) is not None
                or cost is None
                or cost <= max(deadline.remaining(), 0.0)
            ):
                return chain[index:]
        return chain[-1:]

    def rank_many(
        self, queries: Sequence[RankingQuery]
    ) -> "list[RankingReply | ColdPass | Exception]":
        """Answer what is already trained; mark the rest for :meth:`train_cold`.

        Returns one slot per query, in order: its reply when the method its
        fallback chain (deadline logic included) settles on is already
        trained for its split, a :class:`ColdPass` when answering needs a
        training pass, or the exception it failed with (as
        :func:`asyncio.gather` does with ``return_exceptions=True``), so one
        failing query never fails its batchmates.

        This never trains, so the micro-batcher runs it on the event loop:
        a warm query costs a split lookup, one cache access and a sort.
        :meth:`train_cold` answers the marked slots, and :meth:`rank` does
        both for one query.

        A query with an expired (or tight) deadline is still answered —
        degraded to its fallback method when one is configured and the
        requested method's cold cost cannot fit the remaining budget.
        Deadline *errors* are the front ends' business.
        """
        outcomes: "list[RankingReply | ColdPass | Exception]" = []
        for query in queries:
            trace = query.trace
            if trace is not None:
                trace.begin("engine")
            try:
                outcome = self._lookup(query)
            except Exception as exc:  # noqa: BLE001 - the failure is this query's alone
                outcome = exc
            if trace is not None and not isinstance(outcome, ColdPass):
                trace.end("engine")
            outcomes.append(outcome)
        return outcomes

    def train_cold(
        self, outcomes: "Sequence[RankingReply | ColdPass | Exception]"
    ) -> "list[RankingReply | Exception]":
        """Train and answer every :class:`ColdPass` slot of *outcomes*.

        Other slots pass through unchanged, so
        ``train_cold(rank_many(queries))`` answers a whole batch.  Slots
        sharing a (split, method) pair are answered from one trained score
        table: the first triggers the batched tensor pass, the rest find it
        trained.  A failed cold pass degrades the query to the next method
        of its chain, and past the chain's end its slot holds a
        :class:`~repro.service.errors.BackendFailureError`.
        """
        answered: "list[RankingReply | Exception]" = []
        for outcome in outcomes:
            if isinstance(outcome, ColdPass):
                trace = outcome.query.trace
                try:
                    with trace.span("engine") if trace is not None else contextlib.nullcontext():
                        outcome = self._train(outcome)
                except Exception as exc:  # noqa: BLE001 - the failure is this query's alone
                    outcome = exc
            answered.append(outcome)
        return answered

    def rank(self, query: RankingQuery) -> RankingReply:
        """Answer one query, training when needed; raises when it cannot be answered."""
        outcome = self.train_cold(self.rank_many([query]))[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _lookup(self, query: RankingQuery) -> "RankingReply | ColdPass":
        """The reply to *query* when it is warm, else its :class:`ColdPass`."""
        state = self._state_for(self.split_for(query))
        candidates = self._candidates(state, query)
        scores = state.lookup(candidates[0], query.application)
        if scores is None:
            return ColdPass(query, state, tuple(candidates))
        return self._reply(query, state, candidates[0], scores, warm=True)

    def _train(self, cold: ColdPass) -> RankingReply:
        """Walk *cold*'s candidates until one trains (or finds its table trained)."""
        query, state = cold.query, cold.state
        for served in cold.candidates:
            started = time.monotonic()
            try:
                scores, warm = state.train(
                    self.dataset,
                    served,
                    self.methods[served],
                    query.application,
                    self._inject_engine_faults,
                )
                break
            except InjectedFault as exc:
                fault = exc  # degrade to the next method of the chain
        else:
            raise BackendFailureError(
                f"{fault}, and no fallback method is left to answer"
            ) from fault
        if not warm:
            elapsed = time.monotonic() - started
            if elapsed > self._cold_cost.get(served, 0.0):
                self._cold_cost[served] = elapsed
            self._cold_train_ms.observe(elapsed * 1000.0)
        return self._reply(query, state, served, scores, warm)

    def _inject_engine_faults(self, method_name: str) -> None:
        """Fire the injector's engine seams ahead of a cold *method_name* pass."""
        injector = self.fault_injector
        if injector is None:
            return
        if injector.inject_latency():
            self._faults["latency"].inc()
        if injector.fires("backend_error"):
            self._faults["backend_error"].inc()
            raise InjectedFault(f"injected engine fault in a cold {method_name} pass")

    def _reply(
        self,
        query: RankingQuery,
        state: _SplitState,
        served: str,
        scores: np.ndarray,
        warm: bool,
    ) -> RankingReply:
        """Count one answered query and build its (``top_n``-truncated) reply.

        One stable descending argsort orders the targets exactly as
        :meth:`~repro.core.ranking.MachineRanking.ordered_ids` does.
        """
        self._requests.inc()
        (self._warm_hits if warm else self._cold_passes).inc()
        degraded = served != query.method
        if degraded:
            self._degraded.inc()
        scores = np.asarray(scores, dtype=float)
        order = np.argsort(-scores, kind="mergesort")[: query.top_n]
        targets = state.split.target_ids
        return RankingReply(
            application=query.application,
            method=query.method,
            machine_ids=tuple(targets[i] for i in order),
            scores=tuple(float(scores[i]) for i in order),
            cache_hit=warm,
            split_fingerprint=state.fingerprint,
            degraded=degraded,
            served_method=served,
        )
