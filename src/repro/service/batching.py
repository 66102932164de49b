"""Asyncio micro-batching under every front end.

A serving process receives queries one at a time, but the engine underneath
is happiest answering them in bulk: queries that address the same machine
split share one trained score table, so handing them to
:meth:`~repro.service.api.PredictionService.rank_many` as a single batch
trains once instead of racing to train concurrently.  :class:`MicroBatcher`
provides that coalescing for every front end (stdio, TCP and
:class:`~repro.service.client.InProcessClient` all submit through it):
requests submitted before the event loop next runs its callbacks (lines read
in one chunk, ``gather``-ed submits, a burst of connections) are dispatched
as one stacked batch call on the next loop turn, and each caller awaits only
its own reply.  No timer holds a lone request back.

A batch is answered in two stages.  ``rank_many`` runs on the event loop
and answers every query whose split is already trained — a lookup, not a
thread-pool hop.  Only the queries it marks as needing a training pass
(:class:`~repro.service.api.ColdPass`) go to the loop's default executor,
in one :meth:`~repro.service.api.PredictionService.train_cold` call, so a
cold pass never runs on the loop.  Requests for one split that land in
different batches still train it once, because a split trains under its
state's own lock.

Replies are position-aligned with the submitted queries, so coalescing is
invisible to callers: a batch of queries produces exactly the replies the
same queries would produce one at a time (the determinism tests pin this).

Examples::

    >>> import asyncio
    >>> from repro.core import BatchedLinearTransposition
    >>> from repro.data import build_default_dataset
    >>> from repro.service.api import PredictionService, RankingQuery
    >>> dataset = build_default_dataset()
    >>> service = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    >>> async def ask(apps):
    ...     batcher = MicroBatcher(service)
    ...     machines = tuple(dataset.machine_ids[:4])
    ...     return await asyncio.gather(
    ...         *(batcher.submit(RankingQuery(app, machines, top_n=1)) for app in apps)
    ...     )
    >>> replies = asyncio.run(ask(["gcc", "mcf", "lbm"]))
    >>> [reply.application for reply in replies]
    ['gcc', 'mcf', 'lbm']
"""

from __future__ import annotations

import asyncio

from repro.service.api import ColdPass, PredictionService, RankingQuery, RankingReply
from repro.service.errors import DeadlineExceededError, OverloadedError, ServiceError

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce concurrent ranking queries into stacked batch calls.

    Parameters
    ----------
    service:
        The :class:`~repro.service.api.PredictionService` answering the
        batches.
    max_batch:
        Flush immediately once this many requests are pending, without
        waiting for the next loop turn.
    max_queue:
        Admission bound on requests waiting for the next flush; a request
        arriving past it is shed with
        :class:`~repro.service.errors.OverloadedError` instead of queueing
        unboundedly.
    max_inflight:
        Admission bound on requests sent to the executor for a cold pass
        but not yet answered; sheds the same way.

    Notes
    -----
    Warm queries are answered on the event loop, inside the flush: their
    replies need no training, only a lookup.  Queries that need a cold
    pass go to the loop's default thread-pool executor, so a training pass
    (seconds under the ``full`` preset) never freezes the loop — other
    connections, and warm queries on other splits, keep being answered
    while it trains.  Invalid or failing queries fail their own caller
    (each resolves from its own slot of the batch) — they never poison the
    other requests in the batch, and a caller that disappears (cancelled
    future) never prevents the rest of its batch from being answered.  A
    query whose deadline has already expired is rejected at admission (and
    again at flush time, for deadlines that expire while queued) with
    :class:`~repro.service.errors.DeadlineExceededError` — unless it is
    invalid, which is the client's mistake and answered as such; the rest
    of its batch is unaffected.
    """

    def __init__(
        self,
        service: PredictionService,
        max_batch: int = 64,
        max_queue: int = 256,
        max_inflight: int = 1024,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.max_inflight = int(max_inflight)
        self._pending: list[tuple[RankingQuery, asyncio.Future]] = []
        self._flush_handle: asyncio.Handle | None = None
        self._inflight = 0
        self._inflight_tasks: set[asyncio.Future] = set()
        self._draining = False
        metrics = service.metrics
        #: Requests refused at admission (queue/inflight budget exhausted).
        self._shed = metrics.counter("batcher.shed")
        #: Requests refused because their deadline had already expired.
        self._deadline_rejected = metrics.counter("batcher.deadline_rejected")
        #: Flushes that answered at least one request; the batch-size
        #: histogram's sum is the number of requests they answered.
        self._batches = metrics.counter("batcher.batches")
        self._batch_size = metrics.histogram(
            "batcher.batch_size", buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256)
        )
        self._pending_gauge = metrics.gauge("batcher.pending")
        self._inflight_gauge = metrics.gauge("batcher.inflight")

    async def submit(self, query: RankingQuery) -> RankingReply:
        """Enqueue one query and await its reply.

        The first pending request schedules a flush for the next loop turn;
        requests submitted before it runs ride the same batch.  Reaching
        ``max_batch`` flushes immediately.  Admission control happens here:
        a draining batcher, a full queue, or an exhausted in-flight budget
        sheds the request; an already-expired deadline rejects it.  Either
        refusal answers an invalid query as invalid.
        """
        if self._draining:
            raise self._invalid(query) or OverloadedError(
                "service is draining; not accepting new requests"
            )
        if len(self._pending) >= self.max_queue or self._inflight >= self.max_inflight:
            invalid = self._invalid(query)
            if invalid is not None:
                raise invalid
            self._shed.inc()
            raise OverloadedError(
                f"overloaded: {len(self._pending)} queued, {self._inflight} in flight"
            )
        if query.deadline is not None and query.deadline.expired:
            raise self._expired(query, "deadline expired before admission")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if query.trace is not None:
            query.trace.begin("queue")
        self._pending.append((query, future))
        self._pending_gauge.set(len(self._pending))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._flush)
        return await future

    def _invalid(self, query: RankingQuery) -> ServiceError | None:
        """*query*'s own error when it is invalid, else ``None``.

        A client's mistake must not come back as a retryable refusal
        (draining, overloaded, deadline exceeded), so a query is validated
        before it is refused.  Only refused queries pay for this: admitted
        ones resolve their split once, in ``rank_many``.
        """
        try:
            self.service.split_for(query)
        except ServiceError as exc:
            return exc
        return None

    def _expired(self, query: RankingQuery, message: str) -> ServiceError:
        """The error refusing *query*, whose deadline has run out."""
        invalid = self._invalid(query)
        if invalid is not None:
            return invalid
        self._deadline_rejected.inc()
        return DeadlineExceededError(message)

    def _flush(self) -> None:
        """Answer every pending request: warm ones here, cold ones on the executor."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        # Fail queries whose deadline expired while they queued: answering
        # them would waste an engine pass on an unusable reply.  Futures may
        # already be done (caller gone) — never touch those.
        live: list[tuple[RankingQuery, asyncio.Future]] = []
        for query, future in batch:
            if query.trace is not None:
                query.trace.end("queue")
            if query.deadline is not None and query.deadline.expired:
                if not future.done():
                    future.set_exception(self._expired(query, "deadline expired while queued"))
                continue
            live.append((query, future))
        self._pending_gauge.set(len(self._pending))
        if not live:
            return
        self._batches.inc()
        self._batch_size.observe(len(live))
        for query, _ in live:
            if query.trace is not None:
                query.trace.begin("batch")
        try:
            outcomes = self.service.rank_many([query for query, _ in live])
        except Exception as exc:  # noqa: BLE001 - fail the batch, never strand it
            outcomes = [exc] * len(live)
        cold: list[tuple[RankingQuery, asyncio.Future]] = []
        passes: list[ColdPass] = []
        for (query, future), outcome in zip(live, outcomes):
            if isinstance(outcome, ColdPass):
                cold.append((query, future))
                passes.append(outcome)
            else:
                self._resolve(query, future, outcome)
        if not cold:
            return
        # A cold pass can take seconds: run it off the event loop, so other
        # connections and warm queries stay responsive.
        task = asyncio.get_running_loop().run_in_executor(
            None, self.service.train_cold, passes
        )
        self._inflight += len(cold)
        self._inflight_gauge.set(self._inflight)
        self._inflight_tasks.add(task)
        task.add_done_callback(lambda done: self._deliver(cold, done))

    @staticmethod
    def _resolve(query: RankingQuery, future: asyncio.Future, outcome: object) -> None:
        """Answer one caller from its own slot (unless it has gone away)."""
        if query.trace is not None:
            query.trace.end("batch")
        if future.done():
            return
        if isinstance(outcome, Exception):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)

    def _deliver(
        self, cold: "list[tuple[RankingQuery, asyncio.Future]]", done: asyncio.Future
    ) -> None:
        """Resolve each cold caller from its own slot of the executor call."""
        self._inflight -= len(cold)
        self._inflight_gauge.set(self._inflight)
        self._inflight_tasks.discard(done)
        try:
            outcomes = done.result()
        except Exception as exc:  # noqa: BLE001 - fail the slots, never strand them
            outcomes = [exc] * len(cold)
        for (query, future), outcome in zip(cold, outcomes):
            self._resolve(query, future, outcome)

    async def drain(self, timeout: float | None = None) -> None:
        """Stop admitting, flush the queue, and await in-flight batches.

        After this returns every previously admitted request has been
        resolved (reply or error); new :meth:`submit` calls are refused
        with :class:`~repro.service.errors.OverloadedError`.  *timeout*
        bounds the wait for in-flight engine calls (``None`` = wait for
        completion).
        """
        self._draining = True
        self._flush()
        outstanding = set(self._inflight_tasks)
        if not outstanding:
            return
        await asyncio.wait(outstanding, timeout=timeout)

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun (no new admissions)."""
        return self._draining
