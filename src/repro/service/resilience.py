"""Resilience primitives for the serving stack.

Two small pieces that the front ends, the micro-batcher and the clients
share:

* :class:`Deadline` — an absolute wall-clock budget attached to a query
  (``deadline_ms`` on the wire).  Enforced at micro-batch admission, at
  engine dispatch, and at reply write; carried by
  :class:`~repro.service.api.RankingQuery`.
* :class:`RetryPolicy` — exponential backoff with full jitter for the
  clients (:class:`~repro.service.client.InProcessClient`,
  :class:`~repro.service.client.TCPClient`).  Safe because every ranking
  request is idempotent by content fingerprint.

Degradation itself — serving a query from the next method of the
method table's fallback chain when a deadline or a failed engine pass rules
the requested one out — lives in :class:`~repro.service.api.
PredictionService`.

Examples::

    >>> ticks = iter([0.0, 1.0, 2.5])
    >>> deadline = Deadline.after_ms(2000, clock=lambda: next(ticks))
    >>> round(deadline.remaining(), 3)                  # t=1.0 of a 2s budget
    1.0
    >>> deadline.expired                                # t=2.5: budget elapsed
    True
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Iterator

__all__ = [
    "Deadline",
    "RetryPolicy",
]


# ------------------------------------------------------------------ deadlines
class Deadline:
    """An absolute point in (monotonic) time a reply must beat.

    Constructed from a relative budget at request admission
    (:meth:`after_ms`); every later layer asks the same object how much
    budget remains, so clock skew between layers cannot creep in.

    Examples::

        >>> deadline = Deadline.after_ms(500, clock=lambda: 100.0)
        >>> round(deadline.remaining_ms(), 3)
        500.0
        >>> Deadline(expires_at=0.0, clock=lambda: 1.0).expired
        True
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(self, expires_at: float, clock: Callable[[], float] = time.monotonic) -> None:
        self.expires_at = float(expires_at)
        self._clock = clock

    @classmethod
    def after_ms(
        cls, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """Deadline *budget_ms* milliseconds from now.

        Raises ``ValueError`` unless the budget is a finite number above
        zero: a NaN budget would never expire (``NaN <= 0`` is false) and
        an infinite one would never be enforced.

        Examples::

            >>> Deadline.after_ms(float("nan"))
            Traceback (most recent call last):
            ...
            ValueError: deadline_ms must be finite
        """
        try:
            budget_ms = float(budget_ms)
        except OverflowError:
            budget_ms = math.inf
        if not math.isfinite(budget_ms):
            raise ValueError("deadline_ms must be finite")
        if budget_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        return cls(clock() + budget_ms / 1000.0, clock)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once past it)."""
        return self.expires_at - self._clock()

    def remaining_ms(self) -> float:
        """Milliseconds left before expiry (negative once past it)."""
        return self.remaining() * 1000.0

    @property
    def expired(self) -> bool:
        """True once the budget has fully elapsed."""
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining_ms={self.remaining_ms():.1f})"


# --------------------------------------------------------------------- retry
class RetryPolicy:
    """Exponential backoff with full jitter (deterministic under a seed).

    Attempt *i* (0-based) sleeps ``uniform(0, min(max_delay, base_delay *
    2**i))`` before retrying — the classic full-jitter schedule that
    decorrelates a thundering herd of retrying clients.  Retrying is safe
    for every ranking request because requests are idempotent by content
    fingerprint: asking again can only re-read (or re-train) the same
    cached state.

    Examples::

        >>> policy = RetryPolicy(max_attempts=3, base_delay=1.0, seed=7)
        >>> delays = list(policy.delays())
        >>> len(delays)                       # one sleep between attempts
        2
        >>> all(0.0 <= d <= 2.0 for d in delays)
        True
        >>> list(policy.delays()) == delays   # seeded: reproducible
        True
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        seed: int | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.seed = seed

    def delays(self) -> Iterator[float]:
        """The backoff sleeps between attempts (``max_attempts - 1`` values)."""
        rng = random.Random(self.seed) if self.seed is not None else random.Random()
        for attempt in range(self.max_attempts - 1):
            ceiling = min(self.max_delay, self.base_delay * (2**attempt))
            yield rng.uniform(0.0, ceiling)
