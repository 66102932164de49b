"""LRU cache for trained split state.

The expensive object in the serving path is the trained state of one
``(dataset, split)`` pair — the stacked leave-one-out predictions a
:class:`~repro.core.batch.BatchedRankingMethod` produces in one tensor
pass.  :class:`SplitContextCache` keeps those objects warm between queries
in one LRU order under one lock.  Keys are the content addresses of
:func:`repro.core.batch.split_cache_key` (dataset fingerprint +
predictive/target machine ids), so entries never go stale and never
expire.  The lock guards only the dictionary: a miss's factory must be
cheap (the service's builds an empty state and trains it later, under that
state's own lock), so a lookup never waits for a training pass.  The cache
is value-agnostic, which keeps the eviction semantics directly testable.

For resilience testing the cache accepts a
:class:`~repro.service.faults.FaultInjector`: the ``cache_evict`` seam
drops a resident entry before a lookup (the request retrains — slower but
correct) and the ``cache_corrupt`` seam replaces a resident value with a
:class:`~repro.service.faults.CorruptedEntry` sentinel (the service
detects the wrong type, invalidates, and rebuilds).

The cache owns the serving stack's one
:class:`~repro.service.observability.MetricsRegistry` (``cache.metrics``):
it counts its own lookups, evictions and applied faults there, and the
service, the micro-batcher and the front ends record into the same
registry.

Examples::

    >>> cache = SplitContextCache(capacity=2)
    >>> for key in ("split-a", "split-b", "split-a", "split-c"):
    ...     _ = cache.get_or_create(key, lambda: key.upper())
    >>> cache.get_or_create("split-b", lambda: "rebuilt")   # split-b was evicted
    ('rebuilt', False)
    >>> cache.metrics.snapshot()["counters"]["cache.evictions"]
    2
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.service.faults import CorruptedEntry, FaultInjector, fault_counters
from repro.service.observability import MetricsRegistry

__all__ = ["SplitContextCache"]


class SplitContextCache:
    """LRU cache keyed by split content address, under one lock.

    Parameters
    ----------
    capacity:
        Maximum number of resident entries.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector`; when given,
        the ``cache_evict`` / ``cache_corrupt`` seams fire ahead of
        lookups (chaos testing only — ``None`` in normal operation).

    Examples::

        >>> cache = SplitContextCache(capacity=4)
        >>> cache.get_or_create("key", lambda: "built")
        ('built', False)
        >>> cache.get_or_create("key", lambda: "rebuilt")
        ('built', True)
    """

    def __init__(self, capacity: int = 64, fault_injector: FaultInjector | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.fault_injector = fault_injector
        #: The serving stack's metrics registry (see the module docstring).
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        self._evictions = self.metrics.counter("cache.evictions")
        #: Faults actually applied to resident entries, not merely drawn.
        self._injected_evictions = self.metrics.counter("cache.injected_evictions")
        self._injected_corruptions = self.metrics.counter("cache.injected_corruptions")
        #: Faults drawn at every seam of the stack (``faults.<seam>``).
        self._faults = fault_counters(self.metrics)
        self._lock = threading.Lock()
        #: key -> value, most recently used last.
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def _maybe_inject(self, key: Hashable) -> None:
        """Fire scheduled cache faults against *key* before a lookup."""
        injector = self.fault_injector
        if injector is None:
            return
        if injector.fires("cache_evict"):
            self._faults["cache_evict"].inc()
            if self.invalidate(key):
                self._injected_evictions.inc()
        if injector.fires("cache_corrupt"):
            self._faults["cache_corrupt"].inc()
            with self._lock:
                if key in self._entries:
                    # In place: corruption is not a (re)insertion.
                    self._entries[key] = CorruptedEntry(key)
                    self._injected_corruptions.inc()

    # ------------------------------------------------------------- operations
    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> tuple[Any, bool]:
        """Return ``(value, hit)``, storing ``factory()`` on a miss.

        The factory runs under the cache lock, so concurrent misses on one
        key store exactly one value; it must therefore be cheap.  The new
        value is the most recent entry, and the least recent ones are
        evicted past capacity.
        """
        self._maybe_inject(key)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits.inc()
                return self._entries[key], True
            self._misses.inc()
            value = factory()
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()
            self._entries[key] = value
            return value, False

    def invalidate(self, key: Hashable) -> bool:
        """Drop *key* if resident; True when an entry was removed.

        Used by the service to purge an entry it detected as corrupted.

        Examples::

            >>> cache = SplitContextCache(capacity=4)
            >>> cache.get_or_create("key", lambda: "value")
            ('value', False)
            >>> cache.invalidate("key")
            True
            >>> cache.invalidate("key")
            False
        """
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                return True
            return False

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        """Number of resident entries."""
        with self._lock:
            return len(self._entries)
