"""Deterministic, seed-driven fault injection for the serving stack.

Real resilience machinery is only trustworthy when the failures it guards
against actually happen on schedule.  This module provides that schedule:
a :class:`FaultInjector` fires faults at *named seams* of the stack —

* ``backend_error`` — a cold engine pass raises :class:`InjectedFault`
  before it starts (exercises the service's walk along the method
  fallback chain, and ``BACKEND_FAILURE`` at the chain's end);
* ``latency`` — a latency spike of ``latency_ms`` milliseconds before a
  cold engine pass (exercises deadline enforcement and method
  degradation);
* ``cache_evict`` — a resident split-state cache entry is dropped
  (exercises retrain-on-miss; the request still succeeds, just colder);
* ``cache_corrupt`` — a resident cache entry is replaced with a
  :class:`CorruptedEntry` sentinel (exercises detection + rebuild);
* ``conn_drop`` — the TCP front end drops the connection before
  answering (exercises client reconnect + retry).

The seam that draws a fault counts it as ``faults.<seam>`` in the serving
stack's one :class:`~repro.service.observability.MetricsRegistry`
(:func:`fault_counters`), so the ``metrics`` and ``health`` verbs report
the same fired-fault counts.

Faults are **deterministic**: each seam draws from its own seeded RNG
stream, so a given :class:`FaultPlan` produces the same fault schedule per
seam regardless of how calls to different seams interleave.  Activation is
either programmatic (build an injector and pass it in) or environmental:
``REPRO_FAULTS="seed=7,backend_error=0.2,latency=0.5,latency_ms=10"``
makes :func:`injector_from_env` return a live injector, which
``repro.service.server.build_service`` wires through the whole stack (the
CI chaos leg runs the service suite this way).

Examples::

    >>> plan = FaultPlan.parse("seed=7,backend_error=0.5")
    >>> plan.backend_error
    0.5
    >>> plan.active
    True
    >>> a = FaultInjector(plan)
    >>> b = FaultInjector(plan)
    >>> [a.fires("backend_error") for _ in range(8)] == [
    ...     b.fires("backend_error") for _ in range(8)
    ... ]   # same plan, same schedule
    True
    >>> FaultPlan.parse("").active
    False
"""

from __future__ import annotations

import os
import random
import threading
import time
import zlib
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from repro.service.observability import Counter, MetricsRegistry

__all__ = [
    "CorruptedEntry",
    "FAULTS_ENV_VAR",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "SEAMS",
    "fault_counters",
    "injector_from_env",
]

#: Environment variable whose value is parsed by :meth:`FaultPlan.parse`.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The named seams faults can fire at (each is a probability knob on
#: :class:`FaultPlan`).
SEAMS = ("backend_error", "latency", "cache_evict", "cache_corrupt", "conn_drop")


class InjectedFault(RuntimeError):
    """A deliberate failure raised by the fault-injection harness.

    Distinct from real exception types so tests can tell injected faults
    from genuine bugs.  :class:`~repro.service.api.PredictionService`
    catches it around a cold engine pass and serves the query from the
    next method of its fallback chain (or answers ``BACKEND_FAILURE``);
    any other exception stays an ``INTERNAL`` error.
    """


class CorruptedEntry:
    """Sentinel an injected ``cache_corrupt`` fault stores in the cache.

    The service detects it by type (the cached value is no longer the
    split state it stored), drops the entry, and rebuilds — a client must
    never see it.

    Examples::

        >>> CorruptedEntry("split-key").key
        'split-key'
    """

    __slots__ = ("key",)

    def __init__(self, key: object) -> None:
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorruptedEntry({self.key!r})"


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault schedule: a seed plus per-seam probabilities.

    Attributes
    ----------
    seed:
        Base seed; each seam derives an independent RNG stream from it.
    backend_error / latency / cache_evict / cache_corrupt / conn_drop:
        Per-call firing probability of the seam, in ``[0, 1]``.
    latency_ms:
        Magnitude of an injected latency spike, milliseconds.

    Examples::

        >>> FaultPlan.parse("seed=3,conn_drop=0.25").conn_drop
        0.25
        >>> FaultPlan().active
        False
    """

    seed: int = 0
    backend_error: float = 0.0
    latency: float = 0.0
    latency_ms: float = 0.0
    cache_evict: float = 0.0
    cache_corrupt: float = 0.0
    conn_drop: float = 0.0

    def __post_init__(self) -> None:
        for seam in SEAMS:
            probability = getattr(self, seam)
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"{seam} probability must be in [0, 1], got {probability}")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")

    @property
    def active(self) -> bool:
        """True when any seam can fire."""
        return any(getattr(self, seam) > 0.0 for seam in SEAMS)

    @classmethod
    def parse(cls, spec: str | None) -> "FaultPlan":
        """Parse a ``key=value,key=value`` spec (the ``REPRO_FAULTS`` format).

        Unknown keys and malformed values raise ``ValueError`` so a typo in
        the environment fails loudly instead of silently disabling chaos.

        Examples::

            >>> FaultPlan.parse("seed=9,latency=0.5,latency_ms=20").latency_ms
            20.0
        """
        if not spec or not spec.strip():
            return cls()
        known = {field.name: field.type for field in fields(cls)}
        values: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, raw = part.partition("=")
            key = key.strip()
            if not separator or key not in known:
                raise ValueError(
                    f"bad fault spec entry {part!r} (known keys: {sorted(known)})"
                )
            try:
                values[key] = int(raw) if key == "seed" else float(raw)
            except ValueError:
                raise ValueError(f"bad fault spec value {part!r}") from None
        return cls(**values)


class FaultInjector:
    """Fires the faults a :class:`FaultPlan` schedules, seam by seam.

    Each seam owns an independent ``random.Random`` seeded from
    ``plan.seed`` and the seam name, so the decision sequence of one seam
    depends only on how many times *that* seam was consulted — injection at
    the cache never perturbs the engine's schedule.  Thread-safe; the
    caller of :meth:`fires` counts a fired fault (:func:`fault_counters`).

    Examples::

        >>> injector = FaultInjector(FaultPlan(seed=1, cache_evict=1.0))
        >>> injector.fires("cache_evict")
        True
        >>> injector.fires("backend_error")   # probability 0: never fires
        False
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._rngs = {
            seam: random.Random((plan.seed << 17) ^ zlib.crc32(seam.encode()))
            for seam in SEAMS
        }

    def fires(self, seam: str) -> bool:
        """Decide (deterministically) whether *seam* faults on this call."""
        probability = getattr(self.plan, seam)
        if probability <= 0.0:
            return False
        with self._lock:
            return self._rngs[seam].random() < probability

    def inject_latency(self, sleep: Callable[[float], None] = time.sleep) -> float:
        """Maybe sleep an injected latency spike; return the injected ms."""
        if self.plan.latency_ms <= 0 or not self.fires("latency"):
            return 0.0
        sleep(self.plan.latency_ms / 1000.0)
        return self.plan.latency_ms


def fault_counters(metrics: MetricsRegistry) -> dict[str, Counter]:
    """The ``faults.<seam>`` counter of every seam, bound in *metrics*.

    Examples::

        >>> metrics = MetricsRegistry()
        >>> counters = fault_counters(metrics)
        >>> counters["conn_drop"].inc()
        >>> metrics.snapshot()["counters"]["faults.conn_drop"]
        1
    """
    return {seam: metrics.counter(f"faults.{seam}") for seam in SEAMS}


def injector_from_env(env: "Mapping[str, str] | None" = None) -> FaultInjector | None:
    """The injector the ``REPRO_FAULTS`` environment variable asks for.

    Returns ``None`` when the variable is unset/empty or the parsed plan
    has no active seam — callers can use the result directly as an
    "injection off" signal.

    Examples::

        >>> injector_from_env({}) is None
        True
        >>> injector_from_env({"REPRO_FAULTS": "seed=2,conn_drop=0.5"}).plan.conn_drop
        0.5
    """
    source = env if env is not None else os.environ
    plan = FaultPlan.parse(source.get(FAULTS_ENV_VAR))
    return FaultInjector(plan) if plan.active else None
