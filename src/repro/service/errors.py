"""The serving stack's error taxonomy.

Every error a front end can hand back to a client carries a stable,
machine-readable ``code`` alongside the free-text message, so clients (and
tests) branch on the code instead of string-matching messages.  The
taxonomy is deliberately small — one code per *decision* a client can
make — and :data:`RETRYABLE_CODES` marks the subset a client may safely
retry (every ranking request is idempotent by content fingerprint, so
retrying can never double-apply anything).

| code | meaning | retry? |
| --- | --- | --- |
| ``INVALID_JSON`` | the request line did not parse as JSON | no |
| ``INVALID_REQUEST`` | schema/name/shape validation failed | no |
| ``PAYLOAD_TOO_LARGE`` | the request line exceeded the line-length bound | no |
| ``DEADLINE_EXCEEDED`` | the query's ``deadline_ms`` elapsed first | client's call |
| ``OVERLOADED`` | admission control shed the request | yes, with backoff |
| ``BACKEND_FAILURE`` | the engine failed even on the degraded path | yes, with backoff |
| ``INTERNAL`` | unexpected server-side error | no |

Exception classes mirror the codes raised inside the stack (the front
ends emit ``INVALID_JSON``, ``PAYLOAD_TOO_LARGE`` and ``INTERNAL``
themselves): raising one anywhere in the stack makes every front end answer ``{"ok": false, "code": ..., "error": ...}``
(see ``repro.service.server``).  ``tools/check_docs.py`` keeps the table
in ``docs/api.md`` honest.

Examples::

    >>> ServiceError("bad query").code
    'INVALID_REQUEST'
    >>> OverloadedError("queue full").code in RETRYABLE_CODES
    True
    >>> DeadlineExceededError("too late").code in RETRYABLE_CODES
    False
    >>> "INTERNAL" in RETRYABLE_CODES
    False
"""

from __future__ import annotations

__all__ = [
    "BackendFailureError",
    "DeadlineExceededError",
    "ERROR_CODES",
    "OverloadedError",
    "RETRYABLE_CODES",
    "ServiceError",
]


class ServiceError(ValueError):
    """A query the service cannot answer (unknown names, bad shapes).

    Raised instead of assorted ``KeyError``/``ValueError`` flavours so the
    wire front ends can map every client mistake to one error reply without
    masking genuine server bugs.  Subclasses override :attr:`code` to give
    each failure mode its stable wire identity.
    """

    #: Machine-readable wire code for this error class.
    code = "INVALID_REQUEST"


class DeadlineExceededError(ServiceError):
    """The query's deadline elapsed before a reply could be produced."""

    code = "DEADLINE_EXCEEDED"


class OverloadedError(ServiceError):
    """Admission control shed the request (queue or in-flight budget full)."""

    code = "OVERLOADED"


class BackendFailureError(ServiceError):
    """The engine failed to produce an answer even on the degraded path."""

    code = "BACKEND_FAILURE"


#: Every code a front end can emit, with its one-line meaning (the docs
#: table in ``docs/api.md`` mirrors this mapping).
ERROR_CODES: dict[str, str] = {
    "INVALID_JSON": "the request line did not parse as JSON",
    "INVALID_REQUEST": "schema/name/shape validation failed",
    "PAYLOAD_TOO_LARGE": "the request line exceeded the line-length bound",
    "DEADLINE_EXCEEDED": "the query's deadline_ms elapsed before a reply",
    "OVERLOADED": "admission control shed the request",
    "BACKEND_FAILURE": "the engine failed even on the degraded path",
    "INTERNAL": "unexpected server-side error",
}

#: Codes a client may retry with backoff (requests are idempotent).
#: ``INTERNAL`` is left out: an unexpected error is a deterministic server
#: bug far more often than a transient condition, so resending the same
#: request would only repeat it.
RETRYABLE_CODES = frozenset({"OVERLOADED", "BACKEND_FAILURE"})
