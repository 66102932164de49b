"""Wire fuzzing: any JSON line through the one request path ends well.

Model-vs-executor, after sca-fuzzer's model/executor agreement tests: the
*executor* is :func:`repro.service.server.handle_line`, the request path
every front end and client answers through (JSON parsing, protocol verbs,
micro-batch admission, deadline check); the *model* predicts the outcome
of the same line without it — the JSON parser, the protocol verb table,
``query_from_payload`` plus ``PredictionService.split_for`` for
validation, and a clean reference service's ``rank`` for the ranking
itself.  The properties:

* every reply is ``ok`` or carries a documented code, never ``INTERNAL``;
* the executor agrees with the model: the same code for a rejected line,
  and for an accepted query the reference ranking, score for score;
* a fuzzed line never fails the valid query that shares its micro-batch.

Inputs cover nested values, non-objects, wrong types, extreme and
non-finite numbers, unknown fields and ``op`` values, and raw lines JSON
cannot produce (nesting past the parser's recursion limit, over-long
integers, lone surrogates).  The seed is fixed (``derandomize=True``) and
the example budget bounded.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BatchedLinearTransposition
from repro.data import build_default_dataset
from repro.service import ERROR_CODES, MicroBatcher, PredictionService, ServiceError
from repro.service.server import handle_line, query_from_payload

DATASET = build_default_dataset()
MACHINES = list(DATASET.machine_ids)
APPLICATIONS = list(DATASET.benchmark_names)
VERBS = ("health", "metrics", "ready", "stats")

#: The line-up under test and the model's clean twin of it.
SERVICE = PredictionService(DATASET, {"NN^T": BatchedLinearTransposition()})
REFERENCE = PredictionService(DATASET, {"NN^T": BatchedLinearTransposition()})
BATCHER = MicroBatcher(SERVICE)
GOOD = {"application": "gcc", "predictive_machines": MACHINES[:4], "top_n": 3}

FUZZ_SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()  # NaN and ±Infinity included: Python's JSON accepts them
    | st.text(max_size=12)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
machine_sets = st.lists(st.sampled_from(MACHINES), min_size=1, max_size=6, unique=True)
valid_requests = st.fixed_dictionaries(
    {"application": st.sampled_from(APPLICATIONS), "predictive_machines": machine_sets},
    optional={
        "target_machines": machine_sets,
        "method": st.just("NN^T"),
        "top_n": st.integers(min_value=1, max_value=40),
        "deadline_ms": st.sampled_from([1e-9, 0.5, 10_000]),
        "trace_id": st.text(max_size=8),
    },
)
#: Values a field may be mutated to: plausible-but-wrong ones and any JSON.
field_values = (
    st.sampled_from(
        [[], [""], ["m001"], [MACHINES[0]] * 2, [MACHINES[0].upper()], "NN^T",
         "MLP^T", "nope", 0, -1, 10**30, 1e-9, 0.0, -5, 1e308, 10**400, True, ""]
    )
    | json_values
)
mutated_requests = st.builds(
    lambda request, field, value: {**request, field: value},
    valid_requests,
    st.sampled_from(
        ["application", "predictive_machines", "target_machines", "method", "top_n",
         "deadline_ms", "trace_id", "op", "stats", "unexpected"]
    ),
    field_values,
)
raw_lines = st.sampled_from(
    [
        "[" * 100_000 + "]" * 100_000,
        '{"a": ' * 50_000 + "1" + "}" * 50_000,
        "[" * 100_000,
        "9" * 5_000,
        '{"top_n": ' + "9" * 5_000 + "}",
        '"\\ud800"',
        '{"application": "\\udfff", "predictive_machines": []}',
        "NaN",
        "-Infinity",
        "1e999",
        "{",
        "\x00",
        "[1, 2",
    ]
)
lines = raw_lines | st.one_of(valid_requests, mutated_requests, json_values).map(json.dumps)


@pytest.fixture(scope="module")
def runner():
    with asyncio.Runner() as loop_runner:
        yield loop_runner


def model(line):
    """The expected ``(ok, code)`` of *line*, and the query it asks when the
    service can answer it."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError):
        return (False, "INVALID_JSON"), None
    if isinstance(payload, dict):
        op = payload.get("op")
        if op is None and payload.get("stats"):
            op = "stats"
        if op is not None:
            return ((True, None) if op in VERBS else (False, "INVALID_REQUEST")), None
    try:
        query = query_from_payload(payload)
        REFERENCE.split_for(query)
    except ServiceError:
        return (False, "INVALID_REQUEST"), None
    return (True, None), query


def assert_reference_ranking(reply, query):
    want = REFERENCE.rank(query)
    assert [entry["machine"] for entry in reply["ranking"]] == list(want.machine_ids)
    assert [entry["score"] for entry in reply["ranking"]] == list(want.scores)


@FUZZ_SETTINGS
@given(line=lines)
def test_any_line_yields_ok_or_a_typed_code_never_internal(runner, line):
    async def exchange():
        return await asyncio.gather(
            handle_line(SERVICE, BATCHER, line),
            handle_line(SERVICE, BATCHER, json.dumps(GOOD)),
        )

    reply, batchmate = runner.run(exchange())
    json.dumps(reply)  # the reply writer can serialise it
    assert reply["ok"] is True or reply["code"] in ERROR_CODES
    assert reply.get("code") != "INTERNAL", reply

    (ok, code), query = model(line)
    if query is not None and query.deadline is not None and (
        reply.get("code") == "DEADLINE_EXCEEDED"
    ):
        pass  # a valid query whose budget ran out before admission or in flight
    else:
        assert (reply["ok"], reply.get("code")) == (ok, code), reply
    if query is not None and reply["ok"]:
        assert_reference_ranking(reply, query)

    assert batchmate["ok"] is True, batchmate
    assert_reference_ranking(batchmate, query_from_payload(GOOD))
