"""Tests for the documentation checker (tools/check_docs.py)."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def check_docs():
    path = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fenced_blocks_parse_languages_and_content(check_docs):
    text = "\n".join(
        [
            "para",
            "```python",
            "x = 1",
            "```",
            "```json",
            '{"ok": true}',
            "```",
            "```",
            "plain",
            "```",
        ]
    )
    blocks = list(check_docs.iter_fenced_blocks(text))
    assert [(lang, src) for lang, _, src in blocks] == [
        ("python", "x = 1"),
        ("json", '{"ok": true}'),
        ("", "plain"),
    ]


def test_fenced_blocks_accept_info_strings(check_docs):
    # An info string beyond the language must not invert open/close state
    # for the rest of the document.
    text = "\n".join(
        [
            '```python title="example"',
            "y = 2",
            "```",
            "```json",
            "{not json",
            "```",
        ]
    )
    blocks = list(check_docs.iter_fenced_blocks(text))
    assert [lang for lang, _, _ in blocks] == ["python", "json"]
    problems = []
    check_docs.check_snippets(Path("doc.md"), text, problems)
    assert len(problems) == 1 and "json" in problems[0]


def test_broken_snippets_and_links_are_reported(check_docs, tmp_path):
    problems = []
    check_docs.check_snippets(
        Path("doc.md"), "```python\ndef broken(:\n```", problems
    )
    assert len(problems) == 1 and "python" in problems[0]

    doc = tmp_path / "doc.md"
    problems = []
    check_docs.check_links(
        doc, "[missing](nope.md) [web](https://example.com) [anchor](#x)", problems
    )
    assert len(problems) == 1 and "nope.md" in problems[0]


def test_repository_docs_are_clean(check_docs):
    assert check_docs.main() == 0


def test_dotted_names_must_resolve(check_docs):
    problems = []
    check_docs.check_names(
        Path("doc.md"),
        "Keys come from `repro.core.batch.split_cache_key(dataset, split)`.\n"
        "The `repro.service` package and `repro.ml.pairwise_distances`.",
        problems,
    )
    assert problems == []

    check_docs.check_names(
        Path("doc.md"), "intro\nsee `repro.ml.knn.KNNRegressor` for details", problems
    )
    assert problems == ["doc.md:2: `repro.ml.knn.KNNRegressor` does not resolve"]


def test_bare_class_names_must_resolve(check_docs):
    problems = []
    check_docs.check_names(
        Path("doc.md"),
        "`SplitContext` and `MachineRanking.top(3)` and `PredictionService(dataset, methods)`;\n"
        "builtins such as `ValueError` and constants such as `INVALID_JSON` pass,\n"
        "and so does prose like `Examples::` or `NNᵀ`.",
        problems,
    )
    assert problems == []

    check_docs.check_names(
        Path("doc.md"),
        "intro\nsee `MLPTranspositionPredictor` and `SplitContext.no_such_method(x)`",
        problems,
    )
    assert problems == [
        "doc.md:2: `MLPTranspositionPredictor` does not resolve",
        "doc.md:2: `SplitContext.no_such_method` does not resolve",
    ]
