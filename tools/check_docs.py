#!/usr/bin/env python
"""Documentation checker: links must resolve, snippets must parse.

Run from the repository root (CI does)::

    python tools/check_docs.py

Checks, over ``README.md`` and every ``docs/*.md``:

* **relative links** — every ``[text](path)`` that is not an external URL
  or a pure anchor must point at an existing file or directory (anchors on
  existing files are accepted; anchor targets themselves are not checked);
* **python snippets** — every fenced ```` ```python ```` block must
  compile (syntax only, nothing is executed);
* **json snippets** — every fenced ```` ```json ```` block must parse.
* **dotted names** — every inline-code span that starts with a dotted
  ``repro.…`` name (`` `repro.core.batch.split_cache_key(...)` `` checks
  ``repro.core.batch.split_cache_key``) must import as a module or resolve
  as an attribute of one, so no document names a deleted symbol.

Exit status is the number of problems found, capped at 1, so the script
slots directly into a CI step.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: [text](target) — excluding images and external/anchor-only targets.
LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
#: Opening fence: the language is the first word of the info string
#: (` ```python title="x" ` still opens a python block).
FENCE = re.compile(r"^```(\S*)")
#: The dotted ``repro.…`` name an inline-code span starts with.
DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def _display(path: Path) -> str:
    """Repo-relative rendering of *path* (verbatim when outside the repo)."""
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


def iter_documents() -> list[Path]:
    documents = [ROOT / "README.md"]
    documents.extend(sorted((ROOT / "docs").glob("*.md")))
    return [path for path in documents if path.exists()]


def check_links(path: Path, text: str, problems: list[str]) -> None:
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            problems.append(f"{_display(path)}: broken link -> {target}")


def iter_fenced_blocks(text: str):
    """Yield (language, first line number, block source) per fenced block."""
    language = None
    block: list[str] = []
    start = 0
    for number, line in enumerate(text.splitlines(), start=1):
        if language is None:
            fence = FENCE.match(line)
            if fence:
                language = fence.group(1).lower()
                block = []
                start = number + 1
        elif line.strip() == "```":
            yield language, start, "\n".join(block)
            language = None
        else:
            block.append(line)


def check_snippets(path: Path, text: str, problems: list[str]) -> None:
    for language, line, source in iter_fenced_blocks(text):
        if language == "python":
            try:
                compile(source, f"{path.name}:{line}", "exec")
            except SyntaxError as exc:
                problems.append(
                    f"{_display(path)}:{line}: python snippet does not parse: {exc.msg}"
                )
        elif language == "json":
            try:
                json.loads(source)
            except json.JSONDecodeError as exc:
                problems.append(
                    f"{_display(path)}:{line}: json snippet does not parse: {exc}"
                )


def resolves(name: str) -> bool:
    """Whether dotted *name* is an importable module or an attribute of one."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        for attribute in parts[end:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_names(path: Path, text: str, problems: list[str]) -> None:
    for match in DOTTED_NAME.finditer(text):
        name = match.group(1)
        if not resolves(name):
            line = text.count("\n", 0, match.start()) + 1
            problems.append(f"{_display(path)}:{line}: `{name}` does not resolve")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    problems: list[str] = []
    documents = iter_documents()
    for path in documents:
        text = path.read_text()
        check_links(path, text, problems)
        check_snippets(path, text, problems)
        check_names(path, text, problems)
    for problem in problems:
        print(problem)
    print(f"checked {len(documents)} document(s): {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
