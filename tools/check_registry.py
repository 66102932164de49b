#!/usr/bin/env python
"""Method-table completeness checker: docs and the method table agree.

Run from the repository root (CI does)::

    PYTHONPATH=src python tools/check_registry.py

Parses the "Method table" section of ``docs/api.md`` (the first
backtick-quoted cell of each row is the method name) and compares it
against :data:`repro.core.engine.METHODS`, in both directions:

* every method named in the docs must be in the table — a stale doc row
  for a renamed/removed method fails the check; and
* every method of the table must be documented — adding a method without
  a doc row fails it too.

Exit status is 0 on agreement, 1 otherwise, so the script slots directly
into a CI step (and ``tests/test_engine_registry.py`` runs it as part of
the tier-1 suite).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A table row whose first cell is a backtick-quoted method name.
ROW = re.compile(r"^\|\s*`([^`]+)`")
HEADING = re.compile(r"^#{1,6}\s")
SECTION = "### Method table"


def documented_methods(text: str) -> set[str]:
    """Method names from the "Method table" section of *text*."""
    names: set[str] = set()
    in_section = False
    for line in text.splitlines():
        if line.strip() == SECTION:
            in_section = True
            continue
        if in_section and HEADING.match(line):
            break
        if in_section:
            match = ROW.match(line)
            if match:
                names.add(match.group(1))
    return names


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.engine import METHODS

    api_doc = ROOT / "docs" / "api.md"
    documented = documented_methods(api_doc.read_text())
    tabled = {spec.name for spec in METHODS}

    problems: list[str] = []
    if not documented:
        problems.append(f"{api_doc.name}: no '{SECTION}' table found")
    for name in sorted(documented - tabled):
        problems.append(f"{api_doc.name}: documents method {name!r}, which is not in the table")
    for name in sorted(tabled - documented):
        problems.append(f"method table: method {name!r} is missing from {api_doc.name}")

    for problem in problems:
        print(problem)
    print(
        f"checked {len(documented)} documented method(s) against {len(tabled)} in "
        f"METHODS: {len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
