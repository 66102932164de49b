"""The install metadata in ``pyproject.toml`` names real entry points.

README and ``docs/serving.md`` tell users to run ``repro-serve``,
``repro-experiments`` and ``repro-loadgen``; an install creates those
commands from ``[project.scripts]``, so each target must import and be
callable, and each must answer ``--help``.
"""

import importlib
import tomllib
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _project():
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_every_console_script_target_imports_and_is_callable(capsys):
    scripts = _project()["scripts"]
    assert set(scripts) == {"repro-serve", "repro-experiments", "repro-loadgen"}
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module_name), attr)
        assert callable(entry), name
        with pytest.raises(SystemExit) as exit_info:
            entry(["--help"])
        assert exit_info.value.code == 0, name
        assert "usage:" in capsys.readouterr().out, name


def test_metadata_matches_the_package():
    project = _project()
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    assert project["dependencies"] == ["numpy"]
    assert set(project["optional-dependencies"]["test"]) == {
        "pytest", "pytest-benchmark", "hypothesis"
    }
