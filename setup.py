"""Setuptools shim.

Kept alongside pyproject.toml for offline environments whose pip cannot
build a PEP 660 editable wheel (no ``wheel`` package): there
``python setup.py develop`` installs the package and its ``repro-serve``,
``repro-experiments`` and ``repro-loadgen`` commands.  All metadata lives
in pyproject.toml.
"""

from setuptools import setup

setup()
