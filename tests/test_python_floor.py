"""The package parses under the oldest Python that pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

import gsalg

SOURCES = sorted(Path(gsalg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    # requires-python is >= 3.10.7; feature_version rejects newer syntax
    # (except*, PEP 695 type parameters) even when a newer Python runs the tests
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
