"""The docstring examples of the package's modules run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import quasilie

MODULES = [m.name for m in pkgutil.iter_modules(quasilie.__path__)
           if m.name != "__main__"]   # __main__ runs the CLI on import


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"quasilie.{name}"))
    assert result.failed == 0


def test_abelian_examples_are_found():
    result = doctest.testmod(importlib.import_module("quasilie.abelian"))
    assert result.attempted >= 3
