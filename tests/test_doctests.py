"""Keep the docstring examples executable, in every module of the package."""

import doctest
import importlib
import pkgutil

import pytest

import upsilon_lab

# __main__ is left out: importing it runs the command line.
MODULES = sorted(
    f"upsilon_lab.{info.name}"
    for info in pkgutil.iter_modules(upsilon_lab.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
