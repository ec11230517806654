"""The package's public names: each listed once, beside the module that defines it.

`budget` and `errors` list theirs in `__all__`, the four lazy submodules'
are listed in the package's `_LAZY_NAMES`, and the package's `__all__` is
derived from those lists.
"""

import importlib

import pytest

import shotdp

LISTS = {"budget": shotdp.budget.__all__, "errors": shotdp.errors.__all__, **shotdp._LAZY_NAMES}


def test_each_public_name_is_listed_once():
    listed = [name for names in LISTS.values() for name in names]
    assert len(listed) == len(set(listed))
    assert shotdp.__all__ == sorted(listed)


@pytest.mark.parametrize("module", sorted(LISTS))
def test_each_name_is_defined_in_the_module_that_lists_it(module):
    defining = importlib.import_module(f"shotdp.{module}")
    assert [name for name in LISTS[module] if getattr(defining, name).__module__ != defining.__name__] == []


def test_every_exception_class_is_exported():
    """A new exception class reaches the package through `errors.__all__`."""
    classes = {name for name, value in vars(shotdp.errors).items()
               if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == "shotdp.errors"}
    assert classes == set(shotdp.errors.__all__)
