"""Each library module's `__all__` names what exists and what it defines."""

import importlib
import inspect
import pkgutil

import pytest

import qcnnlstm

# the command line and its entry point export nothing
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(qcnnlstm.__path__)
                 if m.name not in ("cli", "__main__"))


@pytest.mark.parametrize("name", LIBRARY)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"qcnnlstm.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    # a stale entry would break the star import
    exec(f"from qcnnlstm.{name} import *", {})


@pytest.mark.parametrize("name", LIBRARY)
def test_every_public_definition_is_listed(name):
    module = importlib.import_module(f"qcnnlstm.{name}")
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert [n for n in defined if n not in module.__all__] == []
