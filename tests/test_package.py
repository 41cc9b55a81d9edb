import importlib
import pkgutil

import pytest

import blockrelax

MODULES = sorted(m.name for m in pkgutil.iter_modules(blockrelax.__path__) if not m.name.startswith("_"))


def test_package_modules():
    # the parametrized test below covers every module found here
    assert MODULES == [
        "bounds", "cli", "concentration", "generate", "model", "oracle", "reductions", "solver", "storage", "sweep",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    # the benchmark's tracer looks up each module's __all__ by name, so a name
    # left behind by a deletion would break every traced run
    mod = importlib.import_module(f"blockrelax.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
