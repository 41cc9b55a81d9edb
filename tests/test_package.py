import importlib
import os
import pkgutil
import subprocess
import sys

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


def loaded_after(statement: str) -> list[str]:
    """The ``blockrelax`` modules a fresh interpreter holds after running ``statement``."""
    src = os.path.dirname(blockrelax.__path__[0])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = f"import sys; {statement}; print(*sorted(n for n in sys.modules if n.partition('.')[0] == 'blockrelax'))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_package_root_imports_no_module():
    # each name is imported from the module that defines it; the root re-exports nothing
    assert loaded_after("import blockrelax") == ["blockrelax"]


def test_cli_imports_every_module_but_main():
    # the benchmark's setup_s times this import, and each pool worker forks with its modules
    assert loaded_after("import blockrelax.cli") == ["blockrelax", *(f"blockrelax.{name}" for name in MODULES)]
