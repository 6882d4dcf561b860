"""Every boundary the benchmark's tracer wraps must exist in the program.

``perfbench/tracing.py`` wraps module functions and class methods by
name.  A renamed or moved boundary would otherwise surface only as an
``AttributeError`` in the benchmark's traced run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_traced_boundary_resolves():
    missing = []
    for name, mod_name, attr in _boundaries():
        mod = importlib.import_module(f"avrobust.{mod_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            # the tracer patches the owning class's own __dict__ entry
            owner = getattr(mod, owner_name, None)
            found = owner is not None and callable(vars(owner).get(fn_name))
        else:
            found = callable(getattr(mod, fn_name, None))
        if not found:
            missing.append(f"{name}: avrobust.{mod_name}.{attr}")
    assert not missing, f"traced boundaries that no longer resolve: {missing}"


def test_every_exported_name_resolves():
    # a stale ``__all__`` entry breaks ``from avrobust.<module> import *``
    package = importlib.import_module("avrobust")
    modules = [package] + [importlib.import_module(f"avrobust.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not stale, f"__all__ names that do not resolve: {stale}"
