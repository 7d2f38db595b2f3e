"""Package surface: every public name a module declares exists."""

import importlib
import pathlib
import pkgutil
import types

import pytest

import kesic

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(kesic.__path__, prefix="kesic.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _load_bench_spans():
    """Execute bench/spans.py from its source, writing nothing under bench/."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    module = types.ModuleType("bench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_bench_span_hooks_resolve():
    """Every method and function the benchmark's tracer wraps still exists, so a
    rename fails here and not only in a traced benchmark run."""
    spans = _load_bench_spans()
    missing = [
        f"{cls.__qualname__}.{attr}"
        for _, classes, attr in spans.METHODS
        for cls in classes
        if not callable(getattr(cls, attr, None))
    ]
    assert not missing, f"span targets missing: {missing}"
    modules = [importlib.import_module(name) for name in ["kesic", *MODULES]]
    for name, fn in spans.FUNCTIONS:
        assert callable(fn), name
        assert any(value is fn for mod in modules for value in vars(mod).values()), (
            f"{name}: no kesic module holds {fn.__qualname__}, so the tracer cannot wrap it"
        )
