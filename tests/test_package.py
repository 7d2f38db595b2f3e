"""Package surface: every public name a module declares exists."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import types
from collections import defaultdict

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


def test_live_transport_does_not_import_the_stdlib_http_stack():
    """The ticket API's framing is net.read_head on both ends; http.server and
    http.client (and their email-based header parser) cost more per request
    than the ticket API itself, so they must not come back unnoticed."""
    src = pathlib.Path(kesic.__file__).resolve().parents[1]
    code = (
        "import sys, kesic.net, kesic.daemon; "
        "print(' '.join(m for m in ('http.server', 'http.client', 'email.parser') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


POLICY_DEFAULTS = {
    "DEFAULT_TGT_LIFETIME",
    "DEFAULT_ST_LIFETIME",
    "DEFAULT_CLOCK_SKEW",
    "DEFAULT_IOT_TICKET_LIFETIME",
    "DEFAULT_ATTEST_TIMEOUT",
    "DEFAULT_WINDOW",
}


def test_policy_defaults_have_one_reader():
    """Each protocol default is read in provision.py only: it fills in a
    FleetSpec field, and every actor reads its policy from its config."""
    src = pathlib.Path(kesic.__file__).resolve().parent
    readers = defaultdict(set)
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.alias):  # an import reads it too
                name = node.name
            else:
                continue
            if name in POLICY_DEFAULTS:
                readers[name].add(path.relative_to(src).as_posix())
    assert readers == {name: {"provision.py"} for name in POLICY_DEFAULTS}
