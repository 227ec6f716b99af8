import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import portcap
import portcap.cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "portcap"
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """The benchmark's tracer module, executed from its source text so that
    nothing is written next to it."""
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    return tracing


def names_used_in_package() -> set[str]:
    """Every name and attribute referenced in a ``portcap`` module other than
    ``__init__``, except references inside the top-level definition of that
    same name (a recursion or a self-annotation is not a caller)."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return used


def test_all_names_resolve_once():
    names = portcap.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(portcap, name), name


def test_traced_benchmark_targets_resolve():
    # the benchmark's tracer looks functions up by name; a deleted or renamed
    # one would crash every traced run
    tracing = load_tracing()
    missing = [
        f"{module}.{func}"
        for module, func, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(f"portcap.{module}"), func)
    ]
    assert not missing
    tracer = tracing.Tracer()  # also finds cli.main and cli._verify_checks
    assert tracer.spans == []


def test_every_public_name_is_used_inside_the_package():
    # a public name that only the tests use is a test-only helper; the one
    # exception is a function that the benchmark's tracer looks up by name
    traced = {
        func
        for module, func, *_ in load_tracing().TARGETS
        if getattr(importlib.import_module(f"portcap.{module}"), func)
        is getattr(portcap, func, None)
    }
    used = names_used_in_package()
    unused = [name for name in portcap.__all__ if name not in used | traced]
    assert not unused


def test_cli_import_loads_only_numpy_among_optional_packages():
    # numpy is the only runtime dependency, and import time is part of every
    # CLI call; scipy, mpmath and hypothesis may be installed but must stay
    # unloaded
    code = (
        "import sys, portcap.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} "
        "& {'scipy', 'mpmath', 'hypothesis'}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
