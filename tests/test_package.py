import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import portcap
import portcap.cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_all_names_resolve_once():
    names = portcap.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(portcap, name), name


def test_traced_benchmark_targets_resolve():
    # the benchmark's tracer looks functions up by name; a deleted or renamed
    # one would crash every traced run.  Executed from source, so nothing is
    # written next to it.
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    missing = [
        f"{module}.{func}"
        for module, func, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(f"portcap.{module}"), func)
    ]
    assert not missing
    tracer = tracing.Tracer()  # also finds cli.main and cli._verify_checks
    assert tracer.spans == []


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
