import importlib
import types
from pathlib import Path

import portcap
import portcap.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
