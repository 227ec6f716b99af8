import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import portcap
import portcap.cli
from portcap import EvalResult, GaussBoundTerms, LimitClass, ProtocolParams, ScalingSpec
from portcap.cli import LimitRecord, OutputRecord

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


def private_reads_across_modules() -> list[str]:
    """Every read, in a ``portcap`` module, of an underscore name of another
    ``portcap`` module: ``from .m import _x``, or ``m._x`` for a module ``m``
    bound by ``from . import m``.  Dunder names are not counted."""

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            inside = node.level > 0 or (node.module or "").split(".")[0] == "portcap"
            if inside and node.module in (None, "portcap"):
                modules |= {alias.asname or alias.name for alias in node.names}
            elif inside:
                found += [f"{path.name}: from {node.module} import {alias.name}"
                          for alias in node.names if private(alias.name)]
        found += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and private(node.attr)
        ]
    return found


def test_no_module_reads_another_modules_private_names():
    # an underscore name is its module's own: a format or helper that two
    # modules must know belongs behind one of them
    assert private_reads_across_modules() == []


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


# blocks: the spins 2s = 0, 2, ..., 36 of 36 qubits; the 12 partitions of 9
# into at most 3 parts
@pytest.mark.parametrize(
    ("name", "args", "blocks"),
    [("fidelity_qubit", (40, 4, "exact"), 19), ("fidelity_exact", (12, 3, 3), 12)],
)
def test_tracer_records_one_radical_sum_span_per_block(name, args, blocks):
    # the benchmark counts radical-sum calls and reads each one's live terms
    # from its first argument and its exact flag from index 1 of its result
    from portcap import performance

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        getattr(performance, name)(*args)
    finally:
        tracer.uninstall()
    top = [i for i, span in enumerate(tracer.spans) if span[0] == f"performance.{name}"]
    radical = [span for span in tracer.spans if span[0] == "exactmath.square_of_radical_sum"]
    assert len(top) == 1 and len(radical) == blocks
    for _, _, _, parent, note in radical:
        assert parent == top[0]
        assert type(note) is tuple and [type(v) for v in note] == [int, bool]


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


def run_python(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter that imports ``portcap``
    from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_numpy_and_optional_packages_unloaded():
    # import time is part of every CLI call: numpy loads only in the functions
    # that build arrays, and scipy, mpmath and hypothesis may be installed but
    # must stay unloaded; the record types are NamedTuples, so dataclasses
    # and the inspect it pulls in stay unloaded, and json loads only for
    # --format json
    code = (
        "import sys, portcap.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} "
        "& {'numpy', 'scipy', 'mpmath', 'hypothesis', 'dataclasses', 'inspect', 'json'}))"
    )
    assert run_python(code).strip() == "[]"


def test_cli_import_loads_every_traced_module():
    # the benchmark's Tracer reads each traced module from sys.modules as soon
    # as it is built, so making a whole module lazy would crash every traced run
    wanted = {f"portcap.{module}" for module, *_ in load_tracing().TARGETS} | {"portcap.cli"}
    code = "import sys, portcap.cli; print(*sorted(m for m in sys.modules if m.startswith('portcap')))"
    assert wanted <= set(run_python(code).split())


@pytest.mark.parametrize(
    ("command", "loads_numpy"),
    [
        ("psucc --N 10 --k 2", False),
        ("fidelity --method exact --N 24 --k 4 --d 4", False),
        ("psucc --scheme mpbt --N 30 --k 6 --d 4", False),
        ("compare --k-list 4 --N-range 8:40:4", False),
        # the qubit log kernels and the dense oracle do load it, which shows
        # that the probe sees numpy when it is there
        ("fidelity --method qubit --arith log --N 1000 --k 10", True),
        ("verify --max-dim 8", True),
    ],
)
def test_numpy_loads_only_where_an_array_is_built(command, loads_numpy):
    code = (
        "import sys, portcap.cli; "
        f"code = portcap.cli.main({command.split()!r}); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert run_python(code).splitlines()[-1] == f"0 {loads_numpy}"


# ------------------------------------------------------------ record types --

RECORDS = [
    (ProtocolParams(4, 2, 3), "k"),
    (EvalResult(0.5, None, "angular-momentum", "exact", 0.0), "value"),
    (GaussBoundTerms(0.25, 0.0, 0.0, 0.0, 0.0), "delta"),
    (ScalingSpec(1.0, 0.5), "alpha"),
    (LimitClass.critical(0.5), "kind"),
    (OutputRecord("mpbt", 10, 2, 2, "psucc", "0.5", "1/2", "exact"), "value"),
    (LimitRecord("mpbt", 10, 2, 2, "psucc", "0.5", None, "scaling", "critical", "0.5"),
     "limit_value"),
]
RECORD_IDS = [type(rec).__name__ for rec, _ in RECORDS]


@pytest.mark.parametrize(("rec", "field"), RECORDS, ids=RECORD_IDS)
def test_records_are_immutable(rec, field):
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize(("rec", "field"), RECORDS, ids=RECORD_IDS)
def test_records_equal_the_tuple_of_their_fields(rec, field):
    assert rec == tuple(getattr(rec, name) for name in rec._fields)
    assert field in rec._fields


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"N": 0, "k": 1, "d": 2}, "N must be >= 1, got 0"),
        ({"N": 3, "k": 0, "d": 2}, "k must satisfy 1 <= k <= N=3, got 0"),
        ({"N": 3, "k": 4, "d": 2}, "k must satisfy 1 <= k <= N=3, got 4"),
        ({"N": 3, "k": 1, "d": 1}, "d must be >= 2, got 1"),
    ],
)
def test_protocol_params_validate_by_keyword_and_by_position(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ProtocolParams(**fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        ProtocolParams(*fields.values())


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"a": 0.0, "alpha": 0.5}, "a must be positive and finite, got 0.0"),
        ({"a": 1.0, "alpha": float("inf")}, "alpha must be positive and finite, got inf"),
    ],
)
def test_scaling_spec_validates_by_keyword_and_by_position(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ScalingSpec(**fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        ScalingSpec(*fields.values())
